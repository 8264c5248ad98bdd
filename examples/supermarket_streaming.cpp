// The paper's motivating scenario (Chapter 1): a smartphone user in a
// supermarket who alternates between standing at product displays and
// walking between aisles, streaming over the in-store WiFi the whole time.
//
// This example runs the FULL hint pipeline — accelerometer samples feed the
// jerk detector, and the phone's movement hint reaches the sender only in
// the ACKs and standalone hint frames the channel delivers, where the
// hint-aware rate adapter consults it — and prints the detector timeline
// plus total throughput against the fixed strategies.
#include <cstdint>
#include <cstdio>

#include "channel/trace_generator.h"
#include "rate/hinted_runner.h"
#include "rate/rapid_sample.h"
#include "rate/sample_rate.h"
#include "rate/trace_runner.h"

using namespace sh;

int main() {
  std::printf("=== Supermarket streaming: browse, walk, repeat ===\n\n");

  // Shopping trip: stand at a shelf, walk to the next aisle, repeat.
  const sim::MobilityScenario shopping{{
      {12 * kSecond, sim::MotionState::kStatic, 0.0},   // reading labels
      {6 * kSecond, sim::MotionState::kWalking, 1.2},   // next aisle
      {10 * kSecond, sim::MotionState::kStatic, 0.0},   // comparing prices
      {8 * kSecond, sim::MotionState::kWalking, 1.4},   // across the store
      {14 * kSecond, sim::MotionState::kStatic, 0.0},   // the queue
  }};

  // In-store channel (office-like NLOS clutter).
  channel::TraceGeneratorConfig config;
  config.env = channel::Environment::kOffice;
  config.scenario = shopping;
  config.seed = 7;
  const auto trace = channel::generate_trace(config);

  // Receiver-side sensor stack: accelerometer -> jerk detector.
  constexpr std::uint64_t kPhoneSensorSeed = 99;
  const auto detector = rate::run_detector(
      shopping, shopping.total_duration(), kPhoneSensorSeed);
  std::printf("Movement detector on the phone:\n");
  for (const auto& [when, moving] : detector.transitions) {
    std::printf("  t = %5.2f s  ->  %s\n", to_seconds(when),
                moving ? "MOVING" : "still");
  }

  // Sender side: the hint-aware adapter learns the phone's hint from
  // delivered frames only; the fixed strategies ignore it.
  rate::HintedRunConfig hinted;
  hinted.run.workload = rate::Workload::kTcp;
  hinted.sensor_seed = kPhoneSensorSeed;
  const auto hint_result =
      rate::run_trace_with_hint_protocol(trace, shopping, hinted).run;
  rate::SampleRateAdapter sample_rate;
  rate::RapidSample rapid_sample;
  const auto sample_result = rate::run_trace(sample_rate, trace, hinted.run);
  const auto rapid_result = rate::run_trace(rapid_sample, trace, hinted.run);

  std::printf("\nStream throughput over the %0.0f s trip:\n",
              to_seconds(shopping.total_duration()));
  std::printf("  SampleRate only : %5.2f Mbps (static specialist)\n",
              sample_result.throughput_mbps);
  std::printf("  RapidSample only: %5.2f Mbps (mobile specialist)\n",
              rapid_result.throughput_mbps);
  std::printf("  Hint-aware      : %5.2f Mbps (+%.0f%% / +%.0f%%)\n",
              hint_result.throughput_mbps,
              100.0 * (hint_result.throughput_mbps /
                           sample_result.throughput_mbps - 1.0),
              100.0 * (hint_result.throughput_mbps /
                           rapid_result.throughput_mbps - 1.0));
  return 0;
}
