// Tests for the hinted runner's detector cache: the key covers every input
// of the detector (a changed input is a miss and equals a fresh run), the
// sender-side settings are not part of it (a changed setting is a hit), and
// concurrent runs on one input compute the detector once. Also the
// standalone_after check that turns a stall-crossing hang into an exception.
#include <gtest/gtest.h>

#include <bit>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "channel/trace_generator.h"
#include "rate/hinted_runner.h"

namespace sh::rate {
namespace {

struct Input {
  channel::PacketFateTrace trace;
  sim::MobilityScenario scenario;
  HintedRunConfig config;
};

channel::PacketFateTrace make_trace(const sim::MobilityScenario& scenario) {
  channel::TraceGeneratorConfig cfg;
  cfg.env = channel::Environment::kOffice;
  cfg.scenario = scenario;
  cfg.seed = 11;
  return channel::generate_trace(cfg);
}

/// A short TCP run with every sensor fault active, so each sensor fault
/// field reaches the detector.
Input base_input() {
  Input in;
  in.scenario = sim::MobilityScenario::static_then_walking(4 * kSecond);
  in.trace = make_trace(in.scenario);
  in.config.run.workload = Workload::kTcp;
  in.config.sensor_seed = 5;
  in.config.fault_seed = 9;
  in.config.fault.sensor.dropout_rate = 0.1;
  in.config.fault.sensor.stuck_rate = 0.01;
  in.config.fault.sensor.noise_rate = 0.01;
  in.config.fault.hint.drop_rate = 0.2;
  return in;
}

HintedRunResult run(const Input& in) {
  return run_trace_with_hint_protocol(in.trace, in.scenario, in.config);
}

void expect_same(const HintedRunResult& a, const HintedRunResult& b,
                 const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.run.attempts, b.run.attempts);
  EXPECT_EQ(a.run.delivered, b.run.delivered);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.run.duration_s),
            std::bit_cast<std::uint64_t>(b.run.duration_s));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.run.throughput_mbps),
            std::bit_cast<std::uint64_t>(b.run.throughput_mbps));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.run.delivery_ratio),
            std::bit_cast<std::uint64_t>(b.run.delivery_ratio));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.mean_hint_delay_s),
            std::bit_cast<std::uint64_t>(b.mean_hint_delay_s));
  EXPECT_EQ(a.detector_transitions, b.detector_transitions);
  EXPECT_EQ(a.standalone_hint_frames, b.standalone_hint_frames);
  EXPECT_EQ(a.sensor_reports_dropped, b.sensor_reports_dropped);
  EXPECT_EQ(a.hint_deliveries_dropped, b.hint_deliveries_dropped);
}

TEST(DetectorCacheTest, EveryKeyFieldMisses) {
  using Variant = std::pair<std::string, std::function<void(Input&)>>;
  const std::vector<Variant> variants = {
      {"phase order",
       [](Input& in) {
         in.scenario = sim::MobilityScenario::static_then_walking(
             4 * kSecond, /*mobile_first=*/true);
       }},
      {"phase speed",
       [](Input& in) {
         in.scenario = sim::MobilityScenario::static_then_walking(
             4 * kSecond, false, /*speed=*/2.0);
       }},
      {"trace duration",
       [](Input& in) {
         in.trace = make_trace(
             sim::MobilityScenario::static_then_walking(3 * kSecond));
       }},
      {"sensor_seed", [](Input& in) { in.config.sensor_seed = 6; }},
      {"fault_seed", [](Input& in) { in.config.fault_seed = 10; }},
      {"dropout_rate",
       [](Input& in) { in.config.fault.sensor.dropout_rate = 0.3; }},
      {"stuck_rate",
       [](Input& in) { in.config.fault.sensor.stuck_rate = 0.05; }},
      {"stuck_duration",
       [](Input& in) {
         in.config.fault.sensor.stuck_duration = 400 * kMillisecond;
       }},
      {"noise_rate",
       [](Input& in) { in.config.fault.sensor.noise_rate = 0.05; }},
      {"noise_duration",
       [](Input& in) {
         in.config.fault.sensor.noise_duration = 300 * kMillisecond;
       }},
      {"noise_sigma",
       [](Input& in) { in.config.fault.sensor.noise_sigma = 9.0; }},
  };
  detector_cache().clear();
  (void)run(base_input());
  for (const auto& [name, vary] : variants) {
    Input in = base_input();
    vary(in);
    const auto misses = detector_cache().stats().misses;
    const auto cached = run(in);
    EXPECT_EQ(detector_cache().stats().misses, misses + 1) << name;
    detector_cache().clear();
    expect_same(cached, run(in), name);
    (void)run(base_input());  // Resident again for the next variant.
  }
}

TEST(DetectorCacheTest, SenderSideFieldsHit) {
  using Variant = std::pair<std::string, std::function<void(Input&)>>;
  const std::vector<Variant> variants = {
      {"hint_max_age",
       [](Input& in) { in.config.hint_max_age = 500 * kMillisecond; }},
      {"hint.drop_rate",
       [](Input& in) { in.config.fault.hint.drop_rate = 0.6; }},
      {"extra_staleness",
       [](Input& in) {
         in.config.fault.hint.extra_staleness = 50 * kMillisecond;
       }},
  };
  for (const auto& [name, vary] : variants) {
    detector_cache().clear();
    (void)run(base_input());
    Input in = base_input();
    vary(in);
    const auto before = detector_cache().stats();
    const auto cached = run(in);
    const auto after = detector_cache().stats();
    EXPECT_EQ(after.misses, before.misses) << name;
    EXPECT_EQ(after.hits, before.hits + 1) << name;
    detector_cache().clear();
    expect_same(cached, run(in), name);
  }
}

TEST(DetectorCacheTest, ConcurrentRunsComputeTheDetectorOnce) {
  const Input in = base_input();
  detector_cache().clear();
  constexpr int kThreads = 4;
  std::vector<HintedRunResult> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&in, &results, i] { results[i] = run(in); });
  }
  for (auto& t : threads) t.join();
  const auto stats = detector_cache().stats();
  EXPECT_EQ(stats.misses, 1U);
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kThreads - 1));
  for (int i = 1; i < kThreads; ++i) {
    expect_same(results[i], results[0], "thread " + std::to_string(i));
  }
}

// ---------------------------------------------------------------------------
// Config check at the runner's entry.

TEST(HintedRunnerConfigTest, TinyStandaloneAfterThrowsInsteadOfHanging) {
  // A TCP stall is crossed in steps of standalone_after / 2; below 2 µs
  // that step is 0 and the crossing would never end.
  Input in = base_input();
  for (const Duration after : {Duration{0}, Duration{1}}) {
    in.config.standalone_after = after;
    EXPECT_THROW(run(in), std::invalid_argument) << after;
  }
  in.config.standalone_after = 2;
  EXPECT_GT(run(in).run.attempts, 0U);
}

}  // namespace
}  // namespace sh::rate
