// Cross-module integration tests: the receiver's accelerometer -> movement
// detector -> hint carriage -> protocol adaptation pipeline, end to end, on
// the production detector (rate::run_detector) and hint carriage
// (rate::run_trace_with_hint_protocol).
#include <gtest/gtest.h>

#include <sstream>

#include "channel/trace_generator.h"
#include "rate/hinted_runner.h"
#include "rate/rapid_sample.h"
#include "rate/sample_rate.h"
#include "rate/trace_runner.h"
#include "topo/adaptive_prober.h"
#include "topo/probing_eval.h"
#include "util/stats.h"

namespace sh {
namespace {

TEST(IntegrationTest, SensorToHintStorePipeline) {
  const auto scenario = sim::MobilityScenario::static_then_walking(8 * kSecond);
  const auto detector = rate::run_detector(scenario, 8 * kSecond, 7);
  EXPECT_FALSE(detector.value_at(4 * kSecond));
  EXPECT_TRUE(detector.value_at(8 * kSecond));
}

TEST(IntegrationTest, FullStackHintAwareRateAdaptationOnMixedTrace) {
  // The complete Chapter 3 experiment in miniature: one mobility scenario
  // drives BOTH the channel and the receiver's accelerometer; the sender's
  // HintAware adapter reacts to detector output (not ground truth) that it
  // learns only from delivered ACKs and standalone hint frames, and must
  // still beat both fixed strategies.
  util::RunningStats hint, rapid, sample;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto scenario =
        sim::MobilityScenario::static_then_walking(20 * kSecond, seed % 2 == 1);

    channel::TraceGeneratorConfig cfg;
    cfg.env = channel::Environment::kOffice;
    cfg.scenario = scenario;
    cfg.seed = 500 + seed * 13;
    cfg.snr_offset_db = static_cast<double>(seed % 3) - 1.0;
    const auto trace = channel::generate_trace(cfg);

    rate::HintedRunConfig hinted;
    hinted.run.workload = rate::Workload::kTcp;
    hinted.sensor_seed = 900 + seed;
    hint.add(rate::run_trace_with_hint_protocol(trace, scenario, hinted)
                 .run.throughput_mbps);
    rate::RapidSample rs;
    rapid.add(rate::run_trace(rs, trace, hinted.run).throughput_mbps);
    rate::SampleRateAdapter sr;
    sample.add(rate::run_trace(sr, trace, hinted.run).throughput_mbps);
  }
  EXPECT_GT(hint.mean(), rapid.mean());
  EXPECT_GT(hint.mean(), sample.mean());
}

TEST(IntegrationTest, DetectorDrivenAdaptiveProbing) {
  // Chapter 4 end to end: the movement detector's output (not ground truth)
  // drives the adaptive probing schedule over a mixed trace.
  const auto scenario = sim::MobilityScenario::static_then_walking(60 * kSecond);
  channel::TraceGeneratorConfig cfg;
  cfg.env = channel::Environment::kOffice;
  cfg.scenario = scenario;
  cfg.seed = 77;
  cfg.snr_offset_db = -2.0;
  cfg.shadow_sigma_scale = 2.6;
  const auto series =
      topo::ProbeSeries::from_trace(channel::generate_trace(cfg), 0);

  const auto detector = rate::run_detector(scenario, 60 * kSecond, 11);
  auto query = [&detector](Time t) { return detector.value_at(t); };

  topo::AdaptiveProber prober(query);
  const auto adaptive = prober.schedule(series.duration());
  const auto fast = topo::fixed_probe_schedule(series.duration(), 10.0);
  const auto slow = topo::fixed_probe_schedule(series.duration(), 1.0);

  const double adaptive_err =
      topo::series_error(topo::estimate_over_schedule(series, adaptive));
  const double slow_err =
      topo::series_error(topo::estimate_over_schedule(series, slow));

  // Accuracy comparable to always-fast at roughly half the probes; strictly
  // better than always-slow.
  EXPECT_LT(adaptive_err, slow_err);
  EXPECT_LT(static_cast<double>(adaptive.size()),
            0.7 * static_cast<double>(fast.size()));
  EXPECT_GT(adaptive.size(), slow.size());
}

TEST(IntegrationTest, TraceRoundTripPreservesExperimentResults) {
  // Saving and reloading a trace must not change protocol outcomes — the
  // property that makes trace-driven evaluation reproducible.
  channel::TraceGeneratorConfig cfg;
  cfg.env = channel::Environment::kHallway;
  cfg.scenario = sim::MobilityScenario::static_then_walking(10 * kSecond);
  cfg.seed = 321;
  const auto trace = channel::generate_trace(cfg);

  std::stringstream buffer;
  trace.save(buffer);
  const auto reloaded = channel::PacketFateTrace::load(buffer);
  ASSERT_TRUE(reloaded.has_value());

  rate::RunConfig run;
  rate::RapidSample a, b;
  const auto original = rate::run_trace(a, trace, run);
  const auto replayed = rate::run_trace(b, *reloaded, run);
  EXPECT_EQ(original.attempts, replayed.attempts);
  EXPECT_EQ(original.delivered, replayed.delivered);
  EXPECT_DOUBLE_EQ(original.throughput_mbps, replayed.throughput_mbps);
}

TEST(IntegrationTest, DetectionLatencyIsSmallFractionOfPhase) {
  // The hint-aware scheme's gains rely on detection latency (<100 ms) being
  // tiny next to mobility phases (seconds). Verify the latency end to end.
  const auto scenario = sim::MobilityScenario::static_then_walking(10 * kSecond);
  const auto detector = rate::run_detector(scenario, 10 * kSecond, 13);

  Time on_at = -1;
  for (const auto& [when, moving] : detector.transitions) {
    if (moving) {
      on_at = when;
      break;
    }
  }
  ASSERT_GE(on_at, 5 * kSecond);
  EXPECT_LE(on_at - 5 * kSecond, 150 * kMillisecond);
}

}  // namespace
}  // namespace sh
