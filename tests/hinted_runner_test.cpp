// Tests for the full-protocol runner: the hint rides the simulated link
// (movement bit on ACKs + standalone frames), so staleness is emergent.
#include <gtest/gtest.h>

#include <bit>

#include "channel/trace_generator.h"
#include "rate/hint_aware.h"
#include "rate/hinted_runner.h"
#include "rate/rapid_sample.h"
#include "rate/sample_rate.h"
#include "util/stats.h"

namespace sh::rate {
namespace {

struct Setup {
  channel::PacketFateTrace trace;
  sim::MobilityScenario scenario;
};

Setup make_setup(std::uint64_t seed, Duration total = 20 * kSecond) {
  Setup setup;
  setup.scenario = sim::MobilityScenario::static_then_walking(total);
  channel::TraceGeneratorConfig cfg;
  cfg.env = channel::Environment::kOffice;
  cfg.scenario = setup.scenario;
  cfg.seed = seed;
  setup.trace = channel::generate_trace(cfg);
  return setup;
}

TEST(HintedRunnerTest, RunsAndDeliversTraffic) {
  const auto setup = make_setup(1);
  HintedRunConfig config;
  config.run.workload = Workload::kTcp;
  const auto result =
      run_trace_with_hint_protocol(setup.trace, setup.scenario, config);
  EXPECT_GT(result.run.delivered, 1000U);
  EXPECT_GT(result.run.throughput_mbps, 1.0);
}

TEST(HintedRunnerTest, DetectorTransitionsObserved) {
  const auto setup = make_setup(2);
  HintedRunConfig config;
  const auto result =
      run_trace_with_hint_protocol(setup.trace, setup.scenario, config);
  // One static->mobile transition in the scenario; the detector should
  // produce at least that (it may chatter once or twice around it).
  EXPECT_GE(result.detector_transitions, 1U);
  EXPECT_LE(result.detector_transitions, 8U);
}

TEST(HintedRunnerTest, EmergentHintDelayIsSmallOnBusyLink) {
  // With saturating traffic, every delivered packet's ACK refreshes the
  // hint: the emergent delay must be far below the 10 s mobility phases —
  // the property the whole architecture relies on.
  util::RunningStats delay;
  for (std::uint64_t seed = 3; seed < 8; ++seed) {
    const auto setup = make_setup(seed);
    HintedRunConfig config;
    config.run.workload = Workload::kUdp;  // saturating
    config.sensor_seed = 50 + seed;
    const auto result =
        run_trace_with_hint_protocol(setup.trace, setup.scenario, config);
    if (result.detector_transitions > 0) delay.add(result.mean_hint_delay_s);
  }
  ASSERT_GT(delay.count(), 2U);
  EXPECT_LT(delay.mean(), 0.5);
}

TEST(HintedRunnerTest, FullProtocolCompetitiveWithOracleHints) {
  // The protocol-carried hint must recover (nearly) the oracle-hint
  // performance — the gap IS the cost of the wire protocol.
  util::RunningStats wire, oracle, sample;
  for (std::uint64_t seed = 10; seed < 18; ++seed) {
    const auto setup = make_setup(seed);
    HintedRunConfig config;
    config.run.workload = Workload::kTcp;
    config.sensor_seed = 100 + seed;
    wire.add(run_trace_with_hint_protocol(setup.trace, setup.scenario, config)
                 .run.throughput_mbps);

    RunConfig oracle_run;
    oracle_run.workload = Workload::kTcp;
    HintAwareRateAdapter oracle_adapter(
        [&trace = setup.trace](Time t) {
          return trace.moving(std::max<Time>(0, t - 150 * kMillisecond));
        },
        util::Rng(42));
    oracle.add(run_trace(oracle_adapter, setup.trace, oracle_run)
                   .throughput_mbps);
    SampleRateAdapter sr;
    sample.add(run_trace(sr, setup.trace, oracle_run).throughput_mbps);
  }
  EXPECT_GT(wire.mean(), 0.9 * oracle.mean());
  // And it still beats the best fixed strategy on mixed traces.
  EXPECT_GT(wire.mean(), sample.mean());
}

TEST(HintedRunnerTest, StandaloneFramesFillTrafficGaps) {
  // TCP stalls starve the ACK channel; the standalone mechanism must carry
  // hint changes anyway. Construct the worst case deterministically: the
  // channel goes completely dark around the moment the device starts
  // moving, so no ACK can carry the new hint.
  const sim::MobilityScenario scenario =
      sim::MobilityScenario::static_then_walking(20 * kSecond);
  channel::PacketFateTrace trace;
  const std::size_t total_slots = 4000;  // 20 s of 5 ms slots
  for (std::size_t i = 0; i < total_slots; ++i) {
    channel::TraceSlot slot;
    const double t_s = static_cast<double>(i) * 0.005;
    const bool dark = t_s >= 9.5 && t_s < 13.0;
    slot.fate_mask = dark ? 0 : 0xFF;
    slot.snr_db = dark ? -10.0F : 30.0F;
    slot.moving = t_s >= 10.0;
    trace.push_back(slot);
  }
  HintedRunConfig config;
  config.run.workload = Workload::kTcp;
  const auto result = run_trace_with_hint_protocol(trace, scenario, config);
  // The detector flips at ~10 s inside the dark window; standalone hint
  // frames must have been attempted during it.
  EXPECT_GT(result.standalone_hint_frames, 0U);
}

// ---------------------------------------------------------------------------
// Fault injection through the full protocol stack.

TEST(HintedRunnerFaultTest, ZeroFaultConfigMatchesLegacyPath) {
  // A default (null) fault config must not merely be "close" to the
  // pre-fault runner — it must take the identical code path. Any drift here
  // breaks the byte-identity guarantee for every existing bench.
  const auto setup = make_setup(21);
  HintedRunConfig legacy;
  legacy.run.workload = Workload::kTcp;
  HintedRunConfig with_null_fault = legacy;
  with_null_fault.fault = fault::FaultConfig{};  // explicit null
  with_null_fault.fault_seed = 987654;           // unused while null
  const auto a =
      run_trace_with_hint_protocol(setup.trace, setup.scenario, legacy);
  const auto b = run_trace_with_hint_protocol(setup.trace, setup.scenario,
                                              with_null_fault);
  EXPECT_EQ(a.run.delivered, b.run.delivered);
  EXPECT_EQ(a.run.attempts, b.run.attempts);
  EXPECT_DOUBLE_EQ(a.run.throughput_mbps, b.run.throughput_mbps);
  EXPECT_DOUBLE_EQ(a.mean_hint_delay_s, b.mean_hint_delay_s);
  EXPECT_EQ(a.detector_transitions, b.detector_transitions);
  EXPECT_EQ(b.sensor_reports_dropped, 0U);
  EXPECT_EQ(b.hint_deliveries_dropped, 0U);
}

TEST(HintedRunnerFaultTest, TotalHintDropDegradesToSampleRateDelivery) {
  // Every hint carriage (ACK bit and standalone frame) is eaten: with a
  // sane hint_max_age the sender must fall back to SampleRate and deliver
  // within 1% of it — a dead hint path costs nothing relative to never
  // having had hints.
  for (const std::uint64_t seed : {31ULL, 32ULL, 33ULL}) {
    const auto setup = make_setup(seed);
    HintedRunConfig config;
    config.run.workload = Workload::kTcp;
    config.fault.hint.drop_rate = 1.0;
    config.fault_seed = 1000 + seed;
    config.hint_max_age = 2 * kSecond;
    const auto result =
        run_trace_with_hint_protocol(setup.trace, setup.scenario, config);
    EXPECT_GT(result.hint_deliveries_dropped, 0U);

    SampleRateAdapter baseline;
    RunConfig run;
    run.workload = Workload::kTcp;
    const auto base = run_trace(baseline, setup.trace, run);
    EXPECT_GE(result.run.throughput_mbps, 0.99 * base.throughput_mbps)
        << "seed " << seed;
  }
}

TEST(HintedRunnerFaultTest, TotalSensorDropoutStarvesDetectorGracefully) {
  // The receiver's accelerometer dies outright: the detector never sees a
  // report, so no transition is ever signalled, and with a degradation
  // watermark the sender ends up at the SampleRate baseline.
  const auto setup = make_setup(41);
  HintedRunConfig config;
  config.run.workload = Workload::kTcp;
  config.fault.sensor.dropout_rate = 1.0;
  config.fault_seed = 77;
  config.hint_max_age = 2 * kSecond;
  const auto result =
      run_trace_with_hint_protocol(setup.trace, setup.scenario, config);
  EXPECT_GT(result.sensor_reports_dropped, 0U);
  EXPECT_EQ(result.detector_transitions, 0U);

  SampleRateAdapter baseline;
  RunConfig run;
  run.workload = Workload::kTcp;
  const auto base = run_trace(baseline, setup.trace, run);
  EXPECT_GE(result.run.throughput_mbps, 0.99 * base.throughput_mbps);
}

TEST(HintedRunnerFaultTest, FaultedRunsAreDeterministic) {
  const auto setup = make_setup(51);
  HintedRunConfig config;
  config.run.workload = Workload::kUdp;
  config.fault.hint.drop_rate = 0.5;
  config.fault.sensor.dropout_rate = 0.25;
  config.fault_seed = 4242;
  config.hint_max_age = 2 * kSecond;
  const auto a =
      run_trace_with_hint_protocol(setup.trace, setup.scenario, config);
  const auto b =
      run_trace_with_hint_protocol(setup.trace, setup.scenario, config);
  EXPECT_EQ(a.run.delivered, b.run.delivered);
  EXPECT_EQ(a.sensor_reports_dropped, b.sensor_reports_dropped);
  EXPECT_EQ(a.hint_deliveries_dropped, b.hint_deliveries_dropped);
  EXPECT_DOUBLE_EQ(a.run.throughput_mbps, b.run.throughput_mbps);
}

TEST(HintedRunnerTest, DeterministicPerSeeds) {
  const auto setup = make_setup(4);
  HintedRunConfig config;
  const auto a =
      run_trace_with_hint_protocol(setup.trace, setup.scenario, config);
  const auto b =
      run_trace_with_hint_protocol(setup.trace, setup.scenario, config);
  EXPECT_EQ(a.run.delivered, b.run.delivered);
  EXPECT_DOUBLE_EQ(a.mean_hint_delay_s, b.mean_hint_delay_s);
}

// ---------------------------------------------------------------------------
// Exact-value pins of every HintedRunResult field, recorded before the
// hinted runner moved onto the shared replay loop. The trace is marginal
// enough that TCP stalls and standalone hint frames both occur.

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

struct Pinned {
  std::uint64_t attempts, delivered, duration_bits, throughput_bits,
      delivery_ratio_bits, hint_delay_bits;
  std::size_t detector_transitions, standalone_hint_frames;
  std::uint64_t sensor_reports_dropped, hint_deliveries_dropped;
};

void expect_pinned(Workload workload, bool faulty, const Pinned& want) {
  const auto scenario =
      sim::MobilityScenario::static_then_walking(10 * kSecond);
  channel::TraceGeneratorConfig cfg;
  cfg.env = channel::Environment::kOffice;
  cfg.scenario = scenario;
  cfg.seed = 2024;
  cfg.snr_offset_db = -10.0;
  const auto trace = channel::generate_trace(cfg);
  HintedRunConfig config;
  config.run.workload = workload;
  if (faulty) {
    config.fault.sensor.dropout_rate = 0.2;
    config.fault.hint.drop_rate = 0.3;
    config.fault_seed = 17;
  }
  const auto got = run_trace_with_hint_protocol(trace, scenario, config);
  EXPECT_EQ(got.run.attempts, want.attempts);
  EXPECT_EQ(got.run.delivered, want.delivered);
  EXPECT_EQ(bits(got.run.duration_s), want.duration_bits);
  EXPECT_EQ(bits(got.run.throughput_mbps), want.throughput_bits);
  EXPECT_EQ(bits(got.run.delivery_ratio), want.delivery_ratio_bits);
  EXPECT_EQ(bits(got.mean_hint_delay_s), want.hint_delay_bits);
  EXPECT_EQ(got.detector_transitions, want.detector_transitions);
  EXPECT_EQ(got.standalone_hint_frames, want.standalone_hint_frames);
  EXPECT_EQ(got.sensor_reports_dropped, want.sensor_reports_dropped);
  EXPECT_EQ(got.hint_deliveries_dropped, want.hint_deliveries_dropped);
}

TEST(HintedRunnerPinTest, UdpNullFaultValuesAreExact) {
  expect_pinned(Workload::kUdp, false,
                {2923, 2258, 0x4024000000000000ULL, 0x3ffce703afb7e910ULL,
                 0x3fe8b8455d462710ULL, 0x3f86d4c33b539325ULL, 1, 1, 0, 0});
}

TEST(HintedRunnerPinTest, TcpNullFaultValuesAreExact) {
  expect_pinned(Workload::kTcp, false,
                {1565, 1532, 0x4024000000000000ULL, 0x3ff39c0ebedfa440ULL,
                 0x3fef5342e74cb7ddULL, 0x3fd4cbfb15b573ebULL, 1, 4, 0, 0});
}

TEST(HintedRunnerPinTest, UdpFaultyValuesAreExact) {
  expect_pinned(Workload::kUdp, true,
                {2923, 2258, 0x4024000000000000ULL, 0x3ffce703afb7e910ULL,
                 0x3fe8b8455d462710ULL, 0x3f82bc2fc69728a6ULL, 1, 1, 1018,
                 680});
}

TEST(HintedRunnerPinTest, TcpFaultyValuesAreExact) {
  expect_pinned(Workload::kTcp, true,
                {1565, 1532, 0x4024000000000000ULL, 0x3ff39c0ebedfa440ULL,
                 0x3fef5342e74cb7ddULL, 0x3fd4ab367a0f9097ULL, 1, 4, 1018,
                 472});
}

}  // namespace
}  // namespace sh::rate
