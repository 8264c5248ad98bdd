// Tests for the fault-injection layer (src/fault).
//
// The two properties everything else leans on:
//  * determinism — every fault decision is a pure function of (plan seed,
//    stream, event index), so schedules are identical across query order,
//    re-queries, and sweep thread counts;
//  * null-config transparency — a default FaultConfig must leave every
//    wrapped component byte-identical to the unwrapped one. The golden
//    traces and sh.sweep.v1 byte-identity guarantees depend on this.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <vector>

#include "exp/sweep.h"
#include "fault/fault_clock.h"
#include "fault/fault_config.h"
#include "fault/fault_plan.h"
#include "fault/faulty_sensors.h"
#include "fault/movement_feed.h"
#include "sensors/accelerometer.h"
#include "sim/mobility.h"
#include "util/rng.h"

namespace sh::fault {
namespace {

FaultConfig all_faults_config() {
  FaultConfig cfg;
  cfg.sensor.dropout_rate = 0.3;
  cfg.sensor.stuck_rate = 0.05;
  cfg.sensor.noise_rate = 0.1;
  cfg.hint.drop_rate = 0.4;
  cfg.hint.reorder_rate = 0.15;
  cfg.hint.delay_mean = 30 * kMillisecond;
  cfg.hint.delay_jitter = 10 * kMillisecond;
  return cfg;
}

/// Every decision of the first `n` events, flattened, for schedule equality
/// comparisons.
std::vector<double> schedule_digest(const FaultPlan& plan, std::uint64_t n) {
  std::vector<double> out;
  for (std::uint64_t i = 0; i < n; ++i) {
    out.push_back(plan.sensor_report_dropped(i) ? 1.0 : 0.0);
    out.push_back(plan.sensor_stuck_begins(i) ? 1.0 : 0.0);
    out.push_back(plan.sensor_noise_begins(i) ? 1.0 : 0.0);
    out.push_back(plan.sensor_noise(i, 0));
    out.push_back(plan.hint_dropped(i) ? 1.0 : 0.0);
    out.push_back(plan.hint_reordered(i) ? 1.0 : 0.0);
    out.push_back(static_cast<double>(plan.hint_delay(i)));
  }
  return out;
}

// ---------------------------------------------------------------------------
// FaultPlan purity and determinism.

TEST(FaultPlanTest, DecisionsArePureFunctionsOfSeedStreamIndex) {
  const FaultPlan plan(all_faults_config(), 777);
  // Re-querying any decision gives the same answer...
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(plan.hint_dropped(i), plan.hint_dropped(i));
    EXPECT_EQ(plan.hint_delay(i), plan.hint_delay(i));
    EXPECT_EQ(plan.sensor_report_dropped(i), plan.sensor_report_dropped(i));
  }
  // ...and a second plan with the same (config, seed) agrees everywhere.
  const FaultPlan twin(all_faults_config(), 777);
  EXPECT_EQ(schedule_digest(plan, 500), schedule_digest(twin, 500));
}

TEST(FaultPlanTest, QueryOrderDoesNotChangeTheSchedule) {
  const FaultPlan plan(all_faults_config(), 31337);
  // Forward, backward, and shuffled-interleaved query orders must agree:
  // the plan has no internal RNG state to perturb.
  std::vector<bool> forward, backward;
  for (std::uint64_t i = 0; i < 200; ++i)
    forward.push_back(plan.hint_dropped(i));
  for (std::uint64_t i = 200; i-- > 0;)
    backward.push_back(plan.hint_dropped(i));
  std::reverse(backward.begin(), backward.end());
  EXPECT_EQ(forward, backward);
  // Interleaving queries of OTHER streams between hint_dropped queries
  // changes nothing either.
  for (std::uint64_t i = 0; i < 200; ++i) {
    (void)plan.sensor_noise(i, 2);
    EXPECT_EQ(plan.hint_dropped(i), forward[i]) << "index " << i;
  }
}

TEST(FaultPlanTest, DifferentSeedsGiveDifferentSchedules) {
  const FaultPlan a(all_faults_config(), 1);
  const FaultPlan b(all_faults_config(), 2);
  EXPECT_NE(schedule_digest(a, 500), schedule_digest(b, 500));
}

TEST(FaultPlanTest, StreamsAreIndependent) {
  // Same index, different streams: the event RNGs must not be correlated
  // copies of each other (distinct derive_seed stream constants).
  const FaultPlan plan(all_faults_config(), 99);
  int agreements = 0;
  const int n = 1000;
  for (std::uint64_t i = 0; i < n; ++i) {
    auto drop = plan.event_rng(FaultPlan::Stream::kHintDrop, i);
    auto reorder = plan.event_rng(FaultPlan::Stream::kHintReorder, i);
    if (drop.uniform() < 0.5 && reorder.uniform() < 0.5) ++agreements;
  }
  // Independent fair draws agree ~25% of the time; identical streams 50%.
  EXPECT_GT(agreements, 180);
  EXPECT_LT(agreements, 320);
}

TEST(FaultPlanTest, ZeroRatesNeverFault) {
  const FaultPlan plan(FaultConfig{}, 12345);  // null config, nonzero seed
  for (std::uint64_t i = 0; i < 1000; ++i) {
    EXPECT_FALSE(plan.sensor_report_dropped(i));
    EXPECT_FALSE(plan.sensor_stuck_begins(i));
    EXPECT_FALSE(plan.sensor_noise_begins(i));
    EXPECT_FALSE(plan.hint_dropped(i));
    EXPECT_FALSE(plan.hint_reordered(i));
    EXPECT_EQ(plan.hint_delay(i), 0);
  }
}

TEST(FaultPlanTest, RateOneAlwaysFaults) {
  FaultConfig cfg;
  cfg.sensor.dropout_rate = 1.0;
  cfg.hint.drop_rate = 1.0;
  const FaultPlan plan(cfg, 7);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    EXPECT_TRUE(plan.sensor_report_dropped(i));
    EXPECT_TRUE(plan.hint_dropped(i));
  }
}

TEST(FaultPlanTest, IntermediateRateMatchesFrequency) {
  FaultConfig cfg;
  cfg.hint.drop_rate = 0.3;
  const FaultPlan plan(cfg, 4242);
  int dropped = 0;
  const int n = 20000;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (plan.hint_dropped(i)) ++dropped;
  }
  const double freq = static_cast<double>(dropped) / n;
  EXPECT_NEAR(freq, 0.3, 0.02);
}

TEST(FaultPlanTest, SingleDrawDecisionsEqualEventRngBernoulli) {
  // The bernoulli decisions skip building the event generator; they must
  // still be exactly event_rng(stream, i).bernoulli(rate).
  using Stream = FaultPlan::Stream;
  for (const std::uint64_t seed : {0ULL, 777ULL, ~0ULL}) {
    for (const double p : {0.05, 0.3, 0.9}) {
      FaultConfig cfg;
      cfg.sensor.dropout_rate = p;
      cfg.sensor.stuck_rate = p;
      cfg.sensor.noise_rate = p;
      cfg.hint.drop_rate = p;
      cfg.hint.reorder_rate = p;
      const FaultPlan plan(cfg, seed);
      const auto ref = [&](Stream stream, std::uint64_t i) {
        return plan.event_rng(stream, i).bernoulli(p);
      };
      std::uint64_t mismatches = 0;
      for (std::uint64_t i = 0; i < 100'000; ++i) {
        mismatches +=
            (plan.sensor_report_dropped(i) != ref(Stream::kSensorDrop, i)) +
            (plan.sensor_stuck_begins(i) != ref(Stream::kSensorStuck, i)) +
            (plan.sensor_noise_begins(i) != ref(Stream::kSensorNoise, i)) +
            (plan.hint_dropped(i) != ref(Stream::kHintDrop, i)) +
            (plan.hint_reordered(i) != ref(Stream::kHintReorder, i));
      }
      EXPECT_EQ(mismatches, 0U) << "seed " << seed << ", rate " << p;
    }
  }
}

TEST(FaultPlanTest, DelayStaysWithinJitterBounds) {
  FaultConfig cfg;
  cfg.hint.delay_mean = 100 * kMillisecond;
  cfg.hint.delay_jitter = 40 * kMillisecond;
  const FaultPlan plan(cfg, 5);
  for (std::uint64_t i = 0; i < 2000; ++i) {
    const Duration d = plan.hint_delay(i);
    EXPECT_GE(d, 60 * kMillisecond);
    EXPECT_LE(d, 140 * kMillisecond);
  }
}

// ---------------------------------------------------------------------------
// FaultClock.

TEST(FaultClockTest, NullConfigIsIdentity) {
  const FaultClock clock;
  EXPECT_EQ(clock.skewed(0), 0);
  EXPECT_EQ(clock.skewed(123456789), 123456789);
}

TEST(FaultClockTest, OffsetAndDriftAreAffine) {
  ClockSkewConfig cfg;
  cfg.offset = 50 * kMillisecond;
  cfg.drift_ppm = 100.0;  // 100 us per second
  const FaultClock clock(cfg);
  EXPECT_EQ(clock.skewed(0), 50 * kMillisecond);
  // At t = 10 s: offset + 10 * 100 us of drift.
  EXPECT_EQ(clock.skewed(10 * kSecond), 10 * kSecond + 50 * kMillisecond + 1000);
}

// ---------------------------------------------------------------------------
// FaultyAccelerometer.

sensors::AccelerometerSim clean_accel(std::uint64_t seed) {
  return sensors::AccelerometerSim(
      sim::MobilityScenario::all_walking(2 * kSecond), util::Rng(seed));
}

TEST(FaultyAccelerometerTest, NullConfigStreamIsByteIdentical) {
  auto plain = clean_accel(11);
  FaultyAccelerometer faulty(clean_accel(11), FaultPlan(FaultConfig{}, 999));
  for (int i = 0; i < 1000; ++i) {
    const auto a = plain.next();
    const auto b = faulty.next();
    ASSERT_TRUE(b.has_value());
    ASSERT_EQ(a.timestamp, b->timestamp);
    ASSERT_EQ(a.x, b->x);
    ASSERT_EQ(a.y, b->y);
    ASSERT_EQ(a.z, b->z);
  }
  EXPECT_EQ(faulty.dropped(), 0U);
  EXPECT_EQ(faulty.stuck(), 0U);
  EXPECT_EQ(faulty.noisy(), 0U);
}

TEST(FaultyAccelerometerTest, DropoutLosesReportsButTimeAdvances) {
  FaultConfig cfg;
  cfg.sensor.dropout_rate = 0.5;
  FaultyAccelerometer accel(clean_accel(3), FaultPlan(cfg, 21));
  int present = 0;
  for (int i = 0; i < 1000; ++i) {
    if (accel.next().has_value()) ++present;
  }
  EXPECT_EQ(accel.reports(), 1000U);
  EXPECT_EQ(accel.dropped(), 1000U - static_cast<std::uint64_t>(present));
  EXPECT_NEAR(present, 500, 60);
  EXPECT_EQ(accel.now(), 1000 * 2 * kMillisecond);  // clock unaffected
}

TEST(FaultyAccelerometerTest, TotalDropoutYieldsNothing) {
  FaultConfig cfg;
  cfg.sensor.dropout_rate = 1.0;
  FaultyAccelerometer accel(clean_accel(3), FaultPlan(cfg, 21));
  for (int i = 0; i < 500; ++i) EXPECT_FALSE(accel.next().has_value());
  EXPECT_EQ(accel.dropped(), 500U);
}

TEST(FaultyAccelerometerTest, StuckEpisodeFreezesValuesNotTimestamps) {
  FaultConfig cfg;
  cfg.sensor.stuck_rate = 1.0;  // every report begins/extends an episode
  cfg.sensor.stuck_duration = 100 * kMillisecond;
  FaultyAccelerometer accel(clean_accel(5), FaultPlan(cfg, 8));
  const auto first = accel.next();
  ASSERT_TRUE(first.has_value());
  for (int i = 0; i < 200; ++i) {
    const auto r = accel.next();
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->x, first->x);
    EXPECT_EQ(r->y, first->y);
    EXPECT_EQ(r->z, first->z);
    EXPECT_GT(r->timestamp, first->timestamp);
  }
  EXPECT_EQ(accel.stuck(), 200U);
}

TEST(FaultyAccelerometerTest, NoiseBurstPerturbsTheCleanStream) {
  FaultConfig cfg;
  cfg.sensor.noise_rate = 1.0;
  cfg.sensor.noise_sigma = 10.0;
  auto plain = clean_accel(13);
  FaultyAccelerometer faulty(clean_accel(13), FaultPlan(cfg, 77));
  int perturbed = 0;
  for (int i = 0; i < 300; ++i) {
    const auto a = plain.next();
    const auto b = faulty.next();
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(a.timestamp, b->timestamp);
    if (a.x != b->x || a.y != b->y || a.z != b->z) ++perturbed;
  }
  // The first report starts a burst; every report restarts one.
  EXPECT_GT(perturbed, 290);
  EXPECT_GT(faulty.noisy(), 290U);
}

// ---------------------------------------------------------------------------
// MovementFeed.

TEST(MovementFeedTest, NullPlanTracksTruthWithLatency) {
  MovementFeed::Params params;
  params.max_age = 0;  // watermark disabled
  MovementFeed feed([](Time t) { return t >= 5 * kSecond; },
                    FaultPlan(FaultConfig{}, 1), params);
  EXPECT_EQ(feed.query(4 * kSecond), std::optional<bool>(false));
  // Truth flips at 5 s; with 150 ms latency the feed knows by 5.25 s.
  EXPECT_EQ(feed.query(5 * kSecond + params.latency + params.update_interval),
            std::optional<bool>(true));
}

TEST(MovementFeedTest, TotalDropoutNeverAnswers) {
  FaultConfig cfg;
  cfg.hint.drop_rate = 1.0;
  MovementFeed feed([](Time) { return true; }, FaultPlan(cfg, 2), {});
  for (Time t = 0; t < 10 * kSecond; t += 250 * kMillisecond) {
    EXPECT_EQ(feed.query(t), std::nullopt) << "t=" << t;
  }
  EXPECT_GT(feed.updates_dropped(), 0U);
  EXPECT_EQ(feed.updates_dropped(), feed.updates());
}

TEST(MovementFeedTest, ExcessStalenessExpiresEveryHint) {
  FaultConfig cfg;
  cfg.hint.extra_staleness = 5 * kSecond;  // older than the 2 s max_age
  MovementFeed feed([](Time) { return true; }, FaultPlan(cfg, 3), {});
  for (Time t = 0; t < 5 * kSecond; t += 500 * kMillisecond) {
    EXPECT_EQ(feed.query(t), std::nullopt) << "t=" << t;
  }
}

TEST(MovementFeedTest, RecoversWhenWithinMaxAge) {
  // 50% dropout: updates arrive often enough (every 100 ms) that the 2 s
  // watermark practically never expires, so the feed keeps answering.
  FaultConfig cfg;
  cfg.hint.drop_rate = 0.5;
  MovementFeed feed([](Time) { return true; }, FaultPlan(cfg, 4), {});
  int answered = 0;
  int total = 0;
  for (Time t = kSecond; t < 20 * kSecond; t += 100 * kMillisecond) {
    ++total;
    if (feed.query(t).has_value()) ++answered;
  }
  EXPECT_GT(answered, total * 9 / 10);
}

// ---------------------------------------------------------------------------
// Sweep integration: fault schedules are thread-count invariant.

TEST(FaultSweepTest, RunContextFaultSeedIsDerivedFromRunSeed) {
  exp::SweepRunner runner({"fault_seed_check", 42, 1});
  std::vector<exp::SweepPoint> points(1);
  points[0].label = "p";
  points[0].repetitions = 4;
  const auto result =
      runner.run(points, [](const exp::SweepPoint&, const exp::RunContext& ctx) {
        exp::MetricSample s;
        const auto expected =
            util::Rng::derive_seed(ctx.seed, exp::kFaultSeedStream);
        s.set("matches", ctx.fault_seed == expected ? 1.0 : 0.0);
        return s;
      });
  EXPECT_EQ(result.summary("p", "matches").mean, 1.0);
}

TEST(FaultSweepTest, FaultScheduleJsonIdenticalAcrossThreadCounts) {
  // Each repetition digests its own fault schedule into a metric; if any
  // thread count changed any fault decision anywhere, the aggregated JSON
  // would differ.
  const auto run_at = [](int threads) {
    exp::SweepRunner runner({"fault_threads", 2024, threads});
    std::vector<exp::SweepPoint> points(3);
    for (std::size_t p = 0; p < points.size(); ++p) {
      points[p].label = "point" + std::to_string(p);
      points[p].repetitions = 5;
    }
    return runner
        .run(points,
             [](const exp::SweepPoint&, const exp::RunContext& ctx) {
               FaultConfig cfg = all_faults_config();
               const FaultPlan plan(cfg, ctx.fault_seed);
               double digest = 0.0;
               for (std::uint64_t i = 0; i < 200; ++i) {
                 digest += plan.hint_dropped(i) ? 1.0 : 0.5;
                 digest += static_cast<double>(plan.hint_delay(i)) * 1e-6;
                 digest += plan.sensor_noise(i, i % 3) * 1e-3;
               }
               exp::MetricSample s;
               s.set("digest", digest);
               return s;
             })
        .to_json();
  };
  const std::string at1 = run_at(1);
  EXPECT_EQ(at1, run_at(2));
  EXPECT_EQ(at1, run_at(8));
}

// ---------------------------------------------------------------------------
// Config plumbing.

TEST(FaultConfigTest, NullConfigEmitsNoParams) {
  EXPECT_TRUE(FaultConfig{}.is_null());
  EXPECT_TRUE(fault_params(FaultConfig{}).empty());
}

TEST(FaultConfigTest, SetFieldRoundTripsThroughParams) {
  FaultConfig cfg;
  EXPECT_TRUE(set_fault_field(cfg, "sensor_dropout_rate", 0.25));
  EXPECT_TRUE(set_fault_field(cfg, "hint_drop_rate", 0.5));
  EXPECT_TRUE(set_fault_field(cfg, "hint_staleness_ms", 1500));
  EXPECT_TRUE(set_fault_field(cfg, "clock_offset_ms", 20));
  EXPECT_FALSE(set_fault_field(cfg, "no_such_knob", 1.0));
  EXPECT_FALSE(cfg.is_null());
  EXPECT_EQ(cfg.sensor.dropout_rate, 0.25);
  EXPECT_EQ(cfg.hint.drop_rate, 0.5);
  EXPECT_EQ(cfg.hint.extra_staleness, 1500 * kMillisecond);
  EXPECT_EQ(cfg.clock.offset, 20 * kMillisecond);

  const auto params = fault_params(cfg);
  ASSERT_EQ(params.size(), 4U);
  EXPECT_EQ(params[0].first, "sensor_dropout_rate");
  EXPECT_EQ(params[0].second, "0.25");
  EXPECT_EQ(params[1].first, "hint_drop_rate");
  EXPECT_EQ(params[2].first, "hint_staleness_ms");
  EXPECT_EQ(params[3].first, "clock_offset_ms");
}

TEST(FaultConfigTest, ParamsNameEveryFieldThatDiffersFromDefault) {
  // Two configs that run differently must never share params: the reorder
  // hold changes results, so it has to reach the JSON and the config hash.
  FaultConfig short_hold;
  ASSERT_TRUE(set_fault_field(short_hold, "hint_reorder_rate", 0.9));
  FaultConfig long_hold = short_hold;
  ASSERT_TRUE(set_fault_field(short_hold, "hint_reorder_hold_ms", 100));
  ASSERT_TRUE(set_fault_field(long_hold, "hint_reorder_hold_ms", 3000));
  EXPECT_NE(fault_params(short_hold), fault_params(long_hold));
  const auto params = fault_params(long_hold);
  ASSERT_EQ(params.size(), 2U);
  EXPECT_EQ(params[1].first, "hint_reorder_hold_ms");
  EXPECT_EQ(params[1].second, "3000");

  // A duration set back to its default emits nothing.
  FaultConfig at_default;
  ASSERT_TRUE(set_fault_field(at_default, "sensor_stuck_ms", 200));
  ASSERT_TRUE(set_fault_field(at_default, "sensor_noise_sigma", 4));
  EXPECT_TRUE(fault_params(at_default).empty());

  FaultConfig every;
  for (const char* key :
       {"sensor_dropout_rate", "sensor_stuck_rate", "sensor_stuck_ms",
        "sensor_noise_rate", "sensor_noise_ms", "sensor_noise_sigma",
        "hint_drop_rate", "hint_reorder_rate", "hint_reorder_hold_ms",
        "hint_delay_ms", "hint_jitter_ms", "hint_staleness_ms",
        "clock_offset_ms", "clock_drift_ppm"}) {
    EXPECT_TRUE(set_fault_field(every, key, 0.5)) << key;
  }
  EXPECT_EQ(fault_params(every).size(), 14U);
}

TEST(FaultConfigTest, DuplicateRateIsNoLongerAField) {
  FaultConfig cfg;
  EXPECT_FALSE(set_fault_field(cfg, "hint_duplicate_rate", 0.1));
  EXPECT_TRUE(cfg.is_null());
}

TEST(FaultConfigTest, ValuesThatMeanNothingAreRejected) {
  FaultConfig cfg;
  EXPECT_THROW(set_fault_field(cfg, "hint_drop_rate", -3), std::out_of_range);
  EXPECT_THROW(set_fault_field(cfg, "hint_drop_rate", 7), std::out_of_range);
  EXPECT_THROW(set_fault_field(cfg, "sensor_dropout_rate", 1.5),
               std::out_of_range);
  EXPECT_THROW(set_fault_field(cfg, "hint_delay_ms", -500), std::out_of_range);
  EXPECT_THROW(set_fault_field(cfg, "sensor_noise_sigma", -1),
               std::out_of_range);
  EXPECT_THROW(set_fault_field(cfg, "sensor_stuck_rate", std::nan("")),
               std::out_of_range);
  EXPECT_TRUE(cfg.is_null());
  EXPECT_TRUE(fault_params(cfg).empty());

  // The bounds themselves are valid, and clock skew stays signed.
  EXPECT_TRUE(set_fault_field(cfg, "hint_drop_rate", 1.0));
  EXPECT_TRUE(set_fault_field(cfg, "sensor_dropout_rate", 0.0));
  EXPECT_TRUE(set_fault_field(cfg, "hint_staleness_ms", 0));
  EXPECT_TRUE(set_fault_field(cfg, "clock_offset_ms", -20));
  EXPECT_TRUE(set_fault_field(cfg, "clock_drift_ppm", -50));
  EXPECT_EQ(cfg.clock.offset, -20 * kMillisecond);
  EXPECT_EQ(cfg.clock.drift_ppm, -50.0);
}

}  // namespace
}  // namespace sh::fault
