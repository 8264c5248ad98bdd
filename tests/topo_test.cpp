// Tests for topology maintenance: probe series, probing-rate evaluation,
// adaptive probing schedules.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "channel/trace_generator.h"
#include "topo/adaptive_prober.h"
#include "topo/probe_series.h"
#include "topo/probing_eval.h"
#include "util/stats.h"

namespace sh::topo {
namespace {

ProbeSeries constant_series(std::size_t count, bool fate,
                            Duration interval = 5 * kMillisecond) {
  return ProbeSeries(interval, std::vector<bool>(count, fate),
                     std::vector<bool>(count, false));
}

// Paper-style topo trace: marginal 6M link with strong walking shadowing.
channel::PacketFateTrace topo_trace(bool mobile, std::uint64_t seed,
                                    Duration duration = 120 * kSecond) {
  channel::TraceGeneratorConfig cfg;
  cfg.env = channel::Environment::kOffice;
  cfg.scenario = mobile ? sim::MobilityScenario::all_walking(duration)
                        : sim::MobilityScenario::all_static(duration);
  cfg.seed = seed;
  cfg.snr_offset_db = -2.0;
  cfg.shadow_sigma_scale = 2.6;
  return channel::generate_trace(cfg);
}

// ---------------------------------------------------------------------------
// ProbeSeries

TEST(ProbeSeriesTest, FromTraceExtractsRateColumn) {
  channel::PacketFateTrace trace;
  for (int i = 0; i < 4; ++i) {
    channel::TraceSlot slot;
    slot.fate_mask = (i % 2 == 0) ? 0b1 : 0;
    slot.moving = (i >= 2);
    trace.push_back(slot);
  }
  const auto series = ProbeSeries::from_trace(trace, 0);
  ASSERT_EQ(series.size(), 4U);
  EXPECT_TRUE(series.fate(0));
  EXPECT_FALSE(series.fate(1));
  EXPECT_FALSE(series.moving(0));
  EXPECT_TRUE(series.moving(3));
  EXPECT_EQ(series.duration(), 20 * kMillisecond);
}

TEST(ProbeSeriesTest, IndexAtClampsAndMaps) {
  const auto series = constant_series(10, true);
  EXPECT_EQ(series.index_at(0), 0U);
  EXPECT_EQ(series.index_at(7 * kMillisecond), 1U);
  EXPECT_EQ(series.index_at(kSecond), 9U);
}

TEST(ProbeSeriesTest, ActualProbabilityWindowed) {
  std::vector<bool> fates = {true, true, false, false, true,
                             true, true, true,  true,  true};
  ProbeSeries series(5 * kMillisecond, fates,
                     std::vector<bool>(fates.size(), false));
  EXPECT_DOUBLE_EQ(series.actual_probability(9, 10), 0.8);
  EXPECT_DOUBLE_EQ(series.actual_probability(4, 5), 0.6);
}

TEST(ProbeSeriesTest, FromTraceRejectsInvalidRate) {
  // The rate indexes the 8-entry delivered array of every slot.
  channel::PacketFateTrace trace;
  trace.push_back(channel::TraceSlot{});
  EXPECT_THROW(ProbeSeries::from_trace(trace, -1), std::invalid_argument);
  EXPECT_THROW(ProbeSeries::from_trace(trace, mac::kNumRates),
               std::invalid_argument);
  EXPECT_NO_THROW(ProbeSeries::from_trace(trace, mac::kNumRates - 1));
}

TEST(ProbeSeriesTest, ActualProbabilityRejectsWindowsOutsideTheSeries) {
  const auto series = constant_series(10, true);
  EXPECT_THROW(series.actual_probability(9, 0), std::invalid_argument);
  EXPECT_THROW(series.actual_probability(9, -1), std::invalid_argument);
  EXPECT_THROW(series.actual_probability(10, 1), std::out_of_range);
  EXPECT_THROW(series.actual_probability(3, 5), std::out_of_range);
  // The edges that fit: the whole series, and a window ending at index 0.
  EXPECT_DOUBLE_EQ(series.actual_probability(9, 10), 1.0);
  EXPECT_DOUBLE_EQ(series.actual_probability(0, 1), 1.0);
}

TEST(ProbeSeriesTest, RejectsNonPositiveInterval) {
  // index_at divides by the interval.
  EXPECT_THROW(constant_series(10, true, 0), std::invalid_argument);
  EXPECT_THROW(constant_series(10, true, -5 * kMillisecond),
               std::invalid_argument);
}

TEST(ProbeSeriesTest, RejectsFatesAndMovingFlagsOfDifferentSizes) {
  EXPECT_THROW(ProbeSeries(5 * kMillisecond, std::vector<bool>(10, true),
                           std::vector<bool>(9, false)),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Probing error evaluation

TEST(ProbingEvalTest, RejectsRatesAboveOnePerMicrosecond) {
  // Above 1e6 probes/s the interval truncates to 0 and the schedule loop
  // would push probes until memory runs out.
  const auto series = constant_series(100, true);
  EXPECT_THROW(fixed_probe_schedule(kSecond, 2e6), std::invalid_argument);
  EXPECT_THROW(probing_error(series, 2e6), std::invalid_argument);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(fixed_probe_schedule(kSecond, inf), std::invalid_argument);
  // The bound itself is one probe per microsecond.
  EXPECT_EQ(fixed_probe_schedule(100, kMaxProbesPerS).size(), 100U);
}

TEST(ProbingEvalTest, RejectsNonPositiveOrNaNRate) {
  const auto series = constant_series(100, true);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double rate : {0.0, -1.0, nan}) {
    EXPECT_THROW(fixed_probe_schedule(kSecond, rate), std::invalid_argument)
        << rate;
    EXPECT_THROW(probing_error(series, rate), std::invalid_argument) << rate;
  }
}

TEST(ProbingEvalTest, RejectsNonPositiveWindow) {
  const auto series = constant_series(2000, true);
  EXPECT_THROW(probing_error(series, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(probing_error(series, 1.0, -10), std::invalid_argument);
  const auto schedule = fixed_probe_schedule(series.duration(), 1.0);
  EXPECT_THROW(estimate_over_schedule(series, schedule, 0),
               std::invalid_argument);
}

TEST(ProbingEvalTest, FixedScheduleSpacing) {
  const auto schedule = fixed_probe_schedule(10 * kSecond, 2.0);
  ASSERT_EQ(schedule.size(), 20U);
  EXPECT_EQ(schedule[0], 0);
  EXPECT_EQ(schedule[1], 500 * kMillisecond);
}

TEST(ProbingEvalTest, PerfectLinkHasZeroError) {
  const auto series = constant_series(24000, true);  // 2 minutes
  const auto error = probing_error(series, 1.0);
  EXPECT_GT(error.samples, 0U);
  EXPECT_DOUBLE_EQ(error.mean_abs_error, 0.0);
}

TEST(ProbingEvalTest, DeadLinkHasZeroError) {
  const auto series = constant_series(24000, false);
  EXPECT_DOUBLE_EQ(probing_error(series, 1.0).mean_abs_error, 0.0);
}

TEST(ProbingEvalTest, ErrorDecreasesWithProbingRateOnMobileLink) {
  const auto series = ProbeSeries::from_trace(topo_trace(true, 51), 0);
  const double slow = probing_error(series, 0.5).mean_abs_error;
  const double fast = probing_error(series, 10.0).mean_abs_error;
  EXPECT_GT(slow, fast);
}

TEST(ProbingEvalTest, MobileNeedsFarMoreProbesThanStatic) {
  // The paper's headline: ~20x more probes to reach comparable accuracy.
  util::RunningStats static_err, mobile_err;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    static_err.add(probing_error(
        ProbeSeries::from_trace(topo_trace(false, 60 + seed), 0), 0.5)
        .mean_abs_error);
    mobile_err.add(probing_error(
        ProbeSeries::from_trace(topo_trace(true, 60 + seed), 0), 0.5)
        .mean_abs_error);
  }
  EXPECT_GT(mobile_err.mean(), 2.0 * static_err.mean());
}

TEST(ProbingEvalTest, StaticLowRateErrorIsSmall) {
  util::RunningStats err;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    err.add(probing_error(
        ProbeSeries::from_trace(topo_trace(false, 70 + seed), 0), 1.0)
        .mean_abs_error);
  }
  EXPECT_LT(err.mean(), 0.12);
}

// ---------------------------------------------------------------------------
// Estimate series

TEST(EstimateSeriesTest, WarmupProducesNaNThenValues) {
  const auto series = constant_series(24000, true);
  const auto schedule = fixed_probe_schedule(series.duration(), 1.0);
  const auto est = estimate_over_schedule(series, schedule, 10, kSecond);
  ASSERT_GT(est.time_s.size(), 20U);
  EXPECT_TRUE(std::isnan(est.estimate.front()));  // window not yet full
  EXPECT_FALSE(std::isnan(est.estimate.back()));
  EXPECT_DOUBLE_EQ(est.estimate.back(), 1.0);
  EXPECT_EQ(est.probes_sent, schedule.size());
}

TEST(EstimateSeriesTest, RejectsNonPositiveSampleInterval) {
  const auto series = constant_series(2000, true);
  const auto schedule = fixed_probe_schedule(series.duration(), 1.0);
  EXPECT_THROW(estimate_over_schedule(series, schedule, 10, 0),
               std::invalid_argument);
  EXPECT_THROW(estimate_over_schedule(series, schedule, 10, -kSecond),
               std::invalid_argument);
}

TEST(EstimateSeriesTest, HighRateTracksMobileBetterThanLowRate) {
  const auto series = ProbeSeries::from_trace(topo_trace(true, 81), 0);
  const auto slow = estimate_over_schedule(
      series, fixed_probe_schedule(series.duration(), 1.0));
  const auto fast = estimate_over_schedule(
      series, fixed_probe_schedule(series.duration(), 10.0));
  EXPECT_GT(series_error(slow), series_error(fast));
}

TEST(EstimateSeriesTest, MotionFlagsComeFromGroundTruth) {
  channel::TraceGeneratorConfig cfg;
  cfg.scenario = sim::MobilityScenario::static_then_walking(20 * kSecond);
  cfg.seed = 83;
  const auto series =
      ProbeSeries::from_trace(channel::generate_trace(cfg), 0);
  const auto est = estimate_over_schedule(
      series, fixed_probe_schedule(series.duration(), 1.0));
  ASSERT_EQ(est.moving.size(), 20U);
  EXPECT_FALSE(est.moving[3]);
  EXPECT_TRUE(est.moving[15]);
}

// ---------------------------------------------------------------------------
// AdaptiveProber

TEST(AdaptiveProberTest, StaticHintYieldsSlowSchedule) {
  AdaptiveProber prober([](Time) { return false; });
  const auto schedule = prober.schedule(10 * kSecond);
  EXPECT_EQ(schedule.size(), 10U);  // 1 probe/s
}

TEST(AdaptiveProberTest, MobileHintYieldsFastSchedule) {
  AdaptiveProber prober([](Time) { return true; });
  const auto schedule = prober.schedule(10 * kSecond);
  EXPECT_EQ(schedule.size(), 100U);  // 10 probes/s
}

TEST(AdaptiveProberTest, HoldKeepsFastRateAfterStop) {
  // Moving for the first 5 s only.
  AdaptiveProber prober([](Time t) { return t < 5 * kSecond; });
  const auto schedule = prober.schedule(10 * kSecond);
  // Probes in (5 s, 6 s]: still fast due to the 1 s hold.
  int in_hold = 0, after_hold = 0;
  for (const Time t : schedule) {
    if (t > 5 * kSecond && t <= 6 * kSecond) ++in_hold;
    if (t > 6500 * kMillisecond) ++after_hold;
  }
  EXPECT_GE(in_hold, 8);
  EXPECT_LE(after_hold, 4);
}

TEST(AdaptiveProberTest, SavesProbesVersusAlwaysFast) {
  // Mixed 50/50 motion: adaptive sends roughly (10 + 1)/2 probes/s.
  AdaptiveProber prober([](Time t) { return t >= 30 * kSecond; });
  const auto adaptive = prober.schedule(60 * kSecond).size();
  const auto always_fast =
      fixed_probe_schedule(60 * kSecond, 10.0).size();
  EXPECT_LT(adaptive, always_fast * 6 / 10);
  EXPECT_GT(adaptive, 60U);
}

TEST(AdaptiveProberTest, DeadHintFeedFallsBackToStaticRate) {
  // The feed never answers: after hint_timeout the prober must settle at
  // its hint-free fallback (default: the static rate), not freeze or race.
  AdaptiveProber dead(AdaptiveProber::HintQuery{
      [](Time) { return std::optional<bool>(); }});
  AdaptiveProber static_hint([](Time) { return false; });
  const auto degraded = dead.schedule(60 * kSecond);
  const auto baseline = static_hint.schedule(60 * kSecond);
  // Never-answered feeds degrade from t=0, so the schedules are identical.
  EXPECT_EQ(degraded, baseline);
}

TEST(AdaptiveProberTest, SilenceAfterMotionDegradesAfterTimeout) {
  // Hints flow ("moving") for 5 s, then the feed dies. Within hint_timeout
  // the prober keeps the fast rate; past it, probes come at the fallback
  // interval.
  AdaptiveProber prober(AdaptiveProber::HintQuery{
      [](Time t) -> std::optional<bool> {
        if (t < 5 * kSecond) return true;
        return std::nullopt;
      }});
  const auto schedule = prober.schedule(20 * kSecond);
  int fast_probes = 0, late_probes = 0;
  for (const Time t : schedule) {
    if (t < 5 * kSecond) ++fast_probes;
    if (t >= 8 * kSecond) ++late_probes;
  }
  EXPECT_GE(fast_probes, 45);  // ~10/s while hints flow
  // Fallback regime in the final 12 s: ~1 probe/s, nowhere near 10/s.
  EXPECT_GE(late_probes, 8);
  EXPECT_LE(late_probes, 16);
}

TEST(AdaptiveProberTest, FallbackRateOverrideHonored) {
  AdaptiveProber::Params params;
  params.fallback_probes_per_s = 4.0;
  AdaptiveProber prober(
      AdaptiveProber::HintQuery{[](Time) { return std::optional<bool>(); }},
      params);
  const auto schedule = prober.schedule(10 * kSecond);
  EXPECT_EQ(schedule.size(), 40U);  // degraded from t=0 at 4 probes/s
}

TEST(AdaptiveProberTest, LegacyMovingQueryScheduleUnchangedByDegradationPath) {
  // A bool query is wrapped into an always-answering HintQuery; the
  // degradation machinery must be invisible to it.
  const auto moving = [](Time t) { return t < 5 * kSecond; };
  AdaptiveProber legacy(moving);
  AdaptiveProber wrapped(AdaptiveProber::HintQuery{
      [&moving](Time t) { return std::optional<bool>(moving(t)); }});
  EXPECT_EQ(legacy.schedule(30 * kSecond), wrapped.schedule(30 * kSecond));
}

TEST(AdaptiveProberTest, AdaptiveTracksAsWellAsFastOnMixedTrace) {
  channel::TraceGeneratorConfig cfg;
  cfg.env = channel::Environment::kOffice;
  cfg.scenario = sim::MobilityScenario::static_then_walking(60 * kSecond);
  cfg.seed = 91;
  cfg.snr_offset_db = -2.0;
  cfg.shadow_sigma_scale = 2.6;
  const auto series =
      ProbeSeries::from_trace(channel::generate_trace(cfg), 0);

  AdaptiveProber prober([&series](Time t) {
    return series.moving(series.index_at(t));
  });
  const auto adaptive_schedule = prober.schedule(series.duration());
  const auto slow_schedule = fixed_probe_schedule(series.duration(), 1.0);

  const double adaptive_error =
      series_error(estimate_over_schedule(series, adaptive_schedule));
  const double slow_error =
      series_error(estimate_over_schedule(series, slow_schedule));
  // The adaptive prober must beat always-slow while sending far fewer
  // probes than always-fast.
  EXPECT_LT(adaptive_error, slow_error);
  EXPECT_LT(adaptive_schedule.size(),
            fixed_probe_schedule(series.duration(), 10.0).size() * 7 / 10);
}

}  // namespace
}  // namespace sh::topo
