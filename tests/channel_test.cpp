// Tests for the channel substrate: fading, shadowing, SNR model, traces,
// generator, Gilbert-Elliott, and trace statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "channel/environment.h"
#include "channel/fading.h"
#include "gilbert_elliott.h"
#include "channel/snr_model.h"
#include "channel/trace.h"
#include "channel/trace_generator.h"
#include "channel/trace_stats.h"
#include "util/stats.h"

namespace sh::channel {
namespace {

// ---------------------------------------------------------------------------
// FadingProcess

TEST(FadingProcessTest, MeanPowerNearUnity) {
  util::Rng rng(1);
  const FadingProcess fading(rng);
  util::RunningStats power;
  for (int i = 0; i < 20000; ++i) {
    const double db = fading.gain_db(i * 0.01);
    power.add(std::pow(10.0, db / 10.0));
  }
  EXPECT_NEAR(power.mean(), 1.0, 0.15);
}

TEST(FadingProcessTest, RicianReducesVariance) {
  util::Rng rng1(2), rng2(2);
  const FadingProcess rayleigh(rng1);
  const FadingProcess rician(rng2);
  util::RunningStats ray_stats, ric_stats;
  for (int i = 0; i < 5000; ++i) {
    ray_stats.add(rayleigh.gain_db(i * 0.013, 0.0));
    ric_stats.add(rician.gain_db(i * 0.013, 10.0));
  }
  EXPECT_LT(ric_stats.stddev(), ray_stats.stddev());
}

TEST(FadingProcessTest, DeterministicGivenSeedAndTau) {
  util::Rng rng1(3), rng2(3);
  const FadingProcess a(rng1);
  const FadingProcess b(rng2);
  for (double tau = 0.0; tau < 5.0; tau += 0.37) {
    EXPECT_DOUBLE_EQ(a.gain_db(tau), b.gain_db(tau));
  }
}

TEST(FadingProcessTest, GainFlooredAtMinus40) {
  util::Rng rng(4);
  const FadingProcess fading(rng);
  for (int i = 0; i < 100000; ++i) {
    EXPECT_GE(fading.gain_db(i * 0.003), -40.0);
  }
}

TEST(FadingProcessTest, CorrelatedAtSmallTauGaps) {
  util::Rng rng(5);
  const FadingProcess fading(rng);
  // Within a tiny fraction of a Doppler cycle the gain barely changes.
  for (double tau = 0.0; tau < 3.0; tau += 0.21) {
    EXPECT_NEAR(fading.gain_db(tau), fading.gain_db(tau + 0.001), 1.5);
  }
}

// ---------------------------------------------------------------------------
// DopplerClock

TEST(DopplerClockTest, StaticScenarioAccumulatesSlowly) {
  const auto scenario = sim::MobilityScenario::all_static(10 * kSecond);
  DopplerClock clock(scenario, DopplerClock::Config{0.5, 45.0, 19.3});
  EXPECT_DOUBLE_EQ(clock.tau_at(0), 0.0);
  EXPECT_NEAR(clock.tau_at(10 * kSecond), 5.0, 1e-9);
  EXPECT_DOUBLE_EQ(clock.doppler_hz_at(5 * kSecond), 0.5);
}

TEST(DopplerClockTest, WalkingAccumulatesFaster) {
  const auto scenario = sim::MobilityScenario::all_walking(kSecond);
  DopplerClock clock(scenario, DopplerClock::Config{0.5, 45.0, 19.3});
  EXPECT_NEAR(clock.tau_at(kSecond), 45.0, 1e-9);
}

TEST(DopplerClockTest, VehicleDopplerScalesWithSpeed) {
  const auto scenario = sim::MobilityScenario::all_vehicle(kSecond, 10.0);
  DopplerClock clock(scenario, DopplerClock::Config{0.5, 45.0, 19.3});
  EXPECT_NEAR(clock.doppler_hz_at(0), 193.0, 1e-9);
}

TEST(DopplerClockTest, TauContinuousAcrossPhaseBoundary) {
  const auto scenario = sim::MobilityScenario::static_then_walking(2 * kSecond);
  DopplerClock clock(scenario, DopplerClock::Config{1.0, 45.0, 19.3});
  const double before = clock.tau_at(kSecond - 1);
  const double after = clock.tau_at(kSecond + 1);
  EXPECT_NEAR(before, after, 0.001);
  // And tau is monotone.
  double prev = 0.0;
  for (Time t = 0; t <= 2 * kSecond; t += 50 * kMillisecond) {
    const double tau = clock.tau_at(t);
    EXPECT_GE(tau, prev);
    prev = tau;
  }
}

TEST(FadingProcessTest, RejectsNonPositivePathCount) {
  // Release builds must not normalise by 1/sqrt(0) and return NaN gains.
  util::Rng rng(8);
  EXPECT_THROW(FadingProcess(rng, 0), std::invalid_argument);
  EXPECT_THROW(FadingProcess(rng, -3), std::invalid_argument);
  const FadingProcess one_path(rng, 1);
  EXPECT_TRUE(std::isfinite(one_path.gain_db(0.5)));
}

// ---------------------------------------------------------------------------
// ShadowingProcess

TEST(ShadowingProcessTest, RejectsNegativeSigmaOrNonPositivePeriod) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  util::Rng rng(9);
  EXPECT_THROW(ShadowingProcess(rng, -0.5, 8.0), std::invalid_argument);
  EXPECT_THROW(ShadowingProcess(rng, nan, 8.0), std::invalid_argument);
  EXPECT_THROW(ShadowingProcess(rng, 4.0, 0.0), std::invalid_argument);
  EXPECT_THROW(ShadowingProcess(rng, 4.0, -8.0), std::invalid_argument);
  EXPECT_THROW(ShadowingProcess(rng, 4.0, nan), std::invalid_argument);
  const ShadowingProcess flat(rng, 0.0, 8.0);
  EXPECT_EQ(flat.offset_db(3.0), 0.0);
}

TEST(ShadowingProcessTest, ZeroMeanAndTargetSigma) {
  util::Rng rng(6);
  const ShadowingProcess shadow(rng, 4.0, 8.0);
  util::RunningStats stats;
  for (double s = 0.0; s < 4000.0; s += 0.5) stats.add(shadow.offset_db(s));
  EXPECT_NEAR(stats.mean(), 0.0, 0.6);
  EXPECT_NEAR(stats.stddev(), 4.0, 1.0);
}

TEST(ShadowingProcessTest, SmoothOverSmallSteps) {
  util::Rng rng(7);
  const ShadowingProcess shadow(rng, 4.0, 8.0);
  for (double s = 0.0; s < 50.0; s += 1.0) {
    EXPECT_NEAR(shadow.offset_db(s), shadow.offset_db(s + 0.01), 0.2);
  }
}

// ---------------------------------------------------------------------------
// SNR model

TEST(SnrModelTest, MonotoneInSnr) {
  for (double snr = -5.0; snr < 30.0; snr += 0.5) {
    EXPECT_LE(delivery_probability(snr, 7), delivery_probability(snr + 0.5, 7));
  }
}

TEST(SnrModelTest, MonotoneDecreasingInRate) {
  for (mac::RateIndex r = 1; r <= mac::fastest_rate(); ++r) {
    EXPECT_LT(delivery_probability(15.0, r), delivery_probability(15.0, r - 1));
  }
}

TEST(SnrModelTest, HalfDeliveryAtThreshold) {
  for (mac::RateIndex r = mac::slowest_rate(); r <= mac::fastest_rate(); ++r) {
    EXPECT_NEAR(delivery_probability(mac::rate(r).min_snr_db, r), 0.5, 1e-9);
  }
}

TEST(SnrModelTest, LongerFramesNeedMoreSnr) {
  EXPECT_GT(delivery_probability(22.0, 7, 500),
            delivery_probability(22.0, 7, 2000));
}

TEST(SnrModelTest, ExtremesSaturate) {
  EXPECT_GT(delivery_probability(60.0, 7), 0.999);
  EXPECT_LT(delivery_probability(-20.0, 0), 0.001);
}

TEST(SnrModelTest, BestRateForHighSnrIsFastest) {
  EXPECT_EQ(best_rate_for_snr(40.0), mac::fastest_rate());
}

TEST(SnrModelTest, BestRateForTerribleSnrIsSlowest) {
  EXPECT_EQ(best_rate_for_snr(-10.0), mac::slowest_rate());
}

TEST(SnrModelTest, BestRateMonotoneInSnr) {
  mac::RateIndex prev = mac::slowest_rate();
  for (double snr = 0.0; snr <= 35.0; snr += 0.25) {
    const mac::RateIndex r = best_rate_for_snr(snr);
    EXPECT_GE(r, prev);
    prev = r;
  }
}

TEST(SnrModelTest, BestRateMeetsTarget) {
  for (double snr = 8.0; snr <= 30.0; snr += 1.0) {
    const mac::RateIndex r = best_rate_for_snr(snr, 0.9);
    if (r > mac::slowest_rate()) {
      EXPECT_GE(delivery_probability(snr, r), 0.9);
    }
  }
}

// ---------------------------------------------------------------------------
// SnrRateMap: best_rate_for_snr by comparisons, bit-identical to it.

// Every rate's cut point for (target, payload), from the logistic's closed
// form: within a few ulps of where the exact predicate flips.
std::vector<double> approximate_cuts(double target, int payload) {
  const SnrModelParams params;
  const double shift = 0.9 * std::log2(static_cast<double>(payload) /
                                       params.reference_bytes);
  std::vector<double> cuts;
  for (mac::RateIndex r = mac::slowest_rate() + 1; r <= mac::fastest_rate();
       ++r) {
    cuts.push_back(mac::rate(r).min_snr_db + shift +
                   params.transition_width_db *
                       std::log(target / (1.0 - target)));
  }
  return cuts;
}

// Checks `map` against the reference at `snr` and the `ulps` doubles on
// either side; returns the number of points checked (0 after a mismatch).
std::size_t check_around(const SnrRateMap& map, double target, int payload,
                         double snr, int ulps) {
  double below = snr;
  double above = snr;
  for (int k = 0; k <= ulps; ++k) {
    for (const double x : {below, above}) {
      if (map(x) != best_rate_for_snr(x, target, payload)) {
        ADD_FAILURE() << "snr=" << std::hexfloat << x << std::defaultfloat
                      << " target=" << target << " payload=" << payload
                      << ": map " << map(x) << ", reference "
                      << best_rate_for_snr(x, target, payload);
        return 0;
      }
    }
    below = std::nextafter(below, -HUGE_VAL);
    above = std::nextafter(above, HUGE_VAL);
  }
  return 2 * static_cast<std::size_t>(ulps) + 2;
}

const double kSpecialSnrs[] = {
    std::numeric_limits<double>::quiet_NaN(),
    -std::numeric_limits<double>::quiet_NaN(),
    std::numeric_limits<double>::infinity(),
    -std::numeric_limits<double>::infinity(),
    std::numeric_limits<double>::max(),
    std::numeric_limits<double>::lowest(),
    std::numeric_limits<double>::denorm_min(),
    0.0,
    -0.0,
    1e300,
    -1e300,
};

TEST(SnrRateMapTest, MatchesBestRateForSnrEverywhere) {
  std::size_t checked = 0;
  for (const double target : {0.5, 0.9, 0.99}) {
    for (const int payload : {200, 1000, 1500}) {
      const SnrRateMap map(target, payload);
      // A 0.0004 dB grid over [-60, 90] dB.
      for (int k = 0; k <= 375'000; ++k) {
        const double snr = -60.0 + 0.0004 * k;
        ASSERT_EQ(map(snr), best_rate_for_snr(snr, target, payload))
            << "snr=" << snr << " target=" << target << " payload=" << payload;
      }
      checked += 375'001;
      // ±5000 ulps around every cut and around both edges of its 1e-6 dB
      // guard band, where the map hands over between comparison and
      // reference.
      for (const double cut : approximate_cuts(target, payload)) {
        const double guard = 1e-6 * std::max(1.0, std::abs(cut));
        for (const double at : {cut, cut - guard, cut + guard}) {
          const std::size_t n = check_around(map, target, payload, at, 5000);
          ASSERT_GT(n, 0U);
          checked += n;
        }
      }
      for (const double snr : kSpecialSnrs) {
        EXPECT_EQ(map(snr), best_rate_for_snr(snr, target, payload))
            << "snr=" << snr << " target=" << target << " payload=" << payload;
      }
    }
  }
  EXPECT_GT(checked, 4'000'000U);
}

TEST(SnrRateMapTest, DegenerateTargetsFallBackCorrectly) {
  // Targets no SNR meets, or every SNR meets: whole rates are decided by a
  // single comparison, and the infinities by the reference.
  for (const double target :
       {0.0, -1.0, 1.0, 1.5, std::numeric_limits<double>::quiet_NaN()}) {
    const SnrRateMap map(target, 1000);
    for (int k = 0; k <= 3000; ++k) {
      const double snr = -100.0 + 0.1 * k;
      ASSERT_EQ(map(snr), best_rate_for_snr(snr, target, 1000))
          << "snr=" << snr << " target=" << target;
    }
    for (const double snr : kSpecialSnrs) {
      EXPECT_EQ(map(snr), best_rate_for_snr(snr, target, 1000))
          << "snr=" << snr << " target=" << target;
    }
  }
}

TEST(SnrRateMapTest, RejectsInvalidModel) {
  EXPECT_THROW(SnrRateMap(0.9, 0), std::invalid_argument);
  EXPECT_THROW(SnrRateMap(0.9, -1000), std::invalid_argument);
  for (const double width :
       {0.0, -0.35, std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()}) {
    SnrModelParams params;
    params.transition_width_db = width;
    EXPECT_THROW(SnrRateMap(0.9, 1000, params), std::invalid_argument)
        << "width " << width;
  }
}

// ---------------------------------------------------------------------------
// Gilbert-Elliott

TEST(GilbertElliottTest, StationaryGoodProbability) {
  GilbertElliott::Params params;
  params.p_good_to_bad = 0.1;
  params.p_bad_to_good = 0.3;
  GilbertElliott ge(util::Rng(8), params);
  EXPECT_NEAR(ge.stationary_good(), 0.75, 1e-12);
}

TEST(GilbertElliottTest, LongRunLossMatchesExpectation) {
  GilbertElliott::Params params;
  GilbertElliott ge(util::Rng(9), params);
  int losses = 0;
  constexpr int kSteps = 200000;
  for (int i = 0; i < kSteps; ++i) {
    if (!ge.step()) ++losses;
  }
  EXPECT_NEAR(static_cast<double>(losses) / kSteps, ge.expected_loss(), 0.01);
}

TEST(GilbertElliottTest, BurstyLossesAreCorrelated) {
  GilbertElliott::Params params;
  params.p_good_to_bad = 0.02;
  params.p_bad_to_good = 0.10;
  params.loss_in_good = 0.01;
  params.loss_in_bad = 0.9;
  GilbertElliott ge(util::Rng(10), params);
  std::vector<bool> fates;
  for (int i = 0; i < 100000; ++i) fates.push_back(ge.step());
  const auto lc = loss_correlation(fates, 5);
  EXPECT_GT(lc.conditional_loss[0], 2.0 * lc.unconditional_loss);
}

// ---------------------------------------------------------------------------
// PacketFateTrace

TEST(PacketFateTraceTest, SlotIndexingAndClamping) {
  PacketFateTrace trace(5 * kMillisecond);
  for (int i = 0; i < 4; ++i) {
    TraceSlot slot;
    slot.snr_db = static_cast<float>(i);
    trace.push_back(slot);
  }
  EXPECT_EQ(trace.slot_index(0), 0U);
  EXPECT_EQ(trace.slot_index(5 * kMillisecond - 1), 0U);
  EXPECT_EQ(trace.slot_index(5 * kMillisecond), 1U);
  EXPECT_EQ(trace.slot_index(1000 * kMillisecond), 3U);  // clamped
  EXPECT_EQ(trace.slot_index(-5), 0U);
  EXPECT_EQ(trace.duration(), 20 * kMillisecond);
}

TEST(PacketFateTraceTest, DeliveryRatioCountsPerRate) {
  PacketFateTrace trace;
  for (int i = 0; i < 10; ++i) {
    TraceSlot slot;
    slot.fate_mask = (i % 2 == 0) ? 0b1000'0001 : 0b1;
    trace.push_back(slot);
  }
  EXPECT_DOUBLE_EQ(trace.delivery_ratio(0), 1.0);
  EXPECT_DOUBLE_EQ(trace.delivery_ratio(7), 0.5);
  EXPECT_DOUBLE_EQ(trace.delivery_ratio(3), 0.0);
}

TEST(PacketFateTraceTest, SaveLoadRoundTrips) {
  TraceGeneratorConfig config;
  config.scenario = sim::MobilityScenario::static_then_walking(2 * kSecond);
  config.seed = 12;
  const auto trace = generate_trace(config);
  std::stringstream buffer;
  trace.save(buffer);
  const auto loaded = PacketFateTrace::load(buffer);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), trace.size());
  EXPECT_EQ(loaded->slot_duration(), trace.slot_duration());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(loaded->slot(i).fate_mask, trace.slot(i).fate_mask);
    EXPECT_FLOAT_EQ(loaded->slot(i).snr_db, trace.slot(i).snr_db);
    EXPECT_EQ(loaded->slot(i).moving, trace.slot(i).moving);
  }
}

TEST(PacketFateTraceTest, LoadRejectsGarbage) {
  std::stringstream bad("not a trace\n1 2 3\n");
  EXPECT_FALSE(PacketFateTrace::load(bad).has_value());
  std::stringstream truncated("sensorhints-trace v1\n5000 10\n1 2 0\n");
  EXPECT_FALSE(PacketFateTrace::load(truncated).has_value());
}

TEST(PacketFateTraceTest, LoadRejectsEmptyAndOversizedHeaders) {
  // Zero slots would replay as 0/0 throughput; a huge count must fail on
  // the missing slots instead of reserving memory for them.
  std::stringstream empty("sensorhints-trace v1\n5000 0\n");
  EXPECT_FALSE(PacketFateTrace::load(empty).has_value());
  std::stringstream huge("sensorhints-trace v1\n5000 99999999999999999\n"
                         "1 2 0\n");
  EXPECT_FALSE(PacketFateTrace::load(huge).has_value());
}

TEST(PacketFateTraceTest, LoadRejectsOutOfRangeFields) {
  // Each field is range-checked before it narrows into the slot: a mask
  // must fit the eight rate bits and the motion flag must be 0 or 1.
  for (const char* line : {"256 20 0", "-1 20 0", "4294967295 20 0",
                           "3 20 7", "3 20 -1", "3 20 2"}) {
    std::stringstream in(std::string("sensorhints-trace v1\n5000 1\n") +
                         line + "\n");
    EXPECT_FALSE(PacketFateTrace::load(in).has_value()) << line;
  }
}

TEST(PacketFateTraceTest, LoadRejectsDataAfterDeclaredSlots) {
  std::stringstream extra("sensorhints-trace v1\n5000 1\n3 20 0\n3 20 0\n");
  EXPECT_FALSE(PacketFateTrace::load(extra).has_value());
  std::stringstream junk("sensorhints-trace v1\n5000 1\n3 20 0 x\n");
  EXPECT_FALSE(PacketFateTrace::load(junk).has_value());
  std::stringstream blank("sensorhints-trace v1\n5000 1\n255 20 1\n \n\n");
  const auto loaded = PacketFateTrace::load(blank);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->slot(0).fate_mask, 0xFF);
  EXPECT_TRUE(loaded->slot(0).moving);
  std::stringstream no_newline("sensorhints-trace v1\n5000 1\n0 20 0");
  EXPECT_TRUE(PacketFateTrace::load(no_newline).has_value());
}

TEST(PacketFateTraceTest, FateMaskBitPerRate) {
  TraceSlot slot;
  slot.fate_mask = 0b1000'0001;
  slot.snr_db = 17.25F;
  slot.moving = true;
  for (mac::RateIndex r = 0; r < mac::kNumRates; ++r) {
    EXPECT_EQ(slot.delivered(r), r == 0 || r == 7) << "rate " << r;
  }
  PacketFateTrace trace;
  trace.push_back(slot);
  EXPECT_TRUE(trace.delivered(0, 0));
  EXPECT_FALSE(trace.delivered(0, 3));
  EXPECT_TRUE(trace.delivered(0, 7));

  std::stringstream buffer;
  trace.save(buffer);
  EXPECT_EQ(buffer.str(), "sensorhints-trace v1\n5000 1\n129 17.25 1\n");
  const auto loaded = PacketFateTrace::load(buffer);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), 1U);
  EXPECT_EQ(loaded->slot(0), slot);
}

TEST(PacketFateTraceTest, SaveLoadSaveIsByteIdentical) {
  TraceGeneratorConfig config;
  config.scenario = sim::MobilityScenario::static_then_walking(4 * kSecond);
  config.seed = 29;
  std::stringstream first;
  generate_trace(config).save(first);
  std::stringstream copy(first.str());
  const auto loaded = PacketFateTrace::load(copy);
  ASSERT_TRUE(loaded.has_value());
  std::stringstream second;
  loaded->save(second);
  EXPECT_EQ(second.str(), first.str());
}

TEST(PacketFateTraceTest, InvalidRateThrowsInEveryBuild) {
  PacketFateTrace trace;
  trace.push_back(TraceSlot{20.0F, 0xFF, false});
  for (const mac::RateIndex bad : {-1, mac::kNumRates, 32, 40}) {
    EXPECT_THROW((void)trace.delivered(0, bad), std::invalid_argument) << bad;
    EXPECT_THROW((void)trace.delivery_ratio(bad), std::invalid_argument)
        << bad;
    EXPECT_THROW((void)delivery_series(trace, bad), std::invalid_argument)
        << bad;
  }
}

// ---------------------------------------------------------------------------
// ChannelRealization / generate_trace

TEST(ChannelRealizationTest, DeterministicForSeed) {
  const auto scenario = sim::MobilityScenario::static_then_walking(4 * kSecond);
  ChannelRealization a(Environment::kOffice, scenario, 77);
  ChannelRealization b(Environment::kOffice, scenario, 77);
  for (Time t = 0; t < 4 * kSecond; t += 100 * kMillisecond) {
    EXPECT_DOUBLE_EQ(a.snr_db_at(t), b.snr_db_at(t));
  }
}

TEST(ChannelRealizationTest, DifferentSeedsDiffer) {
  const auto scenario = sim::MobilityScenario::all_static(4 * kSecond);
  ChannelRealization a(Environment::kOffice, scenario, 1);
  ChannelRealization b(Environment::kOffice, scenario, 2);
  bool any_difference = false;
  for (Time t = 0; t < 4 * kSecond; t += 100 * kMillisecond) {
    if (std::fabs(a.snr_db_at(t) - b.snr_db_at(t)) > 0.1) any_difference = true;
  }
  EXPECT_TRUE(any_difference);
}

TEST(ChannelRealizationTest, SnrOffsetShiftsMean) {
  const auto scenario = sim::MobilityScenario::all_static(4 * kSecond);
  ChannelRealization base(Environment::kOffice, scenario, 5, {}, 0.0);
  ChannelRealization shifted(Environment::kOffice, scenario, 5, {}, 6.0);
  for (Time t = 0; t < 4 * kSecond; t += 500 * kMillisecond) {
    EXPECT_NEAR(shifted.snr_db_at(t) - base.snr_db_at(t), 6.0, 1e-9);
  }
}

TEST(ChannelRealizationTest, StaticChannelIsNearlyFrozen) {
  const auto scenario = sim::MobilityScenario::all_static(10 * kSecond);
  ChannelRealization ch(Environment::kOffice, scenario, 21);
  // Compare SNR 1 second apart, away from interference bursts: drift must
  // be tiny compared to mobile variation. Sample medians to be robust to
  // the rare burst overlap.
  util::RunningStats drift;
  for (Time t = 0; t + kSecond < 10 * kSecond; t += 200 * kMillisecond) {
    drift.add(std::fabs(ch.snr_db_at(t + kSecond) - ch.snr_db_at(t)));
  }
  util::RunningStats mobile_drift;
  ChannelRealization chm(Environment::kOffice,
                         sim::MobilityScenario::all_walking(10 * kSecond), 21);
  for (Time t = 0; t + kSecond < 10 * kSecond; t += 200 * kMillisecond) {
    mobile_drift.add(std::fabs(chm.snr_db_at(t + kSecond) - chm.snr_db_at(t)));
  }
  EXPECT_LT(drift.mean() * 3.0, mobile_drift.mean());
}

TEST(ChannelRealizationTest, MobileChannelDecorrelatesWithinTens0fMs) {
  const auto scenario = sim::MobilityScenario::all_walking(5 * kSecond);
  ChannelRealization ch(Environment::kOffice, scenario, 23);
  util::RunningStats close_gap, far_gap;
  for (Time t = kSecond; t < 4 * kSecond; t += 50 * kMillisecond) {
    close_gap.add(std::fabs(ch.snr_db_at(t + kMillisecond) - ch.snr_db_at(t)));
    far_gap.add(std::fabs(ch.snr_db_at(t + 30 * kMillisecond) - ch.snr_db_at(t)));
  }
  EXPECT_LT(close_gap.mean(), far_gap.mean());
}

TEST(ChannelRealizationTest, VehicularPathLossSwingsSnr) {
  const auto scenario = sim::MobilityScenario::all_vehicle(60 * kSecond, 15.0);
  ChannelRealization ch(Environment::kVehicular, scenario, 25);
  util::RunningStats snr;
  for (Time t = 0; t < 60 * kSecond; t += 100 * kMillisecond) {
    snr.add(ch.snr_db_at(t));
  }
  // The drive-by sweeps tens of dB between closest approach and road ends.
  EXPECT_GT(snr.max() - snr.min(), 20.0);
}

TEST(GenerateTraceTest, SlotCountMatchesDuration) {
  TraceGeneratorConfig config;
  config.scenario = sim::MobilityScenario::all_static(3 * kSecond);
  const auto trace = generate_trace(config);
  EXPECT_EQ(trace.size(), 600U);  // 3 s / 5 ms
}

TEST(GenerateTraceTest, MovingFlagTracksScenario) {
  TraceGeneratorConfig config;
  config.scenario = sim::MobilityScenario::static_then_walking(4 * kSecond);
  const auto trace = generate_trace(config);
  EXPECT_FALSE(trace.moving(kSecond));
  EXPECT_TRUE(trace.moving(3 * kSecond));
}

TEST(GenerateTraceTest, SlowRatesDeliverMoreThanFastRates) {
  TraceGeneratorConfig config;
  config.scenario = sim::MobilityScenario::all_walking(20 * kSecond);
  config.seed = 31;
  const auto trace = generate_trace(config);
  EXPECT_GT(trace.delivery_ratio(0), trace.delivery_ratio(7));
}

TEST(GenerateTraceTest, HigherSnrOffsetImprovesDelivery) {
  TraceGeneratorConfig low;
  low.scenario = sim::MobilityScenario::all_walking(20 * kSecond);
  low.seed = 33;
  low.snr_offset_db = -5.0;
  TraceGeneratorConfig high = low;
  high.snr_offset_db = 5.0;
  EXPECT_LT(generate_trace(low).delivery_ratio(5),
            generate_trace(high).delivery_ratio(5));
}

TEST(GenerateTraceTest, DeterministicForConfig) {
  TraceGeneratorConfig config;
  config.scenario = sim::MobilityScenario::static_then_walking(2 * kSecond);
  config.seed = 35;
  const auto a = generate_trace(config);
  const auto b = generate_trace(config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.slot(i).fate_mask, b.slot(i).fate_mask);
  }
}

// Tail policy pin: a trailing partial slot is truncated, never emitted short.
TEST(GenerateTraceTest, TrailingPartialSlotIsTruncated) {
  TraceGeneratorConfig config;
  config.scenario = sim::MobilityScenario::all_static(3 * kSecond);
  EXPECT_EQ(generate_trace(config).size(), 600U);

  config.scenario =
      sim::MobilityScenario::all_static(3 * kSecond + 2 * kMillisecond);
  EXPECT_EQ(generate_trace(config).size(), 600U);

  config.scenario =
      sim::MobilityScenario::all_static(3 * kSecond + 5 * kMillisecond);
  EXPECT_EQ(generate_trace(config).size(), 601U);
}

// Validation must survive release builds: these used to be asserts, which
// NDEBUG compiles away, leaving a divide-by-zero / empty trace instead.
TEST(GenerateTraceTest, RejectsNonPositiveSlotDuration) {
  TraceGeneratorConfig config;
  config.scenario = sim::MobilityScenario::all_static(kSecond);
  config.slot_duration = 0;
  EXPECT_THROW(generate_trace(config), std::invalid_argument);
  config.slot_duration = -5 * kMillisecond;
  EXPECT_THROW(generate_trace(config), std::invalid_argument);
}

TEST(GenerateTraceTest, RejectsNonPositivePayload) {
  TraceGeneratorConfig config;
  config.scenario = sim::MobilityScenario::all_static(kSecond);
  config.payload_bytes = 0;
  EXPECT_THROW(generate_trace(config), std::invalid_argument);
  config.payload_bytes = -1;
  EXPECT_THROW(generate_trace(config), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// DeliveryModel — precomputed thresholds vs the free function.

TEST(DeliveryModelTest, BitIdenticalToFreeFunction) {
  for (const int payload : {64, 256, 1000, 1500}) {
    const DeliveryModel model(payload);
    for (double snr = -10.0; snr <= 40.0; snr += 0.7) {
      for (mac::RateIndex r = 0; r < mac::kNumRates; ++r) {
        ASSERT_EQ(model.probability(snr, r),
                  delivery_probability(snr, r, payload))
            << "payload=" << payload << " snr=" << snr << " rate=" << r;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Environments

TEST(EnvironmentTest, ProfilesAreDistinctAndNamed) {
  EXPECT_EQ(environment_name(Environment::kOffice), "office");
  EXPECT_EQ(environment_name(Environment::kHallway), "hallway");
  EXPECT_EQ(environment_name(Environment::kOutdoor), "outdoor");
  EXPECT_EQ(environment_name(Environment::kVehicular), "vehicular");
  EXPECT_GT(environment_profile(Environment::kHallway).mean_snr_db,
            environment_profile(Environment::kOffice).mean_snr_db);
}

TEST(EnvironmentTest, StaticDopplerMuchSlowerThanWalking) {
  for (const auto env : {Environment::kOffice, Environment::kHallway,
                         Environment::kOutdoor, Environment::kVehicular}) {
    const auto& profile = environment_profile(env);
    EXPECT_LT(profile.doppler.static_hz * 100.0, profile.doppler.walking_hz);
  }
}

// ---------------------------------------------------------------------------
// Trace statistics

TEST(LossCorrelationTest, IndependentLossesHaveFlatConditional) {
  util::Rng rng(41);
  std::vector<bool> fates;
  for (int i = 0; i < 200000; ++i) fates.push_back(!rng.bernoulli(0.2));
  const auto lc = loss_correlation(fates, 20);
  EXPECT_NEAR(lc.unconditional_loss, 0.2, 0.01);
  for (const double c : lc.conditional_loss) EXPECT_NEAR(c, 0.2, 0.02);
}

TEST(LossCorrelationTest, BurstyLossesElevateSmallLags) {
  // Deterministic bursts: 10 losses then 90 successes, repeated.
  std::vector<bool> fates;
  for (int block = 0; block < 1000; ++block) {
    for (int i = 0; i < 10; ++i) fates.push_back(false);
    for (int i = 0; i < 90; ++i) fates.push_back(true);
  }
  const auto lc = loss_correlation(fates, 60);
  EXPECT_NEAR(lc.unconditional_loss, 0.1, 0.01);
  EXPECT_GT(lc.conditional_loss[0], 0.8);   // next packet in the burst
  EXPECT_LT(lc.conditional_loss[49], 0.1);  // lag 50 lands outside the burst
}

TEST(LossCorrelationTest, AllDeliveredFallsBackToUnconditional) {
  const std::vector<bool> fates(100, true);
  const auto lc = loss_correlation(fates, 5);
  EXPECT_DOUBLE_EQ(lc.unconditional_loss, 0.0);
  for (const double c : lc.conditional_loss) EXPECT_DOUBLE_EQ(c, 0.0);
}

TEST(LossCorrelationTest, RejectsLagBelowOne) {
  const std::vector<bool> fates(10, true);
  EXPECT_THROW((void)loss_correlation(fates, 0), std::invalid_argument);
  EXPECT_THROW((void)loss_correlation(fates, -3), std::invalid_argument);
}

TEST(DeliverySeriesTest, RejectsNonPositiveBucket) {
  PacketFateTrace trace;
  trace.push_back(TraceSlot{});
  EXPECT_THROW((void)delivery_series(trace, 0, 0), std::invalid_argument);
  EXPECT_THROW((void)delivery_series(trace, 0, -kSecond),
               std::invalid_argument);
}

TEST(DeliverySeriesTest, BucketsAndMotionFlags) {
  TraceGeneratorConfig config;
  config.scenario = sim::MobilityScenario::static_then_walking(10 * kSecond);
  config.seed = 43;
  const auto trace = generate_trace(config);
  const auto series = delivery_series(trace, 0, kSecond);
  ASSERT_EQ(series.size(), 10U);
  EXPECT_FALSE(series.front().moving);
  EXPECT_TRUE(series.back().moving);
  for (const auto& point : series) {
    EXPECT_GE(point.delivery_ratio, 0.0);
    EXPECT_LE(point.delivery_ratio, 1.0);
  }
}

TEST(DeliverySeriesTest, MobileBucketsFluctuateMoreThanStatic) {
  TraceGeneratorConfig config;
  config.scenario = sim::MobilityScenario::all_static(60 * kSecond);
  config.seed = 47;
  config.snr_offset_db = -2.0;
  config.shadow_sigma_scale = 2.6;
  const auto static_series = generate_trace(config);
  config.scenario = sim::MobilityScenario::all_walking(60 * kSecond);
  const auto mobile_series = generate_trace(config);

  auto jumpiness = [](const PacketFateTrace& trace) {
    const auto series = delivery_series(trace, 0, kSecond);
    util::RunningStats jumps;
    for (std::size_t i = 1; i < series.size(); ++i) {
      jumps.add(std::fabs(series[i].delivery_ratio -
                          series[i - 1].delivery_ratio));
    }
    return jumps.mean();
  };
  EXPECT_LT(jumpiness(static_series), jumpiness(mobile_series));
}

}  // namespace
}  // namespace sh::channel
