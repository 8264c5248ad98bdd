// Tests for the access-point simulator (Fig 5-1 behaviours) and the
// adaptive association learner (§5.2.1).
#include <gtest/gtest.h>

#include <algorithm>

#include <optional>

#include "ap/access_point.h"
#include "ap/association.h"

namespace sh::ap {
namespace {

/// Link that is perfect until `leaves_at`, then dead (the Fig 5-1 client).
LinkModel leaves_at(Time when) {
  return [when](Time t, mac::RateIndex) { return t < when ? 0.97 : 0.0; };
}

LinkModel always_good() {
  return [](Time, mac::RateIndex) { return 0.97; };
}

AccessPointSim::Params default_params() {
  AccessPointSim::Params params;
  return params;
}

// ---------------------------------------------------------------------------
// Basic AP behaviour

TEST(AccessPointTest, SingleClientGetsFullThroughput) {
  AccessPointSim ap(default_params(), 1);
  ap.add_client(ClientConfig{1, always_good(), true});
  ap.run_until(10 * kSecond);
  const auto& stats = ap.stats(1);
  EXPECT_GT(stats.frames_delivered, 1000U);
  EXPECT_FALSE(stats.pruned);
  EXPECT_GT(stats.meter.mbps(10 * kSecond), 5.0);
}

TEST(AccessPointTest, TwoClientsShareRoughlyEvenly) {
  AccessPointSim ap(default_params(), 2);
  ap.add_client(ClientConfig{1, always_good(), true});
  ap.add_client(ClientConfig{2, always_good(), true});
  ap.run_until(10 * kSecond);
  const double a = ap.stats(1).meter.mbps(10 * kSecond);
  const double b = ap.stats(2).meter.mbps(10 * kSecond);
  EXPECT_NEAR(a / b, 1.0, 0.2);
}

TEST(AccessPointTest, ArfClimbsOnGoodLink) {
  AccessPointSim ap(default_params(), 3);
  ap.add_client(ClientConfig{1, always_good(), true});
  ap.run_until(5 * kSecond);
  EXPECT_GE(ap.stats(1).current_rate, 6);
}

TEST(AccessPointTest, ArfFallsOnBadLink) {
  AccessPointSim ap(default_params(), 4);
  // Link that only works at slow rates.
  ap.add_client(ClientConfig{
      1, [](Time, mac::RateIndex r) { return r <= 2 ? 0.95 : 0.02; }, true});
  ap.run_until(5 * kSecond);
  EXPECT_LE(ap.stats(1).current_rate, 3);
  EXPECT_GT(ap.stats(1).frames_delivered, 100U);
}

TEST(AccessPointTest, UnknownClientThrows) {
  AccessPointSim ap(default_params(), 5);
  EXPECT_THROW(ap.stats(99), std::out_of_range);
}

// ---------------------------------------------------------------------------
// The Fig 5-1 pathology and its hint-aware fix

TEST(AccessPointTest, DepartedClientCollapsesNeighborThroughput) {
  AccessPointSim ap(default_params(), 6);
  ap.add_client(ClientConfig{1, always_good(), true});
  ap.add_client(ClientConfig{2, leaves_at(35 * kSecond), true});
  ap.run_until(60 * kSecond);

  const auto series = ap.stats(1).meter.series(60 * kSecond);
  ASSERT_EQ(series.size(), 60U);
  // Before the departure client 1 shares the medium.
  const double before = series[20].mbps;
  // Right after the departure the retry storm starves client 1.
  double collapse = 1e9;
  for (int s = 36; s < 44; ++s) collapse = std::min(collapse, series[s].mbps);
  // After pruning (10 s timeout) client 1 recovers to more than it had.
  double recovered = 0.0;
  for (int s = 50; s < 60; ++s) recovered = std::max(recovered, series[s].mbps);

  EXPECT_LT(collapse, 0.5 * before);
  EXPECT_GT(recovered, 1.5 * before);
  EXPECT_TRUE(ap.stats(2).pruned);
  EXPECT_GT(to_seconds(ap.stats(2).pruned_at), 35.0);
}

TEST(AccessPointTest, HintAwarePruningAvoidsCollapse) {
  auto params = default_params();
  params.hint_aware_pruning = true;
  AccessPointSim ap(params, 7);
  ap.add_client(ClientConfig{1, always_good(), true});
  ap.add_client(ClientConfig{2, leaves_at(35 * kSecond), true});
  // The mobile client reports movement shortly before leaving.
  ap.schedule_hint(34 * kSecond, 2, true);
  ap.run_until(60 * kSecond);

  const auto series = ap.stats(1).meter.series(60 * kSecond);
  const double before = series[20].mbps;
  double worst_after = 1e9;
  for (int s = 36; s < 44; ++s)
    worst_after = std::min(worst_after, series[s].mbps);
  // No collapse: client 1 never drops below its fair-share baseline.
  EXPECT_GT(worst_after, 0.8 * before);
  EXPECT_TRUE(ap.stats(2).parked);
  EXPECT_FALSE(ap.stats(2).pruned);
  // Parked probing is cheap but present.
  EXPECT_GT(ap.stats(2).probe_frames, 5U);
  EXPECT_LT(ap.stats(2).probe_frames, 100U);
}

TEST(AccessPointTest, ParkedClientResumesWhenBack) {
  auto params = default_params();
  params.hint_aware_pruning = true;
  AccessPointSim ap(params, 8);
  // Client leaves at 10 s and returns at 20 s.
  ap.add_client(ClientConfig{
      1,
      [](Time t, mac::RateIndex) {
        return (t < 10 * kSecond || t > 20 * kSecond) ? 0.97 : 0.0;
      },
      true});
  ap.schedule_hint(9500 * kMillisecond, 1, true);
  ap.run_until(30 * kSecond);
  EXPECT_FALSE(ap.stats(1).pruned);
  EXPECT_FALSE(ap.stats(1).parked);  // unparked after a probe succeeded
  const auto series = ap.stats(1).meter.series(30 * kSecond);
  EXPECT_GT(series[25].mbps, 1.0);  // traffic flowing again
}

TEST(AccessPointTest, StaticHintUnparksImmediately) {
  auto params = default_params();
  params.hint_aware_pruning = true;
  AccessPointSim ap(params, 9);
  ap.add_client(ClientConfig{
      1,
      [](Time t, mac::RateIndex) { return t < 5 * kSecond ? 0.0 : 0.97; },
      true});
  ap.schedule_hint(0, 1, true);          // moving: parks after losses
  ap.schedule_hint(6 * kSecond, 1, false);  // stable again: unpark
  ap.run_until(12 * kSecond);
  EXPECT_FALSE(ap.stats(1).parked);
  EXPECT_GT(ap.stats(1).frames_delivered, 100U);
}

TEST(AccessPointTest, TimeFairnessSharesAirtimeNotFrames) {
  // One slow-rate client and one fast client. Frame fairness lets the slow
  // client eat most of the airtime; time fairness protects the fast one.
  auto frame_params = default_params();
  frame_params.fairness = AccessPointSim::Fairness::kFrame;
  auto time_params = default_params();
  time_params.fairness = AccessPointSim::Fairness::kTime;

  auto slow_link = [](Time, mac::RateIndex r) { return r == 0 ? 0.95 : 0.02; };
  double fast_mbps_frame = 0.0, fast_mbps_time = 0.0;
  {
    AccessPointSim ap(frame_params, 10);
    ap.add_client(ClientConfig{1, slow_link, true});
    ap.add_client(ClientConfig{2, always_good(), true});
    ap.run_until(10 * kSecond);
    fast_mbps_frame = ap.stats(2).meter.mbps(10 * kSecond);
  }
  {
    AccessPointSim ap(time_params, 10);
    ap.add_client(ClientConfig{1, slow_link, true});
    ap.add_client(ClientConfig{2, always_good(), true});
    ap.run_until(10 * kSecond);
    fast_mbps_time = ap.stats(2).meter.mbps(10 * kSecond);
  }
  EXPECT_GT(fast_mbps_time, 1.5 * fast_mbps_frame);
}

TEST(AccessPointTest, MobileFavoringShiftsShare) {
  // §5.2.2: while a mobile client is associated, favoring it increases its
  // short-term share.
  auto params = default_params();
  params.fairness = AccessPointSim::Fairness::kTime;
  params.favor_mobile_clients = true;
  AccessPointSim ap(params, 11);
  ap.add_client(ClientConfig{1, always_good(), true});
  ap.add_client(ClientConfig{2, always_good(), true});
  ap.schedule_hint(0, 2, true);  // client 2 is mobile
  ap.run_until(10 * kSecond);
  const double static_share = ap.stats(1).meter.mbps(10 * kSecond);
  const double mobile_share = ap.stats(2).meter.mbps(10 * kSecond);
  EXPECT_GT(mobile_share, 1.3 * static_share);
}

// ---------------------------------------------------------------------------
// Stale hints at the AP (Params::hint_max_age)

TEST(AccessPointTest, StaleMovementHintNoLongerParksClient) {
  // The client reported movement at 5 s but its link only dies at 35 s.
  // With a freshness watermark the 30-second-old hint must NOT trigger
  // adaptive disassociation; the AP falls back to timeout pruning.
  auto params = default_params();
  params.hint_aware_pruning = true;
  params.hint_max_age = 2 * kSecond;
  AccessPointSim ap(params, 7);
  ap.add_client(ClientConfig{1, always_good(), true});
  ap.add_client(ClientConfig{2, leaves_at(35 * kSecond), true});
  ap.schedule_hint(5 * kSecond, 2, true);
  ap.run_until(60 * kSecond);
  EXPECT_FALSE(ap.stats(2).parked);
  EXPECT_TRUE(ap.stats(2).pruned);  // legacy 10 s timeout did the work
  EXPECT_GT(to_seconds(ap.stats(2).pruned_at), 44.0);
}

TEST(AccessPointTest, FreshHintStillParksUnderWatermark) {
  // Same scenario as HintAwarePruningAvoidsCollapse but with the watermark
  // on: a hint 1 s before the departure is fresh, so parking still works.
  auto params = default_params();
  params.hint_aware_pruning = true;
  params.hint_max_age = 2 * kSecond;
  AccessPointSim ap(params, 7);
  ap.add_client(ClientConfig{1, always_good(), true});
  ap.add_client(ClientConfig{2, leaves_at(35 * kSecond), true});
  ap.schedule_hint(34 * kSecond, 2, true);
  ap.run_until(60 * kSecond);
  EXPECT_TRUE(ap.stats(2).parked);
  EXPECT_FALSE(ap.stats(2).pruned);
}

TEST(AccessPointTest, LegacyZeroMaxAgeTrustsOldHints) {
  // hint_max_age = 0 is the pre-watermark behavior: even a 30-second-old
  // movement hint still drives adaptive disassociation.
  auto params = default_params();
  params.hint_aware_pruning = true;
  params.hint_max_age = 0;
  AccessPointSim ap(params, 7);
  ap.add_client(ClientConfig{1, always_good(), true});
  ap.add_client(ClientConfig{2, leaves_at(35 * kSecond), true});
  ap.schedule_hint(5 * kSecond, 2, true);
  ap.run_until(60 * kSecond);
  EXPECT_TRUE(ap.stats(2).parked);
  EXPECT_FALSE(ap.stats(2).pruned);
}

TEST(AccessPointTest, StaleHintStopsFavoringMobileClient) {
  // §5.2.2 favoring with the watermark: the movement hint from t=0 expires
  // at 2 s, so over 10 s the "mobile" client keeps at most a small edge —
  // far from the sustained 1.3x+ the fresh-hint test demonstrates.
  auto params = default_params();
  params.fairness = AccessPointSim::Fairness::kTime;
  params.favor_mobile_clients = true;
  params.hint_max_age = 2 * kSecond;
  AccessPointSim ap(params, 11);
  ap.add_client(ClientConfig{1, always_good(), true});
  ap.add_client(ClientConfig{2, always_good(), true});
  ap.schedule_hint(0, 2, true);
  ap.run_until(10 * kSecond);
  const double static_share = ap.stats(1).meter.mbps(10 * kSecond);
  const double mobile_share = ap.stats(2).meter.mbps(10 * kSecond);
  EXPECT_LT(mobile_share, 1.2 * static_share);
}

// ---------------------------------------------------------------------------
// Adaptive association

TEST(AssociationTest, RssiBuckets) {
  EXPECT_EQ(rssi_bucket(-90.0), 0);
  EXPECT_EQ(rssi_bucket(-78.0), 1);
  EXPECT_EQ(rssi_bucket(-75.0), 2);
  EXPECT_EQ(rssi_bucket(-70.0), 3);
  EXPECT_EQ(rssi_bucket(-65.0), 4);
  EXPECT_EQ(rssi_bucket(-50.0), 5);
}

TEST(AssociationTest, ApproachClassification) {
  EXPECT_EQ(approach_class(0.0, 0.0, true), 1);     // dead ahead
  EXPECT_EQ(approach_class(0.0, 180.0, true), -1);  // behind
  EXPECT_EQ(approach_class(0.0, 90.0, true), 0);    // sideways
  EXPECT_EQ(approach_class(0.0, 0.0, false), 0);    // static: no approach
}

TEST(AssociationTest, PriorFollowsRssiBeforeTraining) {
  AssociationScorer scorer;
  AssociationFeatures weak{true, 1, 0};
  AssociationFeatures strong{true, 1, 5};
  EXPECT_LT(scorer.predict_lifetime_s(weak), scorer.predict_lifetime_s(strong));
}

TEST(AssociationTest, LearningOverridesPrior) {
  AssociationScorer scorer;
  // Moving-away clients with strong signal turn out to have short
  // associations; the learner must discover that.
  AssociationFeatures receding_strong{true, -1, 5};
  for (int i = 0; i < 20; ++i) scorer.record(receding_strong, 4.0);
  EXPECT_NEAR(scorer.predict_lifetime_s(receding_strong), 4.0, 1.0);
  EXPECT_EQ(scorer.observations(receding_strong), 20U);
}

TEST(AssociationTest, StrongestRssiPolicy) {
  const ApCandidate candidates[] = {
      {1, -80.0, 0.0}, {2, -55.0, 0.0}, {3, -70.0, 0.0}};
  EXPECT_EQ(choose_strongest_rssi(candidates), 2U);
  EXPECT_FALSE(choose_strongest_rssi({}).has_value());
}

TEST(AssociationTest, HintAwareChoosesApAheadAfterTraining) {
  AssociationScorer scorer;
  // Train: approaching APs keep clients ~60 s, receding ones ~5 s,
  // regardless of signal strength.
  for (int i = 0; i < 30; ++i) {
    for (int bucket = 0; bucket < kRssiBuckets; ++bucket) {
      scorer.record(AssociationFeatures{true, 1, bucket}, 60.0);
      scorer.record(AssociationFeatures{true, -1, bucket}, 5.0);
    }
  }
  // The client moves north; the strongest AP is slightly behind it, but a
  // comparable-signal AP lies dead ahead.
  const ApCandidate candidates[] = {
      {1, -62.0, 180.0},  // a bit stronger but behind
      {2, -67.0, 5.0},    // comparable and dead ahead
  };
  EXPECT_EQ(choose_strongest_rssi(candidates), 1U);
  EXPECT_EQ(choose_hint_aware(scorer, candidates, true, 0.0), 2U);
}

TEST(AssociationTest, HintNeverJustifiesFarWeakerSignal) {
  AssociationScorer scorer;
  for (int i = 0; i < 30; ++i) {
    for (int bucket = 0; bucket < kRssiBuckets; ++bucket) {
      scorer.record(AssociationFeatures{true, 1, bucket}, 60.0);
      scorer.record(AssociationFeatures{true, -1, bucket}, 5.0);
    }
  }
  // The ahead AP is 22 dB weaker: outside the comparability margin, the
  // policy must stick with the signal (hints rank near-ties only).
  const ApCandidate candidates[] = {
      {1, -50.0, 180.0},
      {2, -72.0, 5.0},
  };
  EXPECT_EQ(choose_hint_aware(scorer, candidates, true, 0.0), 1U);
}

TEST(AssociationTest, UnknownMovementDegradesToStrongestRssi) {
  AssociationScorer scorer;
  for (int i = 0; i < 30; ++i) {
    for (int bucket = 0; bucket < kRssiBuckets; ++bucket) {
      scorer.record(AssociationFeatures{true, 1, bucket}, 60.0);
      scorer.record(AssociationFeatures{true, -1, bucket}, 5.0);
    }
  }
  const ApCandidate candidates[] = {
      {1, -62.0, 180.0},  // a bit stronger but behind
      {2, -67.0, 5.0},    // comparable and dead ahead
  };
  // With a fresh "moving" hint the trained scorer prefers the AP ahead; when
  // the hint feed is dead (nullopt) the choice must degrade to the legacy
  // strongest-signal policy, not score on a guessed feature.
  EXPECT_EQ(choose_hint_aware(scorer, candidates,
                              std::optional<bool>(true), 0.0),
            2U);
  EXPECT_EQ(choose_hint_aware(scorer, candidates, std::nullopt, 0.0), 1U);
  EXPECT_EQ(choose_hint_aware(scorer, candidates, std::nullopt, 0.0),
            choose_strongest_rssi(candidates));
}

TEST(AssociationTest, OptionalOverloadAgreesWithBoolOverload) {
  AssociationScorer scorer;
  const ApCandidate candidates[] = {
      {1, -85.0, 0.0}, {2, -58.0, 90.0}, {3, -64.0, 10.0}};
  for (const bool moving : {false, true}) {
    EXPECT_EQ(choose_hint_aware(scorer, candidates, moving, 45.0),
              choose_hint_aware(scorer, candidates,
                                std::optional<bool>(moving), 45.0));
  }
}

TEST(AssociationTest, StaticClientFallsBackToRssiRanking) {
  AssociationScorer scorer;  // untrained: prior is RSSI-driven
  const ApCandidate candidates[] = {
      {1, -85.0, 0.0}, {2, -58.0, 90.0}};
  EXPECT_EQ(choose_hint_aware(scorer, candidates, false, 0.0), 2U);
}

}  // namespace
}  // namespace sh::ap
