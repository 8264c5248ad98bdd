// Tests for the hint architecture: hint types and the hint store.
#include <gtest/gtest.h>

#include "core/hint_store.h"
#include "core/hints.h"

namespace sh::core {
namespace {

// ---------------------------------------------------------------------------
// Heading math

TEST(HeadingTest, NormalizeWrapsIntoRange) {
  EXPECT_DOUBLE_EQ(normalize_heading(0.0), 0.0);
  EXPECT_DOUBLE_EQ(normalize_heading(360.0), 0.0);
  EXPECT_DOUBLE_EQ(normalize_heading(-90.0), 270.0);
  EXPECT_DOUBLE_EQ(normalize_heading(725.0), 5.0);
}

TEST(HeadingTest, DifferenceIsSymmetricAndBounded) {
  EXPECT_DOUBLE_EQ(heading_difference(10.0, 350.0), 20.0);
  EXPECT_DOUBLE_EQ(heading_difference(350.0, 10.0), 20.0);
  EXPECT_DOUBLE_EQ(heading_difference(0.0, 180.0), 180.0);
  EXPECT_DOUBLE_EQ(heading_difference(90.0, 90.0), 0.0);
  EXPECT_DOUBLE_EQ(heading_difference(0.0, 270.0), 90.0);
}

TEST(HeadingTest, DifferencePropertySweep) {
  for (double a = 0.0; a < 360.0; a += 17.0) {
    for (double b = 0.0; b < 360.0; b += 23.0) {
      const double d = heading_difference(a, b);
      EXPECT_GE(d, 0.0);
      EXPECT_LE(d, 180.0);
      EXPECT_DOUBLE_EQ(d, heading_difference(b, a));
      // Shifting both headings preserves the difference.
      EXPECT_NEAR(d, heading_difference(a + 90.0, b + 90.0), 1e-9);
    }
  }
}

TEST(HintTest, FactoriesPopulateFields) {
  const Hint h = Hint::movement(true, 123, 7);
  EXPECT_EQ(h.type, HintType::kMovement);
  EXPECT_TRUE(h.as_bool());
  EXPECT_EQ(h.timestamp, 123);
  EXPECT_EQ(h.source, 7U);
  EXPECT_EQ(hint_type_name(h.type), "movement");

  const Hint heading = Hint::heading(42.0, 5, 1);
  EXPECT_EQ(heading.type, HintType::kHeading);
  EXPECT_DOUBLE_EQ(heading.value, 42.0);
}

// ---------------------------------------------------------------------------
// HintStore

TEST(HintStoreTest, LatestReturnsNewest) {
  HintStore store;
  store.update(Hint::movement(false, 100, 1));
  store.update(Hint::movement(true, 200, 1));
  const auto latest = store.latest(1, HintType::kMovement);
  ASSERT_TRUE(latest.has_value());
  EXPECT_TRUE(latest->as_bool());
  EXPECT_EQ(latest->timestamp, 200);
}

TEST(HintStoreTest, OutOfOrderUpdatesIgnored) {
  HintStore store;
  store.update(Hint::movement(true, 200, 1));
  store.update(Hint::movement(false, 100, 1));  // older, dropped
  EXPECT_TRUE(store.latest(1, HintType::kMovement)->as_bool());
}

TEST(HintStoreTest, MissingHintIsEmpty) {
  HintStore store;
  EXPECT_FALSE(store.latest(9, HintType::kHeading).has_value());
}

TEST(HintStoreTest, FreshRespectsMaxAge) {
  HintStore store;
  store.update(Hint::movement(true, 1000, 1));
  EXPECT_TRUE(store.fresh(1, HintType::kMovement, 1500, 600).has_value());
  EXPECT_FALSE(store.fresh(1, HintType::kMovement, 2000, 600).has_value());
}

TEST(HintStoreTest, IsMovingFallsBackWhenStale) {
  HintStore store;
  EXPECT_FALSE(store.is_moving(1, 0, kSecond));
  EXPECT_TRUE(store.is_moving(1, 0, kSecond, /*fallback=*/true));
  store.update(Hint::movement(true, 0, 1));
  EXPECT_TRUE(store.is_moving(1, 500 * kMillisecond, kSecond));
  EXPECT_FALSE(store.is_moving(1, 5 * kSecond, kSecond));
}

TEST(HintStoreTest, SeparatesSourcesAndTypes) {
  HintStore store;
  store.update(Hint::movement(true, 10, 1));
  store.update(Hint::movement(false, 10, 2));
  store.update(Hint::heading(90.0, 10, 1));
  EXPECT_TRUE(store.latest(1, HintType::kMovement)->as_bool());
  EXPECT_FALSE(store.latest(2, HintType::kMovement)->as_bool());
  EXPECT_DOUBLE_EQ(store.latest(1, HintType::kHeading)->value, 90.0);
  EXPECT_EQ(store.size(), 3U);
}

TEST(HintStoreTest, ForgetDropsOneNode) {
  HintStore store;
  store.update(Hint::movement(true, 10, 1));
  store.update(Hint::heading(45.0, 10, 1));
  store.update(Hint::movement(true, 10, 2));
  store.forget(1);
  EXPECT_FALSE(store.latest(1, HintType::kMovement).has_value());
  EXPECT_TRUE(store.latest(2, HintType::kMovement).has_value());
}

// ---------------------------------------------------------------------------
// HintStore receive watermark (age / last_update): the signal degradation-
// aware consumers use to stop trusting a dead hint channel.

TEST(HintStoreTest, AgeAndLastUpdateEmptyUntilFirstDelivery) {
  HintStore store;
  EXPECT_FALSE(store.last_update(1, HintType::kMovement).has_value());
  EXPECT_FALSE(store.age(1, HintType::kMovement, 10 * kSecond).has_value());
}

TEST(HintStoreTest, AgeGrowsWhileChannelIsSilent) {
  HintStore store;
  store.update(Hint::movement(true, kSecond, 1));
  ASSERT_TRUE(store.last_update(1, HintType::kMovement).has_value());
  EXPECT_EQ(*store.last_update(1, HintType::kMovement), kSecond);
  EXPECT_EQ(*store.age(1, HintType::kMovement, kSecond), 0);
  // Nothing arrives; receive-side age keeps growing even though latest()
  // still answers.
  EXPECT_EQ(*store.age(1, HintType::kMovement, 6 * kSecond), 5 * kSecond);
  EXPECT_TRUE(store.latest(1, HintType::kMovement).has_value());
}

TEST(HintStoreTest, OutOfOrderStragglerDoesNotRefreshWatermark) {
  HintStore store;
  store.update(Hint::movement(true, 2 * kSecond, 1));
  // A reordered older hint arrives later: it must neither replace the newer
  // value nor make the channel look alive.
  store.update(Hint::movement(false, kSecond, 1), /*received=*/5 * kSecond);
  EXPECT_TRUE(store.latest(1, HintType::kMovement)->as_bool());
  EXPECT_EQ(*store.last_update(1, HintType::kMovement), 2 * kSecond);
}

TEST(HintStoreTest, DuplicateWithSameTimestampRefreshesWatermark) {
  HintStore store;
  store.update(Hint::movement(true, kSecond, 1), /*received=*/kSecond);
  // The producer re-sends the same hint; the channel is demonstrably alive,
  // so the receive watermark moves even though the value is unchanged.
  store.update(Hint::movement(true, kSecond, 1), /*received=*/4 * kSecond);
  EXPECT_EQ(*store.last_update(1, HintType::kMovement), 4 * kSecond);
  EXPECT_EQ(*store.age(1, HintType::kMovement, 5 * kSecond), kSecond);
}

TEST(HintStoreTest, ExplicitReceiveTimeSeparatesGenerationFromArrival) {
  HintStore store;
  // A hint generated at t=1s but delivered at t=9s (a badly delayed
  // channel): fresh() judges generation age, age() judges receive age.
  store.update(Hint::movement(true, kSecond, 1), /*received=*/9 * kSecond);
  EXPECT_FALSE(
      store.fresh(1, HintType::kMovement, 9 * kSecond, 2 * kSecond).has_value());
  EXPECT_EQ(*store.age(1, HintType::kMovement, 9 * kSecond), 0);
}

TEST(HintStoreTest, WatermarkIsPerSourceAndType) {
  HintStore store;
  store.update(Hint::movement(true, kSecond, 1));
  store.update(Hint::heading(90.0, 3 * kSecond, 1));
  store.update(Hint::movement(false, 2 * kSecond, 2));
  EXPECT_EQ(*store.last_update(1, HintType::kMovement), kSecond);
  EXPECT_EQ(*store.last_update(1, HintType::kHeading), 3 * kSecond);
  EXPECT_EQ(*store.last_update(2, HintType::kMovement), 2 * kSecond);
}

}  // namespace
}  // namespace sh::core
