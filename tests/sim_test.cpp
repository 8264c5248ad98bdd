// Tests for the mobility scenarios.
#include <gtest/gtest.h>

#include "sim/mobility.h"

namespace sh::sim {
namespace {

TEST(MobilityScenarioTest, AllStatic) {
  const auto s = MobilityScenario::all_static(10 * kSecond);
  EXPECT_EQ(s.total_duration(), 10 * kSecond);
  EXPECT_FALSE(s.moving_at(0));
  EXPECT_FALSE(s.moving_at(9 * kSecond));
  EXPECT_DOUBLE_EQ(s.speed_at(5 * kSecond), 0.0);
}

TEST(MobilityScenarioTest, AllWalking) {
  const auto s = MobilityScenario::all_walking(10 * kSecond, 1.4);
  EXPECT_TRUE(s.moving_at(kSecond));
  EXPECT_EQ(s.state_at(kSecond), MotionState::kWalking);
  EXPECT_DOUBLE_EQ(s.speed_at(kSecond), 1.4);
}

TEST(MobilityScenarioTest, StaticThenWalkingTransitionsAtHalf) {
  const auto s = MobilityScenario::static_then_walking(20 * kSecond);
  EXPECT_FALSE(s.moving_at(9 * kSecond));
  EXPECT_TRUE(s.moving_at(10 * kSecond));
  EXPECT_TRUE(s.moving_at(19 * kSecond));
  EXPECT_EQ(s.total_duration(), 20 * kSecond);
}

TEST(MobilityScenarioTest, MobileFirstReversesOrder) {
  const auto s = MobilityScenario::static_then_walking(20 * kSecond,
                                                       /*mobile_first=*/true);
  EXPECT_TRUE(s.moving_at(kSecond));
  EXPECT_FALSE(s.moving_at(15 * kSecond));
}

TEST(MobilityScenarioTest, QueriesPastEndUseLastPhase) {
  const auto s = MobilityScenario::static_then_walking(20 * kSecond);
  EXPECT_TRUE(s.moving_at(25 * kSecond));
}

TEST(MobilityScenarioTest, MultiPhaseBoundariesExact) {
  const MobilityScenario s{{
      {2 * kSecond, MotionState::kStatic, 0.0},
      {3 * kSecond, MotionState::kWalking, 1.5},
      {1 * kSecond, MotionState::kVehicle, 12.0},
  }};
  EXPECT_EQ(s.state_at(0), MotionState::kStatic);
  EXPECT_EQ(s.state_at(2 * kSecond - 1), MotionState::kStatic);
  EXPECT_EQ(s.state_at(2 * kSecond), MotionState::kWalking);
  EXPECT_EQ(s.state_at(5 * kSecond), MotionState::kVehicle);
  EXPECT_EQ(s.total_duration(), 6 * kSecond);
}

TEST(MobilityScenarioTest, IsMovingHelper) {
  EXPECT_FALSE(is_moving(MotionState::kStatic));
  EXPECT_TRUE(is_moving(MotionState::kWalking));
  EXPECT_TRUE(is_moving(MotionState::kVehicle));
}

}  // namespace
}  // namespace sh::sim
