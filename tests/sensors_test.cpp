// Tests for the sensor simulators and hint extraction algorithms — most
// importantly the paper's jerk-based movement detector (§2.2.1).
#include <gtest/gtest.h>

#include <cmath>

#include "core/hints.h"
#include "sensors/accelerometer.h"
#include "sensors/compass.h"
#include "sensors/gps.h"
#include "sensors/gyroscope.h"
#include "sensors/heading_estimator.h"
#include "sensors/movement_detector.h"
#include "sensors/speed_estimator.h"
#include "sensors/truth.h"
#include "util/stats.h"

namespace sh::sensors {
namespace {

AccelerometerSim make_accel(sim::MobilityScenario scenario,
                            std::uint64_t seed = 1) {
  return AccelerometerSim(std::move(scenario), util::Rng(seed));
}

// ---------------------------------------------------------------------------
// AccelerometerSim

TEST(AccelerometerTest, ReportsEvery2Ms) {
  auto accel = make_accel(sim::MobilityScenario::all_static(kSecond));
  const auto first = accel.next();
  const auto second = accel.next();
  EXPECT_EQ(first.timestamp, 0);
  EXPECT_EQ(second.timestamp, 2 * kMillisecond);
}

TEST(AccelerometerTest, StaticSignalIsQuiet) {
  auto accel = make_accel(sim::MobilityScenario::all_static(10 * kSecond), 3);
  util::RunningStats z;
  for (int i = 0; i < 5000; ++i) z.add(accel.next().z);
  // Mean near gravity, small spread.
  EXPECT_NEAR(z.mean(), 50.0, 0.5);
  EXPECT_LT(z.stddev(), 0.5);
}

TEST(AccelerometerTest, WalkingSignalIsAgitated) {
  auto quiet = make_accel(sim::MobilityScenario::all_static(10 * kSecond), 5);
  auto moving = make_accel(sim::MobilityScenario::all_walking(10 * kSecond), 5);
  util::RunningStats quiet_z, moving_z;
  for (int i = 0; i < 5000; ++i) {
    quiet_z.add(quiet.next().z);
    moving_z.add(moving.next().z);
  }
  EXPECT_GT(moving_z.stddev(), 5.0 * quiet_z.stddev());
}

TEST(AccelerometerTest, DeterministicForSeed) {
  auto a = make_accel(sim::MobilityScenario::all_walking(kSecond), 9);
  auto b = make_accel(sim::MobilityScenario::all_walking(kSecond), 9);
  for (int i = 0; i < 100; ++i) {
    const auto ra = a.next();
    const auto rb = b.next();
    EXPECT_DOUBLE_EQ(ra.x, rb.x);
    EXPECT_DOUBLE_EQ(ra.z, rb.z);
  }
}

// ---------------------------------------------------------------------------
// MovementDetector: the paper's algorithm

TEST(MovementDetectorTest, StartsNotMoving) {
  MovementDetector detector;
  EXPECT_FALSE(detector.moving());
}

TEST(MovementDetectorTest, QuietSignalNeverTriggers) {
  // The paper: "the value never exceeds 3 when the device was stationary".
  auto accel = make_accel(sim::MobilityScenario::all_static(60 * kSecond), 11);
  MovementDetector detector;
  double max_jerk = 0.0;
  for (int i = 0; i < 30000; ++i) {  // a full minute of reports
    detector.update(accel.next());
    max_jerk = std::max(max_jerk, detector.last_jerk());
    ASSERT_FALSE(detector.moving());
  }
  EXPECT_LT(max_jerk, detector.params().jerk_threshold);
}

TEST(MovementDetectorTest, DetectsWalkingQuickly) {
  // "We are able to detect changes in movement status in under 100 ms."
  auto accel = make_accel(sim::MobilityScenario::all_walking(kSecond), 13);
  MovementDetector detector;
  int reports = 0;
  while (!detector.moving() && reports < 500) {
    detector.update(accel.next());
    ++reports;
  }
  EXPECT_TRUE(detector.moving());
  EXPECT_LE(reports * 2, 100);  // under 100 ms of 2 ms reports
}

TEST(MovementDetectorTest, DetectsVehicleMotion) {
  auto accel = make_accel(sim::MobilityScenario::all_vehicle(kSecond), 15);
  MovementDetector detector;
  for (int i = 0; i < 250; ++i) detector.update(accel.next());
  EXPECT_TRUE(detector.moving());
}

TEST(MovementDetectorTest, HintDropsAfterHoldWindowOfQuiet) {
  const sim::MobilityScenario scenario{{
      {kSecond, sim::MotionState::kWalking, 1.4},
      {2 * kSecond, sim::MotionState::kStatic, 0.0},
  }};
  auto accel = make_accel(scenario, 17);
  MovementDetector detector;
  // Through the walking phase the hint latches on.
  for (int i = 0; i < 500; ++i) detector.update(accel.next());
  EXPECT_TRUE(detector.moving());
  // After stopping, the hint must drop — and only after >= hold window.
  int reports_until_off = 0;
  while (detector.moving() && reports_until_off < 1000) {
    detector.update(accel.next());
    ++reports_until_off;
  }
  EXPECT_FALSE(detector.moving());
  EXPECT_GE(reports_until_off, detector.params().hold_window_reports);
  EXPECT_LE(reports_until_off * 2, 400);  // well under half a second
}

TEST(MovementDetectorTest, FullCycleStaticMovingStatic) {
  // The Fig 2-2 experiment: stationary, moved, returned to stationary.
  const sim::MobilityScenario scenario{{
      {2 * kSecond, sim::MotionState::kStatic, 0.0},
      {2 * kSecond, sim::MotionState::kWalking, 1.4},
      {2 * kSecond, sim::MotionState::kStatic, 0.0},
  }};
  auto accel = make_accel(scenario, 19);
  MovementDetector detector;
  int transitions = 0;
  bool last = false;
  for (int i = 0; i < 3000; ++i) {
    const bool now = detector.update(accel.next());
    if (now != last) {
      ++transitions;
      last = now;
    }
  }
  EXPECT_EQ(transitions, 2);  // off->on at 2 s, on->off after 4 s
  EXPECT_FALSE(detector.moving());
}

TEST(MovementDetectorTest, ResetClearsState) {
  auto accel = make_accel(sim::MobilityScenario::all_walking(kSecond), 21);
  MovementDetector detector;
  for (int i = 0; i < 200; ++i) detector.update(accel.next());
  EXPECT_TRUE(detector.moving());
  detector.reset();
  EXPECT_FALSE(detector.moving());
  EXPECT_DOUBLE_EQ(detector.last_jerk(), 0.0);
}

TEST(MovementDetectorTest, NoCalibrationNeededAcrossGravityOffsets) {
  // The paper stresses the algorithm needs no per-use calibration: jerk is a
  // difference of means, so a constant orientation offset cancels exactly.
  AccelerometerSim::Params params;
  for (const double gravity : {20.0, 50.0, 120.0}) {
    params.gravity_units = gravity;
    AccelerometerSim accel(sim::MobilityScenario::all_static(4 * kSecond),
                           util::Rng(23), params);
    MovementDetector detector;
    for (int i = 0; i < 2000; ++i) detector.update(accel.next());
    EXPECT_FALSE(detector.moving()) << "gravity " << gravity;
  }
}

// Parameterized sweep: detection works across seeds (the paper replicated
// across many accelerometers and scenarios).
class DetectorSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DetectorSeedSweep, WalkDetectedStaticNot) {
  auto walk = make_accel(sim::MobilityScenario::all_walking(kSecond), GetParam());
  auto still = make_accel(sim::MobilityScenario::all_static(kSecond), GetParam());
  MovementDetector walk_detector, still_detector;
  for (int i = 0; i < 500; ++i) {
    walk_detector.update(walk.next());
    still_detector.update(still.next());
  }
  EXPECT_TRUE(walk_detector.moving());
  EXPECT_FALSE(still_detector.moving());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DetectorSeedSweep,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707,
                                           808, 909, 1010));

// ---------------------------------------------------------------------------
// GPS

TEST(GpsTest, IndoorsNeverLocks) {
  GpsSim::Params params;
  params.outdoors = false;
  GpsSim gps(truth_from_scenario(sim::MobilityScenario::all_walking(kSecond)),
             util::Rng(25), params);
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(gps.next().valid);
}

TEST(GpsTest, OutdoorFixesTrackTruthPosition) {
  const auto scenario = sim::MobilityScenario::all_walking(60 * kSecond, 1.5);
  auto truth = truth_from_scenario(scenario, 90.0);  // due east
  GpsSim gps(truth, util::Rng(27));
  util::RunningStats x_error;
  for (int i = 0; i < 60; ++i) {
    const auto fix = gps.next();
    if (!fix.valid) continue;
    const auto expected = truth(fix.timestamp);
    x_error.add(std::fabs(fix.x_m - expected.x_m));
  }
  EXPECT_GT(x_error.count(), 40U);
  EXPECT_LT(x_error.mean(), 6.0);  // ~2 sigma of the 3 m noise
}

TEST(GpsTest, HeadingOnlyWhileMoving) {
  const sim::MobilityScenario scenario{{
      {5 * kSecond, sim::MotionState::kStatic, 0.0},
      {5 * kSecond, sim::MotionState::kWalking, 1.5},
  }};
  GpsSim::Params params;
  params.dropout_probability = 0.0;
  GpsSim gps(truth_from_scenario(scenario, 45.0), util::Rng(29), params);
  int static_headings = 0, moving_headings = 0;
  for (int i = 0; i < 10; ++i) {
    const auto fix = gps.next();
    if (fix.timestamp < 5 * kSecond) {
      static_headings += fix.heading_valid ? 1 : 0;
    } else {
      moving_headings += fix.heading_valid ? 1 : 0;
    }
  }
  EXPECT_EQ(static_headings, 0);
  EXPECT_EQ(moving_headings, 5);
}

TEST(GpsTest, SpeedNonNegativeAndNearTruth) {
  GpsSim gps(truth_from_scenario(sim::MobilityScenario::all_walking(
                 60 * kSecond, 1.5)),
             util::Rng(31));
  util::RunningStats speed;
  for (int i = 0; i < 60; ++i) {
    const auto fix = gps.next();
    if (fix.valid) {
      EXPECT_GE(fix.speed_mps, 0.0);
      speed.add(fix.speed_mps);
    }
  }
  EXPECT_NEAR(speed.mean(), 1.5, 0.3);
}

// ---------------------------------------------------------------------------
// Compass + gyro + fusion

TEST(CompassTest, OutdoorReadingsNearTruth) {
  CompassSim compass(
      truth_from_scenario(sim::MobilityScenario::all_walking(60 * kSecond), 70.0),
      util::Rng(33));
  util::Percentile error;
  for (int i = 0; i < 1000; ++i) {
    const auto reading = compass.next();
    error.add(core::heading_difference(reading.heading_deg, 70.0));
  }
  // Typical readings sit within the Gaussian noise; disturbances are rare
  // enough outdoors that the median is unaffected.
  EXPECT_LT(error.median(), 6.0);
}

TEST(CompassTest, IndoorDisturbancesInflateTail) {
  auto truth = truth_from_scenario(
      sim::MobilityScenario::all_walking(120 * kSecond), 70.0);
  CompassSim outdoor(truth, util::Rng(34));
  CompassSim indoor(truth, util::Rng(34), CompassSim::indoor_params());
  util::Percentile outdoor_err, indoor_err;
  for (int i = 0; i < 2000; ++i) {
    outdoor_err.add(
        core::heading_difference(outdoor.next().heading_deg, 70.0));
    indoor_err.add(core::heading_difference(indoor.next().heading_deg, 70.0));
  }
  EXPECT_GT(indoor_err.quantile(0.95), outdoor_err.quantile(0.95));
}

TEST(GyroTest, IntegratedRateTracksConstantHeading) {
  GyroscopeSim gyro(
      truth_from_scenario(sim::MobilityScenario::all_walking(10 * kSecond), 120.0),
      util::Rng(35));
  util::RunningStats rate;
  for (int i = 0; i < 1000; ++i) rate.add(gyro.next().rate_dps);
  // Constant heading: mean rate equals the (small) bias, well under 2 dps.
  EXPECT_LT(std::fabs(rate.mean()), 2.0);
}

TEST(HeadingEstimatorTest, InitializesFromFirstCompassSample) {
  HeadingEstimator estimator;
  EXPECT_FALSE(estimator.initialized());
  estimator.update_compass(CompassReading{0, 250.0});
  EXPECT_TRUE(estimator.initialized());
  EXPECT_NEAR(estimator.heading_deg(), 250.0, 1e-9);
}

TEST(HeadingEstimatorTest, FusionBeatsDisturbedCompassAlone) {
  // Indoors: compass occasionally grossly disturbed; the fused estimate
  // should stay closer to truth than the raw compass stream.
  const double true_heading = 200.0;
  auto truth = truth_from_scenario(
      sim::MobilityScenario::all_walking(120 * kSecond), true_heading);
  CompassSim compass(truth, util::Rng(37), CompassSim::indoor_params());
  GyroscopeSim gyro(truth, util::Rng(39));
  HeadingEstimator estimator;
  estimator.initialize(true_heading);

  util::RunningStats raw_error, fused_error;
  Time gyro_time = 0;
  Time compass_time = 0;
  // Interleave by timestamps: gyro at 100 Hz, compass at 20 Hz.
  for (int i = 0; i < 12000; ++i) {
    if (gyro_time <= compass_time) {
      estimator.update_gyro(gyro.next(), gyro.interval());
      gyro_time += gyro.interval();
    } else {
      const auto reading = compass.next();
      raw_error.add(core::heading_difference(reading.heading_deg, true_heading));
      estimator.update_compass(reading);
      compass_time += 50 * kMillisecond;
    }
    fused_error.add(
        core::heading_difference(estimator.heading_deg(), true_heading));
  }
  EXPECT_LT(fused_error.mean(), raw_error.mean());
  EXPECT_LT(fused_error.mean(), 8.0);
}

// ---------------------------------------------------------------------------
// SpeedEstimator

TEST(SpeedEstimatorTest, GpsDrivesOutdoorEstimate) {
  SpeedEstimator estimator;
  GpsFix fix;
  fix.valid = true;
  fix.speed_mps = 10.0;
  estimator.update_gps(fix);
  EXPECT_TRUE(estimator.gps_based());
  EXPECT_NEAR(estimator.speed_mps(), 10.0, 1e-9);
}

TEST(SpeedEstimatorTest, InvalidFixIgnored) {
  SpeedEstimator estimator;
  estimator.update_gps(GpsFix{});  // invalid
  EXPECT_FALSE(estimator.gps_based());
}

TEST(SpeedEstimatorTest, IndoorEstimateZeroWhenStill) {
  SpeedEstimator estimator;
  auto accel = make_accel(sim::MobilityScenario::all_static(kSecond), 41);
  for (int i = 0; i < 500; ++i) estimator.update_accel(accel.next(), false);
  EXPECT_DOUBLE_EQ(estimator.speed_mps(), 0.0);
}

TEST(SpeedEstimatorTest, IndoorEstimatePositiveAndBoundedWhenWalking) {
  SpeedEstimator estimator;
  auto accel = make_accel(sim::MobilityScenario::all_walking(4 * kSecond), 43);
  for (int i = 0; i < 2000; ++i) estimator.update_accel(accel.next(), true);
  EXPECT_GT(estimator.speed_mps(), 0.0);
  EXPECT_LE(estimator.speed_mps(), 3.0);
}

}  // namespace
}  // namespace sh::sensors
