// Mobility scenarios: scripted ground-truth motion of a device over time.
//
// A scenario is a sequence of phases (static / walking / vehicle, each with a
// speed). Both the channel simulator (Doppler, hence coherence time) and the
// sensor simulators (accelerometer jerk bursts, GPS speed) consume the same
// scenario, so the "hints" a detector extracts and the channel dynamics a
// protocol fights are consistent with each other — exactly the coupling the
// paper exploits.
#pragma once

#include <cassert>
#include <vector>

#include "util/time.h"

namespace sh::sim {

enum class MotionState { kStatic, kWalking, kVehicle };

/// True for any state in which the device is physically moving.
constexpr bool is_moving(MotionState s) noexcept {
  return s != MotionState::kStatic;
}

struct MobilityPhase {
  Duration duration = 0;
  MotionState state = MotionState::kStatic;
  double speed_mps = 0.0;  ///< 0 when static; walking ~1.4; vehicle 2-20.
};

/// Piecewise-constant motion script. Queries past the end of the script
/// return the last phase's state (the device keeps doing whatever it was
/// doing).
class MobilityScenario {
 public:
  MobilityScenario() = default;
  explicit MobilityScenario(std::vector<MobilityPhase> phases)
      : phases_(std::move(phases)) {
    assert(!phases_.empty());
    for ([[maybe_unused]] const auto& p : phases_) assert(p.duration >= 0);
  }

  static MobilityScenario all_static(Duration total) {
    return MobilityScenario{{{total, MotionState::kStatic, 0.0}}};
  }
  static MobilityScenario all_walking(Duration total, double speed = 1.4) {
    return MobilityScenario{{{total, MotionState::kWalking, speed}}};
  }
  static MobilityScenario all_vehicle(Duration total, double speed = 12.0) {
    return MobilityScenario{{{total, MotionState::kVehicle, speed}}};
  }
  /// The paper's mixed trace: half static then half walking (or reversed).
  static MobilityScenario static_then_walking(Duration total,
                                              bool mobile_first = false,
                                              double speed = 1.4) {
    MobilityPhase stat{total / 2, MotionState::kStatic, 0.0};
    MobilityPhase walk{total - total / 2, MotionState::kWalking, speed};
    if (mobile_first) return MobilityScenario{{walk, stat}};
    return MobilityScenario{{stat, walk}};
  }

  MotionState state_at(Time t) const noexcept { return phase_at(t).state; }
  double speed_at(Time t) const noexcept { return phase_at(t).speed_mps; }
  bool moving_at(Time t) const noexcept { return is_moving(state_at(t)); }

  Duration total_duration() const noexcept {
    Duration sum = 0;
    for (const auto& p : phases_) sum += p.duration;
    return sum;
  }

  const std::vector<MobilityPhase>& phases() const noexcept { return phases_; }

  /// What a scenario without phases (default-constructed) reports at every
  /// time: static, at speed 0.
  static const MobilityPhase& default_phase() noexcept {
    static const MobilityPhase kDefault{};
    return kDefault;
  }

 private:
  const MobilityPhase& phase_at(Time t) const noexcept {
    if (phases_.empty()) return default_phase();
    Time start = 0;
    for (const auto& p : phases_) {
      if (t < start + p.duration) return p;
      start += p.duration;
    }
    return phases_.back();
  }

  std::vector<MobilityPhase> phases_;
};

}  // namespace sh::sim
