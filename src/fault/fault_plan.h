// FaultPlan: a deterministic, seed-derived schedule of faults.
//
// Every fault decision is a PURE function of (plan seed, stream, event
// index), computed through the same util::Rng::derive_seed finalizer the
// sweep engine uses for repetition seeds. Consequences:
//
//  * the schedule is byte-identical no matter which thread executes the
//    repetition, in what order events are queried, or how often a decision
//    is re-queried — the property fault_test pins at 1/2/8 threads;
//  * a plan built from exp::RunContext::fault_seed draws from a stream
//    disjoint from the experiment body's randomness, so turning a fault ON
//    never perturbs the channel/workload realization it is injected into
//    (degradation measurements compare like against like).
//
// Episode faults (stuck-at, noise bursts) expose per-event *begin* decisions;
// the sequential wrapper (FaultyAccelerometer) applies the configured
// durations.
#pragma once

#include <cstdint>

#include "fault/fault_clock.h"
#include "fault/fault_config.h"
#include "util/rng.h"
#include "util/time.h"

namespace sh::fault {

class FaultPlan {
 public:
  /// Decision streams. Values are arbitrary but fixed: changing one
  /// reshuffles every schedule ever derived from it.
  enum class Stream : std::uint64_t {
    kSensorDrop = 0x5D01,
    kSensorStuck = 0x5D02,
    kSensorNoise = 0x5D03,
    kHintDrop = 0x4501,
    kHintDelay = 0x4502,
    kHintReorder = 0x4504,
  };

  FaultPlan() : FaultPlan(FaultConfig{}, 0) {}
  FaultPlan(FaultConfig config, std::uint64_t seed);

  const FaultConfig& config() const noexcept { return config_; }
  const FaultClock& clock() const noexcept { return clock_; }
  std::uint64_t seed() const noexcept { return seed_; }

  /// Generator owning all randomness of event `index` on `stream`;
  /// independent of every other (stream, index) pair. The single-draw
  /// decisions below equal event_rng(stream, index).bernoulli(rate).
  util::Rng event_rng(Stream stream, std::uint64_t index) const noexcept {
    return util::Rng(util::Rng::derive_seed(
        util::Rng::derive_seed(seed_, static_cast<std::uint64_t>(stream)),
        index));
  }

  // Sensor-report decisions (index = report ordinal).
  bool sensor_report_dropped(std::uint64_t index) const noexcept;
  bool sensor_stuck_begins(std::uint64_t index) const noexcept;
  bool sensor_noise_begins(std::uint64_t index) const noexcept;
  /// Additive noise for axis 0-2 of report `index` while a burst is active.
  double sensor_noise(std::uint64_t index, int axis) const noexcept;

  // Hint-delivery decisions (index = hint-update ordinal).
  bool hint_dropped(std::uint64_t index) const noexcept;
  bool hint_reordered(std::uint64_t index) const noexcept;
  /// Extra delivery latency (>= 0), excluding any reorder hold.
  Duration hint_delay(std::uint64_t index) const noexcept;

 private:
  /// event_rng(stream, index).bernoulli(p) for a stream whose base seed
  /// derive_seed(seed_, stream) is `stream_seed`, without building the
  /// generator.
  static bool decide(std::uint64_t stream_seed, std::uint64_t index,
                     double p) noexcept {
    return util::Rng::first_uniform(
               util::Rng::derive_seed(stream_seed, index)) < p;
  }

  FaultConfig config_{};
  FaultClock clock_{};
  std::uint64_t seed_ = 0;
  // Base seeds of the single-draw streams, derived once per plan.
  std::uint64_t sensor_drop_seed_ = 0;
  std::uint64_t sensor_stuck_seed_ = 0;
  std::uint64_t sensor_noise_seed_ = 0;
  std::uint64_t hint_drop_seed_ = 0;
  std::uint64_t hint_reorder_seed_ = 0;
};

}  // namespace sh::fault
