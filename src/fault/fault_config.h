// Fault-injection configuration (the knobs of the robustness layer).
//
// The paper's protocols assume hints are timely and truthful; §2 and §6
// concede that sensors fail, saturate, and lag. FaultConfig describes how
// the sensor layer and the hint pipeline misbehave in one value type that
// can be carried through the sweep engine, recorded in sh.sweep.v1 JSON
// params, and parsed back from the shsweep command line. All rates are
// probabilities per event; a default-constructed config injects nothing,
// and every fault consumer must be byte-identical to the fault-free path
// when handed a null config.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/time.h"

namespace sh::fault {

/// Faults applied to raw sensor report streams (accelerometer & friends).
struct SensorFaultConfig {
  /// P(a report is silently lost) — serial link drops, saturated buses.
  double dropout_rate = 0.0;
  /// P(a report begins a stuck-at episode): the sensor keeps reporting the
  /// last values for `stuck_duration` (a wedged driver, a frozen DMA page).
  double stuck_rate = 0.0;
  Duration stuck_duration = 200 * kMillisecond;
  /// P(a report begins a noise burst): Gaussian noise of `noise_sigma`
  /// custom units per axis is added for `noise_duration` (vibration,
  /// electrical interference — the false-positive fuel of a jerk detector).
  double noise_rate = 0.0;
  Duration noise_duration = 100 * kMillisecond;
  double noise_sigma = 4.0;
};

/// Faults applied to hint delivery between producer and consumer.
struct HintFaultConfig {
  /// P(a hint update is dropped before delivery).
  double drop_rate = 0.0;
  /// P(a hint is held back by `reorder_hold`, letting successors overtake).
  double reorder_rate = 0.0;
  Duration reorder_hold = 200 * kMillisecond;
  /// Extra delivery latency: uniform in [delay_mean - delay_jitter,
  /// delay_mean + delay_jitter], clamped at 0.
  Duration delay_mean = 0;
  Duration delay_jitter = 0;
  /// Delivered hints carry timestamps aged by this much — the producer's
  /// pipeline lagging without the consumer being told.
  Duration extra_staleness = 0;
};

/// Deterministic clock skew between the hint producer and consumer.
struct ClockSkewConfig {
  Duration offset = 0;      ///< Constant bias added to producer timestamps.
  double drift_ppm = 0.0;   ///< Linear drift, microseconds per second.
};

struct FaultConfig {
  SensorFaultConfig sensor{};
  HintFaultConfig hint{};
  ClockSkewConfig clock{};

  /// True when the config injects nothing at all; consumers use this to take
  /// the exact fault-free code path (the byte-identity contract).
  bool is_null() const noexcept;
  /// True when neither hint faults nor clock skew perturb hint delivery.
  bool hint_null() const noexcept;
};

/// The config as ordered (key, value) pairs for sh.sweep.v1 JSON params and
/// bench labels. Every field whose value differs from FaultConfig{}'s is
/// emitted and no other, so a null config adds nothing — sweep JSON stays
/// byte-identical when faults are off — and two configs that run
/// differently never share params (nor a sweep's config hash).
std::vector<std::pair<std::string, std::string>> fault_params(
    const FaultConfig& config);

/// Sets one field by its JSON/CLI key (e.g. "sensor_dropout_rate" = 0.25,
/// durations in milliseconds). Returns false for unknown keys. Throws
/// std::out_of_range, naming the key and its range, for a probability
/// outside [0, 1] or a negative duration or noise sigma; clock_offset_ms
/// and clock_drift_ppm are signed. The key set is documented in DESIGN.md
/// ("Fault model").
bool set_fault_field(FaultConfig& config, std::string_view key, double value);

}  // namespace sh::fault
