// Per-environment channel parameters for the paper's four experiment
// settings (Fig 3-4): office (non-line-of-sight), hallway (line-of-sight),
// outdoor pavement, and vehicular drive-by.
#pragma once

#include <optional>
#include <string_view>

#include "channel/fading.h"

namespace sh::channel {

enum class Environment { kOffice, kHallway, kOutdoor, kVehicular };

struct EnvironmentProfile {
  std::string_view name;
  double mean_snr_db;        ///< Long-term average SNR at experiment range.
  double shadow_sigma_db;    ///< Shadowing standard deviation.
  double shadow_period_s;    ///< Dominant shadowing variation period.
  double rician_k_static;    ///< LOS strength when the device is still.
  double rician_k_mobile;    ///< LOS strength while moving (usually weaker).
  DopplerClock::Config doppler;  ///< Motion-state -> Doppler mapping.
  /// Short interference/contention bursts (a neighboring transmitter, a
  /// microwave oven, a passing body): Poisson arrivals during which the SNR
  /// drops sharply for a few milliseconds. Present whether or not the
  /// device moves — the short-term losses static-optimized protocols must
  /// smooth over rather than chase (paper Chapter 1).
  double burst_rate_hz = 1.0;
  Duration burst_mean_duration = 12 * kMillisecond;
  double burst_depth_db = 17.0;
};

/// The calibrated profile for each environment. Values are chosen so the
/// generated traces reproduce the paper's qualitative channel behaviour:
/// mobile coherence time ~10 ms, static channels stable over seconds, NLOS
/// office weaker and more shadowed than the LOS hallway, vehicular swinging
/// through the whole SNR range during a pass.
const EnvironmentProfile& environment_profile(Environment env) noexcept;

std::string_view environment_name(Environment env) noexcept;
/// Inverse of environment_name(); nullopt for an unknown name.
std::optional<Environment> environment_from_name(std::string_view name);

}  // namespace sh::channel
