#include "fault/fault_config.h"

#include <cstdio>
#include <limits>
#include <stdexcept>

namespace sh::fault {
namespace {

/// The values a field admits.
struct Range {
  double lo;
  double hi;
  const char* text;
};
constexpr double kMax = std::numeric_limits<double>::max();
constexpr Range kProbability{0.0, 1.0, "[0, 1]"};
constexpr Range kNonNegative{0.0, kMax, "[0, inf)"};
constexpr Range kSigned{-kMax, kMax, "(-inf, inf)"};

/// Calls fn(key, range, field of each config) for every field, in key
/// order. A field is a double (rates, sigma, ppm) or a Duration, whose key
/// is in milliseconds.
template <class Fn, class... Config>
void for_each_field(Fn&& fn, Config&... c) {
  fn("sensor_dropout_rate", kProbability, c.sensor.dropout_rate...);
  fn("sensor_stuck_rate", kProbability, c.sensor.stuck_rate...);
  fn("sensor_stuck_ms", kNonNegative, c.sensor.stuck_duration...);
  fn("sensor_noise_rate", kProbability, c.sensor.noise_rate...);
  fn("sensor_noise_ms", kNonNegative, c.sensor.noise_duration...);
  fn("sensor_noise_sigma", kNonNegative, c.sensor.noise_sigma...);
  fn("hint_drop_rate", kProbability, c.hint.drop_rate...);
  fn("hint_reorder_rate", kProbability, c.hint.reorder_rate...);
  fn("hint_reorder_hold_ms", kNonNegative, c.hint.reorder_hold...);
  fn("hint_delay_ms", kNonNegative, c.hint.delay_mean...);
  fn("hint_jitter_ms", kNonNegative, c.hint.delay_jitter...);
  fn("hint_staleness_ms", kNonNegative, c.hint.extra_staleness...);
  fn("clock_offset_ms", kSigned, c.clock.offset...);
  fn("clock_drift_ppm", kSigned, c.clock.drift_ppm...);
}

double in_key_unit(double v) { return v; }
double in_key_unit(Duration d) { return to_milliseconds(d); }

void assign(double& field, double v) { field = v; }
void assign(Duration& field, double ms) {
  field = static_cast<Duration>(ms * kMillisecond);
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

}  // namespace

bool FaultConfig::hint_null() const noexcept {
  return hint.drop_rate == 0.0 && hint.reorder_rate == 0.0 &&
         hint.delay_mean == 0 && hint.delay_jitter == 0 &&
         hint.extra_staleness == 0 && clock.offset == 0 &&
         clock.drift_ppm == 0.0;
}

bool FaultConfig::is_null() const noexcept {
  return sensor.dropout_rate == 0.0 && sensor.stuck_rate == 0.0 &&
         sensor.noise_rate == 0.0 && hint_null();
}

std::vector<std::pair<std::string, std::string>> fault_params(
    const FaultConfig& config) {
  std::vector<std::pair<std::string, std::string>> out;
  const FaultConfig defaults{};
  for_each_field(
      [&out](const char* key, const Range&, const auto& value,
             const auto& def) {
        if (value != def) out.emplace_back(key, fmt(in_key_unit(value)));
      },
      config, defaults);
  return out;
}

bool set_fault_field(FaultConfig& config, std::string_view key, double value) {
  bool known = false;
  for_each_field(
      [&](const char* name, const Range& range, auto& field) {
        if (key != name) return;
        known = true;
        if (!(value >= range.lo && value <= range.hi)) {  // also rejects NaN
          throw std::out_of_range(std::string(name) + "=" + fmt(value) +
                                  " out of range " + range.text);
        }
        assign(field, value);
      },
      config);
  return known;
}

}  // namespace sh::fault
