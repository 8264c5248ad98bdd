#include "fault/fault_config.h"

#include <cstdio>

namespace sh::fault {
namespace {

std::string fmt_rate(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

std::string fmt_ms(Duration d) {
  return fmt_rate(to_milliseconds(d));
}

}  // namespace

bool FaultConfig::hint_null() const noexcept {
  return hint.drop_rate == 0.0 && hint.duplicate_rate == 0.0 &&
         hint.reorder_rate == 0.0 && hint.delay_mean == 0 &&
         hint.delay_jitter == 0 && hint.extra_staleness == 0 &&
         clock.offset == 0 && clock.drift_ppm == 0.0;
}

bool FaultConfig::is_null() const noexcept {
  return sensor.dropout_rate == 0.0 && sensor.stuck_rate == 0.0 &&
         sensor.noise_rate == 0.0 && hint_null();
}

std::vector<std::pair<std::string, std::string>> fault_params(
    const FaultConfig& config) {
  std::vector<std::pair<std::string, std::string>> out;
  const auto rate = [&out](const char* key, double v) {
    if (v != 0.0) out.emplace_back(key, fmt_rate(v));
  };
  const auto ms = [&out](const char* key, Duration d) {
    if (d != 0) out.emplace_back(key, fmt_ms(d));
  };
  rate("sensor_dropout_rate", config.sensor.dropout_rate);
  rate("sensor_stuck_rate", config.sensor.stuck_rate);
  rate("sensor_noise_rate", config.sensor.noise_rate);
  rate("hint_drop_rate", config.hint.drop_rate);
  rate("hint_duplicate_rate", config.hint.duplicate_rate);
  rate("hint_reorder_rate", config.hint.reorder_rate);
  ms("hint_delay_ms", config.hint.delay_mean);
  ms("hint_jitter_ms", config.hint.delay_jitter);
  ms("hint_staleness_ms", config.hint.extra_staleness);
  ms("clock_offset_ms", config.clock.offset);
  rate("clock_drift_ppm", config.clock.drift_ppm);
  return out;
}

bool set_fault_field(FaultConfig& config, std::string_view key, double value) {
  const auto ms = [](double v) { return static_cast<Duration>(v * kMillisecond); };
  if (key == "sensor_dropout_rate") config.sensor.dropout_rate = value;
  else if (key == "sensor_stuck_rate") config.sensor.stuck_rate = value;
  else if (key == "sensor_stuck_ms") config.sensor.stuck_duration = ms(value);
  else if (key == "sensor_noise_rate") config.sensor.noise_rate = value;
  else if (key == "sensor_noise_ms") config.sensor.noise_duration = ms(value);
  else if (key == "sensor_noise_sigma") config.sensor.noise_sigma = value;
  else if (key == "hint_drop_rate") config.hint.drop_rate = value;
  else if (key == "hint_duplicate_rate") config.hint.duplicate_rate = value;
  else if (key == "hint_reorder_rate") config.hint.reorder_rate = value;
  else if (key == "hint_reorder_hold_ms") config.hint.reorder_hold = ms(value);
  else if (key == "hint_delay_ms") config.hint.delay_mean = ms(value);
  else if (key == "hint_jitter_ms") config.hint.delay_jitter = ms(value);
  else if (key == "hint_staleness_ms") config.hint.extra_staleness = ms(value);
  else if (key == "clock_offset_ms") config.clock.offset = ms(value);
  else if (key == "clock_drift_ppm") config.clock.drift_ppm = value;
  else return false;
  return true;
}

}  // namespace sh::fault
