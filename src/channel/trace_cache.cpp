#include "channel/trace_cache.h"

namespace sh::channel {

void append_scenario_key(std::string& key,
                         const sim::MobilityScenario& scenario) {
  const auto& phases = scenario.phases();
  util::append_key_u64(key, phases.size());
  for (const auto& phase : phases) {
    util::append_key_i64(key, phase.duration);
    key.push_back(static_cast<char>(phase.state));
    util::append_key_double(key, phase.speed_mps);
  }
}

std::string trace_config_key(const TraceGeneratorConfig& config) {
  std::string key;
  key.reserve(160);
  key.push_back(static_cast<char>(config.env));
  util::append_key_u64(key, config.seed);
  util::append_key_i64(key, config.slot_duration);
  util::append_key_i64(key, config.payload_bytes);
  util::append_key_double(key, config.snr_offset_db);
  util::append_key_double(key, config.snr_noise_db);
  util::append_key_double(key, config.shadow_sigma_scale);
  util::append_key_double(key, config.shadow_clock.static_hz);
  util::append_key_double(key, config.shadow_clock.walking_hz);
  util::append_key_double(key, config.shadow_clock.vehicle_hz_per_mps);
  util::append_key_double(key, config.geometry.lateral_offset_m);
  util::append_key_double(key, config.geometry.road_half_length_m);
  util::append_key_double(key, config.geometry.path_loss_exponent);
  util::append_key_double(key, config.geometry.start_position_m);
  append_scenario_key(key, config.scenario);
  return key;
}

std::shared_ptr<const PacketFateTrace> TraceCache::get_or_generate(
    const TraceGeneratorConfig& config) {
  return get_or_compute(trace_config_key(config),
                        [&config] { return generate_trace(config); });
}

TraceCache& global_trace_cache() {
  // Process-wide by design: the cache is mutex-guarded and keyed by the
  // full generator config, so shards can only ever observe the same
  // bit-identical trace a solo run would generate.
  static TraceCache cache;  // shlint:allow(T1)
  return cache;
}

std::shared_ptr<const PacketFateTrace> generate_trace_cached(
    const TraceGeneratorConfig& config) {
  return global_trace_cache().get_or_generate(config);
}

}  // namespace sh::channel
