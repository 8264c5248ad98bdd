#include "fault/fault_plan.h"

#include <algorithm>

namespace sh::fault {
namespace {

std::uint64_t stream_seed(std::uint64_t seed, FaultPlan::Stream stream) {
  return util::Rng::derive_seed(seed, static_cast<std::uint64_t>(stream));
}

}  // namespace

FaultPlan::FaultPlan(FaultConfig config, std::uint64_t seed)
    : config_(config),
      clock_(config.clock),
      seed_(seed),
      sensor_drop_seed_(stream_seed(seed, Stream::kSensorDrop)),
      sensor_stuck_seed_(stream_seed(seed, Stream::kSensorStuck)),
      sensor_noise_seed_(stream_seed(seed, Stream::kSensorNoise)),
      hint_drop_seed_(stream_seed(seed, Stream::kHintDrop)),
      hint_reorder_seed_(stream_seed(seed, Stream::kHintReorder)) {}

bool FaultPlan::sensor_report_dropped(std::uint64_t index) const noexcept {
  if (config_.sensor.dropout_rate <= 0.0) return false;
  return decide(sensor_drop_seed_, index, config_.sensor.dropout_rate);
}

bool FaultPlan::sensor_stuck_begins(std::uint64_t index) const noexcept {
  if (config_.sensor.stuck_rate <= 0.0) return false;
  return decide(sensor_stuck_seed_, index, config_.sensor.stuck_rate);
}

bool FaultPlan::sensor_noise_begins(std::uint64_t index) const noexcept {
  if (config_.sensor.noise_rate <= 0.0) return false;
  return decide(sensor_noise_seed_, index, config_.sensor.noise_rate);
}

double FaultPlan::sensor_noise(std::uint64_t index, int axis) const noexcept {
  auto rng = event_rng(Stream::kSensorNoise, index);
  rng.bernoulli(config_.sensor.noise_rate);  // skip the begin decision draw
  double n = 0.0;
  for (int a = 0; a <= axis; ++a) n = rng.normal(0.0, config_.sensor.noise_sigma);
  return n;
}

bool FaultPlan::hint_dropped(std::uint64_t index) const noexcept {
  if (config_.hint.drop_rate <= 0.0) return false;
  return decide(hint_drop_seed_, index, config_.hint.drop_rate);
}

bool FaultPlan::hint_reordered(std::uint64_t index) const noexcept {
  if (config_.hint.reorder_rate <= 0.0) return false;
  return decide(hint_reorder_seed_, index, config_.hint.reorder_rate);
}

Duration FaultPlan::hint_delay(std::uint64_t index) const noexcept {
  const auto& hint = config_.hint;
  if (hint.delay_mean == 0 && hint.delay_jitter == 0) return 0;
  auto rng = event_rng(Stream::kHintDelay, index);
  const double jitter =
      hint.delay_jitter == 0
          ? 0.0
          : rng.uniform(-static_cast<double>(hint.delay_jitter),
                        static_cast<double>(hint.delay_jitter));
  return std::max<Duration>(
      0, hint.delay_mean + static_cast<Duration>(jitter));
}

}  // namespace sh::fault
