#include "rate/hinted_runner.h"

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "channel/trace_cache.h"
#include "fault/faulty_sensors.h"
#include "mac/rates.h"
#include "rate/hint_aware.h"
#include "rate/replay.h"
#include "sensors/accelerometer.h"
#include "sensors/movement_detector.h"
#include "util/rng.h"

namespace sh::rate {
namespace {

/// Resident timelines in detector_cache(). A sweep revisits one detector
/// input once per sender-side setting, a few items apart.
constexpr std::size_t kDetectorCacheCapacity = 64;

std::string detector_key(const sim::MobilityScenario& scenario,
                         Duration until, const HintedRunConfig& config) {
  const auto& sensor = config.fault.sensor;
  std::string key;
  key.reserve(128);
  channel::append_scenario_key(key, scenario);
  util::append_key_i64(key, until);
  util::append_key_u64(key, config.sensor_seed);
  util::append_key_u64(key, config.fault_seed);
  util::append_key_double(key, sensor.dropout_rate);
  util::append_key_double(key, sensor.stuck_rate);
  util::append_key_i64(key, sensor.stuck_duration);
  util::append_key_double(key, sensor.noise_rate);
  util::append_key_i64(key, sensor.noise_duration);
  util::append_key_double(key, sensor.noise_sigma);
  return key;
}

}  // namespace

DetectorTimeline run_detector(const sim::MobilityScenario& scenario,
                              Duration until, std::uint64_t seed,
                              const fault::FaultPlan& plan) {
  fault::FaultyAccelerometer accel(
      sensors::AccelerometerSim(scenario, util::Rng(seed)), plan);
  sensors::MovementDetector detector;
  DetectorTimeline timeline;
  bool last = false;
  timeline.transitions.emplace_back(0, false);
  while (accel.now() < until) {
    const auto report = accel.next();
    if (!report) continue;
    const bool moving = detector.update(*report);
    if (moving != last) {
      timeline.transitions.emplace_back(report->timestamp, moving);
      last = moving;
    }
  }
  timeline.sensor_reports_dropped = accel.dropped();
  return timeline;
}

bool DetectorTimeline::value_at(Time t) const {
  bool value = false;
  for (const auto& [when, v] : transitions) {
    if (when > t) break;
    value = v;
  }
  return value;
}

DetectorCache& detector_cache() {
  // Process-wide by design: the cache is mutex-guarded and keyed by every
  // input of the detector, so shards can only ever observe the same
  // bit-identical timeline a solo run would compute.
  static DetectorCache cache(kDetectorCacheCapacity);  // shlint:allow(T1)
  return cache;
}

HintedRunResult run_trace_with_hint_protocol(
    const channel::PacketFateTrace& trace,
    const sim::MobilityScenario& scenario, const HintedRunConfig& config) {
  if (config.standalone_after < 2) {
    throw std::invalid_argument(
        "run_trace_with_hint_protocol: standalone_after must be >= 2 us");
  }
  HintedRunResult result;
  const fault::FaultPlan plan(config.fault, config.fault_seed);
  const auto timeline = detector_cache().get_or_compute(
      detector_key(scenario, trace.duration(), config), [&] {
        return run_detector(scenario, trace.duration(), config.sensor_seed,
                            plan);
      });
  const DetectorTimeline& detector = *timeline;
  result.sensor_reports_dropped = detector.sensor_reports_dropped;

  // Sender-side view of the receiver's movement hint, updated only when a
  // frame actually crosses the link.
  bool sender_view = false;
  bool sender_has_view = false;
  Time sender_view_updated = 0;
  std::uint64_t hint_delivery_index = 0;
  // For hint-delay accounting: when did the sender first reflect each
  // detector transition?
  std::vector<Time> reflected_at(detector.transitions.size(), -1);

  auto deliver_hint_to_sender = [&](Time now) {
    // Each carriage of the hint (ACK bit or standalone frame) is one fault
    // opportunity; a dropped carriage leaves the sender's view — and its
    // staleness watermark — untouched.
    if (plan.hint_dropped(hint_delivery_index++)) {
      ++result.hint_deliveries_dropped;
      return;
    }
    const bool current = detector.value_at(now);
    sender_view = current;
    sender_has_view = true;
    sender_view_updated = now - config.fault.hint.extra_staleness;
    for (std::size_t i = 0; i < detector.transitions.size(); ++i) {
      if (detector.transitions[i].first <= now && reflected_at[i] < 0 &&
          detector.transitions[i].second == current) {
        // Transitions superseded by a newer opposite value can never be
        // individually reflected; mark everything up to now consistent
        // with the delivered value.
        reflected_at[i] = now;
      }
    }
  };

  HintAwareRateAdapter adapter(
      HintAwareRateAdapter::HintQuery{
          [&](Time now) -> std::optional<bool> {
            if (config.hint_max_age > 0 &&
                (!sender_has_view ||
                 now - sender_view_updated > config.hint_max_age)) {
              return std::nullopt;
            }
            return sender_view;
          }},
      util::Rng(42));
  util::Rng standalone_rng(config.sensor_seed ^ 0x5A5A);
  Time last_hint_carried = 0;

  auto maybe_standalone = [&](Time now) {
    // Receiver notices its hint changed and nothing has carried it.
    if (detector.value_at(now) == sender_view) return;
    if (now - last_hint_carried < config.standalone_after) return;
    ++result.standalone_hint_frames;
    last_hint_carried = now;
    // A short 6M frame; delivery decided by the trace (plus the floor).
    if (trace.delivered(now, mac::slowest_rate()) &&
        !standalone_rng.bernoulli(config.run.iid_loss_floor)) {
      deliver_hint_to_sender(now);
    }
  };

  result.run = replay(
      adapter, trace, config.run,
      ReplayHooks{
          [&](Time now) {
            // The link-layer ACK carries the receiver's CURRENT movement bit.
            deliver_hint_to_sender(now);
            last_hint_carried = now;
          },
          maybe_standalone,
          [&](Time& t, Time until) {
            // During the stall the receiver may push standalone hint frames.
            while (t < until) {
              maybe_standalone(t);
              t += config.standalone_after / 2;
            }
          }});

  // Hint-delay accounting over genuine transitions (skip the initial state).
  double delay_sum = 0.0;
  std::size_t counted = 0;
  for (std::size_t i = 1; i < detector.transitions.size(); ++i) {
    if (reflected_at[i] < 0) continue;
    delay_sum += to_seconds(reflected_at[i] - detector.transitions[i].first);
    ++counted;
  }
  result.detector_transitions = detector.transitions.size() - 1;
  result.mean_hint_delay_s = counted > 0 ? delay_sum / counted : 0.0;
  return result;
}

}  // namespace sh::rate
