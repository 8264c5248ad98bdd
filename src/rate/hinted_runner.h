// Full-protocol trace replay: the hint path is simulated too.
//
// run_trace() treats the receiver's movement state as an oracle query; this
// variant closes the loop the way the paper's architecture actually works:
//  * the receiver runs the accelerometer + jerk detector over the SAME
//    mobility scenario that shaped the channel;
//  * its current movement hint rides to the sender in the reserved bit of
//    every link-layer ACK (§2.3's zero-overhead mechanism) — so the sender
//    only learns anything when a packet is DELIVERED;
//  * during long TCP stalls the receiver emits standalone HINT frames,
//    themselves subject to the channel's 6M fate.
// Hint staleness therefore emerges from loss and traffic patterns instead
// of being injected as a parameter.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "channel/trace.h"
#include "fault/fault_config.h"
#include "fault/fault_plan.h"
#include "rate/trace_runner.h"
#include "sim/mobility.h"
#include "util/memo_cache.h"

namespace sh::rate {

struct HintedRunResult {
  RunResult run;
  /// Mean delay between a detector transition at the receiver and the
  /// sender's view reflecting it (across observed transitions).
  double mean_hint_delay_s = 0.0;
  std::size_t detector_transitions = 0;
  std::size_t standalone_hint_frames = 0;
  /// Fault accounting (all zero when `fault` is null).
  std::uint64_t sensor_reports_dropped = 0;
  std::uint64_t hint_deliveries_dropped = 0;
};

struct HintedRunConfig {
  RunConfig run{};
  /// Seed for the receiver's accelerometer stream.
  std::uint64_t sensor_seed = 1;
  /// Receiver emits a standalone hint frame when its hint changed and no
  /// ACK has carried it for this long. Must be at least 2 µs: TCP stalls
  /// are crossed in steps of half of it.
  Duration standalone_after = 100 * kMillisecond;
  /// Fault injection; a null config changes no result. Sensor faults
  /// perturb the receiver's accelerometer stream (dropout
  /// starves the detector), hint drop faults eat individual hint carriages
  /// (ACK bit or standalone frame), and extra_staleness backdates the
  /// sender's view watermark.
  fault::FaultConfig fault{};
  /// Seed for the fault plan (exp::RunContext::fault_seed in sweeps).
  std::uint64_t fault_seed = 0;
  /// Sender-side degradation watermark: when > 0, a sender view that has
  /// not been refreshed for this long answers "unknown" and the HintAware
  /// adapter falls back to SampleRate after its stale_hold. 0 = legacy
  /// trust-forever behavior.
  Duration hint_max_age = 0;
};

/// The receiver's accelerometer stepped through the movement detector,
/// behind the sensor faults, as a step timeline.
struct DetectorTimeline {
  /// (time, new value), starting with (0, false).
  std::vector<std::pair<Time, bool>> transitions;
  /// Reports the sensor fault layer dropped before the detector.
  std::uint64_t sensor_reports_dropped = 0;

  bool value_at(Time t) const;
};

/// The receiver's accelerometer stepped through the movement detector up to
/// `until`, behind the plan's sensor faults: dropped reports never reach the
/// detector (a gap in the stream), stuck/noisy reports do and mislead it.
/// With a null sensor config the stream is the plain simulator's. `seed`
/// seeds the accelerometer (HintedRunConfig::sensor_seed).
DetectorTimeline run_detector(const sim::MobilityScenario& scenario,
                              Duration until, std::uint64_t seed,
                              const fault::FaultPlan& plan = {});

/// The process-wide memo of detector timelines behind
/// run_trace_with_hint_protocol. The detector is a pure function of the
/// mobility scenario's phases, trace.duration(), sensor_seed, fault_seed
/// and config.fault.sensor, which is exactly its key; hint faults,
/// hint_max_age and the RunConfig act only on the sender side and are not
/// part of it, so runs that differ only there share one timeline.
using DetectorCache = util::MemoCache<DetectorTimeline>;
DetectorCache& detector_cache();

/// Replays `trace` through the full hint-aware stack. `scenario` must be
/// the same mobility script the trace was generated from (the paper's
/// receiver carries both the radio and the accelerometer). Throws
/// std::invalid_argument for a standalone_after below 2 µs or a
/// link_retries outside [0, mac::kMaxRetry].
HintedRunResult run_trace_with_hint_protocol(
    const channel::PacketFateTrace& trace,
    const sim::MobilityScenario& scenario, const HintedRunConfig& config);

}  // namespace sh::rate
