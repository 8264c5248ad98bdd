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

#include "channel/trace.h"
#include "fault/fault_config.h"
#include "rate/trace_runner.h"
#include "sim/mobility.h"

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
  /// ACK has carried it for this long.
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

/// Replays `trace` through the full hint-aware stack. `scenario` must be
/// the same mobility script the trace was generated from (the paper's
/// receiver carries both the radio and the accelerometer).
HintedRunResult run_trace_with_hint_protocol(
    const channel::PacketFateTrace& trace,
    const sim::MobilityScenario& scenario, const HintedRunConfig& config);

}  // namespace sh::rate
