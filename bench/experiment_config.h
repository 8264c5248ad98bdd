// Shared experiment configuration for the reproduction benches.
//
// All constants here were calibrated once (see DESIGN.md) and are shared by
// every bench so the table and figure reproductions stay mutually
// consistent. Seeds are fixed: every number printed by a bench is exactly
// reproducible.
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "channel/trace_generator.h"
#include "exp/sweep.h"
#include "fault/fault_plan.h"
#include "fault/movement_feed.h"
#include "rate/hint_aware.h"
#include "rate/rapid_sample.h"
#include "rate/rraa.h"
#include "rate/sample_rate.h"
#include "rate/snr_adapters.h"
#include "rate/trace_runner.h"
#include "util/stats.h"
#include "util/table.h"

namespace sh::bench {

/// The three indoor/outdoor environments of Figs 3-5/3-6/3-7.
inline const std::vector<channel::Environment>& walking_environments() {
  static const std::vector<channel::Environment> kEnvs{
      channel::Environment::kOffice, channel::Environment::kHallway,
      channel::Environment::kOutdoor};
  return kEnvs;
}

/// Traces per (environment, scenario) point; the paper collected 10-20.
inline constexpr int kTracesPerPoint = 16;

/// Per-trace placement offset: repetitions of an experiment re-place the
/// devices, shifting the mean SNR a little.
inline double placement_offset_db(int trace_index) {
  return static_cast<double>(trace_index % 5) - 2.0;
}

/// Hint latency for the hint-aware protocol when driven from ground truth:
/// detector latency (<100 ms, Chapter 2) plus one frame exchange.
inline constexpr Duration kHintLatency = 150 * kMillisecond;

/// Chapter 4 topology-maintenance link: a marginal long link probed at
/// 6 Mbit/s whose delivery swings with body shadowing (paper Fig 4-1).
inline channel::TraceGeneratorConfig topo_config(bool mobile,
                                                 std::uint64_t seed,
                                                 Duration duration) {
  channel::TraceGeneratorConfig cfg;
  cfg.env = channel::Environment::kOffice;
  cfg.scenario = mobile ? sim::MobilityScenario::all_walking(duration)
                        : sim::MobilityScenario::all_static(duration);
  cfg.seed = seed;
  cfg.snr_offset_db = -2.0;
  cfg.shadow_sigma_scale = 2.6;
  cfg.shadow_clock = channel::DopplerClock::Config{0.01, 0.8, 0.9};
  return cfg;
}

/// Ground-truth-driven movement query with realistic hint latency. It
/// always answers, so the adapter never enters its degraded path.
inline rate::HintAwareRateAdapter::HintQuery lagged_truth_query(
    const channel::PacketFateTrace& trace, Duration latency = kHintLatency) {
  return rate::HintAwareRateAdapter::HintQuery{
      [&trace, latency](Time t) -> std::optional<bool> {
        return trace.moving(std::max<Time>(0, t - latency));
      }};
}

/// Ground truth pushed through a faulty hint pipeline (fault::MovementFeed):
/// updates every 100 ms with `latency`, subject to the plan's hint faults,
/// answering nullopt once nothing fresh has survived for `max_age`. The
/// query carries per-trace state, so build one per adapter. A null config
/// is the clean path: lagged_truth_query, byte for byte.
inline rate::HintAwareRateAdapter::HintQuery faulty_truth_query(
    const channel::PacketFateTrace& trace, const fault::FaultConfig& config,
    std::uint64_t fault_seed, Duration max_age = 2 * kSecond,
    Duration latency = kHintLatency) {
  if (config.is_null()) return lagged_truth_query(trace, latency);
  fault::MovementFeed::Params params;
  params.latency = latency;
  params.max_age = max_age;
  auto feed = std::make_shared<fault::MovementFeed>(
      [&trace](Time t) { return trace.moving(t); },
      fault::FaultPlan(config, fault_seed), params);
  return rate::HintAwareRateAdapter::HintQuery{
      [feed](Time t) { return feed->query(t); }};
}

/// Mean throughput of each protocol over a batch of traces.
struct ProtocolMeans {
  util::RunningStats hint, rapid, sample, rraa, rbar, charm;

  void add(const rate::ProtocolThroughputs& mbps) {
    hint.add(mbps.hint);
    rapid.add(mbps.rapid);
    sample.add(mbps.sample);
    rraa.add(mbps.rraa);
    rbar.add(mbps.rbar);
    charm.add(mbps.charm);
  }
};

/// One repetition's throughput of every protocol as sweep-engine metrics.
inline exp::MetricSample protocol_metrics(
    const rate::ProtocolThroughputs& mbps) {
  exp::MetricSample sample;
  sample.set("hint_mbps", mbps.hint);
  sample.set("rapid_mbps", mbps.rapid);
  sample.set("sample_mbps", mbps.sample);
  sample.set("rraa_mbps", mbps.rraa);
  sample.set("rbar_mbps", mbps.rbar);
  sample.set("charm_mbps", mbps.charm);
  return sample;
}

/// rate::run_paper_protocols on `trace` as sweep-engine metrics.
/// `hint_query` is lagged_truth_query for the paper's setup or
/// faulty_truth_query for a degraded hint path.
inline exp::MetricSample protocol_metrics(
    const channel::PacketFateTrace& trace, const rate::RunConfig& run,
    rate::HintAwareRateAdapter::HintQuery hint_query) {
  return protocol_metrics(
      rate::run_paper_protocols(trace, run, std::move(hint_query)));
}

}  // namespace sh::bench
