// Shared experiment configuration for the reproduction benches.
//
// All constants here were calibrated once (see DESIGN.md) and are shared by
// every bench so the table and figure reproductions stay mutually
// consistent. Seeds are fixed: every number printed by a bench is exactly
// reproducible.
#pragma once

#include <memory>
#include <string>
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

/// Runs SampleRate with the paper's favourable treatment: the averaging
/// window is chosen per trace, post facto (§3.4 states this bias openly).
inline double best_samplerate_mbps(const channel::PacketFateTrace& trace,
                                   const rate::RunConfig& run) {
  double best = 0.0;
  for (const double window_s : {2.0, 5.0, 10.0}) {
    rate::SampleRateAdapter::Params params;
    params.window = seconds(window_s);
    rate::SampleRateAdapter adapter(params, util::Rng(42));
    best = std::max(best, rate::run_trace(adapter, trace, run).throughput_mbps);
  }
  return best;
}

/// Ground-truth-driven movement query with realistic hint latency.
inline rate::HintAwareRateAdapter::MovingQuery lagged_truth_query(
    const channel::PacketFateTrace& trace, Duration latency = kHintLatency) {
  return [&trace, latency](Time t) {
    return trace.moving(std::max<Time>(0, t - latency));
  };
}

/// Ground truth pushed through a faulty hint pipeline (fault::MovementFeed):
/// updates every 100 ms with `latency`, subject to the plan's hint faults,
/// answering nullopt once nothing fresh has survived for `max_age`. The
/// query carries per-trace state, so build one per adapter.
inline rate::HintAwareRateAdapter::HintQuery faulty_truth_query(
    const channel::PacketFateTrace& trace, const fault::FaultConfig& config,
    std::uint64_t fault_seed, Duration max_age = 2 * kSecond,
    Duration latency = kHintLatency) {
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
};

inline void run_all_protocols(const channel::PacketFateTrace& trace,
                              const rate::RunConfig& run, ProtocolMeans& out) {
  rate::HintAwareRateAdapter hint(lagged_truth_query(trace), util::Rng(42));
  out.hint.add(rate::run_trace(hint, trace, run).throughput_mbps);
  rate::RapidSample rapid;
  out.rapid.add(rate::run_trace(rapid, trace, run).throughput_mbps);
  out.sample.add(best_samplerate_mbps(trace, run));
  rate::Rraa rraa;
  out.rraa.add(rate::run_trace(rraa, trace, run).throughput_mbps);
  rate::Rbar rbar;
  out.rbar.add(rate::run_trace(rbar, trace, run).throughput_mbps);
  rate::Charm charm;
  out.charm.add(rate::run_trace(charm, trace, run).throughput_mbps);
}

/// One repetition's throughput of every protocol, as sweep-engine metrics.
/// Runs the same adapters in the same order as run_all_protocols, so a
/// ported bench aggregates the exact numbers its serial version printed.
inline exp::MetricSample protocol_metrics(const channel::PacketFateTrace& trace,
                                          const rate::RunConfig& run) {
  exp::MetricSample sample;
  rate::HintAwareRateAdapter hint(lagged_truth_query(trace), util::Rng(42));
  sample.set("hint_mbps", rate::run_trace(hint, trace, run).throughput_mbps);
  rate::RapidSample rapid;
  sample.set("rapid_mbps", rate::run_trace(rapid, trace, run).throughput_mbps);
  sample.set("sample_mbps", best_samplerate_mbps(trace, run));
  rate::Rraa rraa;
  sample.set("rraa_mbps", rate::run_trace(rraa, trace, run).throughput_mbps);
  rate::Rbar rbar;
  sample.set("rbar_mbps", rate::run_trace(rbar, trace, run).throughput_mbps);
  rate::Charm charm;
  sample.set("charm_mbps", rate::run_trace(charm, trace, run).throughput_mbps);
  return sample;
}

/// protocol_metrics with the hint adapter driven by an explicit (possibly
/// faulty, possibly nullopt-answering) query. Baseline protocols are
/// untouched — faults live in the hint path, not the channel — so the gap
/// to `sample_mbps` is exactly the cost of degraded hints.
inline exp::MetricSample protocol_metrics(
    const channel::PacketFateTrace& trace, const rate::RunConfig& run,
    rate::HintAwareRateAdapter::HintQuery hint_query) {
  exp::MetricSample sample;
  rate::HintAwareRateAdapter hint(std::move(hint_query), util::Rng(42));
  sample.set("hint_mbps", rate::run_trace(hint, trace, run).throughput_mbps);
  rate::RapidSample rapid;
  sample.set("rapid_mbps", rate::run_trace(rapid, trace, run).throughput_mbps);
  sample.set("sample_mbps", best_samplerate_mbps(trace, run));
  rate::Rraa rraa;
  sample.set("rraa_mbps", rate::run_trace(rraa, trace, run).throughput_mbps);
  rate::Rbar rbar;
  sample.set("rbar_mbps", rate::run_trace(rbar, trace, run).throughput_mbps);
  rate::Charm charm;
  sample.set("charm_mbps", rate::run_trace(charm, trace, run).throughput_mbps);
  return sample;
}

}  // namespace sh::bench
