// Fault-degradation sweep: delivery of the hint-aware rate protocol as the
// hint pipeline fails, against the hint-free SampleRate baseline.
//
// The graceful-degradation contract (DESIGN.md "Fault model"): as hint
// faults worsen — drop rate up, staleness up — HintAware throughput must
// fall monotonically *toward* the SampleRate baseline and never
// meaningfully below it, because a consumer that detects a dead feed falls
// back to exactly that baseline. The bench sweeps hint drop rate x extra
// staleness over static and mobile office traces and checks both halves of
// the contract on the aggregated means.
//
// Runs on the exp::SweepRunner engine; every fault decision derives from
// exp::RunContext::fault_seed, so the printed numbers are identical at any
// --threads value. Only HintAware hears the fault config: the trace, the
// five hint-free protocols and the baseline depend on (mobility,
// repetition) alone, so the sweep computes them once per pair and shares
// them across its ten fault cells.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_cli.h"
#include "experiment_config.h"
#include "util/memo_cache.h"

using namespace sh;
using namespace sh::bench;

namespace {

constexpr double kDropRates[] = {0.0, 0.25, 0.5, 0.75, 1.0};
constexpr double kStalenessMs[] = {0.0, 3000.0};
constexpr Duration kHintMaxAge = 2 * kSecond;

/// What one (mobility, repetition) pair replays without hints.
struct HintFreeRun {
  channel::PacketFateTrace trace;
  rate::ProtocolThroughputs mbps;  ///< `hint` unset.
  double baseline_mbps = 0.0;
};

std::string fmt_rate(double r) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%.2f", r);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const SweepCliOptions opts = parse_sweep_cli(argc, argv);
  std::printf(
      "=== Fault degradation: HintAware vs hint-free baseline (TCP) ===\n"
      "(%d x 20 s office traces per point; hint drop rate x extra "
      "staleness)\n\n",
      kTracesPerPoint);

  struct Cell {
    bool mobile;
    double drop_rate;
    double staleness_ms;
  };
  std::vector<Cell> cells;
  std::vector<exp::SweepPoint> points;
  for (const bool mobile : {false, true}) {
    for (const double stale_ms : kStalenessMs) {
      for (const double drop : kDropRates) {
        fault::FaultConfig fc;
        fc.hint.drop_rate = drop;
        fc.hint.extra_staleness = seconds(stale_ms / 1000.0);
        exp::SweepPoint point;
        point.label = std::string(mobile ? "mobile" : "static") + "/drop" +
                      fmt_rate(drop) + "/stale" +
                      std::to_string(static_cast<int>(stale_ms)) + "ms";
        point.params = {{"environment", "office"},
                        {"mobility", mobile ? "mobile" : "static"}};
        for (auto& kv : fault::fault_params(fc)) {
          point.params.push_back(std::move(kv));
        }
        point.repetitions = kTracesPerPoint;
        points.push_back(std::move(point));
        cells.push_back(Cell{mobile, drop, stale_ms});
      }
    }
  }

  // Holds every pair at once, so each is computed exactly once; concurrent
  // cells of one pair wait for the first instead of repeating it.
  util::MemoCache<HintFreeRun> hint_free(2 * kTracesPerPoint);
  exp::SweepRunner runner({"fault_degradation", 77'000, opts.threads});
  const auto result = runner.run(
      points, [&cells, &hint_free](const exp::SweepPoint&,
                                   const exp::RunContext& ctx) {
        const Cell& cell = cells[ctx.point_index];
        rate::RunConfig run;
        run.workload = rate::Workload::kTcp;
        std::string key(1, cell.mobile ? 'm' : 's');
        util::append_key_i64(key, ctx.repetition);
        const auto shared = hint_free.get_or_compute(key, [&] {
          channel::TraceGeneratorConfig cfg;
          cfg.env = channel::Environment::kOffice;
          cfg.scenario = cell.mobile
                             ? sim::MobilityScenario::all_walking(20 * kSecond)
                             : sim::MobilityScenario::all_static(20 * kSecond);
          // Repetition-derived trace seeds: every fault level replays the
          // SAME traces, so the drop-rate axis is a paired comparison and
          // the monotonicity check is not washed out by trace-to-trace
          // variance.
          cfg.seed = 77'000 + static_cast<std::uint64_t>(ctx.repetition) * 17;
          cfg.snr_offset_db = placement_offset_db(ctx.repetition);
          HintFreeRun hf{channel::generate_trace(cfg), {}, 0.0};
          hf.mbps = rate::run_hint_free_protocols(hf.trace, run);
          // The degradation floor is default-parameter SampleRate — exactly
          // what a HintAware adapter becomes once its feed dies (not the
          // post-facto best-window variant reported as sample_mbps).
          rate::SampleRateAdapter baseline;
          hf.baseline_mbps =
              rate::run_trace(baseline, hf.trace, run).throughput_mbps;
          return hf;
        });
        fault::FaultConfig fc;
        fc.hint.drop_rate = cell.drop_rate;
        fc.hint.extra_staleness = seconds(cell.staleness_ms / 1000.0);
        rate::ProtocolThroughputs mbps = shared->mbps;
        mbps.hint = rate::hint_aware_mbps(
            shared->trace, run,
            faulty_truth_query(shared->trace, fc, ctx.fault_seed,
                               kHintMaxAge));
        exp::MetricSample sample = protocol_metrics(mbps);
        sample.set("baseline_mbps", shared->baseline_mbps);
        const double* hint = sample.find("hint_mbps");
        const double* base = sample.find("baseline_mbps");
        // A trace that delivers nothing under the baseline cannot be
        // degraded by hints; score 0/0 as parity rather than poisoning the
        // point's mean with an artificial zero.
        const double ratio = (*base > 0.0)   ? *hint / *base
                             : (*hint > 0.0) ? 2.0
                                             : 1.0;
        sample.set("ratio_to_baseline", ratio);
        return sample;
      });

  util::Table table({"point", "HintAware Mbps", "baseline Mbps",
                     "hint/baseline"});
  bool monotone = true;
  bool above_floor = true;
  double worst_ratio = 1e9;
  for (const bool mobile : {false, true}) {
    for (const double stale_ms : kStalenessMs) {
      double prev_ratio = 1e9;
      for (const double drop : kDropRates) {
        const std::string label =
            std::string(mobile ? "mobile" : "static") + "/drop" +
            fmt_rate(drop) + "/stale" +
            std::to_string(static_cast<int>(stale_ms)) + "ms";
        const double hint = result.summary(label, "hint_mbps").mean;
        const double base = result.summary(label, "baseline_mbps").mean;
        const double ratio = result.summary(label, "ratio_to_baseline").mean;
        table.add_row({label, util::fmt(hint, 2), util::fmt(base, 2),
                       util::fmt(ratio, 3)});
        // Monotone decrease toward the baseline, with a small tolerance for
        // trace-to-trace noise between adjacent fault rates.
        if (ratio > prev_ratio + 0.02) monotone = false;
        prev_ratio = ratio;
        if (ratio < 0.99) above_floor = false;
        worst_ratio = std::min(worst_ratio, ratio);
      }
    }
  }
  table.print(std::cout);
  std::printf(
      "\ndegradation monotone toward baseline: %s\n"
      "never below 0.99x baseline: %s (worst ratio %.3f)\n"
      "Contract: a dead hint feed must cost nothing relative to never "
      "having had hints.\n",
      monotone ? "yes" : "NO", above_floor ? "yes" : "NO", worst_ratio);
  finish_sweep(result, opts);
  return !(monotone && above_floor);
}
