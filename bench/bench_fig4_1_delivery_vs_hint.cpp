// Figure 4-1: packet delivery rate for 6 Mbps probes over time on a
// combined static/mobile trace, with the movement hint overlaid. The
// paper's observation: motion makes the per-second delivery ratio jump by
// more than 20% second to second; static periods are stable.
//
// Runs on the exp::SweepRunner engine as a one-point sweep: the headline
// jump statistics are sweep metrics (so --json exports them in the
// sh.sweep.v1 schema) while the per-second table is printed from the same
// deterministic trace.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "channel/trace_stats.h"
#include "bench_cli.h"
#include "experiment_config.h"
#include "util/table.h"

using namespace sh;
using namespace sh::bench;

namespace {

// 140 s trace: still / walk / still / walk, like the paper's plot.
channel::TraceGeneratorConfig figure_config() {
  channel::TraceGeneratorConfig cfg = topo_config(false, 71, 0);
  cfg.scenario = sim::MobilityScenario{{
      {30 * kSecond, sim::MotionState::kStatic, 0.0},
      {40 * kSecond, sim::MotionState::kWalking, 1.4},
      {30 * kSecond, sim::MotionState::kStatic, 0.0},
      {40 * kSecond, sim::MotionState::kWalking, 1.4},
  }};
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const SweepCliOptions opts = parse_sweep_cli(argc, argv);
  std::printf(
      "=== Figure 4-1: 6M delivery rate over time + movement hint ===\n\n");

  exp::SweepRunner runner({"fig4_1_delivery_vs_hint", 71, opts.threads});
  exp::SweepPoint point;
  point.label = "office/still-walk-still-walk";
  point.params = {{"environment", "office"}, {"mobility", "mixed"}};
  const auto result =
      runner.run({point}, [](const exp::SweepPoint&, const exp::RunContext&) {
        const auto trace = channel::generate_trace(figure_config());
        const auto series = channel::delivery_series(trace, mac::slowest_rate());
        util::RunningStats static_jumps, mobile_jumps;
        int mobile_big_jumps = 0;
        for (std::size_t i = 1; i < series.size(); ++i) {
          const double jump = std::fabs(series[i].delivery_ratio -
                                        series[i - 1].delivery_ratio);
          if (series[i].moving) {
            mobile_jumps.add(jump);
            if (jump > 0.2) ++mobile_big_jumps;
          } else {
            static_jumps.add(jump);
          }
        }
        exp::MetricSample sample;
        sample.set("static_jump_mean", static_jumps.mean());
        sample.set("mobile_jump_mean", mobile_jumps.mean());
        sample.set("mobile_big_jumps", static_cast<double>(mobile_big_jumps));
        return sample;
      });

  // The table re-reads the same deterministic trace the sweep measured.
  const auto trace = channel::generate_trace(figure_config());
  const auto series = channel::delivery_series(trace, mac::slowest_rate());
  util::Table table({"time_s", "delivery", "hint"});
  for (const auto& p : series) {
    table.add_row({util::fmt(p.time_s, 0), util::fmt(p.delivery_ratio, 2),
                   p.moving ? "1" : "0"});
  }
  table.print(std::cout);

  const auto& metrics = result.points.front().metrics;
  std::printf(
      "\nSecond-to-second delivery jumps: static mean %.3f, mobile mean %.3f "
      "(%d mobile jumps exceed 0.20)\n",
      metrics.summary("static_jump_mean").mean,
      metrics.summary("mobile_jump_mean").mean,
      static_cast<int>(metrics.summary("mobile_big_jumps").mean));
  std::printf(
      "\nPaper: motion makes the delivery ratio fluctuate second to second "
      "with many jumps exceeding 20%%; static periods are stable.\n");
  finish_sweep(result, opts);
  return 0;
}
