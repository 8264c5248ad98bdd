// Figure 3-7: static-only throughput (TCP), per environment, normalized to
// RapidSample. Paper: RapidSample performs WORST here — 12-28% below
// SampleRate, which is the best protocol in every environment (hence its
// role as the static half of the hint-aware scheme); CHARM slightly above
// RBAR (averaging wins when the channel is stable).
//
// Runs on the exp::SweepRunner engine (see bench_fig3_6_mobile.cpp); the
// legacy per-repetition seed schedule keeps the printed numbers identical
// to the serial version at any --threads value.
#include <cstdio>
#include <iostream>

#include "bench_cli.h"
#include "experiment_config.h"

using namespace sh;
using namespace sh::bench;

int main(int argc, char** argv) {
  const SweepCliOptions opts = parse_sweep_cli(argc, argv);
  std::printf(
      "=== Figure 3-7: static throughput (TCP), normalized to RapidSample "
      "===\n(%d x 20 s stationary traces per environment)\n\n",
      kTracesPerPoint);

  const auto& envs = walking_environments();
  std::vector<exp::SweepPoint> points;
  for (const auto env : envs) {
    exp::SweepPoint point;
    point.label = std::string(channel::environment_name(env));
    point.params = {{"environment", point.label}, {"mobility", "static"}};
    point.repetitions = kTracesPerPoint;
    points.push_back(std::move(point));
  }

  exp::SweepRunner runner({"fig3_7_static", 30'000, opts.threads});
  const auto result = runner.run(
      points, [&envs](const exp::SweepPoint&, const exp::RunContext& ctx) {
        channel::TraceGeneratorConfig cfg;
        cfg.env = envs[ctx.point_index];
        cfg.scenario = sim::MobilityScenario::all_static(20 * kSecond);
        cfg.seed = 30'000 + static_cast<std::uint64_t>(ctx.repetition) * 17;
        cfg.snr_offset_db = placement_offset_db(ctx.repetition);
        const auto trace = channel::generate_trace(cfg);
        rate::RunConfig run;
        run.workload = rate::Workload::kTcp;
        return protocol_metrics(trace, run, lagged_truth_query(trace));
      });

  util::Table table({"environment", "RapidSample", "SampleRate", "RRAA",
                     "RBAR", "CHARM", "SampleRate Mbps"});
  for (const auto& pr : result.points) {
    const auto& label = pr.point.label;
    const double base = pr.metrics.summary("rapid_mbps").mean;
    const auto sample = pr.metrics.summary("sample_mbps");
    table.add_row({label, util::fmt(1.0, 2), util::fmt(sample.mean / base, 2),
                   util::fmt(pr.metrics.summary("rraa_mbps").mean / base, 2),
                   util::fmt(pr.metrics.summary("rbar_mbps").mean / base, 2),
                   util::fmt(pr.metrics.summary("charm_mbps").mean / base, 2),
                   util::fmt_pm(sample.mean, sample.ci95, 2)});
    std::printf("%s: RapidSample is %.0f%% below SampleRate\n", label.c_str(),
                100.0 * (1.0 - base / sample.mean));
  }
  std::printf("\n");
  table.print(std::cout);
  std::printf(
      "\nPaper: SampleRate highest in every environment; RapidSample 12-28%% "
      "below it (aggressive drops on single losses + ceaseless upward "
      "sampling); CHARM slightly above RBAR.\n");
  finish_sweep(result, opts);
  return 0;
}
