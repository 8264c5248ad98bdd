// Figure 3-6: mobile-only throughput (TCP), per environment, normalized to
// RapidSample. Paper: RapidSample wins everywhere — up to 75% over
// SampleRate and up to 25% over the other protocols.
//
// Runs on the exp::SweepRunner engine: one sweep point per environment,
// kTracesPerPoint repetitions fanned across the pool. The per-repetition
// trace seeds keep the legacy serial schedule (20'000 + 17*i with the
// placement offsets), so the printed numbers are identical to the
// pre-engine serial bench at any --threads value.
#include <algorithm>
#include <cstdio>
#include <iostream>

#include "bench_cli.h"
#include "experiment_config.h"

using namespace sh;
using namespace sh::bench;

int main(int argc, char** argv) {
  const SweepCliOptions opts = parse_sweep_cli(argc, argv);
  std::printf(
      "=== Figure 3-6: mobile throughput (TCP), normalized to RapidSample "
      "===\n(%d x 20 s walking traces per environment)\n\n",
      kTracesPerPoint);

  const auto& envs = walking_environments();
  std::vector<exp::SweepPoint> points;
  for (const auto env : envs) {
    exp::SweepPoint point;
    point.label = std::string(channel::environment_name(env));
    point.params = {{"environment", point.label}, {"mobility", "walking"}};
    point.repetitions = kTracesPerPoint;
    points.push_back(std::move(point));
  }

  exp::SweepRunner runner({"fig3_6_mobile", 20'000, opts.threads});
  const auto result = runner.run(
      points, [&envs](const exp::SweepPoint&, const exp::RunContext& ctx) {
        channel::TraceGeneratorConfig cfg;
        cfg.env = envs[ctx.point_index];
        cfg.scenario = sim::MobilityScenario::all_walking(20 * kSecond);
        cfg.seed = 20'000 + static_cast<std::uint64_t>(ctx.repetition) * 17;
        cfg.snr_offset_db = placement_offset_db(ctx.repetition);
        const auto trace = channel::generate_trace(cfg);
        rate::RunConfig run;
        run.workload = rate::Workload::kTcp;
        return protocol_metrics(trace, run, lagged_truth_query(trace));
      });

  util::Table table({"environment", "RapidSample", "SampleRate", "RRAA",
                     "RBAR", "CHARM", "RapidSample Mbps"});
  for (const auto& pr : result.points) {
    const auto& label = pr.point.label;
    const double base = pr.metrics.summary("rapid_mbps").mean;
    const double sample = pr.metrics.summary("sample_mbps").mean;
    const double rraa = pr.metrics.summary("rraa_mbps").mean;
    const double rbar = pr.metrics.summary("rbar_mbps").mean;
    const double charm = pr.metrics.summary("charm_mbps").mean;
    table.add_row({label, util::fmt(1.0, 2), util::fmt(sample / base, 2),
                   util::fmt(rraa / base, 2), util::fmt(rbar / base, 2),
                   util::fmt(charm / base, 2),
                   util::fmt_pm(base, pr.metrics.summary("rapid_mbps").ci95, 2)});
    std::printf("%s: RapidSample vs SampleRate %+.0f%%, vs best-other %+.0f%%\n",
                label.c_str(), 100.0 * (base / sample - 1.0),
                100.0 * (base / std::max({rraa, rbar, charm}) - 1.0));
  }
  std::printf("\n");
  table.print(std::cout);
  std::printf(
      "\nPaper: RapidSample best in every environment while mobile; up to "
      "+75%% over SampleRate, up to +25%% over the rest. RBAR slightly "
      "above CHARM (instantaneous SNR beats stale averages).\n");
  finish_sweep(result, opts);
  return 0;
}
