// Figure 3-5: mixed-mobility throughput (TCP), per environment, normalized
// to the hint-aware protocol. Each trace is 20 s with a 50/50 static/mobile
// split (order alternating), as in the paper. SampleRate gets the paper's
// favourable per-trace best-parameter treatment.
//
// Paper's result: the hint-aware protocol wins everywhere — +23-52% over
// SampleRate, +17-39% over RRAA, up to +47% over RBAR.
#include <cstdio>
#include <iostream>

#include "experiment_config.h"

using namespace sh;
using namespace sh::bench;

int main() {
  std::printf(
      "=== Figure 3-5: mixed static/mobile throughput (TCP), normalized to "
      "HintAware ===\n(%d x 20 s traces per environment, 50%% static + 50%% "
      "mobile)\n\n",
      kTracesPerPoint);

  util::Table table({"environment", "HintAware", "RapidSample", "SampleRate",
                     "RRAA", "RBAR", "CHARM", "HintAware Mbps"});
  for (const auto env : walking_environments()) {
    ProtocolMeans means;
    for (int i = 0; i < kTracesPerPoint; ++i) {
      channel::TraceGeneratorConfig cfg;
      cfg.env = env;
      cfg.scenario = sim::MobilityScenario::static_then_walking(
          20 * kSecond, /*mobile_first=*/i % 2 == 1);
      cfg.seed = 10'000 + static_cast<std::uint64_t>(i) * 17;
      cfg.snr_offset_db = placement_offset_db(i);
      const auto trace = channel::generate_trace(cfg);
      rate::RunConfig run;
      run.workload = rate::Workload::kTcp;
      means.add(
          rate::run_paper_protocols(trace, run, lagged_truth_query(trace)));
    }
    const double base = means.hint.mean();
    table.add_row({std::string(channel::environment_name(env)),
                   util::fmt(1.0, 2), util::fmt(means.rapid.mean() / base, 2),
                   util::fmt(means.sample.mean() / base, 2),
                   util::fmt(means.rraa.mean() / base, 2),
                   util::fmt(means.rbar.mean() / base, 2),
                   util::fmt(means.charm.mean() / base, 2),
                   util::fmt_pm(base, means.hint.ci95_halfwidth(), 2)});

    std::printf("%s: HintAware vs SampleRate %+.0f%%, vs RRAA %+.0f%%, vs RBAR %+.0f%%\n",
                std::string(channel::environment_name(env)).c_str(),
                100.0 * (base / means.sample.mean() - 1.0),
                100.0 * (base / means.rraa.mean() - 1.0),
                100.0 * (base / means.rbar.mean() - 1.0));
  }
  std::printf("\n");
  table.print(std::cout);
  std::printf(
      "\nPaper: hint-aware beats SampleRate by 23-52%%, RRAA by 17-39%%, "
      "RBAR by up to 47%% (every environment).\n");
  return 0;
}
