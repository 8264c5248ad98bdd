// Figure 4-2: average error in the delivery-probability estimate versus
// probing rate, static case. Paper: even 1 probe every 10 seconds keeps the
// error near 11%; 0.5 probes/s reaches ~5%.
#include <cstdio>
#include <iostream>
#include <vector>

#include "experiment_config.h"
#include "topo/probing_eval.h"

using namespace sh;
using namespace sh::bench;

int main() {
  std::printf(
      "=== Figure 4-2: estimation error vs probing rate (static) ===\n"
      "(20 x 180 s stationary traces; 10-probe windows; error vs the dense "
      "200/s ground truth)\n\n");

  // One dense series per seed, shared by every probing rate.
  std::vector<topo::ProbeSeries> series;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    series.push_back(topo::ProbeSeries::from_trace(channel::generate_trace(
        topo_config(false, 700 + seed, 180 * kSecond))));
  }

  const double rates[] = {0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0};
  util::Table table({"probes/s", "mean abs error", "stddev"});
  for (const double rate : rates) {
    util::RunningStats error, spread;
    for (const topo::ProbeSeries& s : series) {
      const auto result = topo::probing_error(s, rate);
      error.add(result.mean_abs_error);
      spread.add(result.stddev);
    }
    table.add_row({util::fmt(rate, 1), util::fmt(error.mean(), 3),
                   util::fmt(spread.mean(), 3)});
  }
  table.print(std::cout);
  std::printf(
      "\nPaper: ~11%% error at 0.1 probes/s, ~5%% at 0.5 probes/s — the "
      "default 1 probe/s of many mesh stacks is overkill when static.\n");
  return 0;
}
