// Ablation: how stale may the movement hint be before the hint-aware rate
// adaptation loses its edge? The architecture detects motion in <100 ms and
// piggybacks hints on frames; this sweeps the total sensing-to-sender
// latency on mixed traces, with oracle (0 latency) and hint-free endpoints.
#include <cstdio>
#include <iostream>

#include "experiment_config.h"

using namespace sh;
using namespace sh::bench;

int main() {
  std::printf(
      "=== Ablation: hint latency vs hint-aware throughput (mixed TCP, "
      "office) ===\n\n");

  std::vector<channel::PacketFateTrace> traces;
  for (int i = 0; i < 32; ++i) {
    channel::TraceGeneratorConfig cfg;
    cfg.env = channel::Environment::kOffice;
    cfg.scenario = sim::MobilityScenario::static_then_walking(
        20 * kSecond, /*mobile_first=*/i % 2 == 1);
    cfg.seed = 91'000 + static_cast<std::uint64_t>(i) * 17;
    cfg.snr_offset_db = placement_offset_db(i);
    traces.push_back(channel::generate_trace(cfg));
  }
  rate::RunConfig run;
  run.workload = rate::Workload::kTcp;

  util::Table table({"hint latency", "HintAware Mbps"});
  for (const int latency_ms : {0, 50, 150, 500, 1000, 2000, 5000}) {
    util::RunningStats stats;
    for (const auto& trace : traces) {
      rate::HintAwareRateAdapter adapter(
          lagged_truth_query(trace, latency_ms * kMillisecond),
          util::Rng(42));
      stats.add(rate::run_trace(adapter, trace, run).throughput_mbps);
    }
    table.add_row({std::to_string(latency_ms) + " ms",
                   util::fmt(stats.mean(), 2)});
  }
  // Baselines for context.
  util::RunningStats rapid, sample;
  for (const auto& trace : traces) {
    rate::RapidSample rs;
    rapid.add(rate::run_trace(rs, trace, run).throughput_mbps);
    sample.add(rate::best_samplerate_mbps(trace, run));
  }
  table.add_row({"(RapidSample only)", util::fmt(rapid.mean(), 2)});
  table.add_row({"(SampleRate only)", util::fmt(sample.mean(), 2)});
  table.print(std::cout);

  std::printf(
      "\nExpected: the advantage degrades gracefully — sub-second hints keep "
      "nearly the oracle gain (10 s mobility phases dwarf a 150 ms lag); "
      "multi-second staleness converges to the better fixed strategy.\n");
  return 0;
}
