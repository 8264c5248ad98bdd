#include "rate/trace_runner.h"

#include <algorithm>
#include <utility>

#include "rate/rapid_sample.h"
#include "rate/replay.h"
#include "rate/rraa.h"
#include "rate/sample_rate.h"
#include "rate/snr_adapters.h"

namespace sh::rate {

RunResult run_trace(RateAdapter& adapter, const channel::PacketFateTrace& trace,
                    const RunConfig& config) {
  return replay(adapter, trace, config,
                ReplayHooks{[](Time) {}, [](Time) {},
                            [](Time& t, Time until) { t = until; }});
}

double best_samplerate_mbps(const channel::PacketFateTrace& trace,
                            const RunConfig& run) {
  double best = 0.0;
  for (const double window_s : {2.0, 5.0, 10.0}) {
    SampleRateAdapter::Params params;
    params.window = seconds(window_s);
    SampleRateAdapter adapter(params, util::Rng(42));
    best = std::max(best, run_trace(adapter, trace, run).throughput_mbps);
  }
  return best;
}

ProtocolThroughputs run_paper_protocols(
    const channel::PacketFateTrace& trace, const RunConfig& run,
    HintAwareRateAdapter::HintQuery hint_query) {
  ProtocolThroughputs mbps = run_hint_free_protocols(trace, run);
  mbps.hint = hint_aware_mbps(trace, run, std::move(hint_query));
  return mbps;
}

ProtocolThroughputs run_hint_free_protocols(
    const channel::PacketFateTrace& trace, const RunConfig& run) {
  ProtocolThroughputs mbps;
  RapidSample rapid;
  mbps.rapid = run_trace(rapid, trace, run).throughput_mbps;
  mbps.sample = best_samplerate_mbps(trace, run);
  Rraa rraa;
  mbps.rraa = run_trace(rraa, trace, run).throughput_mbps;
  Rbar rbar;
  mbps.rbar = run_trace(rbar, trace, run).throughput_mbps;
  Charm charm;
  mbps.charm = run_trace(charm, trace, run).throughput_mbps;
  return mbps;
}

double hint_aware_mbps(const channel::PacketFateTrace& trace,
                       const RunConfig& run,
                       HintAwareRateAdapter::HintQuery hint_query) {
  HintAwareRateAdapter hint(std::move(hint_query), util::Rng(42));
  return run_trace(hint, trace, run).throughput_mbps;
}

}  // namespace sh::rate
