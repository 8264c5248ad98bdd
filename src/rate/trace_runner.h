// Trace-driven evaluation harness for rate adapters (the paper's modified
// ns-3 setup, §3.3): replays a PacketFateTrace, charging realistic 802.11a
// airtime per attempt and letting the recorded per-slot fates decide delivery.
// Supports a saturating UDP workload and the simplified TCP model (whose
// timeouts punish bursty mobile loss, as observed in §3.5). On top of it sits
// the paper's protocol comparison (§3.4-3.5, Figs 3-5 to 3-8), which the
// comparison benches, shsweep and shbench evaluate through.
#pragma once

#include "channel/trace.h"
#include "rate/adapter.h"
#include "rate/hint_aware.h"
#include "transport/tcp.h"

namespace sh::rate {

enum class Workload { kUdp, kTcp };

struct RunConfig {
  Workload workload = Workload::kUdp;
  int payload_bytes = 1000;
  /// Link-layer retransmissions per packet (802.11 retries a frame several
  /// times before giving up). The adapter is consulted afresh for every
  /// attempt, so a protocol that reacts within the chain — RapidSample
  /// stepping down mid-burst — retries at a smarter rate.
  int link_retries = 4;
  /// Independent per-attempt loss floor: collisions and noise spikes
  /// shorter than a trace slot that hit single frames even when the channel
  /// is comfortably above threshold. These isolated losses are exactly what
  /// static-optimized protocols must smooth over and what RapidSample
  /// overreacts to when the device is not actually moving (paper §3.5).
  double iid_loss_floor = 0.02;
  std::uint64_t floor_seed = 99;
  /// Whether to feed the adapter receiver-SNR observations before each pick
  /// (consumed only by SNR-based protocols).
  bool provide_snr = true;
  /// Staleness of the SNR observation relative to the data frame (the
  /// RTS/CTS or overheard-frame lag).
  Duration snr_lag = kMillisecond;
  transport::TcpModel::Params tcp{};
};

struct RunResult {
  std::uint64_t attempts = 0;
  std::uint64_t delivered = 0;
  double duration_s = 0.0;
  double throughput_mbps = 0.0;
  double delivery_ratio = 0.0;
};

/// Replays `trace` through `adapter` and returns throughput accounting.
/// The adapter is NOT reset first; callers wanting a fresh run call reset().
RunResult run_trace(RateAdapter& adapter, const channel::PacketFateTrace& trace,
                    const RunConfig& config = {});

/// Throughput (Mbit/s) of each protocol on one trace.
struct ProtocolThroughputs {
  double hint = 0.0;
  double rapid = 0.0;
  double sample = 0.0;  ///< SampleRate at its best window.
  double rraa = 0.0;
  double rbar = 0.0;
  double charm = 0.0;
};

/// Runs SampleRate with the paper's favourable treatment: the averaging
/// window (2, 5 or 10 s) is chosen per trace, post facto (§3.4 states this
/// bias openly).
double best_samplerate_mbps(const channel::PacketFateTrace& trace,
                            const RunConfig& run);

/// Runs HintAware, RapidSample, SampleRate (best window), RRAA, RBAR and
/// CHARM on `trace`, in that order, each from a fresh adapter. `hint_query`
/// drives HintAware only: the baselines take no hints, so with a degraded
/// query the gap between `hint` and `sample` is the cost of the degradation.
ProtocolThroughputs run_paper_protocols(
    const channel::PacketFateTrace& trace, const RunConfig& run,
    HintAwareRateAdapter::HintQuery hint_query);

}  // namespace sh::rate
