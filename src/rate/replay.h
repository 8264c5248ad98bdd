// The one trace replay loop behind run_trace() and the full-protocol runner
// (hinted_runner.cpp), which hooks the hint path into it.
#pragma once

#include <algorithm>
#include <stdexcept>
#include <string>

#include "channel/trace.h"
#include "mac/airtime.h"
#include "rate/trace_runner.h"
#include "transport/tcp.h"
#include "util/rng.h"

namespace sh::rate {

/// The points where replay() hands control to its caller, as callables:
///  * on_ack(now): an attempt was delivered; `now` is after its airtime;
///  * after_send(now): after each UDP packet and after each TCP round;
///  * cross_stall(t, until): carries `t` across a TCP stall ending at
///    `until` (already clipped to the trace's end), leaving `t >= until`.
template <class OnAck, class AfterSend, class CrossStall>
struct ReplayHooks {
  OnAck on_ack;
  AfterSend after_send;
  CrossStall cross_stall;
};

/// Replays `trace` through `adapter` (not reset first) with a saturating
/// UDP workload or the TCP model's windowed rounds and timeouts. Throws
/// std::invalid_argument
///  * for an empty trace (its throughput would be 0/0);
///  * unless config.payload_bytes > 0 (otherwise airtime is negative and
///    time runs backwards, so the loops never end);
///  * unless 0 <= config.link_retries <= mac::kMaxRetry (a negative count
///    never advances time; a larger one overflows the contention window).
template <class Adapter, class Hooks>
RunResult replay(Adapter& adapter, const channel::PacketFateTrace& trace,
                 const RunConfig& config, Hooks hooks) {
  if (trace.empty()) throw std::invalid_argument("replay: empty trace");
  if (config.payload_bytes <= 0) {
    throw std::invalid_argument("replay: payload_bytes must be > 0");
  }
  if (config.link_retries < 0 || config.link_retries > mac::kMaxRetry) {
    throw std::invalid_argument(
        "replay: link_retries must be in [0, " +
        std::to_string(mac::kMaxRetry) + "]");
  }
  const Time end = trace.duration();
  const mac::AttemptDurationTable airtime(config.payload_bytes,
                                          config.link_retries);
  RunResult result;
  util::Rng floor_rng(config.floor_seed);
  Time t = 0;

  // One packet: an SNR observation, then a link-layer retry chain whose
  // attempts each consult the adapter, take the recorded fate (plus the iid
  // loss floor), report it and charge airtime. Returns whether it delivered.
  const auto send_packet = [&] {
    if (config.provide_snr) {
      adapter.on_snr(t, trace.snr_db(std::max<Time>(0, t - config.snr_lag)));
    }
    adapter.on_packet_start(t);
    for (int retry = 0; retry <= config.link_retries; ++retry) {
      const mac::RateIndex r = adapter.pick_rate(t);
      const bool delivered = trace.delivered(t, r) &&
                             !floor_rng.bernoulli(config.iid_loss_floor);
      adapter.on_result(t, r, delivered);
      t += airtime(r, retry);
      if (delivered) {
        hooks.on_ack(t);
        return true;
      }
    }
    return false;
  };

  if (config.workload == Workload::kUdp) {
    while (t < end) {
      ++result.attempts;
      if (send_packet()) ++result.delivered;
      hooks.after_send(t);
    }
  } else {
    transport::TcpModel tcp(config.tcp);
    while (t < end) {
      if (tcp.stalled(t)) {
        hooks.cross_stall(t, std::min(end, tcp.stall_until()));
        if (t >= end) break;
      }
      const int window = tcp.window();
      int delivered_in_round = 0;
      int sent = 0;
      for (int i = 0; i < window && t < end; ++i) {
        ++sent;
        ++result.attempts;
        if (send_packet()) {
          ++delivered_in_round;
          ++result.delivered;
        }
      }
      tcp.on_round(t, sent, delivered_in_round);
      hooks.after_send(t);
    }
  }

  result.duration_s = to_seconds(end);
  result.throughput_mbps = static_cast<double>(result.delivered) *
                           static_cast<double>(config.payload_bytes) * 8.0 /
                           result.duration_s / 1e6;
  result.delivery_ratio =
      result.attempts == 0
          ? 0.0
          : static_cast<double>(result.delivered) /
                static_cast<double>(result.attempts);
  return result;
}

}  // namespace sh::rate
