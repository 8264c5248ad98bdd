#include "mac/airtime.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace sh::mac {
namespace {

constexpr Duration kSymbolUs = 4;  // One OFDM symbol is 4 us in 802.11a.
constexpr int kMacOverheadBytes = 28;  // 24-byte MAC header + 4-byte FCS.
constexpr int kServiceTailBits = 16 + 6;  // SERVICE field + tail bits.

Duration ofdm_payload_duration(RateIndex index, int bits) {
  const int per_symbol = rate(index).bits_per_symbol;
  const int symbols = (bits + kServiceTailBits + per_symbol - 1) / per_symbol;
  return static_cast<Duration>(symbols) * kSymbolUs;
}

/// 802.11a control-response rate: highest of {6, 12, 24} Mbit/s that does not
/// exceed the data rate.
RateIndex ack_rate_for(RateIndex data_rate) {
  const double mbps = rate(data_rate).mbps;
  if (mbps >= 24.0) return 4;  // 24M
  if (mbps >= 12.0) return 2;  // 12M
  return 0;                    // 6M
}

}  // namespace

Duration frame_duration(RateIndex index, int payload_bytes,
                        const MacTiming& timing) {
  assert(valid_rate(index));
  assert(payload_bytes >= 0);
  const int bits = (payload_bytes + kMacOverheadBytes) * 8;
  return timing.phy_preamble_header + ofdm_payload_duration(index, bits);
}

Duration ack_duration(RateIndex data_rate, const MacTiming& timing) {
  const RateIndex ack_rate = ack_rate_for(data_rate);
  return timing.phy_preamble_header +
         ofdm_payload_duration(ack_rate, timing.ack_bits);
}

Duration attempt_duration(RateIndex index, int payload_bytes, int retry,
                          const MacTiming& timing) {
  assert(retry >= 0);
  const int cw = std::min(timing.cw_max, ((timing.cw_min + 1) << retry) - 1);
  const Duration avg_backoff =
      timing.slot * static_cast<Duration>(cw) / 2;
  return timing.difs + avg_backoff + frame_duration(index, payload_bytes, timing) +
         timing.sifs + ack_duration(index, timing);
}

AttemptDurationTable::AttemptDurationTable(int payload_bytes, int max_retry) {
  assert(max_retry >= 0 && max_retry <= kMaxRetry);
  durations_.reserve(static_cast<std::size_t>(max_retry + 1) * kNumRates);
  for (int retry = 0; retry <= max_retry; ++retry) {
    for (RateIndex r = slowest_rate(); r <= fastest_rate(); ++r) {
      durations_.push_back(attempt_duration(r, payload_bytes, retry));
    }
  }
}

Duration expected_tx_time(RateIndex index, int payload_bytes, double p,
                          int max_retries, const MacTiming& timing) {
  assert(p >= 0.0 && p <= 1.0);
  // Expected cost = sum over attempts k of P(reach attempt k) * cost(k),
  // truncated at max_retries retransmissions.
  double expected = 0.0;
  double reach = 1.0;  // probability we make attempt k
  for (int k = 0; k <= max_retries; ++k) {
    expected += reach * static_cast<double>(
                            attempt_duration(index, payload_bytes, k, timing));
    reach *= (1.0 - p);
    if (reach < 1e-12) break;
  }
  return static_cast<Duration>(std::llround(expected));
}

}  // namespace sh::mac
