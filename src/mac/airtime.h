// 802.11a frame timing: how long a data frame + ACK exchange occupies the
// medium at each bit rate, including preamble, SIFS/DIFS and average backoff.
// Rate-adaptation protocols (SampleRate in particular) reason in terms of
// expected transmission time, and throughput accounting charges airtime per
// attempt, so this math is shared library-wide.
#pragma once

#include <cstddef>
#include <vector>

#include "mac/rates.h"
#include "util/time.h"

namespace sh::mac {

/// 802.11a MAC/PHY timing constants (microseconds).
struct MacTiming {
  Duration sifs = 16;
  Duration difs = 34;
  Duration slot = 9;
  Duration phy_preamble_header = 20;  ///< PLCP preamble + SIGNAL field.
  int cw_min = 15;                    ///< Minimum contention window (slots).
  int cw_max = 1023;
  int ack_bits = 14 * 8;              ///< ACK frame body bits.
};

/// Duration of the OFDM payload portion of a frame of `payload_bytes` MAC
/// payload (MAC header + FCS included internally) at rate `index`.
Duration frame_duration(RateIndex index, int payload_bytes,
                        const MacTiming& timing = {});

/// Duration of a link-layer ACK sent at the highest mandatory basic rate not
/// exceeding the data rate (802.11a rule: 6/12/24 Mbit/s).
Duration ack_duration(RateIndex data_rate, const MacTiming& timing = {});

/// Expected time for one transmission *attempt* at `index`:
/// DIFS + avg backoff for `retry` (doubling CW) + data frame + SIFS + ACK.
/// This is the quantity SampleRate averages; it is charged whether or not the
/// attempt succeeds (a failed attempt still waits out the ACK timeout, which
/// we approximate by the ACK duration).
Duration attempt_duration(RateIndex index, int payload_bytes, int retry = 0,
                          const MacTiming& timing = {});

/// Largest `retry` attempt_duration accepts at the default timing: its
/// contention window (cw_min + 1) << retry overflows an int beyond it.
inline constexpr int kMaxRetry = 26;

/// attempt_duration (default timing) for every rate and every retry up to
/// `max_retry` at one payload size, computed once. Trace replay charges each
/// attempt's airtime from it instead of recomputing the pure function.
class AttemptDurationTable {
 public:
  /// Requires 0 <= max_retry <= kMaxRetry.
  AttemptDurationTable(int payload_bytes, int max_retry);

  Duration operator()(RateIndex index, int retry) const noexcept {
    return durations_[static_cast<std::size_t>(retry) * kNumRates +
                      static_cast<std::size_t>(index)];
  }

 private:
  std::vector<Duration> durations_;  ///< Row-major by retry.
};

/// Expected total time to deliver a frame given per-attempt success
/// probability p and a maximum of `max_retries` retransmissions, following
/// SampleRate's tx-time formula. If p == 0, returns the cost of the full
/// retry chain (the frame is lost afterwards).
Duration expected_tx_time(RateIndex index, int payload_bytes, double p,
                          int max_retries = 4, const MacTiming& timing = {});

}  // namespace sh::mac
