// Dense probe-fate series: the raw material of the Chapter 4 measurement.
//
// The paper's rig sends probes at an "essentially continuous" 200 per second
// and derives everything else by sub-sampling. A ProbeSeries is that dense
// record for one link at one probe bit-rate: one fate per 5 ms, aligned with
// the ground-truth motion flag.
#pragma once

#include <functional>
#include <vector>

#include "channel/trace.h"

namespace sh::topo {

class ProbeSeries {
 public:
  /// Throws std::invalid_argument unless interval > 0 and the two vectors
  /// have the same size.
  ProbeSeries(Duration interval, std::vector<bool> fates,
              std::vector<bool> moving);

  /// Extracts the dense series for `rate` from a packet-fate trace (one
  /// probe per trace slot). Throws std::invalid_argument unless
  /// mac::valid_rate(rate).
  static ProbeSeries from_trace(const channel::PacketFateTrace& trace,
                                mac::RateIndex rate = mac::slowest_rate());

  Duration interval() const noexcept { return interval_; }
  std::size_t size() const noexcept { return fates_.size(); }
  Duration duration() const noexcept {
    return interval_ * static_cast<Duration>(fates_.size());
  }

  bool fate(std::size_t i) const { return fates_.at(i); }
  bool moving(std::size_t i) const { return moving_.at(i); }

  /// Index of the probe at or before time `t` (clamped to the series).
  std::size_t index_at(Time t) const noexcept;

  /// "Actual" delivery probability at dense index `i`: the mean of the
  /// `window` most recent dense fates ending at `i` (the paper's 10-packet
  /// sliding window over the 200/s stream). Throws std::invalid_argument
  /// unless window > 0, and std::out_of_range unless i < size() and
  /// i + 1 >= window.
  double actual_probability(std::size_t i, int window = 10) const;

 private:
  Duration interval_;
  std::vector<bool> fates_;
  std::vector<bool> moving_;
};

}  // namespace sh::topo
