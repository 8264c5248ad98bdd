// RapidSample (paper §3.1, Fig 3-2): frame-based rate adaptation designed
// for rapidly changing (mobile) channels.
//
// Behaviour, per the paper:
//  * Start at the fastest rate.
//  * On a failed ACK, drop one rate immediately and record the failure time
//    (losses are strongly correlated over the ~10 ms channel coherence time,
//    so re-trying the failed rate straight away mostly wastes packets).
//  * After delta_success ms of success at the current rate, sample the
//    fastest rate that has not failed within the last delta_fail ms and has
//    no slower rate that failed within that interval — allowing
//    opportunistic multi-step jumps.
//  * If the sampled rate fails, return to the rate in use before the sample
//    rather than stepping down from the sample.
//
// Paper constants: delta_success = 5 ms, delta_fail = 10 ms (the measured
// mobile coherence time). No training required.
#pragma once

#include <array>

#include "rate/adapter.h"

namespace sh::rate {

class RapidSample final : public RateAdapter {
 public:
  struct Params {
    Duration delta_success = 5 * kMillisecond;
    Duration delta_fail = 10 * kMillisecond;
  };

  RapidSample() : RapidSample(Params{}) {}
  /// Throws std::invalid_argument unless delta_success and delta_fail > 0.
  explicit RapidSample(Params params);

  std::string_view name() const override { return "RapidSample"; }
  mac::RateIndex pick_rate(Time now) override;
  void on_result(Time now, mac::RateIndex rate_used, bool acked) override;
  void reset() override;

  const Params& params() const noexcept { return params_; }
  bool sampling() const noexcept { return sampling_; }

 private:
  /// Fastest rate i such that no rate j <= i failed within delta_fail of
  /// `now`; falls back to the current rate when none is eligible above it.
  mac::RateIndex sample_candidate(Time now) const;

  Params params_;
  mac::RateIndex current_;
  bool sampling_ = false;
  mac::RateIndex pre_sample_rate_;
  std::array<Time, mac::kNumRates> failed_time_{};
  std::array<Time, mac::kNumRates> picked_time_{};
};

}  // namespace sh::rate
