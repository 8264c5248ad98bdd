// SampleRate (Bicket, MIT 2005): the static-channel workhorse.
//
// Picks the rate with the lowest average transmission time per successfully
// delivered packet over a sliding history window (10 seconds by default),
// and spends a fraction of packets sampling other rates that could plausibly
// do better. Long history smooths over short-term fading — excellent when
// static, and exactly what goes stale when the device moves (paper §3.5).
//
// The window length is SampleRate's key parameter; the thesis post-processes
// each trace to pick the best value, so the benches sweep `window` and report
// the per-trace best, reproducing that favourable treatment.
#pragma once

#include <array>
#include <deque>

#include "rate/adapter.h"
#include "util/rng.h"

namespace sh::rate {

class SampleRateAdapter final : public RateAdapter {
 public:
  struct Params {
    Duration window = 10 * kSecond;
    int sample_every = 10;          ///< Every Nth packet samples a rate.
    int payload_bytes = 1000;
    int max_consecutive_failures = 4;  ///< Excludes a rate from sampling.
  };

  SampleRateAdapter() : SampleRateAdapter(Params{}, util::Rng{42}) {}
  SampleRateAdapter(Params params, util::Rng rng);

  std::string_view name() const override { return "SampleRate"; }
  void on_packet_start(Time now) override;
  mac::RateIndex pick_rate(Time now) override;
  void on_result(Time now, mac::RateIndex rate_used, bool acked) override;
  void reset() override;

  /// Current best rate by average tx time (what a non-sample packet uses).
  mac::RateIndex best_rate(Time now);

  const Params& params() const noexcept { return params_; }

 private:
  struct Outcome {
    Time when;
    bool acked;
  };
  struct RateStats {
    std::deque<Outcome> outcomes;
    std::size_t successes = 0;
    int consecutive_failures = 0;
  };

  void prune(Time now, RateStats& stats);
  /// Average airtime per delivered packet at `r`; lossless airtime when the
  /// rate has no history (optimism drives initial exploration), +inf when
  /// everything in the window failed.
  double avg_tx_time_us(Time now, mac::RateIndex r);
  /// The average over an already-pruned window with at least one success.
  double window_tx_time_us(mac::RateIndex r, const RateStats& stats) const;
  double lossless_tx_time_us(mac::RateIndex r) const;

  Params params_;
  util::Rng rng_;
  /// mac::attempt_duration(r, payload, 0) per rate, fixed by params_.
  std::array<double, mac::kNumRates> lossless_us_{};
  std::array<RateStats, mac::kNumRates> stats_{};
  int packet_counter_ = 0;
  int chain_failures_ = 0;  ///< Failures within the current retry chain.
};

}  // namespace sh::rate
