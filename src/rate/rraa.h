// RRAA (Wong et al., MobiCom 2006): Robust Rate Adaptation Algorithm.
//
// Frame-based like SampleRate but far more reactive: it evaluates the loss
// ratio over a short per-rate estimation window (tens of frames) against two
// airtime-derived thresholds — the Maximum Tolerable Loss (above which the
// next lower rate delivers more) and the Opportunistic Rate Increase
// threshold (below which the next higher rate is worth trying) — and moves
// one step accordingly. We implement the core loss-window logic; RRAA's
// adaptive RTS filter addresses collision losses, which the single-link
// trace replay does not contain.
#pragma once

#include <array>

#include "rate/adapter.h"

namespace sh::rate {

class Rraa final : public RateAdapter {
 public:
  struct Params {
    int window_frames = 40;
    double alpha = 1.25;  ///< MTL = alpha * critical loss for stepping down.
    double beta = 2.0;    ///< ORI = critical loss of next rate / beta.
    int payload_bytes = 1000;
  };

  Rraa() : Rraa(Params{}) {}
  /// Throws std::invalid_argument unless window_frames > 0.
  explicit Rraa(Params params);

  std::string_view name() const override { return "RRAA"; }
  mac::RateIndex pick_rate(Time now) override;
  void on_result(Time now, mac::RateIndex rate_used, bool acked) override;
  void reset() override;

  double mtl(mac::RateIndex r) const { return mtl_[static_cast<std::size_t>(r)]; }
  double ori(mac::RateIndex r) const { return ori_[static_cast<std::size_t>(r)]; }

 private:
  void recompute_thresholds();
  void start_window();

  Params params_;
  mac::RateIndex current_;
  int frames_in_window_ = 0;
  int losses_in_window_ = 0;
  std::array<double, mac::kNumRates> mtl_{};
  std::array<double, mac::kNumRates> ori_{};
};

}  // namespace sh::rate
