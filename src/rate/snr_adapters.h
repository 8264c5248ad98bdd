// SNR-based rate adaptation: RBAR and CHARM.
//
// RBAR (Holland et al., MobiCom 2001) learns the receiver SNR from an
// RTS/CTS exchange immediately before each data frame and maps the *latest*
// SNR to a rate. CHARM (Judd et al., MobiSys 2008) avoids the RTS/CTS
// overhead by averaging SNR observed on frames overheard from the receiver
// over a time window. The paper (§3.5) finds the instantaneous variant wins
// while mobile (averages go stale) and the averaged variant wins while
// static (robust to short-term fades) — one more instance of the
// static/mobile split.
//
// Both protocols need an SNR-to-rate mapping trained per environment; these
// implementations use the library's ground-truth SNR model, i.e. perfectly
// trained — the favourable treatment the paper also grants them.
#pragma once

#include <deque>

#include "channel/snr_model.h"
#include "rate/adapter.h"

namespace sh::rate {

class Rbar final : public RateAdapter {
 public:
  struct Params {
    double target_delivery = 0.9;  ///< Delivery goal for the chosen rate.
    int payload_bytes = 1000;
    /// Systematic error of the trained SNR-to-rate map (dB, positive =
    /// optimistic). Real deployments train the map per environment and
    /// carry a residual bias; 0 would be an oracle map.
    double calibration_bias_db = 0.3;
  };

  Rbar() : Rbar(Params{}) {}
  /// Throws std::invalid_argument unless payload_bytes > 0.
  explicit Rbar(Params params);

  std::string_view name() const override { return "RBAR"; }
  mac::RateIndex pick_rate(Time now) override;
  void on_result(Time now, mac::RateIndex rate_used, bool acked) override;
  void on_snr(Time now, double snr_db) override;
  void reset() override;

 private:
  Params params_;
  channel::SnrRateMap rate_for_snr_;
  double last_snr_db_ = 0.0;
  bool have_snr_ = false;
};

class Charm final : public RateAdapter {
 public:
  struct Params {
    Duration window = kSecond;  ///< SNR averaging window.
    double target_delivery = 0.9;
    int payload_bytes = 1000;
    /// Same trained-map bias as Rbar::Params::calibration_bias_db.
    double calibration_bias_db = 0.3;
  };

  Charm() : Charm(Params{}) {}
  /// Throws std::invalid_argument unless window > 0 and payload_bytes > 0.
  explicit Charm(Params params);

  std::string_view name() const override { return "CHARM"; }
  mac::RateIndex pick_rate(Time now) override;
  void on_result(Time now, mac::RateIndex rate_used, bool acked) override;
  void on_snr(Time now, double snr_db) override;
  void reset() override;

  /// Mean SNR currently in the window (0 when empty) — for tests.
  double mean_snr_db() const noexcept;

 private:
  void prune(Time now);

  Params params_;
  channel::SnrRateMap rate_for_snr_;
  std::deque<std::pair<Time, double>> history_;
  double sum_snr_ = 0.0;
};

}  // namespace sh::rate
