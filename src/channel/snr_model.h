// SNR -> frame delivery probability model.
//
// Each 802.11a rate has a sensitivity threshold (mac::RateInfo::min_snr_db);
// delivery probability follows a logistic curve around it, which matches the
// steep-but-not-vertical packet-error waterfalls of real OFDM receivers.
// Frame length scales the effective threshold slightly (longer frames need a
// little more margin).
#pragma once

#include <array>
#include <cmath>

#include "mac/rates.h"
#include "util/detmath.h"

namespace sh::channel {

struct SnrModelParams {
  /// Conditional-on-channel-realization PER slope. For a 1000-byte OFDM
  /// frame at a *fixed* channel the error waterfall is close to a step
  /// (~1.5 dB from 10% to 90% loss); the gentle multi-dB curves seen in
  /// field measurements come from fading, which this library models
  /// explicitly in ChannelRealization rather than baking into the PER.
  double transition_width_db = 0.35;
  int reference_bytes = 1000;        ///< Frame size the thresholds assume.
};

/// Probability that a frame of `payload_bytes` at rate `rate` is delivered
/// when the channel SNR is `snr_db`. Monotone in SNR, decreasing in rate
/// index and frame size. Result in [0, 1].
double delivery_probability(double snr_db, mac::RateIndex rate,
                            int payload_bytes = 1000,
                            const SnrModelParams& params = {});

/// The highest rate whose delivery probability at `snr_db` is at least
/// `target` (defaults to 90%), or the slowest rate if none qualifies.
/// This is the "SNR-to-bit-rate mapping" that RBAR and CHARM use.
mac::RateIndex best_rate_for_snr(double snr_db, double target = 0.9,
                                 int payload_bytes = 1000,
                                 const SnrModelParams& params = {});

/// best_rate_for_snr(snr, target, payload_bytes, params) for one fixed
/// (target, payload_bytes, params), answered by comparisons. The
/// constructor bisects each rate's predicate `delivery >= target` over all
/// finite doubles for its cut point; an SNR more than a guard band (1e-6 dB,
/// relative beyond 1 dB magnitude) from every cut it meets is decided by
/// comparison, one inside a band (or NaN) calls best_rate_for_snr itself.
/// The result is bit-identical to that reference for every double.
class SnrRateMap {
 public:
  /// Throws std::invalid_argument unless payload_bytes > 0 and
  /// params.transition_width_db is finite and > 0 (the predicate is then
  /// non-decreasing in SNR, which the cut points rely on).
  explicit SnrRateMap(double target = 0.9, int payload_bytes = 1000,
                      SnrModelParams params = {});

  mac::RateIndex operator()(double snr_db) const {
    for (mac::RateIndex r = mac::fastest_rate(); r > mac::slowest_rate();
         --r) {
      const auto i = static_cast<std::size_t>(r);
      if (snr_db > pass_above_[i]) return r;
      if (!(snr_db < fail_below_[i])) {
        return best_rate_for_snr(snr_db, target_, payload_bytes_, params_);
      }
    }
    return mac::slowest_rate();
  }

 private:
  double target_;
  int payload_bytes_;
  SnrModelParams params_;
  /// Per rate: the predicate holds above pass_above_ and fails below
  /// fail_below_; between them (the guard band) it is evaluated exactly.
  std::array<double, mac::kNumRates> pass_above_{};
  std::array<double, mac::kNumRates> fail_below_{};
};

/// Per-rate delivery thresholds precomputed for one (payload, params) pair.
/// probability(snr, r) is bit-identical to delivery_probability(snr, r,
/// payload, params) — the threshold doubles come from the same expressions
/// and the logistic arithmetic is unchanged — but the frame-length log2,
/// constant across a trace, is paid once instead of once per slot per rate.
class DeliveryModel {
 public:
  explicit DeliveryModel(int payload_bytes = 1000, SnrModelParams params = {});

  double probability(double snr_db, mac::RateIndex rate) const noexcept {
    // util::detmath::dexp rather than std::exp so the batched form
    // (probabilities_n) is bit-identical to this per-slot call.
    const double x = (snr_db - threshold_db_[static_cast<std::size_t>(rate)]) /
                     transition_width_db_;
    return 1.0 / (1.0 + util::detmath::dexp(-x));
  }

  /// Block form: out[k] is bit-identical to probability(snr_db[k], rate).
  /// snr_db and out must not overlap.
  void probabilities_n(const double* snr_db, std::size_t n,
                       mac::RateIndex rate, double* out) const noexcept;

 private:
  std::array<double, mac::kNumRates> threshold_db_{};
  double transition_width_db_;
};

}  // namespace sh::channel
