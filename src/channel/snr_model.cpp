#include "channel/snr_model.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace sh::channel {

double delivery_probability(double snr_db, mac::RateIndex rate,
                            int payload_bytes, const SnrModelParams& params) {
  assert(mac::valid_rate(rate));
  assert(payload_bytes > 0);
  // A frame twice as long has twice the symbols exposed to errors; in the
  // logistic-threshold picture that shifts the 50% point up by a small,
  // logarithmic amount (~0.9 dB per doubling).
  const double length_shift_db =
      0.9 * std::log2(static_cast<double>(payload_bytes) /
                      static_cast<double>(params.reference_bytes));
  const double threshold = mac::rate(rate).min_snr_db + length_shift_db;
  const double x = (snr_db - threshold) / params.transition_width_db;
  return 1.0 / (1.0 + util::detmath::dexp(-x));
}

DeliveryModel::DeliveryModel(int payload_bytes, SnrModelParams params)
    : transition_width_db_(params.transition_width_db) {
  assert(payload_bytes > 0);
  // Same expressions as delivery_probability, so each threshold is the very
  // double that function would have computed.
  const double length_shift_db =
      0.9 * std::log2(static_cast<double>(payload_bytes) /
                      static_cast<double>(params.reference_bytes));
  for (mac::RateIndex r = 0; r < mac::kNumRates; ++r) {
    threshold_db_[static_cast<std::size_t>(r)] =
        mac::rate(r).min_snr_db + length_shift_db;
  }
}

void DeliveryModel::probabilities_n(const double* snr_db, std::size_t n,
                                    mac::RateIndex rate,
                                    double* out) const noexcept {
  // detmath::logistic_n performs probability()'s operations — subtract,
  // divide, negate, dexp, add, divide — element by element, vectorized.
  util::detmath::logistic_n(snr_db, n,
                            threshold_db_[static_cast<std::size_t>(rate)],
                            transition_width_db_, out);
}

mac::RateIndex best_rate_for_snr(double snr_db, double target,
                                 int payload_bytes,
                                 const SnrModelParams& params) {
  // The frame-length shift is rate-independent; hoist it out of the rate
  // loop instead of letting delivery_probability recompute the log2 per
  // rate. Each per-rate probability is still the very double that function
  // returns (same shift value, same logistic arithmetic) — pinned by
  // SnrModelTest.BestRateMatchesPerRateProbabilities.
  const double length_shift_db =
      0.9 * std::log2(static_cast<double>(payload_bytes) /
                      static_cast<double>(params.reference_bytes));
  for (mac::RateIndex r = mac::fastest_rate(); r > mac::slowest_rate(); --r) {
    const double threshold = mac::rate(r).min_snr_db + length_shift_db;
    const double x = (snr_db - threshold) / params.transition_width_db;
    const double p = 1.0 / (1.0 + util::detmath::dexp(-x));
    if (p >= target) return r;
  }
  return mac::slowest_rate();
}

namespace {

// Finite doubles in order <-> consecutive integers (-0.0 and +0.0 share 0),
// so a bisection over keys halves the set of doubles left, not the range.
std::int64_t order_key(double x) {
  const auto bits = std::bit_cast<std::int64_t>(x);
  return bits >= 0 ? bits : -(bits & std::numeric_limits<std::int64_t>::max());
}

double from_order_key(std::int64_t key) {
  if (key >= 0) return std::bit_cast<double>(key);
  return std::bit_cast<double>(static_cast<std::int64_t>(
      static_cast<std::uint64_t>(-key) | (std::uint64_t{1} << 63)));
}

// Half-width of the band around a cut that SnrRateMap decides exactly: far
// wider than the few ulps over which a faithfully rounded dexp can wobble.
constexpr double kGuardDb = 1e-6;

}  // namespace

SnrRateMap::SnrRateMap(double target, int payload_bytes,
                       SnrModelParams params)
    : target_(target), payload_bytes_(payload_bytes), params_(params) {
  if (payload_bytes <= 0) {
    throw std::invalid_argument("SnrRateMap: payload_bytes must be > 0");
  }
  if (!(params.transition_width_db > 0.0) ||
      !std::isfinite(params.transition_width_db)) {
    throw std::invalid_argument(
        "SnrRateMap: transition_width_db must be finite and > 0");
  }
  // Same shift and threshold expressions as best_rate_for_snr.
  const double length_shift_db =
      0.9 * std::log2(static_cast<double>(payload_bytes) /
                      static_cast<double>(params.reference_bytes));
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kMax = std::numeric_limits<double>::max();
  for (mac::RateIndex r = mac::fastest_rate(); r > mac::slowest_rate(); --r) {
    const double threshold = mac::rate(r).min_snr_db + length_shift_db;
    const auto passes = [&](double snr) {
      const double x = (snr - threshold) / params.transition_width_db;
      return 1.0 / (1.0 + util::detmath::dexp(-x)) >= target;
    };
    const auto i = static_cast<std::size_t>(r);
    if (passes(-kMax)) {
      // Holds on every finite SNR; -inf is left to the reference.
      pass_above_[i] = fail_below_[i] = -kInf;
      continue;
    }
    if (!passes(kMax)) {
      // Fails on every finite SNR; +inf is left to the reference.
      pass_above_[i] = fail_below_[i] = kInf;
      continue;
    }
    // Invariant: passes(from_order_key(hi)) && !passes(from_order_key(lo)).
    std::int64_t lo = order_key(-kMax);
    std::int64_t hi = order_key(kMax);
    while (static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) >
           1) {
      const std::int64_t mid =
          lo + static_cast<std::int64_t>(
                   (static_cast<std::uint64_t>(hi) -
                    static_cast<std::uint64_t>(lo)) / 2);
      (passes(from_order_key(mid)) ? hi : lo) = mid;
    }
    const double cut = from_order_key(hi);
    const double guard = kGuardDb * std::max(1.0, std::abs(cut));
    pass_above_[i] = cut + guard;
    fail_below_[i] = cut - guard;
  }
}

}  // namespace sh::channel
