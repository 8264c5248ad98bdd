#include "rate/sample_rate.h"

#include <cassert>
#include <limits>

#include "mac/airtime.h"

namespace sh::rate {

SampleRateAdapter::SampleRateAdapter(Params params, util::Rng rng)
    : params_(params), rng_(rng) {
  assert(params_.window > 0);
  assert(params_.sample_every >= 2);
  for (mac::RateIndex r = mac::slowest_rate(); r <= mac::fastest_rate(); ++r) {
    lossless_us_[static_cast<std::size_t>(r)] = static_cast<double>(
        mac::attempt_duration(r, params_.payload_bytes, /*retry=*/0));
  }
}

double SampleRateAdapter::lossless_tx_time_us(mac::RateIndex r) const {
  return lossless_us_[static_cast<std::size_t>(r)];
}

double SampleRateAdapter::window_tx_time_us(mac::RateIndex r,
                                            const RateStats& stats) const {
  // Every attempt in the window paid airtime; only successes delivered data.
  const double total_airtime =
      lossless_tx_time_us(r) * static_cast<double>(stats.outcomes.size());
  return total_airtime / static_cast<double>(stats.successes);
}

void SampleRateAdapter::prune(Time now, RateStats& stats) {
  while (!stats.outcomes.empty() &&
         now - stats.outcomes.front().when > params_.window) {
    if (stats.outcomes.front().acked) --stats.successes;
    stats.outcomes.pop_front();
  }
  if (stats.outcomes.empty()) stats.consecutive_failures = 0;
}

double SampleRateAdapter::avg_tx_time_us(Time now, mac::RateIndex r) {
  auto& stats = stats_[static_cast<std::size_t>(r)];
  prune(now, stats);
  if (stats.outcomes.empty()) return lossless_tx_time_us(r);
  if (stats.successes == 0) return std::numeric_limits<double>::infinity();
  return window_tx_time_us(r, stats);
}

mac::RateIndex SampleRateAdapter::best_rate(Time now) {
  // Only rates with at least one success in the window qualify as "best";
  // rates without data are explored through the sampling slots, not adopted
  // blindly (adopting them would make the protocol thrash between stale
  // rates every time the window slides past their last sample).
  mac::RateIndex best = -1;
  double best_time = std::numeric_limits<double>::infinity();
  for (mac::RateIndex r = mac::slowest_rate(); r <= mac::fastest_rate(); ++r) {
    auto& stats = stats_[static_cast<std::size_t>(r)];
    prune(now, stats);
    if (stats.successes == 0) continue;
    const double t = window_tx_time_us(r, stats);
    if (t < best_time) {
      best_time = t;
      best = r;
    }
  }
  if (best >= 0) return best;
  // No success anywhere in the window: descend the ladder — the fastest
  // rate that has not accumulated the failure limit (Bicket's "try the
  // highest rate that hasn't failed four successive times").
  for (mac::RateIndex r = mac::fastest_rate(); r > mac::slowest_rate(); --r) {
    if (stats_[static_cast<std::size_t>(r)].consecutive_failures <
        params_.max_consecutive_failures) {
      return r;
    }
  }
  return mac::slowest_rate();
}

mac::RateIndex SampleRateAdapter::pick_rate(Time now) {
  mac::RateIndex best = best_rate(now);
  // Retry chain semantics of the 2005 SampleRate: a failed *sample* falls
  // back to the primary rate, but ordinary retries stay on the primary for
  // the whole chain. Under the correlated losses of a mobile channel the
  // retries land inside the same fade — the "oversampling the same bit
  // rate" cost RapidSample is designed to avoid (paper §3.1).
  if (chain_failures_ > 0) return best;
  ++packet_counter_;
  if (packet_counter_ % params_.sample_every != 0) return best;

  // Sampling slot: consider rates other than the best whose lossless time is
  // below the best's average (i.e. that could possibly beat it) and that are
  // not failure-locked.
  const double best_avg = avg_tx_time_us(now, best);
  std::array<mac::RateIndex, mac::kNumRates> candidates{};
  std::size_t num_candidates = 0;
  for (mac::RateIndex r = mac::slowest_rate(); r <= mac::fastest_rate(); ++r) {
    if (r == best) continue;
    auto& stats = stats_[static_cast<std::size_t>(r)];
    prune(now, stats);
    if (stats.consecutive_failures >= params_.max_consecutive_failures)
      continue;
    if (lossless_tx_time_us(r) >= best_avg) continue;
    candidates[num_candidates++] = r;
  }
  if (num_candidates == 0) return best;
  const auto pick = static_cast<std::size_t>(rng_.uniform_int(
      0, static_cast<std::int64_t>(num_candidates) - 1));
  return candidates[pick];
}

void SampleRateAdapter::on_packet_start(Time /*now*/) { chain_failures_ = 0; }

void SampleRateAdapter::on_result(Time now, mac::RateIndex rate_used,
                                  bool acked) {
  assert(mac::valid_rate(rate_used));
  auto& stats = stats_[static_cast<std::size_t>(rate_used)];
  stats.outcomes.push_back(Outcome{now, acked});
  if (acked) {
    ++stats.successes;
    stats.consecutive_failures = 0;
    chain_failures_ = 0;
  } else {
    ++stats.consecutive_failures;
    ++chain_failures_;
  }
  prune(now, stats);
}

void SampleRateAdapter::reset() {
  for (auto& s : stats_) s = RateStats{};
  packet_counter_ = 0;
  chain_failures_ = 0;
}

}  // namespace sh::rate
