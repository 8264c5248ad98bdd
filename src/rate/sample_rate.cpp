#include "rate/sample_rate.h"

#include <bit>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "mac/airtime.h"

namespace sh::rate {

namespace {
constexpr double kNoSuccess = std::numeric_limits<double>::infinity();
}  // namespace

SampleRateAdapter::SampleRateAdapter(Params params, util::Rng rng)
    : params_(params), rng_(rng) {
  if (params_.window <= 0) {
    throw std::invalid_argument("SampleRateAdapter: window must be > 0");
  }
  if (params_.sample_every < 2) {
    throw std::invalid_argument("SampleRateAdapter: sample_every must be >= 2");
  }
  for (mac::RateIndex r = mac::slowest_rate(); r <= mac::fastest_rate(); ++r) {
    lossless_us_[static_cast<std::size_t>(r)] = static_cast<double>(
        mac::attempt_duration(r, params_.payload_bytes, /*retry=*/0));
  }
  avg_us_.fill(kNoSuccess);
  best_avg_ = kNoSuccess;
  sample_countdown_ = params_.sample_every;
}

double SampleRateAdapter::window_tx_time_us(std::size_t r) const {
  const RateStats& stats = stats_[r];
  if (stats.successes == 0) return kNoSuccess;
  // Every attempt in the window paid airtime; only successes delivered data.
  const double total_airtime =
      lossless_us_[r] * static_cast<double>(stats.attempts);
  return total_airtime / static_cast<double>(stats.successes);
}

void SampleRateAdapter::prune(Time now) {
  while (head_ < records_.size() &&
         now - records_[head_].when() > params_.window) {
    const Record expired = records_[head_++];
    const std::size_t r = expired.rate();
    RateStats& stats = stats_[r];
    --stats.attempts;
    if (expired.acked()) --stats.successes;
    if (stats.attempts == 0) stats.consecutive_failures = 0;
    dirty_ |= 1U << r;
  }
  // Keep best_ the argmin of avg_us_ (lowest rate on a tie) as each
  // refreshed average lands: a non-best rate takes over iff it now beats
  // the best, and only a rise of the best's own average needs a rescan.
  bool rescan = false;
  for (; dirty_ != 0; dirty_ &= dirty_ - 1) {
    const int r = std::countr_zero(dirty_);
    const double avg = window_tx_time_us(static_cast<std::size_t>(r));
    avg_us_[static_cast<std::size_t>(r)] = avg;
    if (r == best_) {
      rescan |= avg > best_avg_;
      best_avg_ = avg;
    } else if (avg < best_avg_ || (avg == best_avg_ && r < best_)) {
      best_ = r;
      best_avg_ = avg;
    }
  }
  if (!rescan) return;
  best_ = -1;
  best_avg_ = kNoSuccess;
  for (mac::RateIndex r = mac::slowest_rate(); r <= mac::fastest_rate(); ++r) {
    const double t = avg_us_[static_cast<std::size_t>(r)];
    if (t < best_avg_) {
      best_avg_ = t;
      best_ = r;
    }
  }
}

mac::RateIndex SampleRateAdapter::best_rate(Time now) {
  prune(now);
  // Only rates with at least one success in the window qualify as "best"
  // (the others average +inf); rates without data are explored through the
  // sampling slots, not adopted blindly (adopting them would make the
  // protocol thrash between stale rates every time the window slides past
  // their last sample).
  if (best_ >= 0) return best_;
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
  if (--sample_countdown_ != 0) return best;
  sample_countdown_ = params_.sample_every;

  // Sampling slot: consider rates other than the best whose lossless time is
  // below the best's average (i.e. that could possibly beat it) and that are
  // not failure-locked. A best without history averages its lossless time
  // (optimism drives initial exploration).
  const auto b = static_cast<std::size_t>(best);
  const double best_avg =
      stats_[b].attempts == 0 ? lossless_us_[b] : avg_us_[b];
  std::array<mac::RateIndex, mac::kNumRates> candidates{};
  std::size_t num_candidates = 0;
  for (mac::RateIndex r = mac::slowest_rate(); r <= mac::fastest_rate(); ++r) {
    if (r == best) continue;
    const auto i = static_cast<std::size_t>(r);
    if (stats_[i].consecutive_failures >= params_.max_consecutive_failures)
      continue;
    if (lossless_us_[i] >= best_avg) continue;
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
  if (now < kMinTime || now > kMaxTime) {
    throw std::out_of_range(
        "SampleRateAdapter: time outside the window's range");
  }
  // No prune here: the next best_rate() expires the front at its own,
  // later-or-equal `now` before anything reads the counters.
  if (records_.size() == records_.capacity() &&
      2 * head_ >= records_.size()) {
    records_.erase(records_.begin(),
                   records_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  const auto r = static_cast<std::size_t>(rate_used);
  records_.push_back(Record::pack(now, r, acked));
  RateStats& stats = stats_[r];
  ++stats.attempts;
  dirty_ |= 1U << r;
  if (acked) {
    ++stats.successes;
    stats.consecutive_failures = 0;
    chain_failures_ = 0;
  } else {
    ++stats.consecutive_failures;
    ++chain_failures_;
  }
}

void SampleRateAdapter::reset() {
  stats_ = {};
  avg_us_.fill(kNoSuccess);
  records_.clear();
  head_ = 0;
  dirty_ = 0;
  best_ = -1;
  best_avg_ = kNoSuccess;
  sample_countdown_ = params_.sample_every;
  chain_failures_ = 0;
}

}  // namespace sh::rate
