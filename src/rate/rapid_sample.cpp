#include "rate/rapid_sample.h"

#include <cassert>
#include <stdexcept>

namespace sh::rate {
namespace {
// "Never failed": far enough in the past that any delta_fail check passes.
constexpr Time kNeverFailed = -1'000'000'000;
}  // namespace

RapidSample::RapidSample(Params params)
    : params_(params),
      current_(mac::fastest_rate()),
      pre_sample_rate_(mac::fastest_rate()) {
  if (params_.delta_success <= 0 || params_.delta_fail <= 0) {
    throw std::invalid_argument(
        "RapidSample: delta_success and delta_fail must be > 0");
  }
  failed_time_.fill(kNeverFailed);
  picked_time_.fill(0);
}

mac::RateIndex RapidSample::sample_candidate(Time now) const {
  // Walk up from the slowest rate; eligibility requires every rate at or
  // below the candidate to be clean within delta_fail (a recent failure at a
  // slower rate implies the channel cannot support anything faster either).
  mac::RateIndex best = current_;
  for (mac::RateIndex i = mac::slowest_rate(); i <= mac::fastest_rate(); ++i) {
    if (now - failed_time_[static_cast<std::size_t>(i)] <= params_.delta_fail)
      break;
    if (i > best) best = i;
  }
  return best;
}

mac::RateIndex RapidSample::pick_rate(Time /*now*/) { return current_; }

void RapidSample::on_result(Time now, mac::RateIndex rate_used, bool acked) {
  assert(mac::valid_rate(rate_used));
  const mac::RateIndex last = rate_used;

  mac::RateIndex next = last;
  if (!acked) {
    failed_time_[static_cast<std::size_t>(last)] = now;
    // Revert a failed sample to the pre-sample rate; otherwise step down.
    next = sampling_ ? pre_sample_rate_
                     : std::max(mac::slowest_rate(), last - 1);
    sampling_ = false;
  } else {
    sampling_ = false;
    if (now - picked_time_[static_cast<std::size_t>(last)] >
        params_.delta_success) {
      const mac::RateIndex candidate = sample_candidate(now);
      if (candidate > last) {
        next = candidate;
        sampling_ = true;
        pre_sample_rate_ = last;
      }
    }
  }

  if (next != last) picked_time_[static_cast<std::size_t>(next)] = now;
  current_ = next;
}

void RapidSample::reset() {
  current_ = mac::fastest_rate();
  pre_sample_rate_ = mac::fastest_rate();
  sampling_ = false;
  failed_time_.fill(kNeverFailed);
  picked_time_.fill(0);
}

}  // namespace sh::rate
