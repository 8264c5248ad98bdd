#include "rate/rraa.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "mac/airtime.h"

namespace sh::rate {

Rraa::Rraa(Params params) : params_(params), current_(mac::fastest_rate()) {
  if (params_.window_frames <= 0) {
    throw std::invalid_argument("Rraa: window_frames must be > 0");
  }
  recompute_thresholds();
}

void Rraa::recompute_thresholds() {
  // Critical loss for rate r vs r-1: p* = 1 - t(r)/t(r-1), where t is the
  // per-attempt airtime. Above p*, dropping to r-1 yields more goodput.
  auto airtime = [&](mac::RateIndex r) {
    return static_cast<double>(
        mac::attempt_duration(r, params_.payload_bytes, /*retry=*/0));
  };
  for (mac::RateIndex r = mac::slowest_rate(); r <= mac::fastest_rate(); ++r) {
    const auto i = static_cast<std::size_t>(r);
    if (r == mac::slowest_rate()) {
      mtl_[i] = 1.0;  // Nowhere lower to go.
    } else {
      const double critical = 1.0 - airtime(r) / airtime(r - 1);
      mtl_[i] = std::min(0.95, params_.alpha * critical);
    }
    if (r == mac::fastest_rate()) {
      ori_[i] = 0.0;  // Nowhere higher to go.
    } else {
      const double critical_up = 1.0 - airtime(r + 1) / airtime(r);
      ori_[i] = std::max(0.0, critical_up / params_.beta);
    }
  }
}

void Rraa::start_window() {
  frames_in_window_ = 0;
  losses_in_window_ = 0;
}

mac::RateIndex Rraa::pick_rate(Time /*now*/) { return current_; }

void Rraa::on_result(Time /*now*/, mac::RateIndex rate_used, bool acked) {
  assert(mac::valid_rate(rate_used));
  if (rate_used != current_) return;  // Stale feedback after a rate change.

  ++frames_in_window_;
  if (!acked) ++losses_in_window_;

  const auto i = static_cast<std::size_t>(current_);
  const double loss = static_cast<double>(losses_in_window_) /
                      static_cast<double>(frames_in_window_);

  // Early termination (RRAA's own optimization): if the losses collected so
  // far already guarantee the window verdict will be "down", act now.
  const double guaranteed_loss = static_cast<double>(losses_in_window_) /
                                 static_cast<double>(params_.window_frames);
  if (guaranteed_loss > mtl_[i]) {
    current_ = std::max(mac::slowest_rate(), current_ - 1);
    start_window();
    return;
  }

  // Otherwise decisions wait for the window boundary — the reaction lag
  // that costs RRAA against RapidSample on mobile channels (paper §3.5).
  if (frames_in_window_ < params_.window_frames) return;

  if (loss > mtl_[i]) {
    current_ = std::max(mac::slowest_rate(), current_ - 1);
  } else if (loss < ori_[i]) {
    current_ = std::min(mac::fastest_rate(), current_ + 1);
  }
  start_window();
}

void Rraa::reset() {
  current_ = mac::fastest_rate();
  start_window();
}

}  // namespace sh::rate
