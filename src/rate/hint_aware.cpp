#include "rate/hint_aware.h"

namespace sh::rate {

HintAwareRateAdapter::HintAwareRateAdapter(MovingQuery query, util::Rng rng,
                                           Params params)
    : HintAwareRateAdapter(
          HintQuery{[q = std::move(query)](Time now) {
            return std::optional<bool>(q(now));
          }},
          rng, params) {}

HintAwareRateAdapter::HintAwareRateAdapter(HintQuery query, util::Rng rng,
                                           Params params)
    : query_(std::move(query)),
      params_(params),
      rapid_(params.rapid),
      sample_rate_(params.sample_rate, rng) {}

RateAdapter& HintAwareRateAdapter::active() noexcept {
  if (mobile_mode_) return rapid_;
  return sample_rate_;
}

void HintAwareRateAdapter::maybe_switch(Time now) {
  const std::optional<bool> mobile = query_.fn(now);
  if (mobile.has_value()) {
    have_signal_ = true;
    last_signal_ = now;
    degraded_ = false;
    if (*mobile == mobile_mode_) return;
    mobile_mode_ = *mobile;
    if (params_.reset_on_switch) active().reset();
    return;
  }
  // The feed stopped answering. Ride the last known mode through a brief
  // gap, then fall back to the hint-free baseline (SampleRate).
  if (degraded_) return;
  if (have_signal_ && now - last_signal_ <= params_.stale_hold) return;
  degraded_ = true;
  if (mobile_mode_) {
    mobile_mode_ = false;
    if (params_.reset_on_switch) active().reset();
  }
}

void HintAwareRateAdapter::on_packet_start(Time now) {
  active().on_packet_start(now);
}

mac::RateIndex HintAwareRateAdapter::pick_rate(Time now) {
  maybe_switch(now);
  return active().pick_rate(now);
}

void HintAwareRateAdapter::on_result(Time now, mac::RateIndex rate_used,
                                     bool acked) {
  active().on_result(now, rate_used, acked);
}

void HintAwareRateAdapter::on_snr(Time now, double snr_db) {
  active().on_snr(now, snr_db);
}

void HintAwareRateAdapter::reset() {
  rapid_.reset();
  sample_rate_.reset();
  mobile_mode_ = false;
  degraded_ = false;
  have_signal_ = false;
  last_signal_ = 0;
}

}  // namespace sh::rate
