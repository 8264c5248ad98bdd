#include "rate/snr_adapters.h"

#include <stdexcept>

namespace sh::rate {

Rbar::Rbar(Params params)
    : params_(params),
      rate_for_snr_(params.target_delivery, params.payload_bytes) {}

mac::RateIndex Rbar::pick_rate(Time /*now*/) {
  if (!have_snr_) return mac::slowest_rate();
  return rate_for_snr_(last_snr_db_ + params_.calibration_bias_db);
}

void Rbar::on_result(Time /*now*/, mac::RateIndex /*rate_used*/,
                     bool /*acked*/) {
  // Purely SNR-driven; frame fates carry no extra signal for RBAR.
}

void Rbar::on_snr(Time /*now*/, double snr_db) {
  last_snr_db_ = snr_db;
  have_snr_ = true;
}

void Rbar::reset() {
  have_snr_ = false;
  last_snr_db_ = 0.0;
}

Charm::Charm(Params params)
    : params_(params),
      rate_for_snr_(params.target_delivery, params.payload_bytes) {
  if (params_.window <= 0) {
    throw std::invalid_argument("Charm: window must be > 0");
  }
}

void Charm::prune(Time now) {
  while (!history_.empty() && now - history_.front().first > params_.window) {
    sum_snr_ -= history_.front().second;
    history_.pop_front();
  }
}

double Charm::mean_snr_db() const noexcept {
  if (history_.empty()) return 0.0;
  return sum_snr_ / static_cast<double>(history_.size());
}

mac::RateIndex Charm::pick_rate(Time now) {
  prune(now);
  if (history_.empty()) return mac::slowest_rate();
  return rate_for_snr_(mean_snr_db() + params_.calibration_bias_db);
}

void Charm::on_result(Time /*now*/, mac::RateIndex /*rate_used*/,
                      bool /*acked*/) {}

void Charm::on_snr(Time now, double snr_db) {
  history_.emplace_back(now, snr_db);
  sum_snr_ += snr_db;
  prune(now);
}

void Charm::reset() {
  history_.clear();
  sum_snr_ = 0.0;
}

}  // namespace sh::rate
