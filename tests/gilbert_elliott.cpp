#include "gilbert_elliott.h"

namespace sh::channel {

GilbertElliott::GilbertElliott(util::Rng rng, Params params)
    : rng_(rng), params_(params) {}

bool GilbertElliott::step() {
  if (good_) {
    if (rng_.bernoulli(params_.p_good_to_bad)) good_ = false;
  } else {
    if (rng_.bernoulli(params_.p_bad_to_good)) good_ = true;
  }
  const double loss = good_ ? params_.loss_in_good : params_.loss_in_bad;
  return !rng_.bernoulli(loss);
}

double GilbertElliott::stationary_good() const noexcept {
  const double denom = params_.p_good_to_bad + params_.p_bad_to_good;
  if (denom <= 0.0) return 1.0;
  return params_.p_bad_to_good / denom;
}

double GilbertElliott::expected_loss() const noexcept {
  const double pg = stationary_good();
  return pg * params_.loss_in_good + (1.0 - pg) * params_.loss_in_bad;
}

}  // namespace sh::channel
