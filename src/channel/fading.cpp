#include "channel/fading.h"

#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

#include "util/detmath.h"

namespace sh::channel {
namespace {
constexpr double kTwoPi = 2.0 * std::numbers::pi;
constexpr double kGainFloorDb = -40.0;
}  // namespace

FadingProcess::RicianMix FadingProcess::RicianMix::from_k(
    double rician_k) noexcept {
  // Scattered power is E[gi^2 + gq^2] = 1. Mixing the LOS component in with
  // these weights keeps total mean power at 1: scattered gets 1/(K+1), LOS
  // gets K/(K+1).
  RicianMix mix;
  mix.scatter_scale = std::sqrt(1.0 / (rician_k + 1.0));
  mix.los_amp = std::sqrt(rician_k / (rician_k + 1.0));
  return mix;
}

FadingProcess::FadingProcess(util::Rng& rng, int num_paths)
    : los_phase_(rng.uniform(0.0, kTwoPi)),
      norm_(1.0 / std::sqrt(static_cast<double>(num_paths))) {
  // Checked in every build: with no paths norm_ is inf and every gain NaN.
  if (num_paths <= 0) {
    throw std::invalid_argument("FadingProcess: num_paths must be positive");
  }
  const auto np = static_cast<std::size_t>(num_paths);
  omega_.reserve(np);
  phase_i_.reserve(np);
  phase_q_.reserve(np);
  for (std::size_t n = 0; n < np; ++n) {
    // omega = 2*pi*cos(alpha), stored premultiplied: the per-sample phase
    // kTwoPi * cos_alpha * tau associates left, so (kTwoPi * cos_alpha) can
    // be folded at construction without changing a bit of the result.
    // The three draws per path keep their order: alpha, phase_i, phase_q.
    omega_.push_back(kTwoPi * std::cos(rng.uniform(0.0, kTwoPi)));
    phase_i_.push_back(rng.uniform(0.0, kTwoPi));
    phase_q_.push_back(rng.uniform(0.0, kTwoPi));
  }
}

double FadingProcess::gain_db(double tau, const RicianMix& mix) const noexcept {
  // detmath::dcos/dsin rather than libm: the block kernel (gain_db_n)
  // evaluates the same sinusoids over whole slot arrays, and only the
  // repo-owned kernels guarantee the batched evaluation is bit-identical
  // to this scalar walk (see util/detmath.h).
  double gi = 0.0;
  double gq = 0.0;
  for (std::size_t p = 0; p < omega_.size(); ++p) {
    const double theta = omega_[p] * tau;
    gi += util::detmath::dcos(theta + phase_i_[p]);
    gq += util::detmath::dcos(theta + phase_q_[p]);
  }
  gi *= norm_;
  gq *= norm_;
  // LOS arrives head-on: its Doppler phase advances at the full rate.
  const double los_theta = kTwoPi * tau + los_phase_;
  const double i =
      mix.scatter_scale * gi + mix.los_amp * util::detmath::dcos(los_theta);
  const double q =
      mix.scatter_scale * gq + mix.los_amp * util::detmath::dsin(los_theta);
  const double power = i * i + q * q;
  if (power <= 0.0) return kGainFloorDb;
  const double db = 10.0 * std::log10(power);
  return db < kGainFloorDb ? kGainFloorDb : db;
}

void FadingProcess::gain_db_n(const double* tau, std::size_t n,
                              const RicianMix& mix, double* out,
                              BlockScratch& scratch) const {
  scratch.gi.resize(n);
  scratch.gq.resize(n);
  scratch.ang.resize(n);
  scratch.sin_v.resize(n);
  scratch.cos_v.resize(n);
  util::detmath::fade_sum_n(tau, n, omega_.data(), phase_i_.data(),
                            phase_q_.data(), omega_.size(), scratch.gi.data(),
                            scratch.gq.data());
  double* ang = scratch.ang.data();
  for (std::size_t k = 0; k < n; ++k) ang[k] = kTwoPi * tau[k] + los_phase_;
  util::detmath::sincos_n(ang, n, scratch.sin_v.data(), scratch.cos_v.data());
  // Tail of gain_db after the scattered sums: identical expression shapes,
  // element by element (the project targets a no-FMA baseline ISA, so plain
  // mul/add here can never be contracted differently from the scalar path).
  const double* gi = scratch.gi.data();
  const double* gq = scratch.gq.data();
  const double* ls = scratch.sin_v.data();
  const double* lc = scratch.cos_v.data();
  for (std::size_t k = 0; k < n; ++k) {
    const double gin = gi[k] * norm_;
    const double gqn = gq[k] * norm_;
    const double i = mix.scatter_scale * gin + mix.los_amp * lc[k];
    const double q = mix.scatter_scale * gqn + mix.los_amp * ls[k];
    const double power = i * i + q * q;
    if (power <= 0.0) {
      out[k] = kGainFloorDb;
      continue;
    }
    const double db = 10.0 * std::log10(power);
    out[k] = db < kGainFloorDb ? kGainFloorDb : db;
  }
}

DopplerClock::DopplerClock(const sim::MobilityScenario& scenario, Config config) {
  Time start = 0;
  double tau = 0.0;
  for (const auto& phase : scenario.phases()) {
    double hz = config.static_hz;
    switch (phase.state) {
      case sim::MotionState::kStatic:
        hz = config.static_hz;
        break;
      case sim::MotionState::kWalking:
        hz = config.walking_hz;
        break;
      case sim::MotionState::kVehicle:
        hz = std::max(config.static_hz,
                      phase.speed_mps * config.vehicle_hz_per_mps);
        break;
    }
    segments_.push_back(Segment{start, tau, hz});
    tau += hz * to_seconds(phase.duration);
    start += phase.duration;
  }
  if (segments_.empty()) segments_.push_back(Segment{0, 0.0, config.static_hz});
}

double DopplerClock::tau_at(Time t) const noexcept {
  const Segment* seg = &segments_.front();
  for (const auto& s : segments_) {
    if (s.start > t) break;
    seg = &s;
  }
  return seg->tau_start + seg->hz * to_seconds(t - seg->start);
}

double DopplerClock::doppler_hz_at(Time t) const noexcept {
  const Segment* seg = &segments_.front();
  for (const auto& s : segments_) {
    if (s.start > t) break;
    seg = &s;
  }
  return seg->hz;
}

DopplerClock::Cursor::Span DopplerClock::Cursor::span_at(Time t) noexcept {
  const auto& segments = clock_->segments_;
  // Random-access fallback: a backwards step restarts the walk from the
  // first segment. Either way the selected segment is the last one whose
  // start is <= t — exactly what the linear scan in tau_at picks.
  if (segments[index_].start > t) index_ = 0;
  while (index_ + 1 < segments.size() && segments[index_ + 1].start <= t) {
    ++index_;
  }
  const Segment& seg = segments[index_];
  const Time next = index_ + 1 < segments.size()
                        ? segments[index_ + 1].start
                        : std::numeric_limits<Time>::max();
  return Span{seg.tau_start, seg.hz, seg.start, next};
}

ShadowingProcess::ShadowingProcess(util::Rng& rng, double sigma_db,
                                   double period_s) {
  // Checked in every build; the negated forms reject NaN too.
  if (!(sigma_db >= 0.0)) {
    throw std::invalid_argument("ShadowingProcess: sigma_db must be >= 0");
  }
  if (!(period_s > 0.0)) {
    throw std::invalid_argument("ShadowingProcess: period_s must be > 0");
  }
  // Four sinusoids with periods spread around `period_s`; amplitudes chosen
  // so total variance = sigma^2 (each sinusoid contributes amp^2/2).
  constexpr int kComponents = 4;
  const double per_component_amp =
      sigma_db * std::sqrt(2.0 / static_cast<double>(kComponents));
  for (int i = 0; i < kComponents; ++i) {
    const double period = period_s * rng.uniform(0.5, 2.0);
    components_.push_back(Component{per_component_amp, kTwoPi / period,
                                    rng.uniform(0.0, kTwoPi)});
  }
}

double ShadowingProcess::offset_db(double progress_s) const noexcept {
  double sum = 0.0;
  for (const auto& c : components_)
    sum += c.amplitude_db * util::detmath::dsin(c.omega * progress_s + c.phase);
  return sum;
}

void ShadowingProcess::offset_db_n(const double* progress_s, std::size_t n,
                                   double* out) const noexcept {
  // Component-by-component accumulation in the same order as offset_db, so
  // out[k]'s sum sequence is the scalar one.
  for (std::size_t k = 0; k < n; ++k) out[k] = 0.0;
  for (const auto& c : components_) {
    util::detmath::sinusoid_accumulate_n(progress_s, n, c.amplitude_db,
                                         c.omega, c.phase, out);
  }
}

}  // namespace sh::channel
