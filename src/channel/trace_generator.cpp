#include "channel/trace_generator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace sh::channel {

ChannelRealization::ChannelRealization(Environment env,
                                       sim::MobilityScenario scenario,
                                       std::uint64_t seed,
                                       DriveByGeometry geometry,
                                       double snr_offset_db,
                                       double shadow_sigma_scale,
                                       DopplerClock::Config shadow_clock)
    : profile_(&environment_profile(env)),
      scenario_(std::move(scenario)),
      env_(env),
      geometry_(geometry),
      snr_offset_db_(snr_offset_db),
      rng_(seed),
      fading_(rng_),
      doppler_(scenario_, profile_->doppler),
      // Shadowing progress: ~frozen while still, faster while moving (the
      // device sweeps through obstructions proportionally to distance).
      shadow_clock_(scenario_, shadow_clock),
      shadowing_(rng_, profile_->shadow_sigma_db * shadow_sigma_scale,
                 profile_->shadow_period_s) {
  // Precompute cumulative travelled distance at each phase boundary so the
  // vehicular drive-by position is randomly accessible.
  Time start = 0;
  double metres = 0.0;
  for (const auto& phase : scenario_.phases()) {
    distance_checkpoints_.emplace_back(start, metres);
    metres += phase.speed_mps * to_seconds(phase.duration);
    start += phase.duration;
  }
  if (distance_checkpoints_.empty()) distance_checkpoints_.emplace_back(0, 0.0);

  // Precompute the interference-burst schedule (Poisson arrivals,
  // exponential durations) so burst membership is random-access.
  if (profile_->burst_rate_hz > 0.0) {
    const double mean_gap_us = 1e6 / profile_->burst_rate_hz;
    Time t = static_cast<Time>(rng_.exponential(mean_gap_us));
    const Time end = scenario_.total_duration();
    while (t < end) {
      const auto duration = static_cast<Duration>(rng_.exponential(
          static_cast<double>(profile_->burst_mean_duration)));
      bursts_.emplace_back(t, t + duration);
      t += duration + static_cast<Time>(rng_.exponential(mean_gap_us));
    }
  }
}

bool ChannelRealization::in_burst(Time t) const {
  // Bursts are sorted; binary search for the first burst ending after t.
  const auto it = std::lower_bound(
      bursts_.begin(), bursts_.end(), t,
      [](const std::pair<Time, Time>& b, Time value) { return b.second <= value; });
  return it != bursts_.end() && it->first <= t;
}

double ChannelRealization::distance_path_loss_db(Time t) const {
  if (env_ != Environment::kVehicular) return 0.0;
  // Cumulative distance travelled by time t.
  const std::pair<Time, double>* cp = &distance_checkpoints_.front();
  for (const auto& c : distance_checkpoints_) {
    if (c.first > t) break;
    cp = &c;
  }
  const double s =
      cp->second + scenario_.speed_at(t) * to_seconds(t - cp->first);
  // Shuttle along [-L, L]: position is a triangle wave of travelled
  // distance, phased so the car starts at start_position_m heading +.
  const double length = geometry_.road_half_length_m;
  const double cycle = 4.0 * length;
  double m = std::fmod(s + geometry_.start_position_m + length, cycle);
  if (m < 0.0) m += cycle;
  const double pos = (m < 2.0 * length) ? (-length + m) : (3.0 * length - m);
  const double dist = std::hypot(geometry_.lateral_offset_m, pos);
  return 10.0 * geometry_.path_loss_exponent *
         std::log10(dist / geometry_.lateral_offset_m);
}

double ChannelRealization::snr_db_at(Time t) const {
  const bool moving = scenario_.moving_at(t);
  const double k =
      moving ? profile_->rician_k_mobile : profile_->rician_k_static;
  const double fade = fading_.gain_db(doppler_.tau_at(t), k);
  const double burst = in_burst(t) ? profile_->burst_depth_db : 0.0;
  return profile_->mean_snr_db + snr_offset_db_ - distance_path_loss_db(t) +
         shadowing_.offset_db(shadow_clock_.tau_at(t)) + fade - burst;
}

double ChannelRealization::delivery_probability_at(Time t, mac::RateIndex rate,
                                                   int payload_bytes) const {
  return delivery_probability(snr_db_at(t), rate, payload_bytes);
}

bool ChannelRealization::sample_delivery(Time t, mac::RateIndex rate,
                                         util::Rng& rng,
                                         int payload_bytes) const {
  return rng.bernoulli(delivery_probability_at(t, rate, payload_bytes));
}

ChannelRealization::BlockSampler::BlockSampler(
    const ChannelRealization& channel) noexcept
    : ch_(&channel),
      doppler_(channel.doppler_),
      shadow_(channel.shadow_clock_),
      mix_static_(
          FadingProcess::RicianMix::from_k(channel.profile_->rician_k_static)),
      mix_mobile_(
          FadingProcess::RicianMix::from_k(channel.profile_->rician_k_mobile)) {
}

const sim::MobilityPhase& ChannelRealization::BlockSampler::phase_walk(
    Time t, Time& next_start) noexcept {
  // Same selection as MobilityScenario::phase_at: the first phase whose
  // [start, start + duration) interval contains t, or the last phase for t
  // past the end of the script, or the default phase if there is none.
  // Also reports the time at which the selection would change (Time max
  // while in the last phase).
  const auto& phases = ch_->scenario_.phases();
  if (phases.empty()) {
    next_start = std::numeric_limits<Time>::max();
    return sim::MobilityScenario::default_phase();
  }
  if (t < phase_start_) {  // Backwards step: random-access fallback.
    phase_index_ = 0;
    phase_start_ = 0;
  }
  while (phase_index_ + 1 < phases.size() &&
         t >= phase_start_ + phases[phase_index_].duration) {
    phase_start_ += phases[phase_index_].duration;
    ++phase_index_;
  }
  next_start = phase_index_ + 1 < phases.size()
                   ? phase_start_ + phases[phase_index_].duration
                   : std::numeric_limits<Time>::max();
  return phases[phase_index_];
}

const std::pair<Time, double>& ChannelRealization::BlockSampler::checkpoint_walk(
    Time t, Time& next_start) noexcept {
  // Same selection as ChannelRealization::distance_path_loss_db: the last
  // checkpoint at or before t.
  const auto& checkpoints = ch_->distance_checkpoints_;
  if (checkpoints[checkpoint_index_].first > t) checkpoint_index_ = 0;
  while (checkpoint_index_ + 1 < checkpoints.size() &&
         checkpoints[checkpoint_index_ + 1].first <= t) {
    ++checkpoint_index_;
  }
  next_start = checkpoint_index_ + 1 < checkpoints.size()
                   ? checkpoints[checkpoint_index_ + 1].first
                   : std::numeric_limits<Time>::max();
  return checkpoints[checkpoint_index_];
}

void ChannelRealization::BlockSampler::sample_n(const Time* mid, std::size_t n,
                                                double* snr_out,
                                                bool* moving_out) {
  tau_.resize(n);
  sprog_.resize(n);
  pl_.resize(n);
  fade_.resize(n);
  shadow_off_.resize(n);

  // Pass 1: cut [0, n) into spans on which the mobility phase, both Doppler
  // clocks, and the distance checkpoint are all constant (their boundaries
  // all derive from scenario phase edges, so spans are long), then evaluate
  // each span's tau, shadowing progress, path loss, fading, and shadowing
  // over contiguous arrays.
  std::size_t i = 0;
  while (i < n) {
    const Time t = mid[i];
    Time phase_next = 0;
    const sim::MobilityPhase& phase = phase_walk(t, phase_next);
    const DopplerClock::Cursor::Span dop = doppler_.span_at(t);
    const DopplerClock::Cursor::Span sha = shadow_.span_at(t);
    Time span_end = std::min(phase_next,
                             std::min(dop.next_start, sha.next_start));
    const std::pair<Time, double>* checkpoint = nullptr;
    if (ch_->env_ == Environment::kVehicular) {
      Time cp_next = 0;
      checkpoint = &checkpoint_walk(t, cp_next);
      span_end = std::min(span_end, cp_next);
    }
    std::size_t j = i + 1;
    while (j < n && mid[j] < span_end) ++j;
    const std::size_t len = j - i;

    // Same per-element formula as DopplerClock::tau_at, with the segment
    // hoisted: tau_start + hz * to_seconds(t - start).
    for (std::size_t k = i; k < j; ++k) {
      tau_[k] = dop.tau_start + dop.hz * to_seconds(mid[k] - dop.start);
    }
    for (std::size_t k = i; k < j; ++k) {
      sprog_[k] = sha.tau_start + sha.hz * to_seconds(mid[k] - sha.start);
    }
    const bool moving = sim::is_moving(phase.state);
    for (std::size_t k = i; k < j; ++k) moving_out[k] = moving;

    if (checkpoint != nullptr) {
      // distance_path_loss_db's geometry, term for term (libm fmod/hypot/
      // log10 stay scalar calls on identical operands). The phase's speed is
      // scenario_.speed_at(t): both pick the same phase.
      const DriveByGeometry& geometry = ch_->geometry_;
      const double length = geometry.road_half_length_m;
      const double cycle = 4.0 * length;
      for (std::size_t k = i; k < j; ++k) {
        const double s = checkpoint->second +
                         phase.speed_mps * to_seconds(mid[k] - checkpoint->first);
        double m = std::fmod(s + geometry.start_position_m + length, cycle);
        if (m < 0.0) m += cycle;
        const double pos =
            (m < 2.0 * length) ? (-length + m) : (3.0 * length - m);
        const double dist = std::hypot(geometry.lateral_offset_m, pos);
        pl_[k] = 10.0 * geometry.path_loss_exponent *
                 std::log10(dist / geometry.lateral_offset_m);
      }
    } else {
      for (std::size_t k = i; k < j; ++k) pl_[k] = 0.0;
    }

    const FadingProcess::RicianMix& mix = moving ? mix_mobile_ : mix_static_;
    ch_->fading_.gain_db_n(tau_.data() + i, len, mix, fade_.data() + i,
                           fade_scratch_);
    ch_->shadowing_.offset_db_n(sprog_.data() + i, len, shadow_off_.data() + i);
    i = j;
  }

  // Pass 2: interference bursts (their boundaries are independent of the
  // phase structure) via a monotone walk to the first burst ending after t
  // (the lower_bound in ChannelRealization::in_burst; bursts are sorted and
  // non-overlapping), then the SNR composition in the exact scalar
  // association order:
  // ((((mean + offset) - path_loss) + shadowing) + fade) - burst.
  const double base = ch_->profile_->mean_snr_db + ch_->snr_offset_db_;
  const double depth = ch_->profile_->burst_depth_db;
  const auto& bursts = ch_->bursts_;
  for (std::size_t k = 0; k < n; ++k) {
    const Time t = mid[k];
    if (burst_index_ > 0 && burst_index_ <= bursts.size() &&
        bursts[burst_index_ - 1].second > t) {
      burst_index_ = 0;  // Backwards step: random-access fallback.
    }
    while (burst_index_ < bursts.size() && bursts[burst_index_].second <= t) {
      ++burst_index_;
    }
    const bool in_burst =
        burst_index_ < bursts.size() && bursts[burst_index_].first <= t;
    const double burst = in_burst ? depth : 0.0;
    snr_out[k] = base - pl_[k] + shadow_off_[k] + fade_[k] - burst;
  }
}

namespace {

void validate_trace_config(const TraceGeneratorConfig& config) {
  // Deterministic validation in every build mode: an assert would vanish
  // under NDEBUG and leave a zero slot_duration to divide by below.
  if (config.slot_duration <= 0) {
    throw std::invalid_argument(
        "generate_trace: slot_duration must be positive");
  }
  if (config.payload_bytes <= 0) {
    throw std::invalid_argument(
        "generate_trace: payload_bytes must be positive");
  }
}

}  // namespace

PacketFateTrace generate_trace_scalar(const TraceGeneratorConfig& config,
                                      std::vector<double>* true_snr_out) {
  validate_trace_config(config);
  ChannelRealization channel(config.env, config.scenario, config.seed,
                             config.geometry, config.snr_offset_db,
                             config.shadow_sigma_scale, config.shadow_clock);
  // Independent stream for fate draws so SNR(t) and the Bernoulli outcomes
  // are decorrelated.
  util::Rng fate_rng(config.seed ^ 0xF47E5EEDULL);

  // Random access per slot plus precomputed per-rate delivery thresholds
  // (DeliveryModel reproduces delivery_probability bit for bit).
  const DeliveryModel delivery(config.payload_bytes);

  // Tail policy (see header): a trailing partial slot is truncated.
  const Duration total = config.scenario.total_duration();
  const auto num_slots =
      static_cast<std::size_t>(total / config.slot_duration);
  PacketFateTrace trace(config.slot_duration);
  trace.reserve(num_slots);
  for (std::size_t i = 0; i < num_slots; ++i) {
    const Time mid = static_cast<Time>(i) * config.slot_duration +
                     config.slot_duration / 2;
    const double true_snr = channel.snr_db_at(mid);
    const auto measured_snr = static_cast<float>(
        true_snr + fate_rng.normal(0.0, config.snr_noise_db));
    const bool moving = channel.moving_at(mid);
    unsigned mask = 0;
    for (int r = 0; r < mac::kNumRates; ++r) {
      mask |= static_cast<unsigned>(
                  fate_rng.bernoulli(delivery.probability(true_snr, r)))
              << r;
    }
    trace.push_back(
        TraceSlot{measured_snr, static_cast<std::uint8_t>(mask), moving});
    if (true_snr_out != nullptr) true_snr_out->push_back(true_snr);
  }
  return trace;
}

PacketFateTrace generate_trace_block(const TraceGeneratorConfig& config,
                                     std::size_t block_slots,
                                     std::vector<double>* true_snr_out) {
  validate_trace_config(config);
  ChannelRealization channel(config.env, config.scenario, config.seed,
                             config.geometry, config.snr_offset_db,
                             config.shadow_sigma_scale, config.shadow_clock);
  util::Rng fate_rng(config.seed ^ 0xF47E5EEDULL);
  ChannelRealization::BlockSampler sampler(channel);
  const DeliveryModel delivery(config.payload_bytes);

  const Duration total = config.scenario.total_duration();
  const auto num_slots =
      static_cast<std::size_t>(total / config.slot_duration);
  PacketFateTrace trace(config.slot_duration);
  trace.reserve(num_slots);

  const std::size_t block = std::max<std::size_t>(1, block_slots);
  std::vector<Time> mid(block);
  std::vector<double> snr(block);
  const std::unique_ptr<bool[]> moving(new bool[block]);
  // Rate-major per-rate delivery probabilities for the block.
  std::vector<double> probs(static_cast<std::size_t>(mac::kNumRates) * block);

  for (std::size_t start = 0; start < num_slots; start += block) {
    const std::size_t len = std::min(block, num_slots - start);
    for (std::size_t k = 0; k < len; ++k) {
      mid[k] = static_cast<Time>(start + k) * config.slot_duration +
               config.slot_duration / 2;
    }
    sampler.sample_n(mid.data(), len, snr.data(), moving.get());
    for (int r = 0; r < mac::kNumRates; ++r) {
      delivery.probabilities_n(snr.data(), len, r,
                               probs.data() + static_cast<std::size_t>(r) *
                                                  block);
    }
    // Scalar tail: the fate RNG is a sequential stream, so draws stay in
    // the exact scalar order — one normal then kNumRates Bernoullis per
    // slot — against the precomputed probability arrays.
    for (std::size_t k = 0; k < len; ++k) {
      const auto measured_snr = static_cast<float>(
          snr[k] + fate_rng.normal(0.0, config.snr_noise_db));
      unsigned mask = 0;
      for (int r = 0; r < mac::kNumRates; ++r) {
        mask |= static_cast<unsigned>(fate_rng.bernoulli(
                    probs[static_cast<std::size_t>(r) * block + k]))
                << r;
      }
      trace.push_back(TraceSlot{measured_snr,
                                static_cast<std::uint8_t>(mask), moving[k]});
      if (true_snr_out != nullptr) true_snr_out->push_back(snr[k]);
    }
  }
  return trace;
}

PacketFateTrace generate_trace(const TraceGeneratorConfig& config) {
  return generate_trace_block(config, kDefaultTraceBlockSlots);
}

}  // namespace sh::channel
