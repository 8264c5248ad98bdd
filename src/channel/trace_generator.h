// Synthetic channel realizations and packet-fate trace generation.
//
// ChannelRealization composes path loss (vehicular drive-by geometry),
// shadowing, and Doppler-scheduled small-scale fading into a deterministic,
// randomly accessible SNR(t) for one (environment, mobility scenario, seed)
// triple. The trace generator samples it every 5 ms and draws per-rate frame
// fates — the synthetic stand-in for the paper's measurement campaign.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "channel/environment.h"
#include "channel/fading.h"
#include "channel/snr_model.h"
#include "channel/trace.h"
#include "sim/mobility.h"
#include "util/rng.h"

namespace sh::channel {

/// Drive-by geometry for vehicular scenarios: the receiver shuttles along a
/// straight road past a stationary roadside sender (paper Fig 3-4).
struct DriveByGeometry {
  double lateral_offset_m = 15.0;  ///< Closest approach distance.
  double road_half_length_m = 250.0;
  double path_loss_exponent = 2.7;
  /// Along-road position at t = 0 (0 = abreast of the sender). Set to
  /// -speed * t_pass so a short trace captures an actual pass.
  double start_position_m = -250.0;
};

class ChannelRealization {
 public:
  ChannelRealization(Environment env, sim::MobilityScenario scenario,
                     std::uint64_t seed, DriveByGeometry geometry = {},
                     double snr_offset_db = 0.0,
                     double shadow_sigma_scale = 1.0,
                     DopplerClock::Config shadow_clock = {0.04, 1.6, 0.9});

  /// Instantaneous channel SNR (dB) at time `t`: mean SNR + distance path
  /// loss (vehicular only) + shadowing + small-scale fading.
  double snr_db_at(Time t) const;

  /// Ground-truth motion at `t` (from the scenario).
  bool moving_at(Time t) const { return scenario_.moving_at(t); }

  /// Delivery probability of a frame sent at time `t`.
  double delivery_probability_at(Time t, mac::RateIndex rate,
                                 int payload_bytes = 1000) const;

  /// Samples one frame fate at time `t` using the supplied RNG.
  bool sample_delivery(Time t, mac::RateIndex rate, util::Rng& rng,
                       int payload_bytes = 1000) const;

  const sim::MobilityScenario& scenario() const noexcept { return scenario_; }
  const EnvironmentProfile& profile() const noexcept { return *profile_; }
  Duration duration() const noexcept { return scenario_.total_duration(); }

  /// Structure-of-arrays block sampler: the production form of snr_db_at.
  /// sample_n fills true SNR and motion for a whole run of non-decreasing
  /// slot midpoints at once — it walks the piecewise structures (mobility
  /// phases, Doppler/shadow segments, distance checkpoints) to cut the run
  /// into spans on which all of them are constant, evaluates each span over
  /// contiguous arrays via the detmath batch kernels, then applies the
  /// interference bursts with a per-slot monotone walk.
  ///
  /// Bit-identical to snr_db_at / moving_at for every midpoint — same
  /// segment-selection rules, same arithmetic on the same doubles
  /// (tests/trace_kernel_test.cpp pins this differentially and
  /// property-wise).
  class BlockSampler {
   public:
    explicit BlockSampler(const ChannelRealization& channel) noexcept;

    /// Preconditions: mid[0..n) non-decreasing. Runs that are
    /// non-decreasing across calls take the monotone fast path; a run that
    /// starts earlier than its predecessor re-walks from the first segment,
    /// never returns stale state.
    void sample_n(const Time* mid, std::size_t n, double* snr_out,
                  bool* moving_out);

   private:
    const sim::MobilityPhase& phase_walk(Time t, Time& next_start) noexcept;
    const std::pair<Time, double>& checkpoint_walk(Time t,
                                                   Time& next_start) noexcept;

    const ChannelRealization* ch_;
    DopplerClock::Cursor doppler_;
    DopplerClock::Cursor shadow_;
    FadingProcess::RicianMix mix_static_;
    FadingProcess::RicianMix mix_mobile_;
    std::size_t phase_index_ = 0;
    Time phase_start_ = 0;
    std::size_t burst_index_ = 0;
    std::size_t checkpoint_index_ = 0;
    /// Span-sliced SoA buffers (sized per call, reused across calls).
    std::vector<double> tau_, sprog_, pl_, fade_, shadow_off_;
    FadingProcess::BlockScratch fade_scratch_;
  };

 private:
  double distance_path_loss_db(Time t) const;
  bool in_burst(Time t) const;

  const EnvironmentProfile* profile_;
  sim::MobilityScenario scenario_;
  Environment env_;
  DriveByGeometry geometry_;
  double snr_offset_db_;
  util::Rng rng_;  ///< Construction-time entropy for the sub-processes.
  FadingProcess fading_;
  DopplerClock doppler_;
  DopplerClock shadow_clock_;  ///< Motion-scaled progress for shadowing.
  ShadowingProcess shadowing_;
  /// Vehicular only: (phase start time, cumulative metres travelled).
  std::vector<std::pair<Time, double>> distance_checkpoints_;
  /// Interference bursts, precomputed over the scenario: [start, end).
  std::vector<std::pair<Time, Time>> bursts_;
};

struct TraceGeneratorConfig {
  Environment env = Environment::kOffice;
  sim::MobilityScenario scenario = sim::MobilityScenario::all_static(20 * kSecond);
  std::uint64_t seed = 1;
  Duration slot_duration = 5 * kMillisecond;
  int payload_bytes = 1000;
  /// Per-trace SNR offset (dB): models different sender/receiver placements
  /// between repetitions of the same experiment.
  double snr_offset_db = 0.0;
  /// Measurement noise on the *recorded* per-slot SNR (what an SNR-based
  /// protocol observes via RTS/CTS or overheard frames). Frame fates are
  /// drawn from the true SNR; the recorded value is the noisy observation —
  /// real receivers report quantized, interference-polluted RSSI, which is
  /// precisely why trained SNR protocols underperform frame-based ones.
  double snr_noise_db = 1.5;
  /// Scales the environment's shadowing sigma for this trace. The topology
  /// experiments use a marginal long link whose large-scale swings are
  /// stronger than the short-range rate-adaptation setup (paper Fig 4-1's
  /// 20%+ per-second delivery jumps).
  double shadow_sigma_scale = 1.0;
  /// Shadowing progress rates per motion state (how fast the device sweeps
  /// through large-scale obstructions). The default matches the Chapter 3
  /// rate-adaptation setting; the Chapter 4 long link uses a slower sweep
  /// (body shadowing on a longer path varies over many seconds).
  DopplerClock::Config shadow_clock{0.04, 1.6, 0.9};
  DriveByGeometry geometry{};
};

/// Generates a packet-fate trace by sampling a fresh channel realization.
///
/// Tail policy: the trace covers exactly floor(total_duration /
/// slot_duration) complete slots. A trailing partial slot — when the
/// scenario's total duration is not a multiple of the slot length — is
/// deterministically truncated, never emitted as a short slot; callers that
/// need the tail must extend the scenario to a slot multiple.
///
/// Validation: throws std::invalid_argument if slot_duration or
/// payload_bytes is not positive (checked in every build mode — release
/// builds must not silently divide by zero where a debug build asserts).
PacketFateTrace generate_trace(const TraceGeneratorConfig& config);

/// Reference implementation: ChannelRealization's random-access snr_db_at /
/// moving_at, one slot at a time, with the same fate draws. generate_trace
/// (the block kernel) is bit-identical to this for every config; the
/// differential `kernel` test tier holds the two against each other. If `true_snr_out` is non-null it
/// receives the per-slot true SNR doubles (before observation noise), the
/// quantity the differential tests compare at full double precision.
PacketFateTrace generate_trace_scalar(const TraceGeneratorConfig& config,
                                      std::vector<double>* true_snr_out =
                                          nullptr);

/// Block-kernel implementation with an explicit block size (slots per
/// batch). generate_trace uses kDefaultTraceBlockSlots; tests sweep odd
/// sizes and off-multiple trace lengths. Any block_slots value produces
/// identical output — blocking changes evaluation grouping, never results.
PacketFateTrace generate_trace_block(const TraceGeneratorConfig& config,
                                     std::size_t block_slots,
                                     std::vector<double>* true_snr_out =
                                         nullptr);

/// Default slots-per-block of the block kernel: big enough to amortize the
/// batch kernels, small enough to stay L1-resident (~14 doubles per slot).
inline constexpr std::size_t kDefaultTraceBlockSlots = 256;

}  // namespace sh::channel
