// Time-correlated small-scale fading (Clarke/Jakes sum-of-sinusoids) plus a
// slowly varying shadowing process.
//
// Why sum-of-sinusoids: the generator is a pure function of time, so traces
// can be sampled at any resolution (5 ms slots for protocol replay, 0.2 ms
// packet spacing for the loss-correlation measurement of Fig 3-1) and remain
// exactly reproducible from a seed. The Doppler frequency sets the channel
// coherence time (Tc ~= 0.423 / f_d), which is the single knob that separates
// the paper's static channels (coherent over seconds) from its mobile ones
// (coherent over ~10 ms).
#pragma once

#include <vector>

#include "sim/mobility.h"
#include "util/rng.h"
#include "util/time.h"

namespace sh::channel {

/// Rayleigh/Rician fading gain as a deterministic function of "Doppler time"
/// tau = integral of f_d(t) dt (dimensionless cycles). Mean power is 1
/// (0 dB), i.e. the process only redistributes power around the mean SNR.
class FadingProcess {
 public:
  /// Rician mixing weights for a fixed K factor, hoisted out of the
  /// per-sample path: gain_db(tau, RicianMix::from_k(k)) is bit-identical
  /// to gain_db(tau, k) — the weights are the very same sqrt expressions —
  /// but a caller sampling many times at a constant K (one mobility state
  /// spans thousands of trace slots) pays the two square roots once.
  struct RicianMix {
    double scatter_scale = 1.0;  ///< sqrt(1 / (K + 1)).
    double los_amp = 0.0;        ///< sqrt(K / (K + 1)).
    static RicianMix from_k(double rician_k) noexcept;
  };

  /// `num_paths` scattered components; 8+ gives an acceptably Rayleigh-like
  /// envelope, 16 is the default. Throws std::invalid_argument unless
  /// num_paths > 0 (no paths would normalise by 1/sqrt(0)).
  explicit FadingProcess(util::Rng& rng, int num_paths = 16);

  /// Power gain in dB at Doppler time `tau`, mixing a fixed line-of-sight
  /// component of Rician factor `k` (k = 0 -> pure Rayleigh) with the
  /// scattered sum. Gain is floored at -40 dB to keep downstream math finite.
  double gain_db(double tau, double rician_k = 0.0) const noexcept {
    return gain_db(tau, RicianMix::from_k(rician_k));
  }
  /// Same gain with precomputed mixing weights (the hot-path form).
  double gain_db(double tau, const RicianMix& mix) const noexcept;

  /// Reusable buffers for the block kernel, owned by the caller so one
  /// allocation serves every block of a trace.
  struct BlockScratch {
    std::vector<double> gi, gq, ang, sin_v, cos_v;
  };

  /// Block form of gain_db: out[k] is bit-identical to
  /// gain_db(tau[k], mix) for every k (the per-element arithmetic is the
  /// same detmath kernels in the same order; see DESIGN.md "Block trace
  /// kernel").
  void gain_db_n(const double* tau, std::size_t n, const RicianMix& mix,
                 double* out, BlockScratch& scratch) const;

 private:
  // The scattered paths, one entry each, as parallel arrays (the layout
  // detmath::fade_sum_n takes).
  std::vector<double> omega_;    ///< 2*pi*cos(alpha): Doppler phase rate.
  std::vector<double> phase_i_;  ///< In-phase component phase offset.
  std::vector<double> phase_q_;  ///< Quadrature component phase offset.
  double los_phase_;
  double norm_;  ///< 1/sqrt(num_paths): normalizes scattered power to 1.
};

/// Maps real time to Doppler time for a mobility scenario: integrates a
/// piecewise-constant Doppler frequency (one value per motion state).
class DopplerClock {
 public:
  struct Config {
    double static_hz = 0.8;   ///< Residual environmental motion when still.
    double walking_hz = 45.0; ///< Tc ~= 9 ms, matching the paper's Fig 3-1.
    /// Vehicle Doppler scales with speed: f_d = speed_mps * hz_per_mps.
    double vehicle_hz_per_mps = 19.3;  ///< v * f_c / c at 5.8 GHz.
  };

  explicit DopplerClock(const sim::MobilityScenario& scenario)
      : DopplerClock(scenario, Config{}) {}
  DopplerClock(const sim::MobilityScenario& scenario, Config config);

  /// Doppler time (cycles elapsed) at real time `t`.
  double tau_at(Time t) const noexcept;
  /// Instantaneous Doppler frequency at real time `t`.
  double doppler_hz_at(Time t) const noexcept;

 private:
  struct Segment {
    Time start;
    double tau_start;  ///< Accumulated cycles at segment start.
    double hz;
  };

 public:
  /// Monotone segment cursor for the block kernel, which queries the clock
  /// with non-decreasing times: the segment index advances incrementally
  /// (amortized O(1)) instead of re-scanning the segment list on every
  /// call. A query that steps backwards resets the cursor and re-walks from
  /// the first segment, so monotonicity is a fast path, never a correctness
  /// requirement.
  class Cursor {
   public:
    explicit Cursor(const DopplerClock& clock) noexcept : clock_(&clock) {}

    /// Segment parameters for span-at-a-time evaluation: the segment
    /// containing `t` (the one tau_at picks) plus the time the next segment
    /// begins (Time max for the last segment). tau at any u in
    /// [start, next_start) is tau_start + hz * to_seconds(u - start) — the
    /// tau_at formula.
    struct Span {
      double tau_start;
      double hz;
      Time start;
      Time next_start;
    };
    Span span_at(Time t) noexcept;

   private:
    const DopplerClock* clock_;
    std::size_t index_ = 0;
  };

 private:
  std::vector<Segment> segments_;
};

/// Slow shadowing (large-scale) variation in dB: a seeded sum of a few
/// low-frequency sinusoids, giving a smooth zero-mean process with the target
/// standard deviation — deterministic and randomly accessible like the fast
/// fading.
///
/// Shadowing is a function of *position*, not time: a stationary device sees
/// an almost frozen large-scale channel, while a moving one sweeps through
/// obstructions. Callers therefore evaluate the process at a motion-scaled
/// progress variable (walking-equivalent seconds, produced by a DopplerClock
/// with shadowing rates) rather than at wall-clock time.
class ShadowingProcess {
 public:
  /// `sigma_db` standard deviation; `period_s` roughly the dominant
  /// variation period in progress units. Throws std::invalid_argument
  /// unless sigma_db >= 0 and period_s > 0 (NaN fails both).
  ShadowingProcess(util::Rng& rng, double sigma_db, double period_s = 8.0);

  double offset_db(double progress_s) const noexcept;

  /// Block form: out[k] is bit-identical to offset_db(progress_s[k]).
  void offset_db_n(const double* progress_s, std::size_t n,
                   double* out) const noexcept;

 private:
  struct Component {
    double amplitude_db;
    double omega;  ///< rad per second.
    double phase;
  };
  std::vector<Component> components_;
};

}  // namespace sh::channel
