// Deterministic pseudo-random number generation for simulations.
//
// Every stochastic component in the library takes an explicit seed (or an
// Rng&) so that experiments are exactly reproducible.  The generator is
// xoshiro256++ (public-domain algorithm by Blackman & Vigna): fast, tiny
// state, and high statistical quality — more than adequate for channel /
// mobility simulation.
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

namespace sh::util {

/// xoshiro256++ generator, seeded via splitmix64 so that any 64-bit seed —
/// including 0 — produces a well-mixed state.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept { reseed(seed); }

  /// Re-initialize state from a 64-bit seed.
  void reseed(std::uint64_t seed) noexcept;

  /// Raw 64-bit output (UniformRandomBitGenerator interface).
  result_type operator()() noexcept { return next(); }
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Uniform double in [0, 1): 53 random mantissa bits.
  double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }
  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;
  /// Standard normal via Marsaglia polar method. Each accepted pair of
  /// uniforms yields two normals; the second is cached for the next call.
  double normal() noexcept {
    if (has_cached_normal_) {
      has_cached_normal_ = false;
      return cached_normal_;
    }
    double u, v, s;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    cached_normal_ = v * factor;
    has_cached_normal_ = true;
    return u * factor;
  }
  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }
  /// Exponential with the given mean. Requires mean > 0.
  double exponential(double mean) noexcept;
  /// Bernoulli trial with probability p of returning true.
  bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Derive an independent child generator (for per-entity streams). The
  /// child's stream is decorrelated from the parent's by splitmix hashing.
  Rng fork() noexcept;

  /// Deterministically derives an independent seed from a base seed and a
  /// stream index, using the same splitmix-style finalizer that fork() and
  /// reseed() rely on. Unlike fork() this is a pure function — the sweep
  /// engine uses it so run (base_seed, i) gets the same stream no matter
  /// which thread, or in which order, it executes.
  static std::uint64_t derive_seed(std::uint64_t base,
                                   std::uint64_t stream) noexcept;

  /// Rng(seed).uniform(), without building the generator: the first output
  /// reads only two of the four state words. For single-draw decisions.
  static double first_uniform(std::uint64_t seed) noexcept;

 private:
  // Defined here, with uniform(), normal() and bernoulli(), so the per-draw
  // hot loop of trace generation (one normal and eight Bernoullis per slot)
  // inlines them and keeps the state in registers.
  std::uint64_t next() noexcept {
    // Keep in step with first_uniform().
    const std::uint64_t result =
        std::rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }

  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace sh::util
