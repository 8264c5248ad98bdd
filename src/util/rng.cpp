#include "util/rng.h"

#include <cmath>

namespace sh::util {
namespace {

constexpr std::uint64_t kSplitmixGamma = 0x9E3779B97F4A7C15ULL;

std::uint64_t splitmix_mix(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += kSplitmixGamma;
  return splitmix_mix(x);
}

std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

void Rng::reseed(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
  has_cached_normal_ = false;
}

std::uint64_t Rng::next() noexcept {
  // Keep in step with first_uniform().
  const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::first_uniform(std::uint64_t seed) noexcept {
  // reseed() sets state word k to splitmix output k + 1, i.e. the mix of
  // seed + (k + 1) * gamma; next() then reads words 0 and 3.
  const std::uint64_t s0 = splitmix_mix(seed + kSplitmixGamma);
  const std::uint64_t s3 = splitmix_mix(seed + 4 * kSplitmixGamma);
  const std::uint64_t first = rotl(s0 + s3, 23) + s0;
  return static_cast<double>(first >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  // Unsigned arithmetic throughout: for wide ranges `hi - lo` (and, once the
  // span exceeds INT64_MAX, adding the sampled offset to `lo`) overflows
  // signed 64-bit; the unsigned ops and the final narrowing cast are
  // modular by definition. Results are unchanged for every in-range input.
  const std::uint64_t range =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (range == 0) return static_cast<std::int64_t>(next());  // full 64-bit span
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = max() - max() % range;
  std::uint64_t r = next();
  while (r >= limit) r = next();
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + r % range);
}

double Rng::normal() noexcept {
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

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

double Rng::exponential(double mean) noexcept {
  // 1 - uniform() is in (0, 1], so the log argument is never zero.
  return -mean * std::log(1.0 - uniform());
}

bool Rng::bernoulli(double p) noexcept { return uniform() < p; }

Rng Rng::fork() noexcept {
  return Rng{next() ^ 0xD1B54A32D192ED03ULL};
}

std::uint64_t Rng::derive_seed(std::uint64_t base, std::uint64_t stream) noexcept {
  // Two rounds of splitmix64 over a stream-salted base. One round already
  // decorrelates adjacent indices; the second guards against the structured
  // (base, base+1, ...) inputs the sweep engine feeds in.
  std::uint64_t x = base ^ (stream * 0xD1B54A32D192ED03ULL + 0x8CB92BA72F3D8DD7ULL);
  (void)splitmix64(x);
  return splitmix64(x);
}

}  // namespace sh::util
