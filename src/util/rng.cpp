#include "util/rng.h"

#include <bit>
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

}  // namespace

void Rng::reseed(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
  has_cached_normal_ = false;
}

double Rng::first_uniform(std::uint64_t seed) noexcept {
  // reseed() sets state word k to splitmix output k + 1, i.e. the mix of
  // seed + (k + 1) * gamma; next() then reads words 0 and 3.
  const std::uint64_t s0 = splitmix_mix(seed + kSplitmixGamma);
  const std::uint64_t s3 = splitmix_mix(seed + 4 * kSplitmixGamma);
  const std::uint64_t first = std::rotl(s0 + s3, 23) + s0;
  return static_cast<double>(first >> 11) * 0x1.0p-53;
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

double Rng::exponential(double mean) noexcept {
  // 1 - uniform() is in (0, 1], so the log argument is never zero.
  return -mean * std::log(1.0 - uniform());
}

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
