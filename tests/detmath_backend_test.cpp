// Cross-backend differential tests for util/detmath (`kernel` tier).
//
// The detmath contract says backend choice can never move a bit. These
// tests hold every backend this build compiled, and this CPU can run,
// against the portable backend: each Vtable entry point is called on the
// same inputs and every output double is compared by its bit pattern (any
// two NaNs count as equal; see same_bits). The
// inputs straddle both range bounds (±2^26 for sin/cos, ±700 for exp) by a
// few ulps, and include NaN, ±inf, ±0 and denormals next to random values,
// at batch lengths 0, 1, 7 and 256. A backend the build or the CPU lacks is
// skipped with a message naming the reason.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "util/detmath.h"
#include "util/detmath_dispatch.h"
#include "util/rng.h"

namespace sh::util::detmath {
namespace {

using internal::Vtable;

constexpr std::size_t kLengths[] = {0, 1, 7, 256};
constexpr std::size_t kPool = 256;
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Equal bit patterns, or both NaN. Which NaN operand an IEEE-754 add
/// propagates is left open, and compilers commute additions freely, so a
/// NaN's sign and payload are not part of the detmath contract; whether a
/// result is NaN is.
::testing::AssertionResult same_bits(const std::vector<double>& want,
                                     const std::vector<double>& got) {
  if (want.size() != got.size()) {
    return ::testing::AssertionFailure()
           << "sizes " << want.size() << " vs " << got.size();
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (std::isnan(want[i]) && std::isnan(got[i])) continue;
    if (std::bit_cast<std::uint64_t>(want[i]) !=
        std::bit_cast<std::uint64_t>(got[i])) {
      return ::testing::AssertionFailure()
             << "element " << i << ": portable " << want[i] << " vs "
             << got[i];
    }
  }
  return ::testing::AssertionSuccess();
}

/// The range bounds give or take up to three ulps, then the IEEE specials.
std::vector<double> edge_values() {
  std::vector<double> v;
  for (const double bound : {0x1p26, 700.0}) {
    for (const double sign : {1.0, -1.0}) {
      double below = sign * bound;
      double above = sign * bound;
      v.push_back(below);
      for (int k = 0; k < 3; ++k) {
        below = std::nextafter(below, 0.0);
        above = std::nextafter(above, sign * kInf);
        v.push_back(below);
        v.push_back(above);
      }
    }
  }
  const double denorm = std::numeric_limits<double>::denorm_min();
  const double tiny = std::numeric_limits<double>::min();
  for (const double x : {kNaN, -kNaN, kInf, -kInf, 0.0, -0.0, denorm, -denorm,
                         tiny / 4.0, -tiny / 3.0, tiny, -tiny}) {
    v.push_back(x);
  }
  return v;
}

/// Two input pools of kPool values: `in_range` (every value inside both
/// range bounds, so batch calls take their fast loops) and `mixed` (the
/// edge values spread through random ones, one every six slots starting
/// at 3, so the length-7 prefix already holds one, plus a ±1e9 value
/// every nine slots starting at 1).
struct Pools {
  std::vector<double> in_range;
  std::vector<double> mixed;
};

Pools make_pools() {
  Rng rng(0xBAC7E4DULL);
  Pools p;
  for (std::size_t i = 0; i < kPool; ++i) {
    const double scale = i % 3 == 0 ? 1.0 : (i % 3 == 1 ? 60.0 : 700.0);
    p.in_range.push_back(rng.uniform(-scale, scale));
  }
  p.mixed = p.in_range;
  const std::vector<double> edges = edge_values();
  for (std::size_t k = 0; k < edges.size(); ++k) p.mixed[3 + 6 * k] = edges[k];
  for (std::size_t i = 1; i < kPool; i += 9) p.mixed[i] = rng.uniform(-1e9, 1e9);
  return p;
}

std::vector<double> prefix(const std::vector<double>& v, std::size_t n) {
  return {v.begin(), v.begin() + static_cast<std::ptrdiff_t>(n)};
}

void expect_matches_portable(const Vtable& got) {
  const Vtable& want = internal::portable_vtable();
  const Pools pools = make_pools();

  for (const double x : pools.mixed) {
    SCOPED_TRACE(x);
    EXPECT_TRUE(same_bits({want.dsin(x)}, {got.dsin(x)}));
    EXPECT_TRUE(same_bits({want.dcos(x)}, {got.dcos(x)}));
    EXPECT_TRUE(same_bits({want.dexp(x)}, {got.dexp(x)}));
    double ws = 0, wc = 0, gs = 0, gc = 0;
    want.sincos_n(&x, 1, &ws, &wc);
    got.sincos_n(&x, 1, &gs, &gc);
    EXPECT_TRUE(same_bits({ws, wc}, {gs, gc}));
  }

  // Fading path sets (0, 1, 2, 3 and 16 paths) and sinusoid parameters:
  // ordinary fading/shadowing values, the bounds of the fast-loop
  // prechecks, and values that force the guarded loop (huge or NaN rate,
  // NaN phase).
  const double two_pi = 6.283185307179586;
  struct FadePaths {
    std::vector<double> omega, phase_i, phase_q;
  };
  std::vector<FadePaths> fade_paths = {
      {{}, {}, {}},
      {{two_pi}, {two_pi}, {0.0}},
      {{-two_pi, 3.1, 0.2}, {0.5, 1.0, 6.0}, {two_pi, 2.5, 0.0}},
      {{3.1, 1e30}, {0.1, 0.2}, {0.3, 0.4}},
      {{kNaN, 0.7}, {0.3, 0.4}, {0.5, 0.6}},
      {{0.7, 0.8}, {0.3, kNaN}, {0.4, 0.5}}};
  Rng path_rng(0xFADE5ULL);
  FadePaths sixteen;
  for (int p = 0; p < 16; ++p) {
    sixteen.omega.push_back(two_pi * std::cos(path_rng.uniform(0.0, two_pi)));
    sixteen.phase_i.push_back(path_rng.uniform(0.0, two_pi));
    sixteen.phase_q.push_back(path_rng.uniform(0.0, two_pi));
  }
  fade_paths.push_back(sixteen);
  // Logistic centre and width: a delivery-curve pair, one whose exp
  // arguments cross the ±700 bound inside the pools, and degenerate ones.
  const double logistic_params[][2] = {
      {6.4, 0.35}, {0.0, 1.0}, {-3.0, 1e-3}, {0.0, 0.0}, {kNaN, 1.0},
      {0.0, kInf}};
  const double sinusoid_params[][3] = {{2.5, 0.8, 1.2},
                                       {1.0, 0.0, 3.0},
                                       {-4.0, 1e12, 0.5},
                                       {1.0, kNaN, 0.0},
                                       {kInf, 0.2, 0.1}};

  for (const std::vector<double>* pool : {&pools.in_range, &pools.mixed}) {
    for (const std::size_t n : kLengths) {
      SCOPED_TRACE(::testing::Message()
                   << (pool == &pools.mixed ? "mixed" : "in-range")
                   << " pool, n = " << n);
      const std::vector<double> x = prefix(*pool, n);
      std::vector<double> w1(n), w2(n), g1(n), g2(n);
      want.sin_n(x.data(), n, w1.data());
      got.sin_n(x.data(), n, g1.data());
      EXPECT_TRUE(same_bits(w1, g1)) << "sin_n";
      want.cos_n(x.data(), n, w1.data());
      got.cos_n(x.data(), n, g1.data());
      EXPECT_TRUE(same_bits(w1, g1)) << "cos_n";
      want.exp_n(x.data(), n, w1.data());
      got.exp_n(x.data(), n, g1.data());
      EXPECT_TRUE(same_bits(w1, g1)) << "exp_n";
      want.sincos_n(x.data(), n, w1.data(), w2.data());
      got.sincos_n(x.data(), n, g1.data(), g2.data());
      EXPECT_TRUE(same_bits(w1, g1)) << "sincos_n sin";
      EXPECT_TRUE(same_bits(w2, g2)) << "sincos_n cos";
      for (const auto& lp : logistic_params) {
        want.logistic_n(x.data(), n, lp[0], lp[1], w1.data());
        got.logistic_n(x.data(), n, lp[0], lp[1], g1.data());
        EXPECT_TRUE(same_bits(w1, g1)) << "logistic_n";
      }

      // Accumulators start from a prefix of the other pool, so -0.0 and
      // NaN accumulators are covered too; fade_sum_n must overwrite its
      // outputs, so its two calls start from different garbage.
      const std::vector<double>& other =
          pool == &pools.mixed ? pools.in_range : pools.mixed;
      for (const auto& fp : fade_paths) {
        const std::size_t np = fp.omega.size();
        w1 = prefix(other, n);
        w2 = prefix(*pool, n);
        g1 = prefix(*pool, n);
        g2 = prefix(other, n);
        want.fade_sum_n(x.data(), n, fp.omega.data(), fp.phase_i.data(),
                        fp.phase_q.data(), np, w1.data(), w2.data());
        got.fade_sum_n(x.data(), n, fp.omega.data(), fp.phase_i.data(),
                       fp.phase_q.data(), np, g1.data(), g2.data());
        EXPECT_TRUE(same_bits(w1, g1)) << "fade_sum_n gi, np = " << np;
        EXPECT_TRUE(same_bits(w2, g2)) << "fade_sum_n gq, np = " << np;
      }
      for (const auto& sp : sinusoid_params) {
        w1 = prefix(other, n);
        g1 = w1;
        want.sinusoid_accumulate_n(x.data(), n, sp[0], sp[1], sp[2],
                                   w1.data());
        got.sinusoid_accumulate_n(x.data(), n, sp[0], sp[1], sp[2],
                                  g1.data());
        EXPECT_TRUE(same_bits(w1, g1)) << "sinusoid_accumulate_n";
      }
    }
  }
}

/// The backend called `name` if this build compiled it and this CPU runs
/// it; otherwise nullptr, with the reason in `why`.
const Vtable* runnable_backend(std::string_view name, std::string& why) {
  for (const internal::Backend& b : internal::compiled_backends()) {
    if (b.name != name) continue;
    if (b.supported()) return &b.vtable();
    why = "this CPU lacks an instruction set the " + std::string(name) +
          " backend was compiled for";
    return nullptr;
  }
  why = "this build did not compile the " + std::string(name) + " backend";
  return nullptr;
}

TEST(DetmathBackendTest, PortableIsCompiledLastAndAlwaysSupported) {
  const auto backends = internal::compiled_backends();
  ASSERT_FALSE(backends.empty());
  EXPECT_EQ(backends.back().name, "portable");
  EXPECT_TRUE(backends.back().supported());
  for (const internal::Backend& b : backends) {
    EXPECT_EQ(std::string_view(b.vtable().name), b.name);
  }
}

TEST(DetmathBackendTest, ActiveBackendIsFirstSupportedInPickOrder) {
  for (const internal::Backend& b : internal::compiled_backends()) {
    if (!b.supported()) continue;
    EXPECT_EQ(std::string_view(backend()), b.name);
    return;
  }
  FAIL() << "no supported backend";
}

TEST(DetmathBackendTest, Avx2MatchesPortableBitForBit) {
  std::string why;
  const Vtable* v = runnable_backend("avx2", why);
  if (v == nullptr) GTEST_SKIP() << why;
  expect_matches_portable(*v);
}

TEST(DetmathBackendTest, Avx512MatchesPortableBitForBit) {
  std::string why;
  const Vtable* v = runnable_backend("avx512", why);
  if (v == nullptr) GTEST_SKIP() << why;
  expect_matches_portable(*v);
}

}  // namespace
}  // namespace sh::util::detmath
