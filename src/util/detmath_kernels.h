// Per-element cores and batch loops behind detmath.h, written once and
// compiled into each backend translation unit (detmath_portable.cpp,
// detmath_avx2.cpp, detmath_avx512.cpp) inside a backend-specific
// namespace.
//
// Determinism contract (see detmath.h): every floating-point operation in
// this file is spelled explicitly — fused multiply-adds only where
// std::fma is written, separately rounded multiply/add everywhere else —
// and the including TUs compile with -ffp-contract=off. A vectorized loop
// therefore performs exactly the per-element operation sequence of the
// scalar form, lane by lane, and all backends agree bit-for-bit (software
// std::fma is correctly rounded, i.e. identical to the hardware
// instruction).
//
// Algorithms: Cody-Waite argument reduction against double-double pi/2
// (resp. ln 2) with the 1.5*2^52 round-to-nearest trick, then minimax
// (fdlibm) polynomials for sin/cos and a degree-13 Taylor tail for exp.
// Faithful rounding holds for |x| <= 2^26 (trig) and |x| <= 700 (exp);
// outside those ranges — and for NaN/inf — every entry point falls back to
// libm per element, under the same per-element predicate, so the fallback
// can never disagree between scalar and batch forms.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "util/detmath_dispatch.h"

#ifndef SH_DETMATH_BACKEND
#error "detmath_kernels.h must be included with SH_DETMATH_BACKEND defined"
#endif

namespace sh::util::detmath {
namespace SH_DETMATH_BACKEND {

// 1.5 * 2^52: adding then subtracting rounds to the nearest integer (ties
// to even) for |v| <= 2^51, and the low mantissa bits of the intermediate
// sum hold that integer's two's complement.
inline constexpr double kShifter = 0x1.8p52;
inline constexpr double kTwoPi = 6.283185307179586476925286766559;

inline constexpr double kTwoOverPi = 0x1.45f306dc9c883p-1;
inline constexpr double kPio2Hi = 0x1.921fb54442d18p0;
inline constexpr double kPio2Lo = 0x1.1a62633145c07p-54;
/// Reduction validity bound for sin/cos arguments.
inline constexpr double kTrigBound = 0x1p26;

// fdlibm __kernel_sin minimax coefficients, |r| <= pi/4.
inline constexpr double kS1 = -1.66666666666666324348e-01;
inline constexpr double kS2 = 8.33333333332248946124e-03;
inline constexpr double kS3 = -1.98412698298579493134e-04;
inline constexpr double kS4 = 2.75573137070700676789e-06;
inline constexpr double kS5 = -2.50507602534068634195e-08;
inline constexpr double kS6 = 1.58969099521155010221e-10;

// fdlibm __kernel_cos minimax coefficients, |r| <= pi/4.
inline constexpr double kC1 = 4.16666666666666019037e-02;
inline constexpr double kC2 = -1.38888888888741095749e-03;
inline constexpr double kC3 = 2.48015872894767294178e-05;
inline constexpr double kC4 = -2.75573143513906633035e-07;
inline constexpr double kC5 = 2.08757232129817482790e-09;
inline constexpr double kC6 = -1.13596475577881948265e-11;

inline constexpr double kLog2e = 0x1.71547652b82fep0;
inline constexpr double kLn2Hi = 6.93147180369123816490e-01;
inline constexpr double kLn2Lo = 1.90821492927058770002e-10;
/// Reduction validity bound for exp arguments (no overflow, no subnormals).
inline constexpr double kExpBound = 700.0;

// 1/2! .. 1/13!: exp(r) = 1 + r + r^2 * q(r) with q a degree-11 Horner
// chain; the r^14/14! remainder is ~4e-18 at |r| = ln(2)/2.
inline constexpr double kE2 = 5.00000000000000000000e-01;
inline constexpr double kE3 = 1.66666666666666666667e-01;
inline constexpr double kE4 = 4.16666666666666666667e-02;
inline constexpr double kE5 = 8.33333333333333333333e-03;
inline constexpr double kE6 = 1.38888888888888888889e-03;
inline constexpr double kE7 = 1.98412698412698412698e-04;
inline constexpr double kE8 = 2.48015873015873015873e-05;
inline constexpr double kE9 = 2.75573192239858906526e-06;
inline constexpr double kE10 = 2.75573192239858906526e-07;
inline constexpr double kE11 = 2.50521083854417187751e-08;
inline constexpr double kE12 = 2.08767569878680989792e-09;
inline constexpr double kE13 = 1.60590438368216145994e-10;

/// The shared in-range predicates. Every entry point — scalar, batch fast
/// loop preconditions, batch guarded loops — routes through these, so the
/// core-vs-libm decision is a pure per-element function of the input.
/// (NaN compares false, so NaN always takes the libm fallback.)
inline bool trig_in_range(double x) noexcept {
  return std::fabs(x) <= kTrigBound;
}
inline bool exp_in_range(double x) noexcept { return std::fabs(x) <= kExpBound; }

struct SinCos {
  double s;
  double c;
};

/// sin and cos of x for |x| <= kTrigBound, faithfully rounded.
inline SinCos sincos_core(double x) noexcept {
  // Round x * (2/pi) to the nearest integer n; the rounded sum's low
  // mantissa bits give n mod 4 (2^51 is divisible by 4).
  const double v = x * kTwoOverPi;
  const double t = v + kShifter;
  const double fn = t - kShifter;
  const std::uint64_t tb = std::bit_cast<std::uint64_t>(t);
  // r = x - n * pi/2 against double-double pi/2; each fma rounds once, so
  // |r - r_true| <~ 1.2e-16 absolute — benign for every consumer here
  // (results are magnitude <= 1 and the error never amplifies).
  double r = std::fma(-fn, kPio2Hi, x);
  r = std::fma(-fn, kPio2Lo, r);

  const double z = r * r;
  double ps = kS6;
  ps = std::fma(ps, z, kS5);
  ps = std::fma(ps, z, kS4);
  ps = std::fma(ps, z, kS3);
  ps = std::fma(ps, z, kS2);
  const double sr = std::fma(r * z, std::fma(z, ps, kS1), r);

  double pc = kC6;
  pc = std::fma(pc, z, kC5);
  pc = std::fma(pc, z, kC4);
  pc = std::fma(pc, z, kC3);
  pc = std::fma(pc, z, kC2);
  pc = std::fma(pc, z, kC1);
  // fdlibm's compensated 1 - z/2 + z^2*pc: (1 - w) - hz recovers the
  // rounding error of w = 1 - hz exactly.  Every add here is deliberately
  // unfused — fusing (z*z)*pc into the sum would change cr in the last ulp.
  const double hz = 0.5 * z;
  const double w = 1.0 - hz;
  const double cr = w + (((1.0 - w) - hz) + (z * z) * pc);

  // Quadrant n mod 4: swap sin/cos for odd n, then flip signs — sin
  // negative in quadrants 2,3 (bit 1 of n), cos negative in 1,2. All done
  // with integer mask selects so the whole core is branch-free (exact
  // values are selected; no arithmetic happens on the selected results).
  const std::uint64_t swap_mask = 0 - (tb & 1);
  const std::uint64_t srb = std::bit_cast<std::uint64_t>(sr);
  const std::uint64_t crb = std::bit_cast<std::uint64_t>(cr);
  const std::uint64_t s0 = (srb & ~swap_mask) | (crb & swap_mask);
  const std::uint64_t c0 = (crb & ~swap_mask) | (srb & swap_mask);
  const std::uint64_t sin_sign = (tb & 2) << 62;
  const std::uint64_t cos_sign = ((tb + 1) & 2) << 62;
  SinCos out;
  out.s = std::bit_cast<double>(s0 ^ sin_sign);
  out.c = std::bit_cast<double>(c0 ^ cos_sign);
  return out;
}

/// exp(x) for |x| <= kExpBound, faithfully rounded.
inline double exp_core(double x) noexcept {
  const double v = x * kLog2e;
  const double t = v + kShifter;
  const double fn = t - kShifter;
  const std::uint64_t tb = std::bit_cast<std::uint64_t>(t);
  // Two's-complement k = round(x * log2 e) from the shifter sum's mantissa.
  const std::int64_t k =
      static_cast<std::int64_t>(tb & ((1ULL << 52) - 1)) - (1LL << 51);
  double r = std::fma(-fn, kLn2Hi, x);
  r = std::fma(-fn, kLn2Lo, r);

  double p = kE13;
  p = std::fma(p, r, kE12);
  p = std::fma(p, r, kE11);
  p = std::fma(p, r, kE10);
  p = std::fma(p, r, kE9);
  p = std::fma(p, r, kE8);
  p = std::fma(p, r, kE7);
  p = std::fma(p, r, kE6);
  p = std::fma(p, r, kE5);
  p = std::fma(p, r, kE4);
  p = std::fma(p, r, kE3);
  p = std::fma(p, r, kE2);
  const double s = std::fma(r * r, p, r);
  const double e = 1.0 + s;
  // 2^k by exponent-field construction; |x| <= 700 keeps k + 1023 in
  // [13, 2034], so the scale is always normal and the product finite.
  const double scale =
      std::bit_cast<double>(static_cast<std::uint64_t>(k + 1023) << 52);
  return e * scale;
}

// ---------------------------------------------------------------------------
// Entry points (per backend). Scalar forms first; batch loops below run a
// branch-free fast loop when a conservative precheck proves every element
// in range, else a guarded loop applying the same per-element predicate the
// scalar forms use.

inline double dsin_s(double x) noexcept {
  return trig_in_range(x) ? sincos_core(x).s : std::sin(x);
}
inline double dcos_s(double x) noexcept {
  return trig_in_range(x) ? sincos_core(x).c : std::cos(x);
}
inline double dexp_s(double x) noexcept {
  return exp_in_range(x) ? exp_core(x) : std::exp(x);
}
inline void dsincos_s(double x, double& sin_out, double& cos_out) noexcept {
  if (trig_in_range(x)) {
    const SinCos sc = sincos_core(x);
    sin_out = sc.s;
    cos_out = sc.c;
  } else {
    sin_out = std::sin(x);
    cos_out = std::cos(x);
  }
}

/// Count of elements that fail `pred` — 0 means the fast loop is safe.
template <typename Pred>
inline std::size_t count_out_of_range(const double* x, std::size_t n,
                                      Pred pred) noexcept {
  const double* __restrict xs = x;
  std::size_t oob = 0;
  for (std::size_t i = 0; i < n; ++i) oob += pred(xs[i]) ? 0U : 1U;
  return oob;
}

inline void sin_n_b(const double* x, std::size_t n, double* out) noexcept {
  const double* __restrict xs = x;
  double* __restrict o = out;
  if (count_out_of_range(xs, n, trig_in_range) == 0) {
    for (std::size_t i = 0; i < n; ++i) o[i] = sincos_core(xs[i]).s;
  } else {
    for (std::size_t i = 0; i < n; ++i) o[i] = dsin_s(xs[i]);
  }
}

inline void cos_n_b(const double* x, std::size_t n, double* out) noexcept {
  const double* __restrict xs = x;
  double* __restrict o = out;
  if (count_out_of_range(xs, n, trig_in_range) == 0) {
    for (std::size_t i = 0; i < n; ++i) o[i] = sincos_core(xs[i]).c;
  } else {
    for (std::size_t i = 0; i < n; ++i) o[i] = dcos_s(xs[i]);
  }
}

inline void exp_n_b(const double* x, std::size_t n, double* out) noexcept {
  const double* __restrict xs = x;
  double* __restrict o = out;
  if (count_out_of_range(xs, n, exp_in_range) == 0) {
    for (std::size_t i = 0; i < n; ++i) o[i] = exp_core(xs[i]);
  } else {
    for (std::size_t i = 0; i < n; ++i) o[i] = dexp_s(xs[i]);
  }
}

inline void sincos_n_b(const double* x, std::size_t n, double* sin_out,
                       double* cos_out) noexcept {
  const double* __restrict xs = x;
  double* __restrict so = sin_out;
  double* __restrict co = cos_out;
  if (count_out_of_range(xs, n, trig_in_range) == 0) {
    for (std::size_t i = 0; i < n; ++i) {
      const SinCos sc = sincos_core(xs[i]);
      so[i] = sc.s;
      co[i] = sc.c;
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) dsincos_s(xs[i], so[i], co[i]);
  }
}

inline void logistic_n_b(const double* x, std::size_t n, double center,
                         double width, double* out) noexcept {
  const double* __restrict xs = x;
  double* __restrict o = out;
  // The exp arguments go to `out` first, so one precheck over them picks
  // the loop, exactly as exp_n_b does.
  for (std::size_t i = 0; i < n; ++i) o[i] = -((xs[i] - center) / width);
  if (count_out_of_range(o, n, exp_in_range) == 0) {
    for (std::size_t i = 0; i < n; ++i) o[i] = 1.0 / (1.0 + exp_core(o[i]));
  } else {
    for (std::size_t i = 0; i < n; ++i) o[i] = 1.0 / (1.0 + dexp_s(o[i]));
  }
}

/// Slots per register-resident chunk of fade_sum_n_b: each accumulator is
/// two 512-bit (four 256-bit) vectors wide.
inline constexpr std::size_t kFadeChunk = 16;

inline void fade_sum_n_b(const double* tau, std::size_t n, const double* omega,
                         const double* phase_i, const double* phase_q,
                         std::size_t np, double* gi, double* gq) noexcept {
  const double* __restrict ts = tau;
  const double* __restrict ws = omega;
  const double* __restrict pis = phase_i;
  const double* __restrict pqs = phase_q;
  double* __restrict gis = gi;
  double* __restrict gqs = gq;
  // One conservative precheck for the whole span. Fading paths have
  // |omega| <= 2*pi and phases in [0, 2*pi); checked here, they bound
  // |omega*tau + phase| by 2*pi*(|tau| + 1), and the tau bound keeps one
  // more cycle of slack for the two roundings. Every per-element predicate
  // of the guarded loop would then pass, so the chunk loop is
  // bit-equivalent to it.
  const auto path_fast = [](double v) noexcept {
    return std::fabs(v) <= kTwoPi;
  };
  const double tau_fast_bound = kTrigBound / kTwoPi - 2.0;
  const auto tau_fast = [tau_fast_bound](double t) noexcept {
    return std::fabs(t) <= tau_fast_bound;
  };
  const bool fast = count_out_of_range(ws, np, path_fast) == 0 &&
                    count_out_of_range(pis, np, path_fast) == 0 &&
                    count_out_of_range(pqs, np, path_fast) == 0 &&
                    count_out_of_range(ts, n, tau_fast) == 0;
  if (!fast) {
    for (std::size_t k = 0; k < n; ++k) {
      double ai = 0.0;
      double aq = 0.0;
      for (std::size_t p = 0; p < np; ++p) {
        const double theta = ws[p] * ts[k];
        ai += dcos_s(theta + pis[p]);
        aq += dcos_s(theta + pqs[p]);
      }
      gis[k] = ai;
      gqs[k] = aq;
    }
    return;
  }
  // Chunks of kFadeChunk slots: the two sums start from 0.0 and take the
  // paths in order, exactly as the guarded loop does, while the slots of a
  // chunk fill the vector lanes. The last chunk pads with tau = 0 (in
  // range) and drops the padded lanes.
  for (std::size_t base = 0; base < n; base += kFadeChunk) {
    const std::size_t len = n - base < kFadeChunk ? n - base : kFadeChunk;
    double tc[kFadeChunk];
    for (std::size_t c = 0; c < len; ++c) tc[c] = ts[base + c];
    for (std::size_t c = len; c < kFadeChunk; ++c) tc[c] = 0.0;
    double ai[kFadeChunk] = {};
    double aq[kFadeChunk] = {};
    for (std::size_t p = 0; p < np; ++p) {
      const double w = ws[p];
      const double ph_i = pis[p];
      const double ph_q = pqs[p];
      for (std::size_t c = 0; c < kFadeChunk; ++c) {
        const double theta = w * tc[c];
        ai[c] += sincos_core(theta + ph_i).c;
        aq[c] += sincos_core(theta + ph_q).c;
      }
    }
    for (std::size_t c = 0; c < len; ++c) {
      gis[base + c] = ai[c];
      gqs[base + c] = aq[c];
    }
  }
}

inline void sinusoid_accumulate_n_b(const double* x, std::size_t n, double amp,
                                    double omega, double phase,
                                    double* acc) noexcept {
  const double* __restrict xs = x;
  double* __restrict as = acc;
  // Conservative bound solving |omega*x + phase| <= kTrigBound for |x|;
  // omega = 0 divides to +inf (every x passes), and a non-finite bound
  // from pathological omega/phase just routes everything to the guarded
  // loop — never wrong, only slower.
  const double x_fast_bound = (kTrigBound - std::fabs(phase)) / std::fabs(omega);
  const auto x_fast = [x_fast_bound](double t) noexcept {
    return std::fabs(t) <= x_fast_bound;
  };
  if (x_fast_bound > 0.0 && count_out_of_range(xs, n, x_fast) == 0) {
    for (std::size_t i = 0; i < n; ++i) {
      const double theta = omega * xs[i];
      // Accumulate unfused: amp*sin rounds once before the add, exactly
      // as the scalar reference path does.
      as[i] += amp * sincos_core(theta + phase).s;
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const double theta = omega * xs[i];
      // Same unfused accumulate as the fast path above.
      as[i] += amp * dsin_s(theta + phase);
    }
  }
}

// Non-inline vtable thunks (function pointers need addresses).
inline double vt_dsin(double x) noexcept { return dsin_s(x); }
inline double vt_dcos(double x) noexcept { return dcos_s(x); }
inline double vt_dexp(double x) noexcept { return dexp_s(x); }

inline const internal::Vtable& vtable(const char* name) noexcept {
  static const internal::Vtable v{
      vt_dsin,    vt_dcos,      vt_dexp,
      sin_n_b,    cos_n_b,      exp_n_b,
      sincos_n_b, logistic_n_b, fade_sum_n_b,
      sinusoid_accumulate_n_b,
      name,
  };
  return v;
}

}  // namespace SH_DETMATH_BACKEND
}  // namespace sh::util::detmath
