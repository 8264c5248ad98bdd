// Deterministic, vectorizable elementary-function kernels (sin/cos/exp).
//
// Why this exists: the block trace-generation kernel (DESIGN.md "Block trace
// kernel") evaluates fading sinusoids and logistic delivery probabilities
// over whole slot arrays. libm's scalar sin/cos cannot be batched without
// changing results (vector math libraries carry multi-ulp tolerances), so
// the repo owns one implementation with a hard contract:
//
//   * element determinism — for every input x, every entry point (scalar
//     call, batch call, any backend, any compiler vectorization width)
//     produces the identical IEEE-754 double. The per-element operation
//     sequence is written once in detmath_kernels.h with every fused
//     multiply-add spelled std::fma, and the backend translation units
//     compile with -ffp-contract=off, so no backend can fuse or reorder
//     differently from another. A NaN result is NaN on every entry point,
//     but its sign and payload are not part of the contract: IEEE 754
//     leaves open which NaN operand an add propagates, and compilers
//     commute adds.
//   * accuracy — faithfully rounded (error < 1 ulp) over the supported
//     argument range; arguments outside it (|x| > 2^26 for sin/cos,
//     |x| > 700 for exp, NaN/inf) fall back to libm per element, applied
//     identically by every entry point.
//
// Backends: a portable one (baseline ISA) and, on x86-64 builds whose
// compiler supports them, an AVX2+FMA one and an AVX-512 one that the
// autovectorizer turns into 4- and 8-wide loops. Backend choice is a pure
// speed decision made once per process via CPU detection (AVX-512 first,
// then AVX2, then portable); it can never change a result bit.
#pragma once

#include <cstddef>

namespace sh::util::detmath {

/// Scalar forms. dsin/dcos/dexp are drop-in replacements for std::sin,
/// std::cos, std::exp wherever trace generation needs batchability.
double dsin(double x) noexcept;
double dcos(double x) noexcept;
double dexp(double x) noexcept;

/// Batch forms: out[i] is bit-identical to the scalar call on x[i];
/// sincos_n's two outputs to dsin(x[i]) and dcos(x[i]).
void sin_n(const double* x, std::size_t n, double* out) noexcept;
void cos_n(const double* x, std::size_t n, double* out) noexcept;
void exp_n(const double* x, std::size_t n, double* out) noexcept;
void sincos_n(const double* x, std::size_t n, double* sin_out,
              double* cos_out) noexcept;

/// Batch logistic, the delivery-probability curve:
///   out[i] = 1 / (1 + dexp(-((x[i] - center) / width)))
/// with every operation rounded separately, matching
/// DeliveryModel::probability element by element. x and out must not
/// overlap.
void logistic_n(const double* x, std::size_t n, double center, double width,
                double* out) noexcept;

/// Fused fading-path sum, the hot inner kernel of gain_db, over all `np`
/// paths at once. For every slot i, starting from 0.0 and adding paths
/// p = 0..np-1 in order:
///   theta  = omega[p] * tau[i]        (one rounding, never contracted)
///   gi[i] += dcos(theta + phase_i[p])
///   gq[i] += dcos(theta + phase_q[p])
/// which is FadingProcess::gain_db's scattered sum, slot for slot. gi and
/// gq are overwritten, not accumulated into.
void fade_sum_n(const double* tau, std::size_t n, const double* omega,
                const double* phase_i, const double* phase_q, std::size_t np,
                double* gi, double* gq) noexcept;

/// Fused sinusoid accumulator, the shadowing inner kernel:
///   acc[i] += amp * dsin(omega * x[i] + phase)
/// with `omega * x[i]` and `+ phase` rounded separately, matching
/// ShadowingProcess::offset_db's per-component arithmetic.
void sinusoid_accumulate_n(const double* x, std::size_t n, double amp,
                           double omega, double phase, double* acc) noexcept;

/// Name of the active backend ("avx512", "avx2" or "portable"), for logs
/// and tests.
const char* backend() noexcept;

}  // namespace sh::util::detmath
