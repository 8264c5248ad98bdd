// Public detmath entry points: one-time backend selection, then forwarding.
// Backend choice is a pure speed decision (the backends are bit-identical);
// it is made once per process so every call in a run uses the same code.
#include "util/detmath.h"

#include "util/detmath_dispatch.h"

namespace sh::util::detmath {
namespace internal {
namespace {

bool portable_supported() noexcept { return true; }

#if defined(SH_DETMATH_HAVE_AVX2) && defined(__GNUC__)
bool avx2_supported() noexcept {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}
#endif

#if defined(SH_DETMATH_HAVE_AVX512) && defined(__GNUC__)
bool avx512_supported() noexcept {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
         __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512dq") &&
         __builtin_cpu_supports("avx512vl");
}
#endif

constexpr Backend kBackends[] = {
#if defined(SH_DETMATH_HAVE_AVX512) && defined(__GNUC__)
    {"avx512", avx512_vtable, avx512_supported},
#endif
#if defined(SH_DETMATH_HAVE_AVX2) && defined(__GNUC__)
    {"avx2", avx2_vtable, avx2_supported},
#endif
    {"portable", portable_vtable, portable_supported},
};

}  // namespace

std::span<const Backend> compiled_backends() noexcept { return kBackends; }

}  // namespace internal

namespace {

const internal::Vtable& pick_backend() noexcept {
  for (const internal::Backend& b : internal::compiled_backends()) {
    if (b.supported()) return b.vtable();
  }
  return internal::portable_vtable();
}

const internal::Vtable& active() noexcept {
  static const internal::Vtable& v = pick_backend();
  return v;
}

}  // namespace

double dsin(double x) noexcept { return active().dsin(x); }
double dcos(double x) noexcept { return active().dcos(x); }
double dexp(double x) noexcept { return active().dexp(x); }

void sin_n(const double* x, std::size_t n, double* out) noexcept {
  active().sin_n(x, n, out);
}
void cos_n(const double* x, std::size_t n, double* out) noexcept {
  active().cos_n(x, n, out);
}
void exp_n(const double* x, std::size_t n, double* out) noexcept {
  active().exp_n(x, n, out);
}
void sincos_n(const double* x, std::size_t n, double* sin_out,
              double* cos_out) noexcept {
  active().sincos_n(x, n, sin_out, cos_out);
}

void logistic_n(const double* x, std::size_t n, double center, double width,
                double* out) noexcept {
  active().logistic_n(x, n, center, width, out);
}

void fade_sum_n(const double* tau, std::size_t n, const double* omega,
                const double* phase_i, const double* phase_q, std::size_t np,
                double* gi, double* gq) noexcept {
  active().fade_sum_n(tau, n, omega, phase_i, phase_q, np, gi, gq);
}

void sinusoid_accumulate_n(const double* x, std::size_t n, double amp,
                           double omega, double phase, double* acc) noexcept {
  active().sinusoid_accumulate_n(x, n, amp, omega, phase, acc);
}

const char* backend() noexcept { return active().name; }

}  // namespace sh::util::detmath
