// Internal backend vtable for detmath. Each backend translation unit
// (detmath_portable.cpp, detmath_avx2.cpp, detmath_avx512.cpp) exposes one
// of these; detmath.cpp picks one at first use via CPU detection. Not part
// of the public API.
#pragma once

#include <cstddef>
#include <span>
#include <string_view>

namespace sh::util::detmath::internal {

struct Vtable {
  double (*dsin)(double) noexcept;
  double (*dcos)(double) noexcept;
  double (*dexp)(double) noexcept;
  void (*sin_n)(const double*, std::size_t, double*) noexcept;
  void (*cos_n)(const double*, std::size_t, double*) noexcept;
  void (*exp_n)(const double*, std::size_t, double*) noexcept;
  void (*sincos_n)(const double*, std::size_t, double*, double*) noexcept;
  void (*logistic_n)(const double*, std::size_t, double, double,
                     double*) noexcept;
  void (*fade_sum_n)(const double*, std::size_t, const double*, const double*,
                     const double*, std::size_t, double*, double*) noexcept;
  void (*sinusoid_accumulate_n)(const double*, std::size_t, double, double,
                                double, double*) noexcept;
  const char* name;
};

const Vtable& portable_vtable() noexcept;
#if defined(SH_DETMATH_HAVE_AVX2)
const Vtable& avx2_vtable() noexcept;
#endif
#if defined(SH_DETMATH_HAVE_AVX512)
const Vtable& avx512_vtable() noexcept;
#endif

/// One backend compiled into this build. `supported` asks the CPU for every
/// instruction-set feature the backend's TU was compiled for.
struct Backend {
  std::string_view name;
  const Vtable& (*vtable)() noexcept;
  bool (*supported)() noexcept;
};

/// Every backend this build compiled, in the order pick_backend tries them
/// (fastest first). The last entry is portable, which every CPU supports.
std::span<const Backend> compiled_backends() noexcept;

}  // namespace sh::util::detmath::internal
