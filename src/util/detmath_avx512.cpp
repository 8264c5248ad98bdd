// AVX-512 detmath backend: the same kernels as the portable TU, compiled
// with -mavx2 -mfma -mavx512f -mavx512dq -mavx512vl and
// -mprefer-vector-width=512 (still -ffp-contract=off) so the
// autovectorizer emits 8-wide loops. Bit-identical to the portable backend
// by the detmath_kernels.h contract — every fused operation is an explicit
// std::fma in the shared source. Only reached after runtime CPU detection
// confirms every one of those instruction sets.
#define SH_DETMATH_BACKEND avx512

#include "util/detmath_kernels.h"

namespace sh::util::detmath::internal {

const Vtable& avx512_vtable() noexcept {
  return sh::util::detmath::avx512::vtable("avx512");
}

}  // namespace sh::util::detmath::internal
