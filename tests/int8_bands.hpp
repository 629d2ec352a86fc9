// Every int8 GEMM band the running CPU supports, so kernel-equivalence
// tests cover each of them rather than only the one dispatch would pick:
// the scalar reference, the AVX2 maddubs (or NEON) band, and the AVX-512
// VNNI band where the CPU has it.
#pragma once

#include <string>
#include <vector>

#include "tensor/gemm_int8.hpp"
#include "tensor/gemm_int8_simd.hpp"
#include "tensor/gemm_int8_vnni.hpp"

namespace salnov::test {

struct Int8Band {
  GemmInt8Kernel kernel = GemmInt8Kernel::kScalar;
  bool vnni = false;  ///< swap the VNNI band in (x86 SIMD only)
};

/// Restores the ambient int8 kernel and VNNI toggle on scope exit.
struct Int8BandGuard {
  GemmInt8Kernel saved_kernel = active_gemm_int8_kernel();
  bool saved_vnni = detail::int8_vnni_enabled();
  ~Int8BandGuard() {
    set_gemm_int8_kernel(saved_kernel);
    detail::set_int8_vnni(saved_vnni);
  }
};

/// Makes `band` the one every following int8 GEMM dispatches to.
inline void use_int8_band(const Int8Band& band) {
  set_gemm_int8_kernel(band.kernel);
  detail::set_int8_vnni(band.vnni);
}

/// "scalar", "avx2", "avx512-vnni" or "neon".
inline std::string int8_band_name(const Int8Band& band) {
  Int8BandGuard guard;
  use_int8_band(band);
  return gemm_int8_kernel_name(band.kernel);
}

/// Scalar first, then each SIMD band this CPU can run.
inline std::vector<Int8Band> int8_bands() {
  std::vector<Int8Band> bands = {{GemmInt8Kernel::kScalar, false}};
  if (gemm_int8_simd_available()) {
    bands.push_back({GemmInt8Kernel::kSimd, false});
    if (detail::int8_vnni_available()) bands.push_back({GemmInt8Kernel::kSimd, true});
  }
  return bands;
}

}  // namespace salnov::test
