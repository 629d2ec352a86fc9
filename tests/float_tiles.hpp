// Every float GEMM tile the running CPU supports, so kernel-equivalence
// tests cover each of them rather than only the one dispatch would pick:
// the scalar reference, the AVX2 (or NEON) 6x16 micro-kernel, and the
// AVX-512 6x16 micro-kernel where the CPU has it. On an AVX-512 host the
// SIMD kernel otherwise always runs the AVX-512 tile, so the AVX2 tile is
// reached only through this list.
#pragma once

#include <string>
#include <vector>

#include "tensor/gemm.hpp"
#include "tensor/gemm_avx512.hpp"
#include "tensor/gemm_simd.hpp"

namespace salnov::test {

struct FloatTile {
  GemmKernel kernel = GemmKernel::kScalar;
  bool avx512 = false;  ///< swap the AVX-512 tile in (x86 SIMD only)
};

/// Restores the ambient float kernel and AVX-512 tile toggle on scope exit.
struct FloatTileGuard {
  GemmKernel saved_kernel = active_gemm_kernel();
  bool saved_avx512 = detail::gemm_avx512_tile_enabled();
  ~FloatTileGuard() {
    set_gemm_kernel(saved_kernel);
    detail::set_gemm_avx512_tile(saved_avx512);
  }
};

/// Makes `tile` the one every following float GEMM dispatches to.
inline void use_float_tile(const FloatTile& tile) {
  set_gemm_kernel(tile.kernel);
  detail::set_gemm_avx512_tile(tile.avx512);
}

/// "scalar", "avx2", "avx512" or "neon".
inline std::string float_tile_name(const FloatTile& tile) {
  FloatTileGuard guard;
  use_float_tile(tile);
  return gemm_kernel_name(tile.kernel);
}

/// Scalar first, then each SIMD tile this CPU can run.
inline std::vector<FloatTile> float_tiles() {
  std::vector<FloatTile> tiles = {{GemmKernel::kScalar, false}};
  if (gemm_simd_available()) {
    tiles.push_back({GemmKernel::kSimd, false});
    if (detail::gemm_avx512_available()) tiles.push_back({GemmKernel::kSimd, true});
  }
  return tiles;
}

/// The SIMD entries of float_tiles().
inline std::vector<FloatTile> simd_float_tiles() {
  std::vector<FloatTile> tiles;
  for (const FloatTile& tile : float_tiles()) {
    if (tile.kernel == GemmKernel::kSimd) tiles.push_back(tile);
  }
  return tiles;
}

}  // namespace salnov::test
