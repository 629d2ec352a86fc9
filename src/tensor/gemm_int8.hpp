// Int8 quantized GEMM substrate for the q8 degraded-mode scoring rungs.
//
// Contract: C = A (u8, [m, k]) x B (s8, [k, n]) with EXACT int32
// accumulation. Integer addition is associative, so — unlike the float
// kernels — every kernel, thread count, batch size, and blocking scheme
// produces bit-identical output. The scalar kernel is the reference; the
// SIMD kernels must (and do) match it exactly, which quant_differential_test
// enforces over randomized shapes.
//
// Preconditions the quantizers uphold:
//   * A values are "7-bit unsigned" activations in [0, 127] and B values are
//     symmetric weights in [-127, 127]. Each AVX2 maddubs lane then sums two
//     products bounded by 2 * 127 * 127 = 32258 < 2^15, so the pairwise
//     int16 path cannot saturate and stays exact.
//   * k <= kMaxQuantK, so a full-k dot product cannot overflow int32
//     (checked; throws std::invalid_argument).
//
// The fused dequant entry applies C_f = float(C_i32) * scale + bias_col[j]
// (then optional ReLU) at the store — one float multiply-add per output
// element, applied identically by every kernel.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace salnov {

enum class GemmInt8Kernel {
  kScalar,  ///< portable reference (exact int32)
  kSimd,    ///< AVX2 maddubs / AVX-512 VNNI dpbusd band kernels (exact int32)
};

/// Largest k for which a u8[0,127] x s8[-127,127] dot product fits int32.
inline constexpr int64_t kMaxQuantK =
    static_cast<int64_t>(std::numeric_limits<int32_t>::max()) / (127 * 127);

/// Active kernel. Initialized from SALNOV_GEMM_INT8 (scalar | simd | auto);
/// auto picks SIMD when the CPU supports it.
GemmInt8Kernel active_gemm_int8_kernel();

/// Throws std::invalid_argument when asked for kSimd on a CPU without it.
void set_gemm_int8_kernel(GemmInt8Kernel kernel);

bool gemm_int8_simd_available();

/// "scalar", "avx2", "avx512-vnni", or "none".
const char* gemm_int8_kernel_name(GemmInt8Kernel kernel);

/// Fused dequantization applied when storing int32 accumulators as floats.
struct QuantEpilogue {
  float scale = 1.0f;               ///< sx * sw dequant multiplier
  const float* bias_col = nullptr;  ///< [n] fp32 bias, added after scaling
  bool relu = false;
};

/// B pre-packed into the k4-interleaved layout the SIMD bands consume
/// (layout documented in gemm_int8_simd.cpp). Static weight matrices are
/// packed once (QuantizedForward caches this) so the batch-1 matvec path
/// does no per-call B packing. Results are bit-identical with or without.
struct PackedQuantMatrix {
  int64_t rows = 0;  ///< k of the [k, n] operand
  int64_t cols = 0;  ///< n
  std::vector<int8_t> data;
};

/// Packs B (s8, [k, n]) for reuse across gemm calls.
PackedQuantMatrix pack_quant_b(const int8_t* b, int64_t k, int64_t n);

/// Row stride of the A layout the SIMD bands read: k rounded up to whole
/// 4-byte k-groups. An A operand passed with lda == quant_a_stride(k) is
/// consumed in place; any other stride is copied into this layout per call.
/// The padding bytes [k, lda) of each row only ever meet the packed B's
/// zero padding, so their values never reach the result (they must still
/// be initialized memory).
inline constexpr int64_t quant_a_stride(int64_t k) { return (k + 3) / 4 * 4; }

/// C (i32, [m, n]) = A (u8, [m, k], row stride `lda`; 0 means k) x
/// B (s8, [k, n]). Exact. `packed_b`, when non-null, must be pack_quant_b of
/// the same B (the raw pointer is still required — the scalar kernel reads
/// it).
void gemm_u8s8(const uint8_t* a, const int8_t* b, int32_t* c, int64_t m, int64_t n, int64_t k,
               const PackedQuantMatrix* packed_b = nullptr, int64_t lda = 0);

/// C (f32, [m, n]) = dequant(A x B): fmaf(float(acc), scale, bias) (+ ReLU).
/// The integer accumulation is exact and the dequant store performs the same
/// (correctly rounded) float operations per element in every kernel, so the
/// float output is bit-identical across kernels and thread counts too.
void gemm_u8s8_dequant(const uint8_t* a, const int8_t* b, float* c, int64_t m, int64_t n,
                       int64_t k, const QuantEpilogue& epilogue,
                       const PackedQuantMatrix* packed_b = nullptr, int64_t lda = 0);

}  // namespace salnov
