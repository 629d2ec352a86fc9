// Int8 GEMM SIMD band kernels (AVX2 maddubs / NEON widening-multiply), plus
// the packing + fan-out orchestration shared with the AVX-512 VNNI band.
//
// Packed operand layout (shared by every band kernel):
//   * A: [m][groups * 4] u8 row-major, groups = ceil(k / 4), i.e. rows
//     quant_a_stride(k) bytes apart; each row is the activation row
//     followed by up to 3 padding bytes. The kernels read one k-group as a
//     single u32. A caller whose A already has this stride (the q8 conv's
//     byte im2col writes it directly) is read in place; any other A is
//     copied into it per call.
//   * B: byte (g * n + j) * 4 + t holds B[4g + t][j] — four consecutive k
//     values interleaved per column, so 4 * C contiguous bytes cover one
//     k-group of C consecutive columns, exactly what maddubs / dpbusd / the
//     NEON pairwise chain consume. B's tail k-group is zero-padded, so A's
//     padding bytes (whatever they hold) contribute exact zeros.
//
// Column tails: each band walks n in full-width tiles, then covers the
// last n % width columns with one masked tile of the same shape (AVX2
// maskload / maskstore over 8 int32 lanes, AVX-512 k-masks over 16, a
// 4-lane staging buffer on NEON). A masked-off lane loads B as zero, so its
// accumulator stays zero and is never stored, and the bias is read only
// for live lanes: no per-element scalar path, and narrow layers (the
// compact PilotNet's n = 8..20 convs) run entirely on the vector units.
//
// Every kernel accumulates the same exact int32 sums (in some order —
// integer addition is associative), and the dequant store performs the same
// float(acc) * scale [fmaf + bias] (+ ReLU) per element, so all kernels are
// bit-identical to the scalar reference at any thread count or batch size.
#include "tensor/gemm_int8_simd.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "parallel/parallel_for.hpp"
#include "tensor/gemm_int8_vnni.hpp"
#include "tensor/workspace.hpp"

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define SALNOV_INT8_AVX2 1
#elif defined(__ARM_NEON)
#include <arm_neon.h>
#define SALNOV_INT8_NEON 1
#endif

namespace salnov::detail {

#if defined(SALNOV_INT8_AVX2) || defined(SALNOV_INT8_NEON)

namespace {

// Row band handed to the thread pool; a multiple of the 4-row micro step.
constexpr int64_t kInt8RowGrain = 16;
static_assert(kInt8RowGrain % 4 == 0);

constexpr int64_t kMinParallelOps = 1 << 15;

inline uint32_t load_u32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

#if defined(SALNOV_INT8_AVX2)

/// Live-lane mask for an 8-column tile with `cols` live columns (any
/// cols >= 8 is a full tile): lane t is live iff t < cols, flagged by its
/// sign bit as maskload / maskstore expect.
inline __m256i lane_mask(int64_t cols) {
  const int live = static_cast<int>(std::min<int64_t>(cols, 8));
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(live), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/// Stores 8 int32 accumulators at c[idx..) (columns j..), raw or
/// dequantized. With `mask` non-null only its live lanes are read (bias)
/// and written, so a narrow tile never touches memory past column n; full
/// tiles take plain loads and stores.
inline void store_vec8(int32_t* c32, float* cf, int64_t idx, __m256i acc, const __m256i* mask,
                       const QuantEpilogue* epi, int64_t j) {
  if (cf == nullptr) {
    if (mask != nullptr) {
      _mm256_maskstore_epi32(c32 + idx, *mask, acc);
    } else {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(c32 + idx), acc);
    }
    return;
  }
  const __m256 scale = _mm256_set1_ps(epi->scale);
  const __m256 vf = _mm256_cvtepi32_ps(acc);
  __m256 v;
  if (epi->bias_col != nullptr) {
    const __m256 bias = mask != nullptr ? _mm256_maskload_ps(epi->bias_col + j, *mask)
                                        : _mm256_loadu_ps(epi->bias_col + j);
    v = _mm256_fmadd_ps(vf, scale, bias);
  } else {
    v = _mm256_mul_ps(vf, scale);
  }
  if (epi->relu) v = _mm256_max_ps(v, _mm256_setzero_ps());
  if (mask != nullptr) {
    _mm256_maskstore_ps(cf + idx, *mask, v);
  } else {
    _mm256_storeu_ps(cf + idx, v);
  }
}

/// One k-group of 8 packed-B columns (4 bytes per lane); with `mask`
/// non-null, masked-off lanes read as zero and contribute exact zeros.
inline __m256i load_b8(const int8_t* bg, const __m256i* mask) {
  return mask != nullptr ? _mm256_maskload_epi32(reinterpret_cast<const int*>(bg), *mask)
                         : _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bg));
}

/// One 4k x 8-column step: acc += dot of the broadcast k-group against the
/// interleaved B bytes. maddubs pairs stay below 2^15 (7-bit activations),
/// so the int16 intermediate cannot saturate.
inline __m256i fma_u8s8(__m256i acc, __m256i av, __m256i bv, __m256i ones) {
  return _mm256_add_epi32(acc, _mm256_madd_epi16(_mm256_maddubs_epi16(av, bv), ones));
}

/// One k-group step of one row: acc0 (and acc1 for a 16-column tile) +=
/// the broadcast activation group against the B vectors.
template <int W>
inline void step_row(__m256i& acc0, __m256i& acc1, const uint8_t* a_group, __m256i b0,
                     __m256i b1, __m256i ones) {
  const __m256i av = _mm256_set1_epi32(static_cast<int>(load_u32(a_group)));
  acc0 = fma_u8s8(acc0, av, b0, ones);
  if constexpr (W == 2) acc1 = fma_u8s8(acc1, av, b1, ones);
}

/// 4 rows x (8 * W) columns starting at j0. `tail`, when non-null, masks
/// the last 8-column part (the others are full). Named accumulators, not
/// an array, so all eight stay in registers across the k loop.
template <int W>
inline void tile4(const uint8_t* const a_rows[4], const int8_t* pb, int32_t* c32, float* cf,
                  int64_t i, int64_t j0, int64_t n, int64_t groups, const __m256i* tail,
                  const QuantEpilogue* epi) {
  static_assert(W == 1 || W == 2);
  const __m256i ones = _mm256_set1_epi16(1);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i* mask0 = W == 1 ? tail : nullptr;
  __m256i c00 = zero, c10 = zero, c20 = zero, c30 = zero;
  __m256i c01 = zero, c11 = zero, c21 = zero, c31 = zero;
  for (int64_t g = 0; g < groups; ++g) {
    const int8_t* bg = pb + (g * n + j0) * 4;
    const __m256i b0 = load_b8(bg, mask0);
    const __m256i b1 = W == 2 ? load_b8(bg + 32, tail) : zero;
    step_row<W>(c00, c01, a_rows[0] + g * 4, b0, b1, ones);
    step_row<W>(c10, c11, a_rows[1] + g * 4, b0, b1, ones);
    step_row<W>(c20, c21, a_rows[2] + g * 4, b0, b1, ones);
    step_row<W>(c30, c31, a_rows[3] + g * 4, b0, b1, ones);
  }
  const __m256i first[4] = {c00, c10, c20, c30};
  const __m256i second[4] = {c01, c11, c21, c31};
  for (int r = 0; r < 4; ++r) {
    store_vec8(c32, cf, (i + r) * n + j0, first[r], mask0, epi, j0);
    if constexpr (W == 2) {
      store_vec8(c32, cf, (i + r) * n + j0 + 8, second[r], tail, epi, j0 + 8);
    }
  }
}

void int8_band_avx2(const uint8_t* pa, const int8_t* pb, int32_t* c32, float* cf,
                    int64_t row_begin, int64_t row_end, int64_t n, int64_t groups,
                    const QuantEpilogue* epi) {
  const __m256i ones = _mm256_set1_epi16(1);
  const int64_t stride = groups * 4;
  int64_t i = row_begin;
  // 4 rows x 16 columns: 8 register accumulators, B bytes loaded once per
  // row quad. The last < 16 columns take one masked 16- or 8-column tile.
  for (; i + 4 <= row_end; i += 4) {
    const uint8_t* const a_rows[4] = {pa + i * stride, pa + (i + 1) * stride,
                                      pa + (i + 2) * stride, pa + (i + 3) * stride};
    int64_t j0 = 0;
    for (; j0 + 16 <= n; j0 += 16) tile4<2>(a_rows, pb, c32, cf, i, j0, n, groups, nullptr, epi);
    const int64_t rest = n - j0;
    if (rest > 0) {
      const __m256i tail = lane_mask(rest > 8 ? rest - 8 : rest);
      if (rest > 8) {
        tile4<2>(a_rows, pb, c32, cf, i, j0, n, groups, &tail, epi);
      } else {
        tile4<1>(a_rows, pb, c32, cf, i, j0, n, groups, &tail, epi);
      }
    }
  }
  // Remainder rows: 1 x 32 columns (4 accumulators) — also the batch-1
  // dense matvec path, where B streams through once — then 8-column steps
  // with the last one masked.
  for (; i < row_end; ++i) {
    const uint8_t* a_row = pa + i * stride;
    int64_t j0 = 0;
    for (; j0 + 32 <= n; j0 += 32) {
      __m256i acc0 = _mm256_setzero_si256();
      __m256i acc1 = _mm256_setzero_si256();
      __m256i acc2 = _mm256_setzero_si256();
      __m256i acc3 = _mm256_setzero_si256();
      for (int64_t g = 0; g < groups; ++g) {
        const int8_t* bg = pb + (g * n + j0) * 4;
        const __m256i av = _mm256_set1_epi32(static_cast<int>(load_u32(a_row + g * 4)));
        acc0 = fma_u8s8(acc0, av, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bg)), ones);
        acc1 = fma_u8s8(acc1, av,
                        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bg + 32)), ones);
        acc2 = fma_u8s8(acc2, av,
                        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bg + 64)), ones);
        acc3 = fma_u8s8(acc3, av,
                        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bg + 96)), ones);
      }
      store_vec8(c32, cf, i * n + j0, acc0, nullptr, epi, j0);
      store_vec8(c32, cf, i * n + j0 + 8, acc1, nullptr, epi, j0 + 8);
      store_vec8(c32, cf, i * n + j0 + 16, acc2, nullptr, epi, j0 + 16);
      store_vec8(c32, cf, i * n + j0 + 24, acc3, nullptr, epi, j0 + 24);
    }
    for (; j0 < n; j0 += 8) {
      const __m256i mask = lane_mask(n - j0);
      __m256i acc = _mm256_setzero_si256();
      for (int64_t g = 0; g < groups; ++g) {
        const __m256i av = _mm256_set1_epi32(static_cast<int>(load_u32(a_row + g * 4)));
        acc = fma_u8s8(acc, av, load_b8(pb + (g * n + j0) * 4, &mask), ones);
      }
      store_vec8(c32, cf, i * n + j0, acc, &mask, epi, j0);
    }
  }
}

#elif defined(SALNOV_INT8_NEON)

/// One k-group of 4 packed-B columns; a tail tile with cols < 4 live
/// columns reads only those (the rest load as zero and contribute exact
/// zeros), so it never touches memory past column n.
inline int8x16_t load_b4(const int8_t* bg, int64_t cols) {
  if (cols >= 4) return vld1q_s8(bg);
  int8_t bytes[16] = {};
  std::memcpy(bytes, bg, static_cast<size_t>(cols * 4));
  return vld1q_s8(bytes);
}

/// NEON band: 4 columns per step via widening multiplies, the last step
/// partial when n % 4 != 0. Activations are 7-bit, so reinterpreting them
/// as s8 is value-preserving and vmull_s8 products (<= 127 * 127) fit int16
/// exactly; two pairwise widening adds collapse each column's k-group to
/// its exact int32 partial sum.
void int8_band_neon(const uint8_t* pa, const int8_t* pb, int32_t* c32, float* cf,
                    int64_t row_begin, int64_t row_end, int64_t n, int64_t groups,
                    const QuantEpilogue* epi) {
  const int64_t stride = groups * 4;
  for (int64_t i = row_begin; i < row_end; ++i) {
    const uint8_t* a_row = pa + i * stride;
    for (int64_t j0 = 0; j0 < n; j0 += 4) {
      const int64_t cols = std::min<int64_t>(n - j0, 4);
      int32x4_t acc = vdupq_n_s32(0);
      for (int64_t g = 0; g < groups; ++g) {
        const int8x16_t av =
            vreinterpretq_s8_u32(vdupq_n_u32(load_u32(a_row + g * 4)));
        const int8x16_t bv = load_b4(pb + (g * n + j0) * 4, cols);
        const int16x8_t lo = vmull_s8(vget_low_s8(av), vget_low_s8(bv));
        const int16x8_t hi = vmull_s8(vget_high_s8(av), vget_high_s8(bv));
        // [j0: k0+k1, j0: k2+k3, j1: k0+k1, j1: k2+k3] then pairwise again.
        acc = vaddq_s32(acc, vpaddq_s32(vpaddlq_s16(lo), vpaddlq_s16(hi)));
      }
      // Partial tiles go through a 4-lane staging buffer so only the live
      // columns are read (bias) and written.
      const size_t live = static_cast<size_t>(cols);
      if (cf == nullptr) {
        int32_t lanes[4];
        vst1q_s32(lanes, acc);
        std::memcpy(c32 + i * n + j0, lanes, live * sizeof(int32_t));
      } else {
        const float32x4_t vf = vcvtq_f32_s32(acc);
        const float32x4_t scale = vdupq_n_f32(epi->scale);
        float32x4_t v;
        if (epi->bias_col != nullptr) {
          float bias[4] = {};
          std::memcpy(bias, epi->bias_col + j0, live * sizeof(float));
          v = vfmaq_f32(vld1q_f32(bias), vf, scale);
        } else {
          v = vmulq_f32(vf, scale);
        }
        if (epi->relu) v = vmaxq_f32(v, vdupq_n_f32(0.0f));
        float lanes[4];
        vst1q_f32(lanes, v);
        std::memcpy(cf + i * n + j0, lanes, live * sizeof(float));
      }
    }
  }
}

#endif  // architecture bands

using Int8BandFn = void (*)(const uint8_t*, const int8_t*, int32_t*, float*, int64_t, int64_t,
                            int64_t, int64_t, const QuantEpilogue*);

Int8BandFn band_kernel() {
#if defined(SALNOV_INT8_AVX2)
  return int8_vnni_available() && int8_vnni_enabled() ? &int8_band_vnni : &int8_band_avx2;
#else
  return &int8_band_neon;
#endif
}

}  // namespace

bool int8_simd_available() {
#if defined(SALNOV_INT8_AVX2)
  static const bool ok = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  }();
  return ok;
#else
  return true;  // NEON is baseline on aarch64
#endif
}

const char* int8_arch_name() {
#if defined(SALNOV_INT8_AVX2)
  return int8_vnni_available() && int8_vnni_enabled() ? "avx512-vnni" : "avx2";
#elif defined(SALNOV_INT8_NEON)
  return "neon";
#else
  return "none";
#endif
}

void int8_gemm(const uint8_t* a, const int8_t* b, int32_t* c32, float* cf, int64_t m,
               int64_t n, int64_t k, int64_t lda, const QuantEpilogue* epi,
               const PackedQuantMatrix* packed_b) {
  WorkspaceScope scope;
  const int64_t groups = (k + 3) / 4;
  const int64_t a_stride = groups * 4;
  const uint8_t* pa = a;
  if (lda != a_stride) {
    // Byte buffers carved from the float arena (64-byte aligned).
    uint8_t* copy = reinterpret_cast<uint8_t*>(scope.floats((m * a_stride + 3) / 4));
    for (int64_t i = 0; i < m; ++i) {
      std::memcpy(copy + i * a_stride, a + i * lda, static_cast<size_t>(k));
      std::memset(copy + i * a_stride + k, 0, static_cast<size_t>(a_stride - k));
    }
    pa = copy;
  }
  const int8_t* pb;
  if (packed_b != nullptr) {
    pb = packed_b->data.data();
  } else {
    int8_t* scratch = reinterpret_cast<int8_t*>(scope.floats((groups * n * 4 + 3) / 4));
    pack_quant_b_into(b, k, n, scratch);
    pb = scratch;
  }

  const Int8BandFn band = band_kernel();
  if (m > kInt8RowGrain && m * n * k >= kMinParallelOps && parallel::num_threads() > 1) {
    parallel::parallel_for(0, m, kInt8RowGrain, [&](int64_t row_begin, int64_t row_end) {
      band(pa, pb, c32, cf, row_begin, row_end, n, groups, epi);
    });
  } else {
    band(pa, pb, c32, cf, 0, m, n, groups, epi);
  }
}

#else  // no SIMD support compiled in: runtime-safe stubs

bool int8_simd_available() { return false; }
const char* int8_arch_name() { return "none"; }
void int8_gemm(const uint8_t*, const int8_t*, int32_t*, float*, int64_t, int64_t, int64_t,
               int64_t, const QuantEpilogue*, const PackedQuantMatrix*) {}

#endif

/// B packed as k4-interleaved column groups (layout at the top of the
/// file). Plain C++ — valid on any CPU, shared by every band kernel.
void pack_quant_b_into(const int8_t* b, int64_t k, int64_t n, int8_t* packed) {
  const int64_t groups = (k + 3) / 4;
  std::memset(packed, 0, static_cast<size_t>(groups * n * 4));
  for (int64_t kk = 0; kk < k; ++kk) {
    const int8_t* b_row = b + kk * n;
    int8_t* dst = packed + (kk / 4) * n * 4 + (kk % 4);
    for (int64_t j = 0; j < n; ++j) dst[j * 4] = b_row[j];
  }
}

namespace {

std::atomic<bool>& vnni_flag() {
  static std::atomic<bool> enabled = [] {
    const char* env = std::getenv("SALNOV_GEMM_INT8_VNNI");
    return !(env != nullptr && env[0] == '0' && env[1] == '\0');
  }();
  return enabled;
}

}  // namespace

bool int8_vnni_enabled() { return vnni_flag().load(std::memory_order_relaxed); }

void set_int8_vnni(bool enabled) { vnni_flag().store(enabled, std::memory_order_relaxed); }

}  // namespace salnov::detail
