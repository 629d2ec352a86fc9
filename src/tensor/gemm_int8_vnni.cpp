// AVX-512 VNNI int8 band kernel: vpdpbusd accumulates each 4-byte k-group's
// u8 x s8 dot product straight into the int32 lanes — no int16 intermediate
// at all, so exactness needs no range argument. Operates on the same
// k4-interleaved packed layout as the AVX2 band (see gemm_int8_simd.cpp);
// 64 contiguous packed-B bytes cover one k-group of 16 columns.
//
// This TU is the only one compiled with AVX-512 VNNI flags; callers check
// int8_vnni_available() before dispatching in, keeping the binary
// runtime-safe on CPUs without the extension.
#include "tensor/gemm_int8_vnni.hpp"

#include <cstring>

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__) && \
    defined(__AVX512VNNI__)
#include <immintrin.h>
#define SALNOV_INT8_VNNI 1
#endif

namespace salnov::detail {

#if defined(SALNOV_INT8_VNNI)

namespace {

inline uint32_t load_u32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Live-lane mask for a 16-column tile with `cols` >= 1 live columns (any
/// cols >= 16 is a full tile).
inline __mmask16 lane_mask(int64_t cols) {
  return cols >= 16 ? __mmask16{0xFFFF} : static_cast<__mmask16>((1u << cols) - 1u);
}

/// Stores the live lanes of 16 int32 accumulators at c[idx..) (columns
/// j..), raw or dequantized. Masked lanes are neither read (bias) nor
/// written, so a narrow tile never touches memory past column n.
inline void store_vec16(int32_t* c32, float* cf, int64_t idx, __m512i acc, __mmask16 mask,
                        const QuantEpilogue* epi, int64_t j) {
  if (cf == nullptr) {
    _mm512_mask_storeu_epi32(c32 + idx, mask, acc);
    return;
  }
  const __m512 scale = _mm512_set1_ps(epi->scale);
  const __m512 vf = _mm512_cvtepi32_ps(acc);
  __m512 v = epi->bias_col != nullptr
                 ? _mm512_fmadd_ps(vf, scale, _mm512_maskz_loadu_ps(mask, epi->bias_col + j))
                 : _mm512_mul_ps(vf, scale);
  if (epi->relu) v = _mm512_max_ps(v, _mm512_setzero_ps());
  _mm512_mask_storeu_ps(cf + idx, mask, v);
}

/// One k-group step of one row: acc0 (and acc1 for a 32-column tile) +=
/// the broadcast activation group against the B vectors.
template <int W>
inline void step_row(__m512i& acc0, __m512i& acc1, const uint8_t* a_group, __m512i b0,
                     __m512i b1) {
  const __m512i av = _mm512_set1_epi32(static_cast<int>(load_u32(a_group)));
  acc0 = _mm512_dpbusd_epi32(acc0, av, b0);
  if constexpr (W == 2) acc1 = _mm512_dpbusd_epi32(acc1, av, b1);
}

/// 4 rows x (16 * W) columns starting at j0; m0 / m1 select the live lanes
/// of each 16-column half. Masked-off B lanes load as zero, so their
/// accumulators stay zero and are never stored. Named accumulators, not an
/// array, so all eight stay in registers across the k loop.
template <int W>
inline void tile4(const uint8_t* const a_rows[4], const int8_t* pb, int32_t* c32, float* cf,
                  int64_t i, int64_t j0, int64_t n, int64_t groups, __mmask16 m0, __mmask16 m1,
                  const QuantEpilogue* epi) {
  static_assert(W == 1 || W == 2);
  const __m512i zero = _mm512_setzero_si512();
  __m512i c00 = zero, c10 = zero, c20 = zero, c30 = zero;
  __m512i c01 = zero, c11 = zero, c21 = zero, c31 = zero;
  for (int64_t g = 0; g < groups; ++g) {
    const int8_t* bg = pb + (g * n + j0) * 4;
    const __m512i b0 = _mm512_maskz_loadu_epi32(m0, bg);
    const __m512i b1 = W == 2 ? _mm512_maskz_loadu_epi32(m1, bg + 64) : zero;
    step_row<W>(c00, c01, a_rows[0] + g * 4, b0, b1);
    step_row<W>(c10, c11, a_rows[1] + g * 4, b0, b1);
    step_row<W>(c20, c21, a_rows[2] + g * 4, b0, b1);
    step_row<W>(c30, c31, a_rows[3] + g * 4, b0, b1);
  }
  const __m512i first[4] = {c00, c10, c20, c30};
  const __m512i second[4] = {c01, c11, c21, c31};
  for (int r = 0; r < 4; ++r) {
    store_vec16(c32, cf, (i + r) * n + j0, first[r], m0, epi, j0);
    if constexpr (W == 2) {
      store_vec16(c32, cf, (i + r) * n + j0 + 16, second[r], m1, epi, j0 + 16);
    }
  }
}

}  // namespace

bool int8_vnni_available() {
  static const bool ok = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
           __builtin_cpu_supports("avx512vl") && __builtin_cpu_supports("avx512vnni");
  }();
  return ok;
}

void int8_band_vnni(const uint8_t* pa, const int8_t* pb, int32_t* c32, float* cf,
                    int64_t row_begin, int64_t row_end, int64_t n, int64_t groups,
                    const QuantEpilogue* epi) {
  const int64_t stride = groups * 4;
  int64_t i = row_begin;
  // 4 rows x 32 columns: 8 zmm accumulators, 2 B loads per k-group. The
  // last < 32 columns take one masked 32- or 16-column tile, so narrow
  // layers (n < 32) run entirely on the vector units.
  for (; i + 4 <= row_end; i += 4) {
    const uint8_t* const a_rows[4] = {pa + i * stride, pa + (i + 1) * stride,
                                      pa + (i + 2) * stride, pa + (i + 3) * stride};
    int64_t j0 = 0;
    for (; j0 + 32 <= n; j0 += 32) {
      tile4<2>(a_rows, pb, c32, cf, i, j0, n, groups, 0xFFFF, 0xFFFF, epi);
    }
    const int64_t rest = n - j0;
    if (rest > 16) {
      tile4<2>(a_rows, pb, c32, cf, i, j0, n, groups, 0xFFFF, lane_mask(rest - 16), epi);
    } else if (rest > 0) {
      tile4<1>(a_rows, pb, c32, cf, i, j0, n, groups, lane_mask(rest), 0, epi);
    }
  }
  // Remainder rows: 1 x 16 columns, the last tile masked; also the batch-1
  // dense matvec path.
  for (; i < row_end; ++i) {
    const uint8_t* a_row = pa + i * stride;
    for (int64_t j0 = 0; j0 < n; j0 += 16) {
      const __mmask16 mask = lane_mask(n - j0);
      __m512i acc = _mm512_setzero_si512();
      for (int64_t g = 0; g < groups; ++g) {
        const __m512i av = _mm512_set1_epi32(static_cast<int>(load_u32(a_row + g * 4)));
        acc = _mm512_dpbusd_epi32(acc, av, _mm512_maskz_loadu_epi32(mask, pb + (g * n + j0) * 4));
      }
      store_vec16(c32, cf, i * n + j0, acc, mask, epi, j0);
    }
  }
}

#else  // no VNNI support compiled in: runtime-safe stubs

bool int8_vnni_available() { return false; }
void int8_band_vnni(const uint8_t*, const int8_t*, int32_t*, float*, int64_t, int64_t, int64_t,
                    int64_t, const QuantEpilogue*) {}

#endif

}  // namespace salnov::detail
