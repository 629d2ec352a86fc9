// Summed-area tables (integral images) over double grids.
//
// Shared by the SSIM metric and the differentiable SSIM loss: window sums
// become O(1) per window, making whole-image SSIM O(pixels) regardless of
// window size.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>

namespace salnov {

/// Builds the (rows + 1) x (cols + 1) summed-area table of `grid` into
/// `sat`: sat[r][c] = sum of grid[0..r)[0..c). The first row and column of
/// `sat` are zero.
inline void build_summed_area(const double* grid, int64_t rows, int64_t cols, double* sat) {
  const int64_t stride = cols + 1;
  std::fill(sat, sat + stride, 0.0);
  for (int64_t r = 0; r < rows; ++r) {
    double row_acc = 0.0;
    sat[(r + 1) * stride] = 0.0;
    for (int64_t c = 0; c < cols; ++c) {
      row_acc += grid[r * cols + c];
      sat[(r + 1) * stride + (c + 1)] = sat[r * stride + (c + 1)] + row_acc;
    }
  }
}

/// Five double arrays, one per moment SSIM sums over a window: x, y, x^2,
/// y^2 and xy. Holds either the five summed-area tables of an image pair
/// or the five window sums of one row of windows.
struct SsimMoments {
  double* x = nullptr;
  double* y = nullptr;
  double* xx = nullptr;
  double* yy = nullptr;
  double* xy = nullptr;
};

/// Carves five consecutive arrays of `count` doubles out of `block`.
inline SsimMoments split_moments(double* block, int64_t count) {
  return {block, block + count, block + 2 * count, block + 3 * count, block + 4 * count};
}

/// Builds the five (rows + 1) x (cols + 1) SSIM tables of two float images
/// in one pass over the pixels. Each table holds exactly what
/// build_summed_area gives for its grid (x, y, x*x, y*y or x*y, widened to
/// double): the same additions in the same order.
inline void build_ssim_tables(const float* x, const float* y, int64_t rows, int64_t cols,
                              const SsimMoments& t) {
  const int64_t stride = cols + 1;
  for (double* sat : {t.x, t.y, t.xx, t.yy, t.xy}) {
    std::fill(sat, sat + stride, 0.0);
    for (int64_t r = 1; r <= rows; ++r) sat[r * stride] = 0.0;
  }
  for (int64_t r = 0; r < rows; ++r) {
    const float* xr = x + r * cols;
    const float* yr = y + r * cols;
    const int64_t above = r * stride + 1;
    const int64_t here = (r + 1) * stride + 1;
    double acc_x = 0.0, acc_y = 0.0, acc_xx = 0.0, acc_yy = 0.0, acc_xy = 0.0;
    for (int64_t c = 0; c < cols; ++c) {
      const double xv = xr[c];
      const double yv = yr[c];
      acc_x += xv;
      acc_y += yv;
      acc_xx += xv * xv;
      acc_yy += yv * yv;
      acc_xy += xv * yv;
      t.x[here + c] = t.x[above + c] + acc_x;
      t.y[here + c] = t.y[above + c] + acc_y;
      t.xx[here + c] = t.xx[above + c] + acc_xx;
      t.yy[here + c] = t.yy[above + c] + acc_yy;
      t.xy[here + c] = t.xy[above + c] + acc_xy;
    }
  }
}

/// The five moment sums of every window in one row of windows: window c
/// covers image rows [top, top + window) and columns [c * stride,
/// c * stride + window). `cols` is the image's column count. Each sum is
/// summed_area_rect's expression.
inline void ssim_window_row_sums(const SsimMoments& tables, int64_t cols, int64_t top,
                                 int64_t window, int64_t stride, int64_t windows,
                                 const SsimMoments& sums) {
  const int64_t table_stride = cols + 1;
  const double* const from[5] = {tables.x, tables.y, tables.xx, tables.yy, tables.xy};
  double* const to[5] = {sums.x, sums.y, sums.xx, sums.yy, sums.xy};
  for (int m = 0; m < 5; ++m) {
    const double* upper = from[m] + top * table_stride;
    const double* lower = upper + window * table_stride;
    double* out = to[m];
    for (int64_t c = 0; c < windows; ++c) {
      const int64_t left = c * stride;
      const int64_t right = left + window;
      out[c] = lower[right] - upper[right] - lower[left] + upper[left];
    }
  }
}

/// Sum of grid[r0..r1)[c0..c1) from its summed-area table (`cols` is the
/// grid's column count, not the table's).
inline double summed_area_rect(const double* sat, int64_t cols, int64_t r0, int64_t c0, int64_t r1,
                               int64_t c1) {
  const int64_t stride = cols + 1;
  return sat[r1 * stride + c1] - sat[r0 * stride + c1] - sat[r1 * stride + c0] +
         sat[r0 * stride + c0];
}

}  // namespace salnov
