#include "metrics/ssim.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "metrics/summed_area.hpp"
#include "tensor/workspace.hpp"

namespace salnov {
namespace {

void validate(const Image& x, const Image& y, const SsimOptions& options) {
  if (!x.same_size(y)) {
    throw std::invalid_argument("ssim: image sizes differ (" + std::to_string(x.height()) + "x" +
                                std::to_string(x.width()) + " vs " + std::to_string(y.height()) + "x" +
                                std::to_string(y.width()) + ")");
  }
  if (options.window < 1 || options.stride < 1) {
    throw std::invalid_argument("ssim: window and stride must be >= 1");
  }
  if (x.height() < options.window || x.width() < options.window) {
    throw std::invalid_argument("ssim: image smaller than window");
  }
}

}  // namespace

WindowStats window_stats(const Image& x, const Image& y, int64_t y0, int64_t x0, int64_t window) {
  WindowStats s;
  const double n = static_cast<double>(window * window);
  double sum_x = 0.0, sum_y = 0.0, sum_xx = 0.0, sum_yy = 0.0, sum_xy = 0.0;
  for (int64_t dy = 0; dy < window; ++dy) {
    for (int64_t dx = 0; dx < window; ++dx) {
      const double vx = x(y0 + dy, x0 + dx);
      const double vy = y(y0 + dy, x0 + dx);
      sum_x += vx;
      sum_y += vy;
      sum_xx += vx * vx;
      sum_yy += vy * vy;
      sum_xy += vx * vy;
    }
  }
  s.mu_x = sum_x / n;
  s.mu_y = sum_y / n;
  // Clamp the catastrophic-cancellation negatives on near-constant windows,
  // exactly as the summed-area fast path does: without this, ssim() and
  // ssim_reference() disagree and SSIM can exceed 1.0. The covariance gets
  // the matching Cauchy-Schwarz bound so x == y still scores exactly 1 once
  // the (identical) rounding error in var and cov is clamped away.
  s.var_x = std::max(0.0, sum_xx / n - s.mu_x * s.mu_x);
  s.var_y = std::max(0.0, sum_yy / n - s.mu_y * s.mu_y);
  const double cov_cap = std::sqrt(s.var_x * s.var_y);
  s.cov_xy = std::clamp(sum_xy / n - s.mu_x * s.mu_y, -cov_cap, cov_cap);
  return s;
}

double ssim_from_stats(const WindowStats& stats, const SsimOptions& options) {
  const double c1 = options.c1();
  const double c2 = options.c2();
  const double numerator = (2.0 * stats.mu_x * stats.mu_y + c1) * (2.0 * stats.cov_xy + c2);
  const double denominator =
      (stats.mu_x * stats.mu_x + stats.mu_y * stats.mu_y + c1) * (stats.var_x + stats.var_y + c2);
  return numerator / denominator;
}

namespace {

/// Shared fast path: SSIM accumulated over all windows via summed-area
/// tables, optionally filling a per-window map.
double ssim_sat(const Image& x, const Image& y, const SsimOptions& options, Image* map) {
  const int64_t h = x.height(), w = x.width();
  const int64_t win = options.window, stride = options.stride;
  const double n_win = static_cast<double>(win * win);

  WorkspaceScope scratch;
  const SsimMoments sat = split_moments(scratch.doubles(5 * (h + 1) * (w + 1)), (h + 1) * (w + 1));
  build_ssim_tables(x.tensor().data(), y.tensor().data(), h, w, sat);

  const int64_t rows = (h - win) / stride + 1;
  const int64_t cols = (w - win) / stride + 1;
  const SsimMoments sums = split_moments(scratch.doubles(5 * cols), cols);
  double acc = 0.0;
  for (int64_t r = 0; r < rows; ++r) {
    ssim_window_row_sums(sat, w, r * stride, win, stride, cols, sums);
    for (int64_t c = 0; c < cols; ++c) {
      WindowStats s;
      s.mu_x = sums.x[c] / n_win;
      s.mu_y = sums.y[c] / n_win;
      s.var_x = std::max(0.0, sums.xx[c] / n_win - s.mu_x * s.mu_x);
      s.var_y = std::max(0.0, sums.yy[c] / n_win - s.mu_y * s.mu_y);
      const double cov_cap = std::sqrt(s.var_x * s.var_y);
      s.cov_xy = std::clamp(sums.xy[c] / n_win - s.mu_x * s.mu_y, -cov_cap, cov_cap);
      const double value = ssim_from_stats(s, options);
      acc += value;
      if (map != nullptr) (*map)(r, c) = static_cast<float>(value);
    }
  }
  return acc / static_cast<double>(rows * cols);
}

}  // namespace

double ssim(const Image& x, const Image& y, const SsimOptions& options) {
  validate(x, y, options);
  return ssim_sat(x, y, options, nullptr);
}

double ssim_reference(const Image& x, const Image& y, const SsimOptions& options) {
  validate(x, y, options);
  double acc = 0.0;
  int64_t count = 0;
  for (int64_t y0 = 0; y0 + options.window <= x.height(); y0 += options.stride) {
    for (int64_t x0 = 0; x0 + options.window <= x.width(); x0 += options.stride) {
      acc += ssim_from_stats(window_stats(x, y, y0, x0, options.window), options);
      ++count;
    }
  }
  return acc / static_cast<double>(count);
}

Image ssim_map(const Image& x, const Image& y, const SsimOptions& options) {
  validate(x, y, options);
  const int64_t rows = (x.height() - options.window) / options.stride + 1;
  const int64_t cols = (x.width() - options.window) / options.stride + 1;
  Image map(rows, cols);
  ssim_sat(x, y, options, &map);
  return map;
}

}  // namespace salnov
