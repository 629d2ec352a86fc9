// Bit-exact oracles for the two non-GEMM stages of a VBP+SSIM frame: the
// VisualBackProp relevance chain (channel averages, ones-deconvolutions,
// min-max normalisation) and the summed-area-table SSIM (score, batch loss
// and gradient).
//
// Each oracle below is the straightforward form of the computation: the
// per-tap scatter with its zero skip, channel sums through Tensor indexing,
// min_element / max_element followed by a scalar divide, and five separate
// grid-fill + prefix-sum passes per SSIM call. The production code is
// rearranged for speed (branch-free scatters, one fused table pass, arena
// scratch, vectorisable loops) but must give the same bits, so every check
// here is a memcmp, never a tolerance (a NaN matches any NaN; see
// same_bits).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "metrics/ssim.hpp"
#include "metrics/summed_area.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/sequential.hpp"
#include "nn/ssim_loss.hpp"
#include "prop.hpp"
#include "saliency/visual_backprop.hpp"

namespace salnov {
namespace {

// ---------------------------------------------------------------------------
// Oracles.
// ---------------------------------------------------------------------------

void oracle_deconv_into(const float* map, int64_t in_h, int64_t in_w, int64_t kernel_h,
                        int64_t kernel_w, int64_t stride, int64_t padding, int64_t out_h,
                        int64_t out_w, float* out) {
  std::memset(out, 0, static_cast<size_t>(out_h * out_w) * sizeof(float));
  for (int64_t y = 0; y < in_h; ++y) {
    for (int64_t x = 0; x < in_w; ++x) {
      const float v = map[y * in_w + x];
      if (v == 0.0f) continue;
      for (int64_t ki = 0; ki < kernel_h; ++ki) {
        const int64_t oy = y * stride - padding + ki;
        if (oy < 0 || oy >= out_h) continue;
        for (int64_t kj = 0; kj < kernel_w; ++kj) {
          const int64_t ox = x * stride - padding + kj;
          if (ox >= 0 && ox < out_w) out[oy * out_w + ox] += v;
        }
      }
    }
  }
}

Tensor oracle_channel_average(const Tensor& activation, int64_t n) {
  const int64_t channels = activation.dim(1);
  const int64_t h = activation.dim(2);
  const int64_t w = activation.dim(3);
  Tensor avg({h, w});
  const float* src = activation.data() + n * channels * h * w;
  for (int64_t c = 0; c < channels; ++c) {
    for (int64_t i = 0; i < h * w; ++i) avg[i] += src[c * h * w + i];
  }
  avg *= 1.0f / static_cast<float>(channels);
  return avg;
}

void oracle_normalize_by_max(float* map, int64_t count) {
  float peak = 0.0f;
  for (int64_t i = 0; i < count; ++i) peak = std::max(peak, map[i]);
  if (peak > 0.0f) {
    const float inv = 1.0f / peak;
    for (int64_t i = 0; i < count; ++i) map[i] *= inv;
  }
}

void oracle_normalize_minmax(Image& image) {
  if (image.empty()) return;
  Tensor& pixels = image.tensor();
  const float lo = *std::min_element(pixels.data(), pixels.data() + pixels.numel());
  const float hi = *std::max_element(pixels.data(), pixels.data() + pixels.numel());
  const float range = hi - lo;
  if (range <= 0.0f) {
    pixels.fill(0.0f);
    return;
  }
  for (int64_t i = 0; i < pixels.numel(); ++i) pixels[i] = (pixels[i] - lo) / range;
}

/// The relevance chain of one sample from its stage geometries and channel
/// averages (shallow to deep).
Image oracle_relevance_chain(const std::vector<nn::Conv2dConfig>& geos,
                             const std::vector<Tensor>& maps, int64_t in_h, int64_t in_w) {
  Tensor cur = maps.back();
  oracle_normalize_by_max(cur.data(), cur.numel());
  for (size_t i = geos.size() - 1; i-- > 0;) {
    const nn::Conv2dConfig& geo = geos[i + 1];
    const Tensor& target = maps[i];
    Tensor next(target.shape());
    oracle_deconv_into(cur.data(), cur.dim(0), cur.dim(1), geo.kernel_h, geo.kernel_w, geo.stride,
                       geo.padding, target.dim(0), target.dim(1), next.data());
    for (int64_t j = 0; j < next.numel(); ++j) next[j] *= target[j];
    oracle_normalize_by_max(next.data(), next.numel());
    cur = std::move(next);
  }
  Tensor relevance({in_h, in_w});
  oracle_deconv_into(cur.data(), cur.dim(0), cur.dim(1), geos.front().kernel_h,
                     geos.front().kernel_w, geos.front().stride, geos.front().padding, in_h, in_w,
                     relevance.data());
  Image mask(in_h, in_w, std::move(relevance));
  oracle_normalize_minmax(mask);
  return mask;
}

/// Five summed-area tables, one grid-fill + prefix-sum pass each.
std::vector<std::vector<double>> oracle_tables(const float* x, const float* y, int64_t h,
                                               int64_t w) {
  const size_t table_size = static_cast<size_t>((h + 1) * (w + 1));
  std::vector<std::vector<double>> sats(5, std::vector<double>(table_size));
  std::vector<double> grid(static_cast<size_t>(h * w));
  for (int t = 0; t < 5; ++t) {
    for (int64_t i = 0; i < h * w; ++i) {
      const double xv = x[i];
      const double yv = y[i];
      switch (t) {
        case 0: grid[i] = xv; break;
        case 1: grid[i] = yv; break;
        case 2: grid[i] = xv * xv; break;
        case 3: grid[i] = yv * yv; break;
        default: grid[i] = xv * yv; break;
      }
    }
    build_summed_area(grid.data(), h, w, sats[static_cast<size_t>(t)].data());
  }
  return sats;
}

int64_t ceil_div(int64_t a, int64_t b) { return a >= 0 ? (a + b - 1) / b : -((-a) / b); }

/// SsimLoss's per-sample mean SSIM, plus dmeanSSIM/dy added into
/// `grad_row` when it is non-null.
double oracle_sample_ssim(const float* y_recon, const float* x_input, int64_t h, int64_t w,
                          const SsimOptions& options, float* grad_row) {
  const int64_t win = options.window, stride = options.stride;
  const int64_t grid_rows = (h - win) / stride + 1;
  const int64_t grid_cols = (w - win) / stride + 1;
  const double n_win = static_cast<double>(win * win);
  const double c1 = options.c1();
  const double c2 = options.c2();
  const auto sats = oracle_tables(x_input, y_recon, h, w);
  const auto rect = [&](int t, int64_t y0, int64_t x0) {
    return summed_area_rect(sats[static_cast<size_t>(t)].data(), w, y0, x0, y0 + win, x0 + win);
  };

  std::vector<double> alpha(static_cast<size_t>(grid_rows * grid_cols));
  std::vector<double> beta(alpha.size()), gamma(alpha.size());
  double ssim_acc = 0.0;
  for (int64_t gr = 0; gr < grid_rows; ++gr) {
    const int64_t y0 = gr * stride;
    for (int64_t gc = 0; gc < grid_cols; ++gc) {
      const int64_t x0 = gc * stride;
      const double mu_x = rect(0, y0, x0) / n_win;
      const double mu_y = rect(1, y0, x0) / n_win;
      const double var_x = std::max(0.0, rect(2, y0, x0) / n_win - mu_x * mu_x);
      const double var_y = std::max(0.0, rect(3, y0, x0) / n_win - mu_y * mu_y);
      const double cov = rect(4, y0, x0) / n_win - mu_x * mu_y;
      const double a1 = 2.0 * mu_x * mu_y + c1;
      const double a2 = 2.0 * cov + c2;
      const double b1 = mu_x * mu_x + mu_y * mu_y + c1;
      const double b2 = var_x + var_y + c2;
      ssim_acc += (a1 * a2) / (b1 * b2);
      const double term = 2.0 / (n_win * b1 * b1 * b2 * b2);
      const size_t g = static_cast<size_t>(gr * grid_cols + gc);
      beta[g] = term * a1 * b1 * b2;
      gamma[g] = -term * a1 * a2 * b1;
      alpha[g] = term * (mu_x * b1 * b2 * (a2 - a1) + mu_y * a1 * a2 * (b1 - b2));
    }
  }
  const double window_count = static_cast<double>(grid_rows * grid_cols);
  if (grad_row != nullptr) {
    const size_t gsat = static_cast<size_t>((grid_rows + 1) * (grid_cols + 1));
    std::vector<double> sat_a(gsat), sat_b(gsat), sat_g(gsat);
    build_summed_area(alpha.data(), grid_rows, grid_cols, sat_a.data());
    build_summed_area(beta.data(), grid_rows, grid_cols, sat_b.data());
    build_summed_area(gamma.data(), grid_rows, grid_cols, sat_g.data());
    for (int64_t py = 0; py < h; ++py) {
      const int64_t r0 = std::max<int64_t>(0, ceil_div(py - win + 1, stride));
      const int64_t r1 = std::min(grid_rows - 1, py / stride);
      if (r0 > r1) continue;
      for (int64_t px = 0; px < w; ++px) {
        const int64_t q0 = std::max<int64_t>(0, ceil_div(px - win + 1, stride));
        const int64_t q1 = std::min(grid_cols - 1, px / stride);
        if (q0 > q1) continue;
        const double a_sum = summed_area_rect(sat_a.data(), grid_cols, r0, q0, r1 + 1, q1 + 1);
        const double b_sum = summed_area_rect(sat_b.data(), grid_cols, r0, q0, r1 + 1, q1 + 1);
        const double g_sum = summed_area_rect(sat_g.data(), grid_cols, r0, q0, r1 + 1, q1 + 1);
        const int64_t k = py * w + px;
        grad_row[k] += static_cast<float>(
            (a_sum + b_sum * x_input[k] + g_sum * y_recon[k]) / window_count);
      }
    }
  }
  return ssim_acc / window_count;
}

/// metrics::ssim's summed-area path (with its covariance clamp), filling
/// `map` when it is non-null.
double oracle_metric_ssim(const Image& x, const Image& y, const SsimOptions& options, Image* map) {
  const int64_t h = x.height(), w = x.width();
  const int64_t win = options.window, stride = options.stride;
  const double n_win = static_cast<double>(win * win);
  const auto sats = oracle_tables(x.tensor().data(), y.tensor().data(), h, w);
  const auto rect = [&](int t, int64_t y0, int64_t x0) {
    return summed_area_rect(sats[static_cast<size_t>(t)].data(), w, y0, x0, y0 + win, x0 + win);
  };
  const int64_t rows = (h - win) / stride + 1;
  const int64_t cols = (w - win) / stride + 1;
  double acc = 0.0;
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      const int64_t y0 = r * stride, x0 = c * stride;
      WindowStats s;
      s.mu_x = rect(0, y0, x0) / n_win;
      s.mu_y = rect(1, y0, x0) / n_win;
      s.var_x = std::max(0.0, rect(2, y0, x0) / n_win - s.mu_x * s.mu_x);
      s.var_y = std::max(0.0, rect(3, y0, x0) / n_win - s.mu_y * s.mu_y);
      const double cov_cap = std::sqrt(s.var_x * s.var_y);
      s.cov_xy = std::clamp(rect(4, y0, x0) / n_win - s.mu_x * s.mu_y, -cov_cap, cov_cap);
      const double value = ssim_from_stats(s, options);
      acc += value;
      if (map != nullptr) (*map)(r, c) = static_cast<float>(value);
    }
  }
  return acc / static_cast<double>(rows * cols);
}

// ---------------------------------------------------------------------------
// Generators and comparison.
// ---------------------------------------------------------------------------

/// Bit equality, except that a NaN matches any NaN. Neither IEEE 754 nor
/// C++ fixes which operand's NaN an add or multiply passes on, and the
/// compiler may swap the operands of either, so NaN sign and payload are
/// not part of the contract: the relevance chain before these rewrites
/// already disagreed with its own verbatim copy in this file on the sign of
/// a NaN. Every non-NaN element must match bit for bit.
bool same_bits(const float* a, const float* b, int64_t count) {
  for (int64_t i = 0; i < count; ++i) {
    if (std::isnan(a[i]) && std::isnan(b[i])) continue;
    if (std::memcmp(a + i, b + i, sizeof(float)) != 0) return false;
  }
  return true;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() && same_bits(a.data(), b.data(), a.numel());
}

/// The first differing element of two same-shaped tensors, with its bits.
std::string first_difference(const Tensor& got, const Tensor& want) {
  if (got.shape() != want.shape()) {
    return "shape " + shape_to_string(got.shape()) + " vs " + shape_to_string(want.shape());
  }
  for (int64_t i = 0; i < got.numel(); ++i) {
    uint32_t g = 0, w = 0;
    std::memcpy(&g, got.data() + i, sizeof g);
    std::memcpy(&w, want.data() + i, sizeof w);
    if (g != w && !(std::isnan(got.data()[i]) && std::isnan(want.data()[i]))) {
      std::ostringstream os;
      os << "element " << i << ": " << got.data()[i] << " (0x" << std::hex << g << ") vs "
         << want.data()[i] << " (0x" << w << ")";
      return os.str();
    }
  }
  return "no difference";
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

/// Map content regimes: plain non-negative relevance, signed values, and
/// maps salted with zeros, -0.0, NaN and +-Inf.
enum class Fill { kPositive, kSigned, kSpecials, kAllZero, kConstant };

float special_value(Rng& rng) {
  switch (rng.uniform_int(0, 5)) {
    case 0: return 0.0f;
    case 1: return -0.0f;
    case 2: return std::numeric_limits<float>::quiet_NaN();
    case 3: return std::numeric_limits<float>::infinity();
    case 4: return -std::numeric_limits<float>::infinity();
    default: return static_cast<float>(rng.uniform(-1.0, 1.0));
  }
}

void fill_values(float* data, int64_t count, Fill fill, Rng& rng) {
  const float constant = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (int64_t i = 0; i < count; ++i) {
    switch (fill) {
      case Fill::kPositive:
        // Post-ReLU maps hold many exact zeros.
        data[i] = rng.uniform() < 0.3 ? 0.0f : static_cast<float>(rng.uniform(0.0, 2.0));
        break;
      case Fill::kSigned: data[i] = static_cast<float>(rng.uniform(-1.0, 1.0)); break;
      case Fill::kSpecials:
        data[i] = rng.uniform() < 0.25 ? special_value(rng) : static_cast<float>(rng.uniform());
        break;
      case Fill::kAllZero: data[i] = rng.uniform() < 0.5 ? 0.0f : -0.0f; break;
      case Fill::kConstant: data[i] = constant; break;
    }
  }
}

Fill random_fill(Rng& rng) { return static_cast<Fill>(rng.uniform_int(0, 4)); }

constexpr int kTrials = 60;

// ---------------------------------------------------------------------------
// VisualBackProp relevance chain.
// ---------------------------------------------------------------------------

TEST(RelevanceSsimOracle, DeconvOnesMatchesPerTapScatter) {
  const uint64_t run = prop::run_seed(15);
  for (int trial = 0; trial < 4 * kTrials; ++trial) {
    const uint64_t seed = prop::trial_seed(run, trial);
    Rng rng(seed);
    const int64_t kernel_h = rng.uniform() < 0.5 ? 3 : 5;
    const int64_t kernel_w = rng.uniform() < 0.5 ? 3 : 5;
    const int64_t stride = rng.uniform_int(1, 2);
    const int64_t padding = rng.uniform_int(0, 1);
    // 1x1 maps and odd sizes; the output is the transposed-conv size give
    // or take a couple of pixels (clipping and uncovered borders).
    const int64_t in_h = trial % 8 == 0 ? 1 : rng.uniform_int(1, 9);
    const int64_t in_w = trial % 8 == 0 ? 1 : rng.uniform_int(1, 11);
    const int64_t out_h =
        std::max<int64_t>(1, (in_h - 1) * stride - 2 * padding + kernel_h + rng.uniform_int(-2, 2));
    const int64_t out_w =
        std::max<int64_t>(1, (in_w - 1) * stride - 2 * padding + kernel_w + rng.uniform_int(-2, 2));
    Tensor map({in_h, in_w});
    fill_values(map.data(), map.numel(), random_fill(rng), rng);

    const Tensor got =
        saliency::deconv_ones(map, kernel_h, kernel_w, stride, padding, out_h, out_w);
    Tensor want({out_h, out_w});
    oracle_deconv_into(map.data(), in_h, in_w, kernel_h, kernel_w, stride, padding, out_h, out_w,
                       want.data());
    ASSERT_TRUE(same_bits(got, want))
        << "kernel " << kernel_h << "x" << kernel_w << " stride " << stride << " padding "
        << padding << " map " << in_h << "x" << in_w << " -> " << out_h << "x" << out_w
        << "; reproduce with SALNOV_PROP_SEED=" << seed;
  }
}

struct Chain {
  nn::Sequential model;
  std::vector<nn::Conv2dConfig> geos;
  std::vector<Tensor> activations;  ///< one per layer, as forward_collect
  int64_t height = 0;
  int64_t width = 0;
};

/// A conv/ReLU stack of 1-3 stages with random 3/5 kernels, strides 1/2
/// and padding 0/1, and synthetic post-ReLU activations for `batch`
/// samples. Returns false when the geometry shrinks a map below 1x1.
bool make_chain(Rng& rng, int64_t batch, Chain* chain) {
  const int64_t stages = rng.uniform_int(1, 3);
  chain->height = rng.uniform_int(3, 24);
  chain->width = rng.uniform_int(3, 40);
  int64_t h = chain->height, w = chain->width, in_channels = 1;
  std::vector<std::pair<int64_t, int64_t>> dims;
  for (int64_t s = 0; s < stages; ++s) {
    nn::Conv2dConfig geo;
    geo.in_channels = in_channels;
    geo.out_channels = rng.uniform_int(1, 5);
    geo.kernel_h = rng.uniform() < 0.5 ? 3 : 5;
    geo.kernel_w = rng.uniform() < 0.5 ? 3 : 5;
    geo.stride = rng.uniform_int(1, 2);
    geo.padding = rng.uniform_int(0, 1);
    h = (h + 2 * geo.padding - geo.kernel_h) / geo.stride + 1;
    w = (w + 2 * geo.padding - geo.kernel_w) / geo.stride + 1;
    if (h < 1 || w < 1) return false;
    chain->model.emplace<nn::Conv2d>(geo, rng);
    chain->model.emplace<nn::ReLU>();
    chain->geos.push_back(geo);
    dims.emplace_back(h, w);
    in_channels = geo.out_channels;
  }
  const Fill fill = random_fill(rng);
  for (size_t s = 0; s < chain->geos.size(); ++s) {
    Tensor activation({batch, chain->geos[s].out_channels, dims[s].first, dims[s].second});
    fill_values(activation.data(), activation.numel(), fill, rng);
    chain->activations.push_back(activation);  // conv output: not read by VBP
    chain->activations.push_back(std::move(activation));
  }
  return true;
}

TEST(RelevanceSsimOracle, MasksAndChannelAveragesMatchOracleChain) {
  const uint64_t run = prop::run_seed(15);
  int checked = 0;
  for (int trial = 0; checked < kTrials; ++trial) {
    const uint64_t seed = prop::trial_seed(run, trial);
    Rng rng(seed);
    const int64_t batch = rng.uniform_int(1, 3);
    Chain chain;
    if (!make_chain(rng, batch, &chain)) continue;
    ++checked;

    std::vector<std::vector<Tensor>> averaged;
    const std::vector<Image> masks = saliency::VisualBackProp::masks_from_activations(
        chain.model, chain.activations, chain.height, chain.width, &averaged);
    ASSERT_EQ(masks.size(), static_cast<size_t>(batch));
    for (int64_t n = 0; n < batch; ++n) {
      std::vector<Tensor> maps;
      for (size_t s = 0; s < chain.geos.size(); ++s) {
        maps.push_back(oracle_channel_average(chain.activations[2 * s + 1], n));
        ASSERT_TRUE(same_bits(averaged[static_cast<size_t>(n)][s], maps.back()))
            << "channel average of stage " << s << " sample " << n
            << "; reproduce with SALNOV_PROP_SEED=" << seed;
      }
      const Image want = oracle_relevance_chain(chain.geos, maps, chain.height, chain.width);
      ASSERT_TRUE(same_bits(masks[static_cast<size_t>(n)].tensor(), want.tensor()))
          << "mask of sample " << n << ", "
          << first_difference(masks[static_cast<size_t>(n)].tensor(), want.tensor())
          << "; reproduce with SALNOV_PROP_SEED=" << seed;
    }
  }
}

TEST(RelevanceSsimOracle, NormalizeMinmaxMatchesMinMaxElement) {
  const uint64_t run = prop::run_seed(15);
  for (int trial = 0; trial < 4 * kTrials; ++trial) {
    const uint64_t seed = prop::trial_seed(run, trial);
    Rng rng(seed);
    const int64_t h = trial % 8 == 0 ? 1 : rng.uniform_int(1, 13);
    const int64_t w = trial % 8 == 0 ? 1 : rng.uniform_int(1, 29);
    Image image(h, w);
    fill_values(image.tensor().data(), image.numel(), random_fill(rng), rng);
    Image want = image;
    image.normalize_minmax();
    oracle_normalize_minmax(want);
    ASSERT_TRUE(same_bits(image.tensor(), want.tensor()))
        << h << "x" << w << "; reproduce with SALNOV_PROP_SEED=" << seed;
  }
}

TEST(RelevanceSsimOracle, NormalizeMinmaxKeepsFirstOfEqualExtremes) {
  // Which zero min_element returns decides the sign of (-0 - lo): -0 first
  // gives +0 there, +0 first gives -0. A leading NaN poisons both extremes.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<std::vector<float>> cases = {
      {-0.0f, 0.0f, 1.0f, -0.0f}, {0.0f, -0.0f, 1.0f, -0.0f}, {1.0f, -0.0f, 0.0f, -0.0f},
      {nan, 0.0f, 1.0f, 2.0f},    {0.5f, nan, 0.0f, 1.0f},    {-1.0f, -0.0f, 0.0f, -2.0f},
      {3.0f, 3.0f, 3.0f},         {-0.0f},                    {0.0f, 1.0f, 2.0f, 3.0f, 4.0f, 5.0f,
                                                               6.0f, 7.0f, 8.0f, -0.0f, 9.0f}};
  for (const auto& values : cases) {
    Image got(1, static_cast<int64_t>(values.size()));
    std::copy(values.begin(), values.end(), got.tensor().data());
    Image want = got;
    got.normalize_minmax();
    oracle_normalize_minmax(want);
    EXPECT_TRUE(same_bits(got.tensor(), want.tensor())) << prop::describe(values);
  }
}

// ---------------------------------------------------------------------------
// SSIM.
// ---------------------------------------------------------------------------

struct SsimCase {
  SsimOptions options;
  int64_t h = 0;
  int64_t w = 0;
  Image x;
  Image y;
};

/// Window 3/5/7/11, stride 1-3, odd and even sizes down to one window; the
/// pair is random, signed, all-zero, constant or identical (x == y).
SsimCase make_ssim_case(Rng& rng) {
  SsimCase c;
  const int64_t windows[] = {3, 5, 7, 11};
  c.options.window = windows[rng.uniform_int(0, 3)];
  c.options.stride = rng.uniform_int(1, 3);
  c.h = c.options.window + rng.uniform_int(0, 13);
  c.w = c.options.window + rng.uniform_int(0, 21);
  c.x = Image(c.h, c.w);
  c.y = Image(c.h, c.w);
  switch (rng.uniform_int(0, 4)) {
    case 0:
      fill_values(c.x.tensor().data(), c.x.numel(), Fill::kPositive, rng);
      fill_values(c.y.tensor().data(), c.y.numel(), Fill::kPositive, rng);
      break;
    case 1:
      fill_values(c.x.tensor().data(), c.x.numel(), Fill::kSigned, rng);
      fill_values(c.y.tensor().data(), c.y.numel(), Fill::kSigned, rng);
      break;
    case 2:
      fill_values(c.x.tensor().data(), c.x.numel(), Fill::kAllZero, rng);
      fill_values(c.y.tensor().data(), c.y.numel(), Fill::kAllZero, rng);
      break;
    case 3:
      fill_values(c.x.tensor().data(), c.x.numel(), Fill::kConstant, rng);
      fill_values(c.y.tensor().data(), c.y.numel(), Fill::kConstant, rng);
      break;
    default:
      fill_values(c.x.tensor().data(), c.x.numel(), Fill::kPositive, rng);
      c.y = c.x;
      break;
  }
  return c;
}

TEST(RelevanceSsimOracle, SsimScoreAndMetricMatchFivePassOracle) {
  const uint64_t run = prop::run_seed(15);
  for (int trial = 0; trial < kTrials; ++trial) {
    const uint64_t seed = prop::trial_seed(run, trial);
    Rng rng(seed);
    SsimCase c = make_ssim_case(rng);
    const nn::SsimLoss loss(c.h, c.w, c.options);
    const double score = loss.mean_ssim(c.y.tensor(), c.x.tensor());
    const double want_score =
        oracle_sample_ssim(c.y.tensor().data(), c.x.tensor().data(), c.h, c.w, c.options, nullptr);
    ASSERT_TRUE(same_bits(score, want_score))
        << score << " vs " << want_score << "; reproduce with SALNOV_PROP_SEED=" << seed;

    Image map = ssim_map(c.x, c.y, c.options);
    Image want_map(map.height(), map.width());
    const double want_metric = oracle_metric_ssim(c.x, c.y, c.options, &want_map);
    ASSERT_TRUE(same_bits(ssim(c.x, c.y, c.options), want_metric))
        << "reproduce with SALNOV_PROP_SEED=" << seed;
    ASSERT_TRUE(same_bits(map.tensor(), want_map.tensor()))
        << "reproduce with SALNOV_PROP_SEED=" << seed;
  }
}

TEST(RelevanceSsimOracle, SsimLossValueAndGradientMatchFivePassOracle) {
  const uint64_t run = prop::run_seed(15);
  for (int trial = 0; trial < kTrials; ++trial) {
    const uint64_t seed = prop::trial_seed(run, trial);
    Rng rng(seed);
    const int64_t batch = rng.uniform_int(1, 3);
    SsimCase first = make_ssim_case(rng);
    const int64_t dim = first.h * first.w;
    Tensor prediction({batch, dim});
    Tensor target({batch, dim});
    std::copy(first.y.tensor().data(), first.y.tensor().data() + dim, prediction.data());
    std::copy(first.x.tensor().data(), first.x.tensor().data() + dim, target.data());
    // Later samples reuse the first case's geometry with fresh content.
    for (int64_t n = 1; n < batch; ++n) {
      fill_values(prediction.data() + n * dim, dim, random_fill(rng), rng);
      fill_values(target.data() + n * dim, dim, random_fill(rng), rng);
    }
    // Specials would make every gradient NaN; keep the loss inputs finite.
    for (int64_t i = 0; i < prediction.numel(); ++i) {
      if (!std::isfinite(prediction.data()[i])) prediction.data()[i] = 0.5f;
      if (!std::isfinite(target.data()[i])) target.data()[i] = 0.25f;
    }

    const nn::SsimLoss loss(first.h, first.w, first.options);
    const double value = loss.value(prediction, target);
    const Tensor gradient = loss.gradient(prediction, target);

    double want_value = 0.0;
    Tensor want_gradient(prediction.shape());
    const float scale = -1.0f / static_cast<float>(batch);
    std::vector<float> sample_grad(static_cast<size_t>(dim));
    for (int64_t n = 0; n < batch; ++n) {
      std::fill(sample_grad.begin(), sample_grad.end(), 0.0f);
      want_value += 1.0 - oracle_sample_ssim(prediction.data() + n * dim, target.data() + n * dim,
                                             first.h, first.w, first.options, sample_grad.data());
      for (int64_t k = 0; k < dim; ++k) {
        want_gradient.data()[n * dim + k] = scale * sample_grad[static_cast<size_t>(k)];
      }
    }
    want_value /= static_cast<double>(batch);
    ASSERT_TRUE(same_bits(value, want_value)) << "reproduce with SALNOV_PROP_SEED=" << seed;
    ASSERT_TRUE(same_bits(gradient, want_gradient)) << "reproduce with SALNOV_PROP_SEED=" << seed;
  }
}

}  // namespace
}  // namespace salnov
