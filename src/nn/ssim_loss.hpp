// Differentiable SSIM loss for autoencoder training.
//
// The paper trains the one-class autoencoder to *maximize* the structural
// similarity between input and reconstruction; as a minimization objective
// we use  L = 1 - meanSSIM(x, y)  averaged over the batch, with the exact
// analytic gradient of mean SSIM w.r.t. the reconstruction.
//
// For a window with biased statistics (mu, sigma^2, sigma_xy over N = w^2
// pixels) and A1 = 2 mu_x mu_y + c1, A2 = 2 sigma_xy + c2,
// B1 = mu_x^2 + mu_y^2 + c1, B2 = sigma_x^2 + sigma_y^2 + c2:
//
//   dSSIM/dy_k = (2 / (N B1^2 B2^2)) *
//       [ mu_x A2 B1 B2 + (x_k - mu_x) A1 B1 B2
//         - mu_y A1 A2 B2 - (y_k - mu_y) A1 A2 B1 ]
//
// which decomposes per window into alpha + beta * x_k + gamma * y_k. The
// implementation computes window statistics with summed-area tables and
// accumulates the per-pixel alpha/beta/gamma sums with a second set of
// summed-area tables over the window grid, so value + gradient cost is
// O(H * W) per image independent of the window size.
#pragma once

#include "metrics/ssim.hpp"
#include "nn/loss.hpp"

namespace salnov::nn {

class SsimLoss : public Loss {
 public:
  /// Loss over batches of flattened images: tensors must be
  /// [batch, height * width]. `options` controls window size / constants.
  SsimLoss(int64_t height, int64_t width, SsimOptions options = {});

  double value(const Tensor& prediction, const Tensor& target) const override;
  Tensor gradient(const Tensor& prediction, const Tensor& target) const override;
  std::string name() const override { return "ssim"; }

  /// Mean SSIM of a single (reconstruction, input) pair of height * width
  /// elements each, in any shape (an Image's [h, w] tensor works), read in
  /// place; the novelty *score* used at detection time (higher = more
  /// similar).
  double mean_ssim(const Tensor& prediction_row, const Tensor& target_row) const;

  int64_t height() const { return height_; }
  int64_t width() const { return width_; }
  const SsimOptions& options() const { return options_; }

 private:
  void validate_batch(const Tensor& prediction, const Tensor& target) const;

  /// Computes the mean SSIM of one sample and, if `grad_row` is non-null,
  /// adds dmeanSSIM/dy into it (length height_*width_).
  double sample_ssim(const float* y_recon, const float* x_input, float* grad_row) const;

  int64_t height_;
  int64_t width_;
  SsimOptions options_;
};

}  // namespace salnov::nn
