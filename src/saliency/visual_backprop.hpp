// VisualBackProp (Bojarski et al., ICRA 2018).
//
// For each convolutional stage (conv + ReLU), average the post-activation
// feature maps over channels; then, walking from the deepest stage back to
// the input, repeatedly (a) upscale the running relevance map to the
// previous stage's resolution with a transposed convolution whose weights
// are all ones (geometry taken from the intervening conv layer), and (b)
// multiply pointwise with that stage's averaged feature map. A final
// ones-deconvolution through the first conv layer brings the mask to input
// resolution; the result is min-max normalized.
//
// The cost is one forward pass plus channel averages and O(pixels)
// upsampling — no backward pass through weights — which is what makes VBP
// an order of magnitude faster than decomposition methods like LRP.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/quantized.hpp"
#include "saliency/saliency.hpp"

namespace salnov::saliency {

class VisualBackProp : public SaliencyMethod {
 public:
  VisualBackProp() = default;

  /// Stateless per call: all scratch (the per-stage averaged maps) is local,
  /// so one VisualBackProp instance may serve concurrent compute() calls —
  /// the detector's parallel scoring fan-out relies on this. Runs
  /// compute_batch at B = 1.
  Image compute(nn::Sequential& model, const Image& input) override;

  /// Cross-frame batched VBP at float precision: compute_batch(model,
  /// nullptr, inputs).
  std::vector<Image> compute_batch(nn::Sequential& model,
                                   const std::vector<const Image*>& inputs) override;

  /// The one batched VBP pass: one forward_collect over the stacked
  /// [B, 1, H, W] input, through `quant` (an int8 view of `model`) when it
  /// is non-null and `model` otherwise, then masks_from_activations. Conv
  /// layers loop per sample and dense layers accumulate each output row in
  /// ascending-k order at any batch size, so element i is bit-identical to
  /// the B = 1 call on *inputs[i]. A non-null `final_activation` receives
  /// the last activation: a steering network's angles from this forward.
  std::vector<Image> compute_batch(const nn::Sequential& model, const nn::QuantizedForward* quant,
                                   const std::vector<const Image*>& inputs,
                                   Tensor* final_activation = nullptr) const;

  /// The VBP core: turns the activations of one forward_collect (float or
  /// int8) over a stacked [B, 1, height, width] input into B masks; the
  /// per-sample relevance chains fan out across the worker pool. A non-null
  /// `averaged_maps` receives, per sample, each conv stage's channel
  /// average, shallow to deep (for inspection and tests).
  static std::vector<Image> masks_from_activations(
      const nn::Sequential& model, const std::vector<Tensor>& activations, int64_t height,
      int64_t width, std::vector<std::vector<Tensor>>* averaged_maps = nullptr);

  bool thread_safe() const override { return true; }
  std::string name() const override { return "vbp"; }
};

/// Transposed convolution with all-ones weights: scatters each input value
/// into the k x k output window it came from. `out_h` / `out_w` give the
/// exact target size (transposed-conv arithmetic can disagree by a pixel
/// with the true pre-conv size when the stride does not divide evenly;
/// out-of-range contributions are dropped). Exposed for tests.
Tensor deconv_ones(const Tensor& map, int64_t kernel_h, int64_t kernel_w, int64_t stride,
                   int64_t padding, int64_t out_h, int64_t out_w);

}  // namespace salnov::saliency
