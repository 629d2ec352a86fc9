#include "saliency/visual_backprop.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "nn/conv2d.hpp"
#include "parallel/parallel_for.hpp"
#include "tensor/workspace.hpp"

namespace salnov::saliency {
namespace {

struct ConvStage {
  const nn::Conv2d* conv = nullptr;
  size_t output_index = 0;  ///< index into forward_collect results (post-ReLU)
};

std::vector<ConvStage> require_conv_stages(const nn::Sequential& model) {
  std::vector<ConvStage> stages;
  for (size_t i = 0; i < model.size(); ++i) {
    const auto* conv = dynamic_cast<const nn::Conv2d*>(&model.layer(i));
    if (conv == nullptr) continue;
    ConvStage stage;
    stage.conv = conv;
    stage.output_index =
        (i + 1 < model.size() && model.layer(i + 1).type_name() == "relu") ? i + 1 : i;
    stages.push_back(stage);
  }
  if (stages.empty()) {
    throw std::invalid_argument("VisualBackProp: model has no convolutional stages");
  }
  return stages;
}

/// One conv stage's channel average for one sample: an [h, w] map in
/// workspace scratch.
struct AveragedMap {
  const float* data = nullptr;
  int64_t h = 0;
  int64_t w = 0;
};

/// Mean over channels of sample `n` of a [B, C, H, W] activation, written
/// to `avg` [H, W]. Channels are accumulated in ascending order, so the
/// batched path and the batch-1 path sum the same values in the same
/// order — bit-identical.
AveragedMap channel_average_into(const Tensor& activation, int64_t n, float* avg) {
  const int64_t channels = activation.dim(1);
  const int64_t plane = activation.dim(2) * activation.dim(3);
  const float* src = activation.data() + n * channels * plane;
  std::fill(avg, avg + plane, 0.0f);
  for (int64_t c = 0; c < channels; ++c) {
    const float* channel = src + c * plane;
    for (int64_t i = 0; i < plane; ++i) avg[i] += channel[i];
  }
  const float inv = 1.0f / static_cast<float>(channels);
  for (int64_t i = 0; i < plane; ++i) avg[i] *= inv;
  return {avg, activation.dim(2), activation.dim(3)};
}

/// Scales a map so its max is 1 (keeps zeros if the map is all-zero).
/// Normalizing every stage keeps the running product numerically stable
/// across deep chains of pointwise multiplications.
void normalize_by_max(float* map, int64_t count) {
  float peak = 0.0f;
  for (int64_t i = 0; i < count; ++i) peak = std::max(peak, map[i]);
  if (peak > 0.0f) {
    const float inv = 1.0f / peak;
    for (int64_t i = 0; i < count; ++i) map[i] *= inv;
  }
}

/// Raw-buffer core of deconv_ones: scatters `map` [in_h, in_w] into
/// `out` [out_h, out_w], which is overwritten. Every output receives its
/// contributions in ascending (y, x) input order: for one output, y fixes
/// ki, and x ascending is kj descending, hence the loop order y -> ki ->
/// kj descending -> x. Zeros are added rather than skipped; that is exact
/// because an output never holds -0 (it starts at +0, and a sum is -0
/// only when both addends are).
void deconv_ones_into(const float* map, int64_t in_h, int64_t in_w, int64_t kernel_h,
                      int64_t kernel_w, int64_t stride, int64_t padding, int64_t out_h,
                      int64_t out_w, float* out) {
  std::memset(out, 0, static_cast<size_t>(out_h * out_w) * sizeof(float));
  for (int64_t y = 0; y < in_h; ++y) {
    const float* row = map + y * in_w;
    for (int64_t ki = 0; ki < kernel_h; ++ki) {
      const int64_t oy = y * stride - padding + ki;
      if (oy < 0 || oy >= out_h) continue;
      float* out_row = out + oy * out_w;
      for (int64_t kj = kernel_w - 1; kj >= 0; --kj) {
        // Input x lands on output column x * stride + offset; keep
        // 0 <= x * stride + offset < out_w.
        const int64_t offset = kj - padding;
        const int64_t x_begin = offset >= 0 ? 0 : (-offset + stride - 1) / stride;
        const int64_t last = out_w - 1 - offset;
        const int64_t x_end = last < 0 ? 0 : std::min(in_w, last / stride + 1);
        for (int64_t x = x_begin; x < x_end; ++x) out_row[x * stride + offset] += row[x];
      }
    }
  }
}

/// Walks the averaged maps deep-to-shallow, multiplying each deconvolved
/// relevance map into the next stage's averaged activation, and returns the
/// normalized input-resolution mask for one sample.
Image relevance_chain(const std::vector<ConvStage>& stages, const std::vector<AveragedMap>& maps,
                      int64_t in_h, int64_t in_w) {
  // The relevance chain ping-pongs between two workspace buffers sized for
  // the largest intermediate map, so steady-state frames allocate nothing.
  int64_t max_map = 0;
  for (const AveragedMap& map : maps) max_map = std::max(max_map, map.h * map.w);
  WorkspaceScope scratch;
  float* cur = scratch.floats(max_map);
  float* next = scratch.floats(max_map);

  const AveragedMap& deepest = maps.back();
  int64_t cur_h = deepest.h;
  int64_t cur_w = deepest.w;
  std::memcpy(cur, deepest.data, static_cast<size_t>(cur_h * cur_w) * sizeof(float));
  normalize_by_max(cur, cur_h * cur_w);

  for (size_t i = stages.size() - 1; i-- > 0;) {
    const nn::Conv2dConfig& geo = stages[i + 1].conv->config();
    const AveragedMap& target = maps[i];
    const int64_t count = target.h * target.w;
    deconv_ones_into(cur, cur_h, cur_w, geo.kernel_h, geo.kernel_w, geo.stride, geo.padding,
                     target.h, target.w, next);
    for (int64_t j = 0; j < count; ++j) next[j] *= target.data[j];
    normalize_by_max(next, count);
    std::swap(cur, next);
    cur_h = target.h;
    cur_w = target.w;
  }

  const nn::Conv2dConfig& first = stages.front().conv->config();
  Tensor relevance({in_h, in_w});
  deconv_ones_into(cur, cur_h, cur_w, first.kernel_h, first.kernel_w, first.stride, first.padding,
                   in_h, in_w, relevance.data());

  Image mask(in_h, in_w, std::move(relevance));
  mask.normalize_minmax();
  return mask;
}

}  // namespace

Tensor deconv_ones(const Tensor& map, int64_t kernel_h, int64_t kernel_w, int64_t stride,
                   int64_t padding, int64_t out_h, int64_t out_w) {
  if (map.rank() != 2) {
    throw std::invalid_argument("deconv_ones: expected [h, w] map, got " + shape_to_string(map.shape()));
  }
  if (kernel_h < 1 || kernel_w < 1 || stride < 1 || padding < 0 || out_h < 1 || out_w < 1) {
    throw std::invalid_argument("deconv_ones: need kernel >= 1, stride >= 1, padding >= 0 and a "
                                "positive output size");
  }
  Tensor out({out_h, out_w});
  deconv_ones_into(map.data(), map.dim(0), map.dim(1), kernel_h, kernel_w, stride, padding, out_h,
                   out_w, out.data());
  return out;
}

Image VisualBackProp::compute(nn::Sequential& model, const Image& input) {
  return std::move(compute_batch(model, nullptr, {&input}).front());
}

std::vector<Image> VisualBackProp::compute_batch(nn::Sequential& model,
                                                 const std::vector<const Image*>& inputs) {
  return compute_batch(model, nullptr, inputs);
}

std::vector<Image> VisualBackProp::compute_batch(const nn::Sequential& model,
                                                 const nn::QuantizedForward* quant,
                                                 const std::vector<const Image*>& inputs,
                                                 Tensor* final_activation) const {
  if (inputs.empty()) return {};
  require_conv_stages(model);
  if (quant != nullptr && &quant->model() != &model) {
    throw std::invalid_argument("VisualBackProp: quantized view of a different model");
  }
  const Tensor stacked = stack_frames(inputs, "VisualBackProp");
  // One forward pass for the whole batch: this is where the batch-B GEMMs
  // replace B batch-1 calls. The activations are shared read-only below.
  const std::vector<Tensor> activations =
      quant != nullptr ? quant->forward_collect(stacked) : model.forward_collect(stacked);
  if (final_activation != nullptr) *final_activation = activations.back();
  return masks_from_activations(model, activations, stacked.dim(2), stacked.dim(3));
}

std::vector<Image> VisualBackProp::masks_from_activations(
    const nn::Sequential& model, const std::vector<Tensor>& activations, int64_t height,
    int64_t width, std::vector<std::vector<Tensor>>* averaged_maps) {
  const auto stages = require_conv_stages(model);
  if (activations.size() != model.size()) {
    throw std::invalid_argument("VisualBackProp: expected one activation per layer");
  }
  const int64_t batch = activations.front().dim(0);
  std::vector<Image> masks(static_cast<size_t>(batch));
  if (averaged_maps != nullptr) averaged_maps->assign(static_cast<size_t>(batch), {});
  for (const auto& stage : stages) {
    const Tensor& activation = activations[stage.output_index];
    if (activation.rank() != 4 || activation.dim(0) != batch) {
      throw std::logic_error("VisualBackProp: expected [" + std::to_string(batch) +
                             ", C, H, W] activation, got " + shape_to_string(activation.shape()));
    }
  }
  parallel::parallel_for(0, batch, 1, [&](int64_t begin, int64_t end) {
    for (int64_t n = begin; n < end; ++n) {
      WorkspaceScope scratch;
      std::vector<AveragedMap> maps;
      maps.reserve(stages.size());
      for (const auto& stage : stages) {
        const Tensor& activation = activations[stage.output_index];
        maps.push_back(channel_average_into(
            activation, n, scratch.floats(activation.dim(2) * activation.dim(3))));
      }
      masks[static_cast<size_t>(n)] = relevance_chain(stages, maps, height, width);
      if (averaged_maps != nullptr) {
        auto& out = (*averaged_maps)[static_cast<size_t>(n)];
        for (const AveragedMap& map : maps) {
          Tensor copy({map.h, map.w});
          std::copy(map.data, map.data + map.h * map.w, copy.data());
          out.push_back(std::move(copy));
        }
      }
    }
  });
  return masks;
}

}  // namespace salnov::saliency
