#include "nn/quantized.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "tensor/workspace.hpp"

namespace salnov::nn {
namespace {

/// w -> clamp(round(w / sw), -127, 127), symmetric (no zero point).
inline int8_t quantize_s8(float v, float sw) {
  const long q = std::lrintf(v / sw);
  return static_cast<int8_t>(q < -127 ? -127 : (q > 127 ? 127 : q));
}

inline float max_abs(const float* data, int64_t count) {
  float m = 0.0f;
  for (int64_t i = 0; i < count; ++i) {
    const float a = std::fabs(data[i]);
    if (a > m) m = a;
  }
  return m;
}

bool is_quantizable(const Layer& layer) {
  return dynamic_cast<const Dense*>(&layer) != nullptr ||
         dynamic_cast<const Conv2d*>(&layer) != nullptr;
}

const Parameter& quant_weight(const Layer& layer, bool is_conv) {
  return is_conv ? static_cast<const Conv2d&>(layer).weight()
                 : static_cast<const Dense&>(layer).weight();
}

/// Bytes past the end of im2col_bytes' plane and cols buffers that its
/// word-sized copies may read or write.
constexpr int64_t kIm2colSlack = 8;

/// Quantize-once im2col for one sample. Quantizes the [in_c, in_h, in_w]
/// input into `plane`, a u8 copy with a `padding`-wide zero border
/// (quantize_u8(0) == 0, so the border is the conv's zero padding in the
/// integer domain), touching each input element once. Then gathers each
/// output position's patch bytes into row p of `cols`, rows `lda` =
/// quant_a_stride(patch) bytes apart with zeroed padding: the int8 GEMM's
/// A layout, which it reads in place.
void im2col_bytes(const float* x, const Conv2dConfig& cfg, int64_t in_h, int64_t in_w,
                  int64_t out_h, int64_t out_w, float inv_sx, uint8_t* plane, uint8_t* cols) {
  // Locals, not cfg reads: the byte stores below may alias anything.
  const int64_t in_c = cfg.in_channels;
  const int64_t kernel_h = cfg.kernel_h;
  const int64_t kernel_w = cfg.kernel_w;
  const int64_t stride = cfg.stride;
  const int64_t pad = cfg.padding;
  const int64_t ph = in_h + 2 * pad;
  const int64_t pw = in_w + 2 * pad;
  std::memset(plane, 0, static_cast<size_t>(in_c * ph * pw));
  for (int64_t c = 0; c < in_c; ++c) {
    for (int64_t y = 0; y < in_h; ++y) {
      const float* src = x + (c * in_h + y) * in_w;
      uint8_t* dst = plane + (c * ph + y + pad) * pw + pad;
      for (int64_t xx = 0; xx < in_w; ++xx) dst[xx] = quantize_u8(src[xx], inv_sx);
    }
  }
  const int64_t lda = quant_a_stride(in_c * kernel_h * kernel_w);
  const uint32_t zero = 0;
  for (int64_t oy = 0; oy < out_h; ++oy) {
    for (int64_t ox = 0; ox < out_w; ++ox) {
      uint8_t* row = cols + (oy * out_w + ox) * lda;
      const uint8_t* window = plane + oy * stride * pw + ox * stride;
      // Whole words: each copy's overshoot lands where a later store of
      // this or the next row writes, or in the buffers' kIm2colSlack.
      for (int64_t c = 0; c < in_c; ++c) {
        for (int64_t kh = 0; kh < kernel_h; ++kh) {
          const uint8_t* src = window + (c * ph + kh) * pw;
          for (int64_t t = 0; t < kernel_w; t += 8) std::memcpy(row + t, src + t, 8);
          row += kernel_w;
        }
      }
      std::memcpy(row, &zero, sizeof(zero));  // the < 4 padding bytes
    }
  }
}

}  // namespace

QuantizedForward::QuantizedForward(const Sequential& model, QuantScales scales)
    : model_(model), scales_(std::move(scales)) {
  layer_slot_.assign(model.size(), -1);
  for (size_t i = 0; i < model.size(); ++i) {
    const Layer& layer = model.layer(i);
    const auto* conv = dynamic_cast<const Conv2d*>(&layer);
    if (conv == nullptr && dynamic_cast<const Dense*>(&layer) == nullptr) continue;
    layer_slot_[i] = static_cast<int>(layers_.size());
    QuantLayer ql;
    ql.layer = &layer;
    ql.is_conv = conv != nullptr;
    ql.bias = conv != nullptr ? conv->bias().value.data()
                              : static_cast<const Dense&>(layer).bias().value.data();
    layers_.push_back(std::move(ql));
  }
  if (scales_.act_scales.size() != layers_.size()) {
    throw std::invalid_argument("QuantizedForward: scale count does not match quantizable layers");
  }
  for (size_t s = 0; s < layers_.size(); ++s) {
    const float sx = scales_.act_scales[s];
    if (!std::isfinite(sx) || sx <= 0.0f) {
      throw std::invalid_argument("QuantizedForward: activation scales must be positive finite");
    }
    layers_[s].act_scale = sx;
    layers_[s].inv_act_scale = 1.0f / sx;
  }
}

int64_t QuantizedForward::count_quantizable(const Sequential& model) {
  int64_t count = 0;
  for (size_t i = 0; i < model.size(); ++i) {
    if (is_quantizable(model.layer(i))) ++count;
  }
  return count;
}

QuantScales QuantizedForward::calibrate(const Sequential& model,
                                        const std::vector<const Tensor*>& inputs) {
  if (inputs.empty()) {
    throw std::invalid_argument("QuantizedForward::calibrate: no calibration inputs");
  }
  std::vector<float> act_max(static_cast<size_t>(count_quantizable(model)), 0.0f);
  for (const Tensor* input : inputs) {
    Tensor cur = *input;
    size_t slot = 0;
    for (size_t i = 0; i < model.size(); ++i) {
      // forward_collect semantics: unfused per-layer inference forwards,
      // which are bit-identical to the fused chain.
      Layer& layer = const_cast<Layer&>(model.layer(i));
      if (is_quantizable(layer)) {
        const float m = max_abs(cur.data(), cur.numel());
        if (m > act_max[slot]) act_max[slot] = m;
        ++slot;
      }
      cur = layer.forward(cur, Mode::kInfer);
    }
  }
  QuantScales scales;
  scales.act_scales.reserve(act_max.size());
  for (const float m : act_max) {
    scales.act_scales.push_back(m > 0.0f ? m / 127.0f : 1.0f);
  }
  return scales;
}

void QuantizedForward::ensure_fresh() const {
  if (layers_.empty()) return;
  uint64_t sum = 0;
  for (const QuantLayer& ql : layers_) {
    sum += quant_weight(*ql.layer, ql.is_conv).version + 1;
  }
  // Versions only grow, so the sum is strictly monotone in any mutation and
  // cannot alias a stale state.
  if (version_stamp_.load(std::memory_order_acquire) == sum) return;
  std::lock_guard<std::mutex> lock(requant_mutex_);
  uint64_t locked_sum = 0;
  for (QuantLayer& ql : layers_) {
    const uint64_t v = quant_weight(*ql.layer, ql.is_conv).version + 1;
    locked_sum += v;
    if (ql.weight_version != v) requantize(ql);
  }
  version_stamp_.store(locked_sum, std::memory_order_release);
}

void QuantizedForward::requantize(QuantLayer& ql) {
  const Parameter& wp = ql.is_conv ? static_cast<const Conv2d*>(ql.layer)->weight()
                                   : static_cast<const Dense*>(ql.layer)->weight();
  const Tensor& w = wp.value;
  const float wmax = max_abs(w.data(), w.numel());
  ql.weight_scale = wmax > 0.0f ? wmax / 127.0f : 1.0f;
  ql.dequant_scale = ql.act_scale * ql.weight_scale;
  int64_t k = 0;
  int64_t n = 0;
  if (ql.is_conv) {
    // Weight [out_c, in_c, kh, kw] -> GEMM B [patch, out_c] (transposed so
    // the positions-by-patch im2col multiplies straight through).
    const int64_t out_c = w.dim(0);
    const int64_t patch = w.numel() / out_c;
    k = patch;
    n = out_c;
    ql.weight_q.resize(static_cast<size_t>(k * n));
    const float* wd = w.data();
    for (int64_t oc = 0; oc < out_c; ++oc) {
      for (int64_t p = 0; p < patch; ++p) {
        ql.weight_q[static_cast<size_t>(p * n + oc)] =
            quantize_s8(wd[oc * patch + p], ql.weight_scale);
      }
    }
  } else {
    // Dense weight is already the [in, out] GEMM B operand.
    k = w.dim(0);
    n = w.dim(1);
    ql.weight_q.resize(static_cast<size_t>(k * n));
    const float* wd = w.data();
    for (int64_t i = 0; i < k * n; ++i) ql.weight_q[static_cast<size_t>(i)] =
        quantize_s8(wd[i], ql.weight_scale);
  }
  ql.packed = pack_quant_b(ql.weight_q.data(), k, n);
  ql.weight_version = wp.version + 1;
}

void QuantizedForward::forward_quant_dense(const QuantLayer& ql, const Tensor& input, Tensor* out,
                                           Tensor* relu_out) const {
  const auto& dense = static_cast<const Dense&>(*ql.layer);
  const int64_t k = dense.in_features();
  const int64_t n = dense.out_features();
  if (input.rank() != 2 || input.dim(1) != k) {
    throw std::invalid_argument("QuantizedForward: dense input must be [batch, in_features]");
  }
  const int64_t batch = input.dim(0);
  WorkspaceScope scope;
  auto* a_q = reinterpret_cast<uint8_t*>(scope.floats((batch * k + 3) / 4));
  const float* x = input.data();
  for (int64_t i = 0; i < batch * k; ++i) a_q[i] = quantize_u8(x[i], ql.inv_act_scale);
  const QuantEpilogue epi{ql.dequant_scale, ql.bias, out == nullptr};
  Tensor& dst = out != nullptr ? *out : *relu_out;
  dst = Tensor({batch, n});
  gemm_u8s8_dequant(a_q, ql.weight_q.data(), dst.data(), batch, n, k, epi, &ql.packed);
  if (out != nullptr && relu_out != nullptr) {
    *relu_out = *out;
    relu_out->apply([](float v) { return v > 0.0f ? v : 0.0f; });
  }
}

void QuantizedForward::forward_quant_conv(const QuantLayer& ql, const Tensor& input, Tensor* out,
                                          Tensor* relu_out) const {
  const auto& conv = static_cast<const Conv2d&>(*ql.layer);
  const Conv2dConfig& cfg = conv.config();
  if (input.rank() != 4 || input.dim(1) != cfg.in_channels) {
    throw std::invalid_argument("QuantizedForward: conv input must be [batch, in_c, h, w]");
  }
  const int64_t batch = input.dim(0);
  const int64_t in_h = input.dim(2);
  const int64_t in_w = input.dim(3);
  const int64_t out_h = conv.out_size(in_h, cfg.kernel_h);
  const int64_t out_w = conv.out_size(in_w, cfg.kernel_w);
  const int64_t positions = out_h * out_w;
  const int64_t patch = cfg.in_channels * cfg.kernel_h * cfg.kernel_w;
  const int64_t lda = quant_a_stride(patch);
  const int64_t plane_bytes =
      cfg.in_channels * (in_h + 2 * cfg.padding) * (in_w + 2 * cfg.padding);
  const int64_t out_c = cfg.out_channels;
  if (out != nullptr) *out = Tensor({batch, out_c, out_h, out_w});
  if (relu_out != nullptr) *relu_out = Tensor({batch, out_c, out_h, out_w});
  const QuantEpilogue epi{ql.dequant_scale, ql.bias, out == nullptr};
  for (int64_t b = 0; b < batch; ++b) {
    WorkspaceScope scope;
    auto* plane =
        reinterpret_cast<uint8_t*>(scope.floats((plane_bytes + kIm2colSlack + 3) / 4));
    auto* cols =
        reinterpret_cast<uint8_t*>(scope.floats((positions * lda + kIm2colSlack) / 4));
    im2col_bytes(input.data() + b * cfg.in_channels * in_h * in_w, cfg, in_h, in_w, out_h, out_w,
                 ql.inv_act_scale, plane, cols);
    // GEMM result is [positions, out_c]; the output tensor wants
    // [out_c, positions] per sample, so dequantize into scratch and
    // transpose at the copy, which also fills the ReLU slot when both are
    // collected.
    float* tmp = scope.floats(positions * out_c);
    gemm_u8s8_dequant(cols, ql.weight_q.data(), tmp, positions, out_c, patch, epi, &ql.packed,
                      lda);
    // Channel-major so the stores are contiguous and the ReLU select
    // vectorizes (branch-free) instead of branching per element.
    const int64_t offset = b * out_c * positions;
    float* dst = (out != nullptr ? out->data() : relu_out->data()) + offset;
    float* relu_dst = out != nullptr && relu_out != nullptr ? relu_out->data() + offset : nullptr;
    for (int64_t oc = 0; oc < out_c; ++oc) {
      const float* src = tmp + oc;
      float* d = dst + oc * positions;
      if (relu_dst == nullptr) {
        for (int64_t p = 0; p < positions; ++p) d[p] = src[p * out_c];
        continue;
      }
      float* r = relu_dst + oc * positions;
      for (int64_t p = 0; p < positions; ++p) {
        const float v = src[p * out_c];
        d[p] = v;
        r[p] = v > 0.0f ? v : 0.0f;
      }
    }
  }
}

void QuantizedForward::forward_quant(const QuantLayer& ql, const Tensor& input, Tensor* out,
                                     Tensor* relu_out) const {
  if (ql.is_conv) {
    forward_quant_conv(ql, input, out, relu_out);
  } else {
    forward_quant_dense(ql, input, out, relu_out);
  }
}

std::vector<Tensor> QuantizedForward::run(const Tensor& input, bool collect) const {
  ensure_fresh();
  // Each layer reads the previous output in place (`x`): collected outputs
  // are moved into `outputs` (reserved, so `x` stays valid), the others
  // into `cur`. No activation is copied.
  std::vector<Tensor> outputs;
  outputs.reserve(collect ? model_.size() : 1);
  Tensor cur;
  const Tensor* x = &input;
  const auto emit = [&](Tensor&& t) {
    if (collect) {
      outputs.push_back(std::move(t));
      x = &outputs.back();
    } else {
      cur = std::move(t);
      x = &cur;
    }
  };
  for (size_t i = 0; i < model_.size(); ++i) {
    const int slot = layer_slot_[i];
    if (slot < 0) {
      emit(const_cast<Layer&>(model_.layer(i)).forward(*x, Mode::kInfer));
      continue;
    }
    const QuantLayer& ql = layers_[static_cast<size_t>(slot)];
    // Mirrors Sequential's fused inference: a ReLU right after a Dense /
    // Conv2d runs in the dequant epilogue. Its v > 0 ? v : 0 (max with 0
    // in the SIMD stores) is ReLU::forward's expression, so the fused
    // chain is bit-identical to running the ReLU layer.
    // forward_collect also keeps the layer's own (pre-ReLU) output.
    const bool relu_next =
        i + 1 < model_.size() && model_.layer(i + 1).type_name() == "relu";
    Tensor out;
    Tensor relu_out;
    forward_quant(ql, *x, relu_next && !collect ? nullptr : &out,
                  relu_next ? &relu_out : nullptr);
    if (!relu_next || collect) emit(std::move(out));
    if (relu_next) {
      emit(std::move(relu_out));
      ++i;  // the ReLU ran with the layer
    }
  }
  if (!collect) outputs.push_back(x == &input ? input : std::move(cur));
  return outputs;
}

Tensor QuantizedForward::forward(const Tensor& input) const {
  return std::move(run(input, false).back());
}

std::vector<Tensor> QuantizedForward::forward_collect(const Tensor& input) const {
  return run(input, true);
}

}  // namespace salnov::nn
