#include "nn/sequential.hpp"

#include <stdexcept>
#include <utility>

#include "nn/conv2d.hpp"
#include "nn/dense.hpp"

namespace salnov::nn {

namespace {

// In inference mode a Dense/Conv2d immediately followed by a ReLU can run
// with the ReLU fused into the GEMM epilogue. max(v, 0) at the store is
// bit-identical to a separate ReLU pass, so fusion is purely a perf change.
// Returns true (and writes `out`) if layers [i, i+1] were fused.
bool try_fused_infer(const std::vector<std::unique_ptr<Layer>>& layers, size_t i,
                     const Tensor& input, Tensor& out) {
  if (i + 1 >= layers.size() || layers[i + 1]->type_name() != "relu") return false;
  if (auto* dense = dynamic_cast<Dense*>(layers[i].get())) {
    out = dense->forward_infer_fused_relu(input);
    return true;
  }
  if (auto* conv = dynamic_cast<Conv2d*>(layers[i].get())) {
    out = conv->forward_infer_fused_relu(input);
    return true;
  }
  return false;
}

}  // namespace

Sequential& Sequential::add(std::unique_ptr<Layer> layer) {
  if (!layer) throw std::invalid_argument("Sequential::add: null layer");
  layers_.push_back(std::move(layer));
  return *this;
}

Tensor Sequential::forward(const Tensor& input, Mode mode) {
  Tensor current = input;
  if (mode == Mode::kInfer) {
    for (size_t i = 0; i < layers_.size(); ++i) {
      Tensor fused;
      if (try_fused_infer(layers_, i, current, fused)) {
        current = std::move(fused);
        ++i;  // the ReLU ran inside the GEMM epilogue
      } else {
        current = layers_[i]->forward(current, mode);
      }
    }
    return current;
  }
  for (auto& layer : layers_) current = layer->forward(current, mode);
  return current;
}

std::vector<Tensor> Sequential::forward_collect(const Tensor& input) const {
  std::vector<Tensor> activations;
  activations.reserve(layers_.size());
  for (const auto& layer : layers_) {
    // Each layer reads the slot its predecessor just filled (no copies).
    // forward() is non-const on Layer because of training caches; inference
    // mode leaves caches untouched, making this call logically const.
    const Tensor& in = activations.empty() ? input : activations.back();
    Tensor out = const_cast<Layer&>(*layer).forward(in, Mode::kInfer);
    activations.push_back(std::move(out));
  }
  return activations;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  Tensor grad = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    grad = (*it)->backward(grad);
  }
  return grad;
}

std::vector<Parameter*> Sequential::parameters() {
  std::vector<Parameter*> params;
  for (auto& layer : layers_) {
    for (Parameter* p : layer->parameters()) params.push_back(p);
  }
  return params;
}

void Sequential::zero_grad() {
  for (Parameter* p : parameters()) p->zero_grad();
}

Shape Sequential::output_shape(Shape input) const {
  for (const auto& layer : layers_) input = layer->output_shape(input);
  return input;
}

int64_t Sequential::parameter_count() { return nn::parameter_count(parameters()); }

}  // namespace salnov::nn
