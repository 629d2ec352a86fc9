#include "image/image.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

namespace salnov {

Image::Image(int64_t height, int64_t width) : height_(height), width_(width), pixels_({height, width}) {
  if (height < 0 || width < 0) throw std::invalid_argument("Image: negative size");
}

Image::Image(int64_t height, int64_t width, Tensor pixels) : height_(height), width_(width) {
  if (pixels.numel() != height * width) {
    throw std::invalid_argument("Image: tensor has " + std::to_string(pixels.numel()) +
                                " elements, expected " + std::to_string(height * width));
  }
  pixels_ = std::move(pixels).reshape({height, width});
}

float Image::at_clamped(int64_t y, int64_t x) const {
  y = std::clamp<int64_t>(y, 0, height_ - 1);
  x = std::clamp<int64_t>(x, 0, width_ - 1);
  return pixels_[index(y, x)];
}

Image Image::from_tensor(int64_t height, int64_t width, const Tensor& t) {
  return Image(height, width, t);
}

void Image::clamp01() {
  pixels_.apply([](float v) { return std::clamp(v, 0.0f, 1.0f); });
}

void Image::normalize_minmax() {
  if (empty()) return;
  float* p = pixels_.data();
  const int64_t count = numel();
  // One pass with std::min_element / std::max_element semantics: strict
  // comparisons keep the first of equal values (which zero sign wins), and
  // a NaN is never picked unless it is the first element.
  float lo = p[0];
  float hi = p[0];
  for (int64_t i = 1; i < count; ++i) {
    lo = p[i] < lo ? p[i] : lo;
    hi = hi < p[i] ? p[i] : hi;
  }
  const float range = hi - lo;
  if (range <= 0.0f) {
    std::fill(p, p + count, 0.0f);
    return;
  }
  for (int64_t i = 0; i < count; ++i) p[i] = (p[i] - lo) / range;
}

Tensor stack_frames(const std::vector<const Image*>& frames, const char* who) {
  if (frames.empty()) throw std::invalid_argument(std::string(who) + ": empty batch");
  const Image* first = frames.front();
  if (first == nullptr) throw std::invalid_argument(std::string(who) + ": null frame in batch");
  const int64_t batch = static_cast<int64_t>(frames.size());
  const int64_t dim = first->numel();
  Tensor stacked({batch, 1, first->height(), first->width()});
  for (int64_t n = 0; n < batch; ++n) {
    const Image* frame = frames[static_cast<size_t>(n)];
    if (frame == nullptr) throw std::invalid_argument(std::string(who) + ": null frame in batch");
    if (!frame->same_size(*first)) {
      throw std::invalid_argument(std::string(who) + ": mixed image sizes in one batch");
    }
    std::memcpy(stacked.data() + n * dim, frame->tensor().data(),
                static_cast<size_t>(dim) * sizeof(float));
  }
  return stacked;
}

std::vector<Image> unstack_frames(const Tensor& stacked, int64_t height, int64_t width) {
  const int64_t dim = height * width;
  if (dim <= 0 || stacked.numel() % dim != 0) {
    throw std::invalid_argument("unstack_frames: " + shape_to_string(stacked.shape()) +
                                " does not hold whole " + std::to_string(height) + "x" +
                                std::to_string(width) + " frames");
  }
  const int64_t batch = stacked.numel() / dim;
  std::vector<Image> frames;
  frames.reserve(static_cast<size_t>(batch));
  for (int64_t n = 0; n < batch; ++n) {
    Tensor pixels({height, width});
    std::memcpy(pixels.data(), stacked.data() + n * dim, static_cast<size_t>(dim) * sizeof(float));
    frames.emplace_back(height, width, std::move(pixels));
  }
  return frames;
}

std::vector<const Image*> image_views(const std::vector<Image>& images) {
  std::vector<const Image*> views;
  views.reserve(images.size());
  for (const Image& image : images) views.push_back(&image);
  return views;
}

RgbImage::RgbImage(int64_t height, int64_t width)
    : height_(height), width_(width), pixels_({height, width, 3}) {
  if (height < 0 || width < 0) throw std::invalid_argument("RgbImage: negative size");
}

void RgbImage::set(int64_t y, int64_t x, float r, float g, float b) {
  pixels_[index(y, x, 0)] = r;
  pixels_[index(y, x, 1)] = g;
  pixels_[index(y, x, 2)] = b;
}

void RgbImage::clamp01() {
  pixels_.apply([](float v) { return std::clamp(v, 0.0f, 1.0f); });
}

Image RgbImage::to_grayscale() const {
  Image gray(height_, width_);
  for (int64_t y = 0; y < height_; ++y) {
    for (int64_t x = 0; x < width_; ++x) {
      gray(y, x) = 0.299f * (*this)(y, x, 0) + 0.587f * (*this)(y, x, 1) + 0.114f * (*this)(y, x, 2);
    }
  }
  return gray;
}

}  // namespace salnov
