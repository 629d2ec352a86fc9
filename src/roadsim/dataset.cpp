#include "roadsim/dataset.hpp"

#include <numeric>
#include <stdexcept>

#include "image/transforms.hpp"
#include "parallel/parallel_for.hpp"

namespace salnov::roadsim {

DrivingDataset DrivingDataset::generate(const SceneGenerator& generator, int64_t count, int64_t height,
                                        int64_t width, Rng& rng) {
  if (count < 0) throw std::invalid_argument("DrivingDataset::generate: negative count");

  // Parameter sampling walks `rng` sequentially (the exact draws the old
  // serial loop made); rendering + grayscale + resize is a pure function of
  // the params, so scenes rasterize on the worker pool. The dataset is
  // bit-identical at any thread count — and to the fully serial path.
  std::vector<SceneParams> params(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) params[static_cast<size_t>(i)] = generator.sample_params(rng);

  std::vector<Image> grays(static_cast<size_t>(count));
  std::vector<double> steering(static_cast<size_t>(count));
  parallel::parallel_for(0, count, 1, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      Sample sample = generator.render_scene(params[static_cast<size_t>(i)]);
      Image gray = sample.rgb.to_grayscale();
      if (gray.height() != height || gray.width() != width) {
        gray = resize_bilinear(gray, height, width);
      }
      gray.clamp01();
      grays[static_cast<size_t>(i)] = std::move(gray);
      steering[static_cast<size_t>(i)] = sample.steering;
    }
  });

  DrivingDataset dataset(height, width);
  dataset.images_.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    const auto idx = static_cast<size_t>(i);
    dataset.add(std::move(grays[idx]), steering[idx], params[idx]);
  }
  return dataset;
}

void DrivingDataset::add(Image image, double steering_angle, const SceneParams& params) {
  if (images_.empty() && height_ == 0 && width_ == 0) {
    height_ = image.height();
    width_ = image.width();
  }
  if (image.height() != height_ || image.width() != width_) {
    throw std::invalid_argument("DrivingDataset::add: image size mismatch");
  }
  images_.push_back(std::move(image));
  steering_.push_back(steering_angle);
  params_.push_back(params);
}

std::pair<DrivingDataset, DrivingDataset> DrivingDataset::split(double train_fraction, Rng& rng) const {
  if (train_fraction < 0.0 || train_fraction > 1.0) {
    throw std::invalid_argument("DrivingDataset::split: fraction outside [0, 1]");
  }
  std::vector<int64_t> order(static_cast<size_t>(size()));
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  const auto train_count = static_cast<int64_t>(train_fraction * static_cast<double>(size()));
  DrivingDataset train(height_, width_);
  DrivingDataset test(height_, width_);
  for (int64_t i = 0; i < size(); ++i) {
    const auto idx = static_cast<size_t>(order[static_cast<size_t>(i)]);
    DrivingDataset& target = i < train_count ? train : test;
    target.add(images_[idx], steering_[idx], params_[idx]);
  }
  return {std::move(train), std::move(test)};
}

DrivingDataset DrivingDataset::sample(int64_t count, Rng& rng) const {
  if (count > size()) throw std::invalid_argument("DrivingDataset::sample: count exceeds dataset size");
  std::vector<int64_t> order(static_cast<size_t>(size()));
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  DrivingDataset subset(height_, width_);
  for (int64_t i = 0; i < count; ++i) {
    const auto idx = static_cast<size_t>(order[static_cast<size_t>(i)]);
    subset.add(images_[idx], steering_[idx], params_[idx]);
  }
  return subset;
}

DrivingDataset DrivingDataset::with_mirrored() const {
  DrivingDataset augmented(height_, width_);
  for (int64_t i = 0; i < size(); ++i) {
    const auto idx = static_cast<size_t>(i);
    augmented.add(images_[idx], steering_[idx], params_[idx]);
  }
  for (int64_t i = 0; i < size(); ++i) {
    const auto idx = static_cast<size_t>(i);
    SceneParams mirrored = params_[idx];
    mirrored.curvature = -mirrored.curvature;
    mirrored.camera_offset = -mirrored.camera_offset;
    augmented.add(flip_horizontal(images_[idx]), steering_for_scene(mirrored), mirrored);
  }
  return augmented;
}

Tensor DrivingDataset::images_nchw() const {
  if (images_.empty()) return Tensor({0, 1, height_, width_});
  return stack_frames(image_views(images_), "DrivingDataset");
}

Tensor DrivingDataset::images_flat() const {
  return images_nchw().reshape({size(), height_ * width_});
}

Tensor DrivingDataset::steering_tensor() const {
  Tensor out({size(), 1});
  for (int64_t i = 0; i < size(); ++i) out[i] = static_cast<float>(steering_[static_cast<size_t>(i)]);
  return out;
}

}  // namespace salnov::roadsim
