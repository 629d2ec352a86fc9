// Unit tests for the saliency methods: VisualBackProp, gradient saliency,
// and layer-wise relevance propagation.
#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>

#include "driving/pilotnet.hpp"
#include "driving/steering_trainer.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/flatten.hpp"
#include "nn/pooling.hpp"
#include "roadsim/outdoor_generator.hpp"
#include "roadsim/rasterizer.hpp"
#include "saliency/gradient_saliency.hpp"
#include "saliency/lrp.hpp"
#include "saliency/visual_backprop.hpp"
#include "test_util.hpp"

namespace salnov::saliency {
namespace {

nn::Sequential tiny_model(Rng& rng, int64_t h = 24, int64_t w = 48) {
  return driving::build_pilotnet(driving::PilotNetConfig::tiny(h, w), rng);
}

TEST(DeconvOnes, Stride1ScattersWindowSums) {
  // A single unit at (0,0) expands to a k x k block of ones.
  Tensor map({1, 1}, {1.0f});
  const Tensor out = deconv_ones(map, 3, 3, 1, 0, 3, 3);
  for (int64_t i = 0; i < 9; ++i) EXPECT_FLOAT_EQ(out[i], 1.0f);
}

TEST(DeconvOnes, StrideSpacesContributions) {
  Tensor map({2, 1}, {1.0f, 1.0f});
  const Tensor out = deconv_ones(map, 1, 1, 2, 0, 3, 1);
  EXPECT_FLOAT_EQ(out[0], 1.0f);
  EXPECT_FLOAT_EQ(out[1], 0.0f);
  EXPECT_FLOAT_EQ(out[2], 1.0f);
}

TEST(DeconvOnes, OverlapAccumulates) {
  Tensor map({1, 2}, {1.0f, 1.0f});
  // kernel 3 stride 1: columns 0..2 and 1..3 overlap at 1..2.
  const Tensor out = deconv_ones(map, 1, 3, 1, 0, 1, 4);
  EXPECT_FLOAT_EQ(out[0], 1.0f);
  EXPECT_FLOAT_EQ(out[1], 2.0f);
  EXPECT_FLOAT_EQ(out[2], 2.0f);
  EXPECT_FLOAT_EQ(out[3], 1.0f);
}

TEST(DeconvOnes, ClipsToTargetSize) {
  Tensor map({2, 2}, {1, 1, 1, 1});
  // Transposed-size would be 5x5; we ask for 4x4 and drop the overflow.
  const Tensor out = deconv_ones(map, 3, 3, 2, 0, 4, 4);
  EXPECT_EQ(out.shape(), (Shape{4, 4}));
}

TEST(DeconvOnes, PaddingShiftsBack) {
  Tensor map({1, 1}, {1.0f});
  const Tensor out = deconv_ones(map, 3, 3, 1, 1, 1, 1);
  EXPECT_FLOAT_EQ(out[0], 1.0f);  // center tap lands at (0,0) with pad 1
}

TEST(DeconvOnes, RejectsNonMatrix) {
  EXPECT_THROW(deconv_ones(Tensor({2, 2, 2}), 3, 3, 1, 0, 4, 4), std::invalid_argument);
}

TEST(DeconvOnes, RejectsStrideBelowOne) {
  const Tensor map({2, 2}, {1, 1, 1, 1});
  EXPECT_THROW(deconv_ones(map, 3, 3, 0, 0, 4, 4), std::invalid_argument);
  EXPECT_THROW(deconv_ones(map, 3, 3, -1, 0, 4, 4), std::invalid_argument);
}

TEST(DeconvOnes, RejectsKernelBelowOne) {
  const Tensor map({2, 2}, {1, 1, 1, 1});
  EXPECT_THROW(deconv_ones(map, 0, 3, 1, 0, 4, 4), std::invalid_argument);
  EXPECT_THROW(deconv_ones(map, 3, 0, 1, 0, 4, 4), std::invalid_argument);
  EXPECT_THROW(deconv_ones(map, -3, 3, 1, 0, 4, 4), std::invalid_argument);
}

TEST(DeconvOnes, RejectsNegativePadding) {
  const Tensor map({2, 2}, {1, 1, 1, 1});
  EXPECT_THROW(deconv_ones(map, 3, 3, 1, -1, 4, 4), std::invalid_argument);
}

TEST(DeconvOnes, RejectsNonPositiveOutputSize) {
  const Tensor map({2, 2}, {1, 1, 1, 1});
  EXPECT_THROW(deconv_ones(map, 3, 3, 1, 0, 0, 4), std::invalid_argument);
  EXPECT_THROW(deconv_ones(map, 3, 3, 1, 0, 4, 0), std::invalid_argument);
  EXPECT_THROW(deconv_ones(map, 3, 3, 1, 0, -4, 4), std::invalid_argument);
}

TEST(DeconvOnes, ConservesMassTimesKernelAreaWhenUnclipped) {
  // Each input value is scattered into kh*kw output cells; with a target
  // large enough that nothing clips, sum(out) = sum(in) * kh * kw.
  Rng rng(100);
  const Tensor map = rng.uniform_tensor({3, 4}, 0.0, 1.0);
  const Tensor out = deconv_ones(map, 3, 5, 2, 0, 3 * 2 + 3, 4 * 2 + 5);
  EXPECT_NEAR(out.sum(), map.sum() * 3.0f * 5.0f, 1e-3f);
}

TEST(DeconvOnes, ZeroMapStaysZero) {
  const Tensor out = deconv_ones(Tensor::zeros({4, 4}), 3, 3, 1, 0, 6, 6);
  EXPECT_FLOAT_EQ(out.squared_norm(), 0.0f);
}

TEST(Vbp, MaskHasInputResolutionAndUnitRange) {
  Rng rng(1);
  nn::Sequential model = tiny_model(rng);
  VisualBackProp vbp;
  Rng img_rng(2);
  const Image input(24, 48, img_rng.uniform_tensor({24 * 48}, 0.0, 1.0));
  const Image mask = vbp.compute(model, input);
  EXPECT_EQ(mask.height(), 24);
  EXPECT_EQ(mask.width(), 48);
  EXPECT_GE(mask.min(), 0.0f);
  EXPECT_LE(mask.max(), 1.0f);
}

TEST(Vbp, AveragedMapsMatchStageCount) {
  Rng rng(3);
  nn::Sequential model = tiny_model(rng);
  const Image input(24, 48);
  std::vector<std::vector<Tensor>> maps;
  VisualBackProp::masks_from_activations(model, model.forward_collect(input.as_nchw()), 24, 48,
                                         &maps);
  ASSERT_EQ(maps.size(), 1u);
  EXPECT_EQ(maps[0].size(), driving::conv_stage_outputs(model).size());
}

TEST(Vbp, RequiresConvStages) {
  Rng rng(4);
  nn::Sequential dense_only;
  dense_only.emplace<nn::Dense>(4, 2, rng);
  VisualBackProp vbp;
  EXPECT_THROW(vbp.compute(dense_only, Image(2, 2)), std::invalid_argument);
}

TEST(Vbp, DeterministicForSameInput) {
  Rng rng(5);
  nn::Sequential model = tiny_model(rng);
  VisualBackProp vbp;
  Rng img_rng(6);
  const Image input(24, 48, img_rng.uniform_tensor({24 * 48}, 0.0, 1.0));
  const Image a = vbp.compute(model, input);
  const Image b = vbp.compute(model, input);
  EXPECT_EQ(a.tensor(), b.tensor());
}

TEST(Vbp, MaskDependsOnWhatTheModelLearned) {
  // The mechanical core of the paper's Fig. 2 claim: VBP masks are a
  // function of the *learned weights*, not just the input — the same
  // architecture trained on real vs random labels produces substantially
  // different masks for the same image. (The paper's visual claim — that
  // the real-label mask traces the road — is inherently qualitative; the
  // quantitative road-alignment proxies are reported, not asserted, by
  // bench_fig2_vbp_meaning, because they are noisy across training runs on
  // synthetic scenes.)
  constexpr int64_t kH = 24, kW = 48;
  roadsim::OutdoorSceneGenerator gen;
  Rng rng(10);
  const auto dataset = roadsim::DrivingDataset::generate(gen, 100, kH, kW, rng);

  nn::Sequential trained = tiny_model(rng, kH, kW);
  nn::Sequential random = tiny_model(rng, kH, kW);
  driving::SteeringTrainOptions options;
  options.epochs = 20;
  options.learning_rate = 2e-3;
  driving::train_steering_model(trained, dataset, options, rng);
  options.randomize_labels = true;
  driving::train_steering_model(random, dataset, options, rng);

  VisualBackProp vbp;
  double mean_diff = 0.0;
  const int images = 8;
  for (int i = 0; i < images; ++i) {
    const Image a = vbp.compute(trained, dataset.image(i));
    const Image b = vbp.compute(random, dataset.image(i));
    mean_diff += Tensor::max_abs_diff(a.tensor(), b.tensor());
  }
  // Both masks are min-max normalized to [0, 1]; materially different
  // saliency shows up as a large per-image peak difference.
  EXPECT_GT(mean_diff / images, 0.3);
}

TEST(GradientSaliencyTest, MaskShapeAndRange) {
  Rng rng(8);
  nn::Sequential model = tiny_model(rng);
  GradientSaliency gradient;
  Rng img_rng(9);
  const Image input(24, 48, img_rng.uniform_tensor({24 * 48}, 0.0, 1.0));
  const Image mask = gradient.compute(model, input);
  EXPECT_EQ(mask.height(), 24);
  EXPECT_GE(mask.min(), 0.0f);
  EXPECT_LE(mask.max(), 1.0f);
}

TEST(GradientSaliencyTest, LeavesParameterGradientsClean) {
  Rng rng(10);
  nn::Sequential model = tiny_model(rng);
  GradientSaliency gradient;
  gradient.compute(model, Image(24, 48));
  for (nn::Parameter* p : model.parameters()) {
    EXPECT_FLOAT_EQ(p->grad.squared_norm(), 0.0f) << p->name;
  }
}

TEST(GradientSaliencyTest, RequiresScalarOutput) {
  Rng rng(11);
  nn::Sequential model;
  nn::Conv2dConfig cfg{1, 2, 3, 3, 1, 0};
  model.emplace<nn::Conv2d>(cfg, rng);
  GradientSaliency gradient;
  EXPECT_THROW(gradient.compute(model, Image(6, 6)), std::invalid_argument);
}

TEST(Lrp, MaskShapeAndRange) {
  Rng rng(12);
  nn::Sequential model = tiny_model(rng);
  LayerwiseRelevancePropagation lrp;
  Rng img_rng(13);
  const Image input(24, 48, img_rng.uniform_tensor({24 * 48}, 0.0, 1.0));
  const Image mask = lrp.compute(model, input);
  EXPECT_EQ(mask.height(), 24);
  EXPECT_GE(mask.min(), 0.0f);
  EXPECT_LE(mask.max(), 1.0f);
}

TEST(Lrp, ConservationOnBiasFreeConvNet) {
  Rng rng(15);
  nn::Sequential model;
  nn::Conv2dConfig cfg{1, 3, 3, 3, 1, 0};
  model.emplace<nn::Conv2d>(cfg, rng.uniform_tensor({3, 1, 3, 3}, -0.5, 0.5), Tensor::zeros({3}));
  model.emplace<nn::ReLU>();
  model.emplace<nn::Flatten>();
  model.emplace<nn::Dense>(rng.uniform_tensor({3 * 4 * 4, 1}, -0.5, 0.5), Tensor::zeros({1}));

  LayerwiseRelevancePropagation lrp(1e-9);
  const Image input(6, 6, rng.uniform_tensor({36}, 0.1, 1.0));
  const Tensor r = lrp.relevance(model, input);
  const double output = model.forward(input.as_nchw(), nn::Mode::kInfer)[0];
  EXPECT_NEAR(r.sum(), output, std::abs(output) * 0.05 + 1e-4);
}

TEST(Lrp, HandlesMaxPool) {
  Rng rng(16);
  nn::Sequential model;
  nn::Conv2dConfig cfg{1, 2, 3, 3, 1, 0};
  model.emplace<nn::Conv2d>(cfg, rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::MaxPool2d>(2, 2);
  model.emplace<nn::Flatten>();
  model.emplace<nn::Dense>(2 * 3 * 3, 1, rng);
  LayerwiseRelevancePropagation lrp;
  const Image input(8, 8, rng.uniform_tensor({64}, 0.0, 1.0));
  const Image mask = lrp.compute(model, input);
  EXPECT_EQ(mask.height(), 8);
}

TEST(SaliencySpeed, VbpFasterThanLrp) {
  // The paper's §III-B claim, at test scale: VBP should beat LRP clearly
  // (the full benches measure the paper-scale gap).
  Rng rng(17);
  nn::Sequential model =
      driving::build_pilotnet(driving::PilotNetConfig::compact(), rng);
  Rng img_rng(18);
  const Image input(60, 160, img_rng.uniform_tensor({60 * 160}, 0.0, 1.0));

  VisualBackProp vbp;
  LayerwiseRelevancePropagation lrp;
  vbp.compute(model, input);  // warm up
  lrp.compute(model, input);
  // Best-of-3 timing damps scheduler noise on a busy single core.
  auto best_of_3 = [&](auto&& fn) {
    int64_t best = std::numeric_limits<int64_t>::max();
    for (int i = 0; i < 3; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      fn();
      const auto t1 = std::chrono::steady_clock::now();
      best = std::min(best,
                      std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count());
    }
    return best;
  };
  const int64_t vbp_us = best_of_3([&] { vbp.compute(model, input); });
  const int64_t lrp_us = best_of_3([&] { lrp.compute(model, input); });
  EXPECT_LT(vbp_us * 2, lrp_us);
}

TEST(MaskEnergyFraction, UniformMaskScoresAreaFraction) {
  Image mask(10, 10);
  mask.tensor().fill(1.0f);
  Image relevance(10, 10);
  for (int64_t x = 0; x < 10; ++x) relevance(0, x) = 1.0f;  // 10% of pixels
  EXPECT_NEAR(mask_energy_fraction(mask, relevance), 0.1, 1e-9);
}

TEST(MaskEnergyFraction, ConcentratedMaskScoresHigh) {
  Image mask(10, 10);
  Image relevance(10, 10);
  for (int64_t x = 0; x < 10; ++x) {
    relevance(0, x) = 1.0f;
    mask(0, x) = 1.0f;
  }
  EXPECT_NEAR(mask_energy_fraction(mask, relevance), 1.0, 1e-9);
}

TEST(MaskEnergyFraction, EmptyMaskScoresZero) {
  Image mask(4, 4);
  Image relevance(4, 4);
  relevance(0, 0) = 1.0f;
  EXPECT_DOUBLE_EQ(mask_energy_fraction(mask, relevance), 0.0);
}

TEST(MaskEnergyFraction, SizeMismatchThrows) {
  EXPECT_THROW(mask_energy_fraction(Image(2, 2), Image(3, 3)), std::invalid_argument);
}

TEST(TopkPrecision, PerfectWhenBrightestPixelsAreRelevant) {
  Image mask(10, 10);
  Image relevance(10, 10);
  for (int64_t x = 0; x < 5; ++x) {
    mask(0, x) = 1.0f;
    relevance(0, x) = 1.0f;
  }
  EXPECT_DOUBLE_EQ(topk_precision(mask, relevance, 0.05), 1.0);
}

TEST(TopkPrecision, ZeroWhenBrightestPixelsMissRelevance) {
  Image mask(10, 10);
  Image relevance(10, 10);
  for (int64_t x = 0; x < 5; ++x) mask(0, x) = 1.0f;
  for (int64_t x = 0; x < 5; ++x) relevance(9, x) = 1.0f;
  EXPECT_DOUBLE_EQ(topk_precision(mask, relevance, 0.05), 0.0);
}

TEST(TopkPrecision, UniformMaskScoresNearAreaFraction) {
  // With a constant mask the "top" pixels are arbitrary; precision is the
  // relevance area fraction in expectation. Use a graded mask to fix order.
  Image mask(10, 10);
  for (int64_t i = 0; i < mask.numel(); ++i) mask.tensor()[i] = static_cast<float>(i);
  Image relevance(10, 10);
  for (int64_t i = 80; i < 100; ++i) relevance.tensor()[i] = 1.0f;  // top-20 pixels by value
  EXPECT_DOUBLE_EQ(topk_precision(mask, relevance, 0.20), 1.0);
  EXPECT_DOUBLE_EQ(topk_precision(mask, relevance, 0.40), 0.5);
}

TEST(TopkPrecision, ValidatesArguments) {
  EXPECT_THROW(topk_precision(Image(2, 2), Image(3, 3), 0.1), std::invalid_argument);
  EXPECT_THROW(topk_precision(Image(2, 2), Image(2, 2), 0.0), std::invalid_argument);
  EXPECT_THROW(topk_precision(Image(2, 2), Image(2, 2), 1.5), std::invalid_argument);
}

TEST(Dilate, RadiusZeroIsIdentity) {
  Image mask(4, 4);
  mask(1, 2) = 1.0f;
  const Image out = dilate(mask, 0);
  EXPECT_EQ(out.tensor(), mask.tensor());
}

TEST(Dilate, GrowsSinglePixelToSquare) {
  Image mask(5, 5);
  mask(2, 2) = 1.0f;
  const Image out = dilate(mask, 1);
  double on = 0.0;
  for (int64_t i = 0; i < out.numel(); ++i) on += out.tensor()[i];
  EXPECT_DOUBLE_EQ(on, 9.0);
  EXPECT_FLOAT_EQ(out(1, 1), 1.0f);
  EXPECT_FLOAT_EQ(out(3, 3), 1.0f);
  EXPECT_FLOAT_EQ(out(0, 0), 0.0f);
}

TEST(Dilate, ClampsAtBorders) {
  Image mask(3, 3);
  mask(0, 0) = 1.0f;
  const Image out = dilate(mask, 1);
  EXPECT_FLOAT_EQ(out(1, 1), 1.0f);
  EXPECT_FLOAT_EQ(out(2, 2), 0.0f);
}

TEST(Dilate, NegativeRadiusThrows) { EXPECT_THROW(dilate(Image(2, 2), -1), std::invalid_argument); }

}  // namespace
}  // namespace salnov::saliency
