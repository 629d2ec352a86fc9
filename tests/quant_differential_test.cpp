// Quantized-vs-float differential suite: the proof obligations behind the
// int8 scoring rungs (vbp+ssim-q8 / vbp+mse-q8).
//
// Two different guarantees are enforced, and it matters which is which:
//
//   1. DETERMINISM (bit-exact): the quantize -> exact-int32 GEMM -> fmaf
//      dequant chain performs the same correctly-rounded float ops per
//      element regardless of kernel, thread count, or batch size. So the
//      quantized path must be BIT-IDENTICAL across
//        * the scalar and SIMD int8 kernels (randomized GEMM shapes and
//          whole-model forwards),
//        * batch-1 and batch-B entries (steering, saliency, reconstruct),
//        * 1-thread and 4-thread runs,
//        * record and replay of a quantized-ladder trace under different
//          int8 kernels (score_tolerance 0).
//
//   2. BOUNDED DRIFT (analytic, not an arbitrary epsilon): per layer, the
//      quantized output may differ from the float output by at most the
//      propagated quantization-error bound
//        e_out <= k * (|W|_max * e_repr + act_max * sw/2 + e_repr * sw/2)
//      where e_repr = sx/2 + 2 * e_in folds the input's representation
//      error (rounding, plus clip slack when the accumulated drift pushes a
//      value past the calibrated max) and every non-quantized layer between
//      (ReLU, Sigmoid, Flatten) is 1-Lipschitz. The same recursion composed
//      through the model bounds the end-to-end reconstruction drift.
//
//   3. VERDICT AGREEMENT: on clearly-nominal and clearly-novel frames the
//      q8 rung (scored by the int8 forward against its own fitted ECDF
//      threshold) must reach the same novelty verdict as the float rung.
//      Frames whose score sits inside a small margin of either threshold
//      are exempt — drift may legitimately flip a coin-flip frame, which is
//      exactly why the rungs carry separate calibrations.
//
// Failures echo SALNOV_PROP_SEED for one-variable reproduction (tests/prop.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/novelty_detector.hpp"
#include "driving/pilotnet.hpp"
#include "driving/steering_trainer.hpp"
#include "int8_bands.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/quantized.hpp"
#include "parallel/parallel_for.hpp"
#include "prop.hpp"
#include "saliency/visual_backprop.hpp"
#include "tensor/gemm_int8.hpp"
#include "trace/trace.hpp"

namespace salnov {

/// Counterexample printer for frame batches (pixel dumps would be noise —
/// the replay seed is the reproduction path).
std::string describe(const std::vector<Image>& frames) {
  return "<" + std::to_string(frames.size()) + " frames>";
}

namespace {

using core::DetectorVariant;
using core::NoveltyDetector;
using core::NoveltyDetectorConfig;
using core::Preprocessing;
using core::ReconstructionScore;

constexpr int64_t kH = 16;
constexpr int64_t kW = 24;

/// Restores the ambient int8 kernel on scope exit (tests mutate the global).
struct Int8KernelGuard {
  GemmInt8Kernel saved = active_gemm_int8_kernel();
  ~Int8KernelGuard() { set_gemm_int8_kernel(saved); }
};

class QuantDifferentialFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(41);
    steering_ = new nn::Sequential(
        driving::build_pilotnet(driving::PilotNetConfig::tiny(kH, kW), rng));

    NoveltyDetectorConfig config;
    config.height = kH;
    config.width = kW;
    config.preprocessing = Preprocessing::kVbp;
    config.score = ReconstructionScore::kSsim;
    config.autoencoder = core::AutoencoderConfig::tiny(kH, kW);
    config.train_epochs = 10;
    detector_ = new NoveltyDetector(config);
    detector_->attach_steering_model(steering_);

    train_ = new std::vector<Image>();
    for (int i = 0; i < 24; ++i) train_->push_back(random_frame(rng, /*smooth=*/true));
    detector_->fit(*train_, rng);
    ASSERT_TRUE(detector_->has_quant_path());
    ASSERT_TRUE(detector_->has_quant_calibrations());
  }

  static void TearDownTestSuite() {
    delete train_;
    train_ = nullptr;
    delete detector_;
    detector_ = nullptr;
    delete steering_;
    steering_ = nullptr;
  }

  /// Smooth gradient (familiar) or uniform noise (novel), random parameters.
  static Image random_frame(Rng& rng, bool smooth) {
    Image img(kH, kW);
    if (smooth) {
      const double slope = rng.uniform(0.5, 1.5);
      const double offset = rng.uniform(0.0, 0.3);
      for (int64_t y = 0; y < kH; ++y) {
        for (int64_t x = 0; x < kW; ++x) {
          img(y, x) =
              static_cast<float>(offset + slope * (y + x) / static_cast<double>(kH + kW));
        }
      }
    } else {
      for (int64_t y = 0; y < kH; ++y) {
        for (int64_t x = 0; x < kW; ++x) img(y, x) = static_cast<float>(rng.uniform(0.0, 1.0));
      }
    }
    img.clamp01();
    return img;
  }

  static std::vector<const Image*> pointers(const std::vector<Image>& frames) {
    std::vector<const Image*> out;
    out.reserve(frames.size());
    for (const Image& frame : frames) out.push_back(&frame);
    return out;
  }

  static bool tensors_bitexact(const Tensor& a, const Tensor& b) { return a == b; }

  /// The analytic per-layer drift bound, propagated layer by layer through
  /// `model` on `input`. Checks every quantizable layer's quantized output
  /// against its float output and returns the end-to-end bound alongside
  /// the worst observed violation margin (<= 1 means within bound).
  struct DriftReport {
    double worst_ratio = 0.0;  ///< max over layers of observed / bound
    double final_bound = 0.0;  ///< propagated bound at the model output
    int worst_layer = -1;
  };

  static DriftReport layer_drift(const nn::Sequential& model, const nn::QuantizedForward& quant,
                                 const Tensor& input) {
    // Collect both chains. The quantized chain feeds each layer its own
    // (drifted) activations, so the bound must propagate input error.
    const std::vector<Tensor> fp = model.forward_collect(input);
    const std::vector<Tensor> q8 = quant.forward_collect(input);
    EXPECT_EQ(fp.size(), q8.size());

    DriftReport report;
    double e_in = 0.0;  // max-abs drift of the current activations
    size_t slot = 0;
    for (size_t i = 0; i < model.size(); ++i) {
      const nn::Layer& layer = model.layer(i);
      const auto* dense = dynamic_cast<const nn::Dense*>(&layer);
      const auto* conv = dynamic_cast<const nn::Conv2d*>(&layer);
      if (dense == nullptr && conv == nullptr) {
        // ReLU / Sigmoid / Tanh / Flatten: 1-Lipschitz (or exact), so the
        // drift cannot grow through them.
        continue;
      }
      const float sx = quant.scales().act_scales[slot];
      const Tensor& w = dense != nullptr ? dense->weight().value : conv->weight().value;
      float w_max = 0.0f;
      for (int64_t j = 0; j < w.numel(); ++j) w_max = std::max(w_max, std::fabs(w.data()[j]));
      const double sw = w_max > 0.0f ? static_cast<double>(w_max) / 127.0 : 1.0;
      const int64_t k = dense != nullptr ? dense->in_features()
                                         : conv->config().in_channels * conv->config().kernel_h *
                                               conv->config().kernel_w;
      // Input representation error: rounding (sx/2) plus clip slack — the
      // float value never exceeds the calibrated max (these are calibration
      // inputs), but the drifted value may by up to e_in, and clamping back
      // costs at most e_in again.
      const double e_repr = static_cast<double>(sx) / 2.0 + 2.0 * e_in;
      const double act_max = 127.0 * static_cast<double>(sx);
      const double bound =
          static_cast<double>(k) *
              (static_cast<double>(w_max) * e_repr + act_max * sw / 2.0 + e_repr * sw / 2.0) +
          1e-5;  // fp32 dequant rounding slack

      // Observed: compare this layer's outputs across the two chains.
      const Tensor& f_out = fp[i];
      const Tensor& q_out = q8[i];
      double observed = 0.0;
      for (int64_t j = 0; j < f_out.numel(); ++j) {
        observed = std::max(observed,
                            std::fabs(static_cast<double>(f_out.data()[j]) -
                                      static_cast<double>(q_out.data()[j])));
      }
      const double ratio = observed / bound;
      if (ratio > report.worst_ratio) {
        report.worst_ratio = ratio;
        report.worst_layer = static_cast<int>(i);
      }
      e_in = bound;
      report.final_bound = bound;
      ++slot;
    }
    return report;
  }

  static NoveltyDetector* detector_;
  static nn::Sequential* steering_;
  static std::vector<Image>* train_;
};

NoveltyDetector* QuantDifferentialFixture::detector_ = nullptr;
nn::Sequential* QuantDifferentialFixture::steering_ = nullptr;
std::vector<Image>* QuantDifferentialFixture::train_ = nullptr;

// --- 1. kernel bit-identity at the GEMM level --------------------------------

TEST(QuantGemmKernels, ScalarAndSimdAgreeBitExactOnRandomShapes) {
  if (!gemm_int8_simd_available()) GTEST_SKIP() << "no int8 SIMD on this CPU";
  // Every SIMD band the CPU supports (AVX2 and, where present, AVX-512
  // VNNI) against the scalar reference; m in 1..19 hits every residue mod
  // 4, n in 1..40 every residue mod 8, 16 and 32.
  test::Int8BandGuard guard;
  prop::Options options;
  options.trials = 60;
  options.seed = 411;
  prop::for_all<std::vector<int64_t>>(
      "int8 gemm: scalar == every simd band (exact int32 + fmaf dequant)",
      [](Rng& rng) {
        return std::vector<int64_t>{rng.uniform_int(1, 19), rng.uniform_int(1, 40),
                                    rng.uniform_int(1, 96), rng.uniform_int(0, 1)};
      },
      [](const std::vector<int64_t>& shape) {
        const int64_t m = shape[0], n = shape[1], k = shape[2];
        const bool relu = shape[3] != 0;
        Rng data_rng(static_cast<uint64_t>(m * 1000003 + n * 1009 + k));
        std::vector<uint8_t> a(static_cast<size_t>(m * k));
        std::vector<int8_t> b(static_cast<size_t>(k * n));
        std::vector<float> bias(static_cast<size_t>(n));
        for (auto& v : a) v = static_cast<uint8_t>(data_rng.uniform_int(0, 127));
        for (auto& v : b) v = static_cast<int8_t>(data_rng.uniform_int(-127, 127));
        for (auto& v : bias) v = static_cast<float>(data_rng.uniform(-1.0, 1.0));
        QuantEpilogue epilogue;
        epilogue.scale = static_cast<float>(data_rng.uniform(1e-4, 1e-2));
        epilogue.bias_col = bias.data();
        epilogue.relu = relu;
        const PackedQuantMatrix packed = pack_quant_b(b.data(), k, n);

        std::vector<int32_t> c_scalar(static_cast<size_t>(m * n));
        std::vector<float> f_scalar(static_cast<size_t>(m * n));
        set_gemm_int8_kernel(GemmInt8Kernel::kScalar);
        gemm_u8s8(a.data(), b.data(), c_scalar.data(), m, n, k);
        gemm_u8s8_dequant(a.data(), b.data(), f_scalar.data(), m, n, k, epilogue, &packed);
        for (const test::Int8Band& band : test::int8_bands()) {
          if (band.kernel == GemmInt8Kernel::kScalar) continue;
          test::use_int8_band(band);
          std::vector<int32_t> c_simd(static_cast<size_t>(m * n));
          std::vector<float> f_simd(static_cast<size_t>(m * n));
          gemm_u8s8(a.data(), b.data(), c_simd.data(), m, n, k, &packed);
          gemm_u8s8_dequant(a.data(), b.data(), f_simd.data(), m, n, k, epilogue, &packed);
          // memcmp-strength equality: int32 exactly, floats bit-for-bit.
          if (c_scalar != c_simd ||
              std::memcmp(f_scalar.data(), f_simd.data(), f_simd.size() * sizeof(float)) != 0) {
            return false;
          }
        }
        return true;
      },
      options);
}

TEST_F(QuantDifferentialFixture, KernelsAgreeBitExactOnModelForwards) {
  if (!gemm_int8_simd_available()) GTEST_SKIP() << "no int8 SIMD on this CPU";
  Int8KernelGuard guard;
  for (const Image& frame : *train_) {
    set_gemm_int8_kernel(GemmInt8Kernel::kScalar);
    const Image mask_scalar = detector_->variant_preprocess(DetectorVariant::kPrimaryQ8, frame);
    const Image recon_scalar =
        detector_->variant_reconstruct(DetectorVariant::kPrimaryQ8, mask_scalar);
    const double score_scalar = detector_->variant_score_pair(DetectorVariant::kPrimaryQ8,
                                                              mask_scalar, recon_scalar);
    const double steer_scalar =
        driving::predict_steering_q8(*detector_->quant_steering(), frame);
    set_gemm_int8_kernel(GemmInt8Kernel::kSimd);
    const Image mask_simd = detector_->variant_preprocess(DetectorVariant::kPrimaryQ8, frame);
    const Image recon_simd =
        detector_->variant_reconstruct(DetectorVariant::kPrimaryQ8, mask_simd);
    const double score_simd =
        detector_->variant_score_pair(DetectorVariant::kPrimaryQ8, mask_simd, recon_simd);
    const double steer_simd =
        driving::predict_steering_q8(*detector_->quant_steering(), frame);
    ASSERT_TRUE(tensors_bitexact(mask_scalar.tensor(), mask_simd.tensor()));
    ASSERT_TRUE(tensors_bitexact(recon_scalar.tensor(), recon_simd.tensor()));
    ASSERT_EQ(score_scalar, score_simd);
    ASSERT_EQ(steer_scalar, steer_simd);
  }
}

// --- 2. analytic drift bounds ------------------------------------------------

TEST_F(QuantDifferentialFixture, AutoencoderDriftStaysWithinPerLayerAnalyticBound) {
  const nn::QuantizedForward* quant = detector_->quant_autoencoder();
  ASSERT_NE(quant, nullptr);
  for (const Image& frame : *train_) {
    const Image pre = detector_->variant_preprocess(DetectorVariant::kPrimary, frame);
    const Tensor input = pre.flattened().reshape({1, kH * kW});
    const DriftReport report = layer_drift(quant->model(), *quant, input);
    EXPECT_LE(report.worst_ratio, 1.0)
        << "layer " << report.worst_layer << " drifted past its analytic bound";
  }
}

TEST_F(QuantDifferentialFixture, SteeringDriftStaysWithinPerLayerAnalyticBound) {
  const nn::QuantizedForward* quant = detector_->quant_steering();
  ASSERT_NE(quant, nullptr);
  for (const Image& frame : *train_) {
    const Tensor input = frame.tensor().reshape({1, 1, kH, kW});
    const DriftReport report = layer_drift(quant->model(), *quant, input);
    EXPECT_LE(report.worst_ratio, 1.0)
        << "layer " << report.worst_layer << " drifted past its analytic bound";
  }
}

TEST_F(QuantDifferentialFixture, EndToEndReconstructionDriftWithinPropagatedBound) {
  // Randomized frame batches (with shrinking): the quantized reconstruction
  // of the float mask must stay within the propagated layer bound of the
  // float reconstruction. Smooth frames only — they are the calibration
  // regime; the verdict test below covers out-of-distribution inputs.
  const nn::QuantizedForward* quant = detector_->quant_autoencoder();
  ASSERT_NE(quant, nullptr);
  prop::Options options;
  options.trials = 20;
  options.seed = 433;
  prop::for_all_shrink<Image>(
      "q8 reconstruction within propagated analytic bound",
      [](Rng& rng) {
        const int64_t n = rng.uniform_int(1, 6);
        std::vector<Image> frames;
        for (int64_t i = 0; i < n; ++i) frames.push_back(random_frame(rng, /*smooth=*/true));
        return frames;
      },
      [&](const std::vector<Image>& frames) {
        for (const Image& frame : frames) {
          const Image pre = detector_->variant_preprocess(DetectorVariant::kPrimary, frame);
          const Tensor input = pre.flattened().reshape({1, kH * kW});
          const DriftReport report = layer_drift(quant->model(), *quant, input);
          const Image f_recon = detector_->variant_reconstruct(DetectorVariant::kPrimary, pre);
          const Image q_recon = detector_->variant_reconstruct(DetectorVariant::kPrimaryQ8, pre);
          double observed = 0.0;
          for (int64_t j = 0; j < f_recon.tensor().numel(); ++j) {
            observed = std::max(observed,
                                std::fabs(static_cast<double>(f_recon.tensor().data()[j]) -
                                          static_cast<double>(q_recon.tensor().data()[j])));
          }
          if (observed > report.final_bound) return false;
        }
        return true;
      },
      options);
}

// --- 3. verdict agreement ----------------------------------------------------

TEST_F(QuantDifferentialFixture, VerdictsAgreeOutsideTheAmbiguityMargin) {
  // Clearly-nominal (smooth, the training regime) and clearly-novel
  // (uniform noise) frames: the q8 rung judged by its own threshold must
  // agree with the float rung judged by its own. Frames within 2% of either
  // threshold are exempt — that is the regime the rung-specific
  // calibrations exist for.
  constexpr double kAmbiguityMargin = 0.02;
  const auto& float_cal = detector_->variant_calibration(DetectorVariant::kPrimary);
  const auto& q8_cal = detector_->variant_calibration(DetectorVariant::kPrimaryQ8);
  Rng rng(prop::run_seed(457));
  int compared = 0;
  for (int i = 0; i < 80; ++i) {
    const Image frame = random_frame(rng, /*smooth=*/i % 2 == 0);
    const double f_score = detector_->score_variant(DetectorVariant::kPrimary, frame);
    const double q_score = detector_->score_variant(DetectorVariant::kPrimaryQ8, frame);
    const double f_thr = float_cal.threshold.threshold();
    const double q_thr = q8_cal.threshold.threshold();
    const double f_margin = std::fabs(f_score - f_thr) / std::max(1.0, std::fabs(f_thr));
    const double q_margin = std::fabs(q_score - q_thr) / std::max(1.0, std::fabs(q_thr));
    if (f_margin < kAmbiguityMargin || q_margin < kAmbiguityMargin) continue;
    ++compared;
    EXPECT_EQ(float_cal.threshold.is_novel(f_score), q8_cal.threshold.is_novel(q_score))
        << "frame " << i << ": float score " << f_score << " (thr " << f_thr << ") vs q8 score "
        << q_score << " (thr " << q_thr << ")";
  }
  EXPECT_GE(compared, 30) << "ambiguity margin exempted too many frames to be meaningful";
}

// --- 4. batch invariance -----------------------------------------------------

TEST_F(QuantDifferentialFixture, BatchedQuantEntriesMatchSoloBitExact) {
  prop::Options options;
  options.trials = 12;
  options.seed = 461;
  prop::for_all<std::vector<Image>>(
      "q8 batch-B == batch-1 (steer, saliency, reconstruct)",
      [](Rng& rng) {
        const int64_t n = rng.uniform_int(1, 10);
        std::vector<Image> frames;
        for (int64_t i = 0; i < n; ++i) {
          frames.push_back(random_frame(rng, rng.uniform(0.0, 1.0) < 0.7));
        }
        return frames;
      },
      [&](const std::vector<Image>& frames) {
        const std::vector<const Image*> ptrs = pointers(frames);
        const std::vector<double> steer_batch =
            driving::predict_steering_q8_batch(*detector_->quant_steering(), ptrs);
        const std::vector<Image> masks_batch =
            detector_->variant_preprocess_batch(DetectorVariant::kPrimaryQ8, ptrs);
        const std::vector<const Image*> mask_ptrs = pointers(masks_batch);
        const std::vector<Image> recon_batch =
            detector_->variant_reconstruct_batch(DetectorVariant::kPrimaryQ8, mask_ptrs);
        for (size_t i = 0; i < frames.size(); ++i) {
          const double steer_solo =
              driving::predict_steering_q8(*detector_->quant_steering(), frames[i]);
          const Image mask_solo =
              detector_->variant_preprocess(DetectorVariant::kPrimaryQ8, frames[i]);
          const Image recon_solo =
              detector_->variant_reconstruct(DetectorVariant::kPrimaryQ8, mask_solo);
          if (steer_batch[i] != steer_solo) return false;
          if (!tensors_bitexact(masks_batch[i].tensor(), mask_solo.tensor())) return false;
          if (!tensors_bitexact(recon_batch[i].tensor(), recon_solo.tensor())) return false;
        }
        return true;
      },
      options);
}

// --- 5. thread-count invariance ----------------------------------------------

TEST_F(QuantDifferentialFixture, OneAndFourThreadsAgreeBitExact) {
  for (const Image& frame : *train_) {
    parallel::set_num_threads(1);
    const Image mask1 = detector_->variant_preprocess(DetectorVariant::kPrimaryQ8, frame);
    const Image recon1 = detector_->variant_reconstruct(DetectorVariant::kPrimaryQ8, mask1);
    const double score1 =
        detector_->variant_score_pair(DetectorVariant::kPrimaryQ8, mask1, recon1);
    parallel::set_num_threads(4);
    const Image mask4 = detector_->variant_preprocess(DetectorVariant::kPrimaryQ8, frame);
    const Image recon4 = detector_->variant_reconstruct(DetectorVariant::kPrimaryQ8, mask4);
    const double score4 =
        detector_->variant_score_pair(DetectorVariant::kPrimaryQ8, mask4, recon4);
    parallel::set_num_threads(0);
    ASSERT_TRUE(tensors_bitexact(mask1.tensor(), mask4.tensor()));
    ASSERT_TRUE(tensors_bitexact(recon1.tensor(), recon4.tensor()));
    ASSERT_EQ(score1, score4);
  }
}

// --- 6. record/replay across int8 kernels ------------------------------------

TEST_F(QuantDifferentialFixture, QuantLadderTraceReplaysBitExactAcrossInt8Kernels) {
  // Record a quantized-ladder scenario (reconstruct-stage stalls walk the
  // rungs), then replay with the OTHER int8 kernel at tolerance zero. The
  // float GEMM kernel is pinned, so every float-served frame is trivially
  // identical and every q8-served frame exercises the int8 determinism
  // contract end to end — through the supervisor, monitor, and calibrated
  // thresholds.
  trace::TraceRunSpec spec;
  spec.dataset = "outdoor";
  spec.frame_seed = 2024;
  spec.fault_seed = 7;
  spec.frames = 24;
  spec.height = kH;
  spec.width = kW;
  spec.supervisor.stage_budget_ns.fill(1'000'000);
  spec.supervisor.frame_budget_ns = 1'000'000'000;
  spec.supervisor.demote_after_bad_frames = 1;
  spec.supervisor.promote_after_healthy_frames = 2;
  spec.supervisor.enable_quant_rungs = true;
  spec.stalls.push_back({/*stage=*/3, /*stall_ns=*/10'000'000, /*first_frame=*/3,
                         /*last_frame=*/5, /*period=*/1});

  Int8KernelGuard guard;
  set_gemm_int8_kernel(GemmInt8Kernel::kScalar);
  const trace::Trace trace = trace::TraceRecorder::record(spec, *detector_, steering_);
  bool saw_q8 = false;
  for (const auto& frame : trace.frames) saw_q8 = saw_q8 || serving_mode_quantized(frame.mode);
  ASSERT_TRUE(saw_q8) << "scenario never reached a q8 rung — stalls misconfigured";

  trace::ReplayOptions options;
  options.score_tolerance = 0.0;
  const trace::ReplayReport same =
      trace::TraceReplayer::replay(trace, *detector_, steering_, options);
  EXPECT_TRUE(same.ok()) << same.format();
  if (gemm_int8_simd_available()) {
    set_gemm_int8_kernel(GemmInt8Kernel::kSimd);
    const trace::ReplayReport cross =
        trace::TraceReplayer::replay(trace, *detector_, steering_, options);
    EXPECT_TRUE(cross.ok()) << cross.format();
  }
}

}  // namespace
}  // namespace salnov
