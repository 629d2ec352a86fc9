#include "core/novelty_detector.hpp"

#include <stdexcept>
#include <utility>

#include "driving/steering_trainer.hpp"
#include "metrics/mse.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/trainer.hpp"
#include "parallel/parallel_for.hpp"
#include "saliency/gradient_saliency.hpp"
#include "saliency/lrp.hpp"
#include "saliency/visual_backprop.hpp"

namespace salnov::core {
namespace {

std::unique_ptr<saliency::SaliencyMethod> make_saliency(Preprocessing preprocessing) {
  switch (preprocessing) {
    case Preprocessing::kVbp:
      return std::make_unique<saliency::VisualBackProp>();
    case Preprocessing::kGradient:
      return std::make_unique<saliency::GradientSaliency>();
    case Preprocessing::kLrp:
      return std::make_unique<saliency::LayerwiseRelevancePropagation>();
    case Preprocessing::kRaw:
      return nullptr;
  }
  throw std::logic_error("make_saliency: unknown preprocessing");
}

/// Runs fn(i) for i in [0, n), fanning out across the pool when the
/// per-index work is reentrant. Each index owns its own output slot, so the
/// parallel and serial paths are bit-identical.
void fan_out(int64_t n, bool parallel_ok, const std::function<void(int64_t)>& fn) {
  if (!parallel_ok) {
    for (int64_t i = 0; i < n; ++i) fn(i);
    return;
  }
  parallel::parallel_for(0, n, 1, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) fn(i);
  });
}

}  // namespace

const char* detector_variant_name(DetectorVariant variant) {
  switch (variant) {
    case DetectorVariant::kPrimary:
      return "primary";
    case DetectorVariant::kPreprocessedMse:
      return "preproc+mse";
    case DetectorVariant::kRawMse:
      return "raw+mse";
    case DetectorVariant::kPrimaryQ8:
      return "primary-q8";
    case DetectorVariant::kPreprocessedMseQ8:
      return "preproc+mse-q8";
  }
  return "unknown";
}

NoveltyDetectorConfig NoveltyDetectorConfig::proposed() { return NoveltyDetectorConfig{}; }

NoveltyDetectorConfig NoveltyDetectorConfig::baseline_raw_mse() {
  NoveltyDetectorConfig config;
  config.preprocessing = Preprocessing::kRaw;
  config.score = ReconstructionScore::kMse;
  return config;
}

NoveltyDetectorConfig NoveltyDetectorConfig::vbp_mse() {
  NoveltyDetectorConfig config;
  config.preprocessing = Preprocessing::kVbp;
  config.score = ReconstructionScore::kMse;
  return config;
}

NoveltyDetector::NoveltyDetector(NoveltyDetectorConfig config)
    : config_([&] {
        if (config.height <= 0 || config.width <= 0) {
          throw std::invalid_argument("NoveltyDetector: non-positive input size");
        }
        return std::move(config);
      }()),
      saliency_(make_saliency(config_.preprocessing)),
      ssim_(config_.height, config_.width, config_.ssim),
      validator_(config_.height, config_.width, config_.frame_validator) {
  config_.autoencoder.input_height = config_.height;
  config_.autoencoder.input_width = config_.width;
  vbp_ = dynamic_cast<saliency::VisualBackProp*>(saliency_.get());
}

void NoveltyDetector::attach_steering_model(nn::Sequential* model) {
  if (model == nullptr) throw std::invalid_argument("attach_steering_model: null model");
  steering_model_ = model;
  // A loaded pipeline may carry steering scales from before the model was
  // attached; the quantized view can only be built now.
  rebuild_quant_path();
}

bool NoveltyDetector::quant_supported() const {
  return config_.preprocessing == Preprocessing::kRaw ||
         (config_.preprocessing == Preprocessing::kVbp && vbp_ != nullptr);
}

void NoveltyDetector::rebuild_quant_path() {
  quant_ae_.reset();
  quant_steering_.reset();
  if (!quant_supported()) return;
  if (fitted_ && !ae_quant_scales_.empty()) {
    quant_ae_ = std::make_unique<nn::QuantizedForward>(autoencoder_, ae_quant_scales_);
  }
  if (steering_model_ != nullptr && !steering_quant_scales_.empty()) {
    quant_steering_ = std::make_unique<nn::QuantizedForward>(*steering_model_, steering_quant_scales_);
  }
}

bool NoveltyDetector::has_quant_path() const {
  if (quant_ae_ == nullptr) return false;
  return !uses_saliency(config_.preprocessing) || quant_steering_ != nullptr;
}

void NoveltyDetector::validate_input(const Image& input, bool needs_saliency) const {
  if (input.height() != config_.height || input.width() != config_.width) {
    throw InvalidFrameError(
        FrameFault::kWrongSize,
        "NoveltyDetector: input is " + std::to_string(input.height()) + "x" +
            std::to_string(input.width()) + ", pipeline expects " + std::to_string(config_.height) +
            "x" + std::to_string(config_.width));
  }
  if (needs_saliency && steering_model_ == nullptr) {
    throw std::logic_error("NoveltyDetector: saliency preprocessing requires attach_steering_model()");
  }
  // Content checks run after the configuration errors above so that a
  // mis-wired pipeline surfaces as logic_error, not as a sensor fault.
  if (config_.validate_frames) validator_.require_valid(input, "NoveltyDetector");
}

Image NoveltyDetector::preprocess(const Image& input) const {
  return variant_preprocess(DetectorVariant::kPrimary, input);
}

Preprocessing NoveltyDetector::variant_preprocessing(DetectorVariant variant) const {
  return variant == DetectorVariant::kRawMse ? Preprocessing::kRaw : config_.preprocessing;
}

ReconstructionScore NoveltyDetector::variant_score_metric(DetectorVariant variant) const {
  return detector_variant_float_peer(variant) == DetectorVariant::kPrimary
             ? config_.score
             : ReconstructionScore::kMse;
}

Image NoveltyDetector::variant_preprocess(DetectorVariant variant, const Image& input) const {
  return std::move(variant_preprocess_batch(variant, {&input}).front());
}

bool NoveltyDetector::batch_parallel_safe() const {
  return saliency_ == nullptr || saliency_->thread_safe();
}

nn::TrainHistory NoveltyDetector::fit(const std::vector<Image>& training_images, Rng& rng) {
  if (training_images.empty()) throw std::invalid_argument("NoveltyDetector::fit: no training images");

  // Refit invalidates any previous quantized state up front: stage 2
  // replaces the autoencoder's layers, which the quantized views point at.
  quant_ae_.reset();
  quant_steering_.reset();
  ae_quant_scales_ = {};
  steering_quant_scales_ = {};
  variant_calibrations_[static_cast<size_t>(DetectorVariant::kPrimaryQ8)].reset();
  variant_calibrations_[static_cast<size_t>(DetectorVariant::kPreprocessedMseQ8)].reset();

  // Stage 1: preprocess every training image (VBP mask or pass-through),
  // one image per pool chunk.
  std::vector<Image> preprocessed(training_images.size());
  fan_out(static_cast<int64_t>(training_images.size()), batch_parallel_safe(), [&](int64_t i) {
    preprocessed[static_cast<size_t>(i)] = preprocess(training_images[static_cast<size_t>(i)]);
  });

  const int64_t n = static_cast<int64_t>(preprocessed.size());
  const Tensor data = stack_frames(image_views(preprocessed), "NoveltyDetector::fit")
                          .reshape({n, config_.height * config_.width});

  // Stage 2: train the one-class autoencoder to reconstruct its input.
  autoencoder_ = build_autoencoder(config_.autoencoder, rng);
  nn::MseLoss mse_loss;
  std::unique_ptr<nn::SsimLoss> ssim_loss;
  nn::Loss* loss = &mse_loss;
  if (config_.score == ReconstructionScore::kSsim) {
    ssim_loss = std::make_unique<nn::SsimLoss>(config_.height, config_.width, config_.ssim);
    loss = ssim_loss.get();
  }
  nn::Adam optimizer(config_.learning_rate);
  nn::Trainer trainer(autoencoder_, *loss, optimizer, rng.split());
  nn::TrainOptions options;
  options.epochs = config_.train_epochs;
  options.batch_size = config_.batch_size;
  options.verbose = config_.verbose;
  const nn::TrainHistory history = trainer.fit(data, data, options);
  fitted_ = true;

  // Stage 3: calibrate the novelty threshold on the training-score ECDF —
  // once per scoring variant, so the serving runtime's degraded modes each
  // test against their own fitted distribution. Reconstruction + scoring per
  // image is independent (inference-mode forwards only), so calibration fans
  // out unconditionally.
  const bool saliency_configured = uses_saliency(config_.preprocessing);
  std::vector<double> primary_scores(preprocessed.size());
  std::vector<double> preproc_mse_scores(preprocessed.size());
  std::vector<double> raw_mse_scores(preprocessed.size());
  fan_out(n, true, [&](int64_t i) {
    const size_t s = static_cast<size_t>(i);
    const Image& image = preprocessed[s];
    const Image recon = reconstruct(image);
    primary_scores[s] = variant_score_pair(DetectorVariant::kPrimary, image, recon);
    preproc_mse_scores[s] = variant_score_pair(DetectorVariant::kPreprocessedMse, image, recon);
    if (saliency_configured) {
      // The raw variant feeds the raw frame through the same autoencoder;
      // its threshold is meaningful because it is calibrated on exactly
      // this statistic over the training set.
      const Image& raw = training_images[s];
      raw_mse_scores[s] = variant_score_pair(DetectorVariant::kRawMse, raw, reconstruct(raw));
    } else {
      raw_mse_scores[s] = preproc_mse_scores[s];
    }
  });
  const ScoreOrientation orientation = config_.score == ReconstructionScore::kMse
                                           ? ScoreOrientation::kHighIsNovel
                                           : ScoreOrientation::kLowIsNovel;
  variant_calibrations_[0] =
      VariantCalibration::calibrate(primary_scores, orientation, config_.threshold_percentile);
  variant_calibrations_[1] = VariantCalibration::calibrate(
      preproc_mse_scores, ScoreOrientation::kHighIsNovel, config_.threshold_percentile);
  variant_calibrations_[2] = VariantCalibration::calibrate(
      raw_mse_scores, ScoreOrientation::kHighIsNovel, config_.threshold_percentile);
  threshold_ = variant_calibrations_[0]->threshold;

  // Stage 4 (optional): int8 quantization. Fits per-layer activation scales
  // over the training set, builds the quantized model views, and calibrates
  // the q8 variants against their own training-score ECDFs. Draws nothing
  // from `rng`, so enabling or disabling quantization leaves every float
  // artifact (weights, thresholds) bit-identical.
  if (config_.fit_quantization && quant_supported()) {
    // Activation maxima are computed over the stacked batch tensors — the
    // per-layer max of a batch forward equals the max over batch-1 calls.
    ae_quant_scales_ = nn::QuantizedForward::calibrate(autoencoder_, {&data});
    if (saliency_configured && steering_model_ != nullptr) {
      const Tensor steer_data = stack_frames(image_views(training_images), "NoveltyDetector::fit");
      steering_quant_scales_ = nn::QuantizedForward::calibrate(*steering_model_, {&steer_data});
    }
    rebuild_quant_path();
    if (has_quant_path()) {
      std::vector<double> primary_q8_scores(preprocessed.size());
      std::vector<double> preproc_mse_q8_scores(preprocessed.size());
      fan_out(n, true, [&](int64_t i) {
        const size_t s = static_cast<size_t>(i);
        const Image pq = variant_preprocess(DetectorVariant::kPrimaryQ8, training_images[s]);
        const Image rq = variant_reconstruct(DetectorVariant::kPrimaryQ8, pq);
        primary_q8_scores[s] = variant_score_pair(DetectorVariant::kPrimaryQ8, pq, rq);
        preproc_mse_q8_scores[s] =
            variant_score_pair(DetectorVariant::kPreprocessedMseQ8, pq, rq);
      });
      variant_calibrations_[static_cast<size_t>(DetectorVariant::kPrimaryQ8)] =
          VariantCalibration::calibrate(primary_q8_scores, orientation,
                                        config_.threshold_percentile);
      variant_calibrations_[static_cast<size_t>(DetectorVariant::kPreprocessedMseQ8)] =
          VariantCalibration::calibrate(preproc_mse_q8_scores, ScoreOrientation::kHighIsNovel,
                                        config_.threshold_percentile);
    }
  }
  return history;
}

Image NoveltyDetector::reconstruct(const Image& preprocessed) const {
  return std::move(reconstruct_batch({&preprocessed}).front());
}

double NoveltyDetector::variant_score_pair(DetectorVariant variant, const Image& preprocessed,
                                           const Image& reconstruction) const {
  if (variant_score_metric(variant) == ReconstructionScore::kMse) {
    return mse(reconstruction, preprocessed);
  }
  return ssim_.mean_ssim(reconstruction.tensor(), preprocessed.tensor());
}

std::vector<Image> NoveltyDetector::variant_preprocess_batch(
    DetectorVariant variant, const std::vector<const Image*>& inputs,
    std::vector<double>* steering) const {
  const bool saliency = uses_saliency(variant_preprocessing(variant));
  const bool q8 = detector_variant_quantized(variant);
  for (const Image* input : inputs) {
    if (input == nullptr) {
      throw std::invalid_argument("variant_preprocess_batch: null input image");
    }
    validate_input(*input, saliency);
  }
  if (saliency && q8 && (quant_steering_ == nullptr || vbp_ == nullptr)) {
    throw std::logic_error("NoveltyDetector: quantized saliency path is not available");
  }
  if (saliency && vbp_ != nullptr) {
    // The VBP mask falls out of the steering network's own forward, so the
    // angles are read from that forward's final activation.
    Tensor final_activation;
    std::vector<Image> masks =
        vbp_->compute_batch(*steering_model_, q8 ? quant_steering_.get() : nullptr, inputs,
                            steering != nullptr ? &final_activation : nullptr);
    if (steering != nullptr) {
      *steering =
          driving::steering_angles(final_activation, static_cast<int64_t>(inputs.size()));
    }
    return masks;
  }
  std::vector<Image> out;
  if (saliency) {
    // saliency_ exists since construction, so this const path mutates
    // nothing of the detector's and is safe under the concurrent fan-out.
    out = saliency_->compute_batch(*steering_model_, inputs);
  } else {
    out.reserve(inputs.size());
    for (const Image* input : inputs) out.push_back(*input);
  }
  if (steering != nullptr) {
    // Gradient and LRP saliency do not expose their forward, and raw
    // variants run none: the angles take one steering batch of their own.
    if (steering_model_ == nullptr) {
      throw std::logic_error("NoveltyDetector: steering angles require attach_steering_model()");
    }
    *steering = q8 && quant_steering_ != nullptr
                    ? driving::predict_steering_q8_batch(*quant_steering_, inputs)
                    : driving::predict_steering_batch(*steering_model_, inputs);
  }
  return out;
}

std::vector<Image> NoveltyDetector::reconstruct_batch(
    const std::vector<const Image*>& preprocessed) const {
  return variant_reconstruct_batch(DetectorVariant::kPrimary, preprocessed);
}

std::vector<double> NoveltyDetector::score_batch(DetectorVariant variant,
                                                 const std::vector<const Image*>& inputs) const {
  const std::vector<Image> preprocessed = variant_preprocess_batch(variant, inputs);
  const std::vector<Image> reconstructions =
      variant_reconstruct_batch(variant, image_views(preprocessed));
  std::vector<double> scores(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    scores[i] = variant_score_pair(variant, preprocessed[i], reconstructions[i]);
  }
  return scores;
}

Image NoveltyDetector::variant_reconstruct(DetectorVariant variant,
                                           const Image& preprocessed) const {
  return std::move(variant_reconstruct_batch(variant, {&preprocessed}).front());
}

std::vector<Image> NoveltyDetector::variant_reconstruct_batch(
    DetectorVariant variant, const std::vector<const Image*>& preprocessed) const {
  if (!fitted_) throw std::logic_error("NoveltyDetector: not fitted");
  const bool q8 = detector_variant_quantized(variant);
  if (q8 && quant_ae_ == nullptr) {
    throw std::logic_error("NoveltyDetector: quantized autoencoder path is not available");
  }
  if (preprocessed.empty()) return {};
  const int64_t batch = static_cast<int64_t>(preprocessed.size());
  const int64_t dim = config_.height * config_.width;
  Tensor input = stack_frames(preprocessed, "variant_reconstruct_batch");
  if (input.numel() != batch * dim) {
    throw std::invalid_argument("variant_reconstruct_batch: image size does not match the pipeline");
  }
  input = std::move(input).reshape({batch, dim});
  // forward() is stateless in inference mode; the const_cast mirrors
  // Sequential::forward_collect's reasoning.
  const Tensor output =
      q8 ? quant_ae_->forward(input)
         : const_cast<nn::Sequential&>(autoencoder_).forward(input, nn::Mode::kInfer);
  return unstack_frames(output, config_.height, config_.width);
}

double NoveltyDetector::score(const Image& input) const {
  return score_variant(DetectorVariant::kPrimary, input);
}

double NoveltyDetector::score_variant(DetectorVariant variant, const Image& input) const {
  return score_batch(variant, {&input}).front();
}

const VariantCalibration& NoveltyDetector::variant_calibration(DetectorVariant variant) const {
  const auto& slot = variant_calibrations_[static_cast<size_t>(variant)];
  if (!slot.has_value()) {
    throw std::logic_error(std::string("NoveltyDetector: variant '") +
                           detector_variant_name(variant) +
                           "' is not calibrated (call fit or load)");
  }
  return *slot;
}

const VariantCalibration* NoveltyDetector::variant_calibration_if(DetectorVariant variant) const {
  const auto& slot = variant_calibrations_[static_cast<size_t>(variant)];
  return slot.has_value() ? &*slot : nullptr;
}

bool NoveltyDetector::has_variant_calibrations() const {
  for (int v = 0; v < kDetectorFloatVariantCount; ++v) {
    if (!variant_calibrations_[static_cast<size_t>(v)].has_value()) return false;
  }
  return true;
}

bool NoveltyDetector::has_quant_calibrations() const {
  return variant_calibrations_[static_cast<size_t>(DetectorVariant::kPrimaryQ8)].has_value() &&
         variant_calibrations_[static_cast<size_t>(DetectorVariant::kPreprocessedMseQ8)]
             .has_value();
}

std::vector<double> NoveltyDetector::scores(const std::vector<Image>& inputs) const {
  std::vector<double> result(inputs.size());
  fan_out(static_cast<int64_t>(inputs.size()), batch_parallel_safe(), [&](int64_t i) {
    result[static_cast<size_t>(i)] = score(inputs[static_cast<size_t>(i)]);
  });
  return result;
}

NoveltyResult NoveltyDetector::classify(const Image& input) const {
  const NoveltyThreshold& t = threshold();
  NoveltyResult result;
  result.score = score(input);
  result.threshold = t.threshold();
  result.is_novel = t.is_novel(result.score);
  return result;
}

const NoveltyThreshold& NoveltyDetector::threshold() const {
  if (!threshold_.has_value()) {
    throw std::logic_error("NoveltyDetector: threshold not calibrated (call fit or load)");
  }
  return *threshold_;
}

}  // namespace salnov::core
