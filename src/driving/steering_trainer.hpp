// Training harness for the steering-angle regression task.
//
// Wraps nn::Trainer with driving-specific conveniences: builds tensors from
// a DrivingDataset, supports the paper's Fig. 2 control experiment (training
// on *random* steering labels to show VBP masks then carry no road
// structure), and reports steering MAE.
#pragma once

#include "nn/quantized.hpp"
#include "nn/trainer.hpp"
#include "roadsim/dataset.hpp"

namespace salnov::driving {

struct SteeringTrainOptions {
  int64_t epochs = 10;
  int64_t batch_size = 32;
  double learning_rate = 1e-3;   ///< Adam.
  bool verbose = false;
  /// If true, replaces every label with an independent U(-1, 1) draw —
  /// the Fig. 2 "network trained with random steering angles" control.
  bool randomize_labels = false;
};

struct SteeringTrainResult {
  nn::TrainHistory history;
  double train_mse = 0.0;  ///< Final-epoch mean training loss.
};

/// Trains `model` (from build_pilotnet) on the dataset in place.
SteeringTrainResult train_steering_model(nn::Sequential& model,
                                         const roadsim::DrivingDataset& dataset,
                                         const SteeringTrainOptions& options, Rng& rng);

/// Mean absolute steering error of the model over a dataset.
double steering_mae(nn::Sequential& model, const roadsim::DrivingDataset& dataset);

/// Predicts the steering angle for one image: predict_steering_batch at
/// B = 1.
double predict_steering(nn::Sequential& model, const Image& image);

/// Predicts steering angles for a batch of same-sized images with one fused
/// [B, 1, H, W] forward pass. Every layer in the inference path treats batch
/// rows independently (per-sample conv loops, per-row GEMM accumulation
/// chains, elementwise activations), so element i is bit-identical to
/// predict_steering(model, *images[i]) at any batch size — the serving
/// cluster's cross-frame micro-batching relies on this. Throws
/// std::invalid_argument for a null element or mixed sizes.
std::vector<double> predict_steering_batch(nn::Sequential& model,
                                           const std::vector<const Image*>& images);

/// Predicts the steering angle through the int8-quantized view of the model
/// (the q8 ladder rungs). Unlike the float entries, the result is
/// bit-identical across GEMM kernels and thread counts, not just batch
/// sizes — the quantized path accumulates in exact int32.
double predict_steering_q8(const nn::QuantizedForward& model, const Image& image);

/// Batched counterpart; element i is bit-identical to
/// predict_steering_q8(model, *images[i]).
std::vector<double> predict_steering_q8_batch(const nn::QuantizedForward& model,
                                              const std::vector<const Image*>& images);

/// Reads the B steering angles out of a steering network's final activation
/// (one scalar per frame). Shared by the predict entries and by callers that
/// take the angle from a forward they ran for another purpose, such as the
/// VisualBackProp forward. Throws std::logic_error on any other shape.
std::vector<double> steering_angles(const Tensor& output, int64_t batch);

}  // namespace salnov::driving
