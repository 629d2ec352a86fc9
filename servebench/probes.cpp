// Layer probes: timed public calls on a workload's frames for the layers
// its own serving path does not exercise, the batched entries, and the
// GEMM kernels at the autoencoder's first-layer shape.
#include <cmath>
#include <vector>

#include "bench.hpp"
#include "driving/steering_trainer.hpp"
#include "serving/supervisor.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_int8.hpp"
#include "tensor/rng.hpp"

namespace servebench {

using namespace salnov;
using core::DetectorVariant;

namespace {

constexpr int64_t kProbeCalls = 256;
/// Untraced and traced probe frames alternate in blocks of this many.
constexpr int64_t kProbeBlock = 64;
constexpr int64_t kKernelCalls = 200;

}  // namespace

TracedFrame traced_float_frame(const Fixture& fx, serving::Supervisor& sup, const Image& frame,
                               int64_t frame_id, SpanLog& spans) {
  TracedFrame out;
  const core::NoveltyDetector& det = *fx.detector;
  const int64_t root = spans.begin("frame", -1, frame_id);
  const bool decomposable = sup.mode() == serving::ServingMode::kVbpSsim &&
                            sup.breaker_state() == serving::BreakerState::kClosed &&
                            det.frame_validator().check(frame) == core::FrameFault::kNone;
  Image mask;
  Image recon;
  auto child = [&](const char* name, auto&& fn) { return spans.timed_us(name, root, frame_id, fn); };
  if (decomposable) {
    serving::ProvidedCompute provided;
    out.steer_us = child("steer", [&] { provided.steering = driving::predict_steering(*fx.steering, frame); });
    out.saliency_us = child("saliency", [&] { mask = det.variant_preprocess(DetectorVariant::kPrimary, frame); });
    out.reconstruct_us =
        child("reconstruct", [&] { recon = det.variant_reconstruct(DetectorVariant::kPrimary, mask); });
    provided.saliency_mask = mask;
    provided.reconstruction = recon;
    provided.recon_input = mask;
    out.process_us = child("process", [&] { out.result = sup.process(frame, &provided); });
  } else {
    out.process_us = child("process", [&] { out.result = sup.process(frame); });
  }
  spans.end(root);
  const Span& r = spans.spans()[static_cast<size_t>(root)];
  out.frame_us = static_cast<double>(r.end_ns - r.start_ns) * 1e-3;
  out.decomposed = decomposable;
  if (!decomposable) return out;

  // Validation and scoring run inside process(); they are timed again here,
  // outside the frame, on the same inputs so policy time can be isolated.
  out.validate_us = spans.timed_us("validate", -1, frame_id, [&] { (void)det.frame_validator().check(frame); });
  out.score_ssim_us = spans.timed_us("score_ssim", -1, frame_id, [&] {
    (void)det.variant_score_pair(DetectorVariant::kPrimary, mask, recon);
  });
  out.score_mse_us = spans.timed_us("score_mse", -1, frame_id, [&] {
    (void)det.variant_score_pair(DetectorVariant::kPreprocessedMse, mask, recon);
  });
  out.policy_us = out.process_us - out.validate_us - out.score_ssim_us;
  return out;
}

void add_float_stage_metrics(const std::vector<TracedFrame>& frames, Report& report) {
  std::vector<double> validate, steer, saliency, reconstruct, score_ssim, score_mse, policy;
  for (const TracedFrame& f : frames) {
    if (!f.decomposed) continue;
    validate.push_back(f.validate_us);
    steer.push_back(f.steer_us);
    saliency.push_back(f.saliency_us);
    reconstruct.push_back(f.reconstruct_us);
    score_ssim.push_back(f.score_ssim_us);
    score_mse.push_back(f.score_mse_us);
    policy.push_back(f.policy_us);
  }
  add_span_percentiles(report, "validate", validate);
  add_span_percentiles(report, "steer", steer);
  add_span_percentiles(report, "saliency", saliency);
  add_span_percentiles(report, "reconstruct", reconstruct);
  add_span_percentiles(report, "score_ssim", score_ssim);
  add_span_percentiles(report, "score_mse", score_mse);
  report.add("policy.self_us", mean(policy), "us", static_cast<int64_t>(policy.size()));
}

double add_reconcile_gap(const std::vector<double>& untraced_us,
                         const std::vector<TracedFrame>& traced, Report& report) {
  std::vector<double> stage_sum_us;
  for (const TracedFrame& f : traced) {
    if (f.decomposed) {
      stage_sum_us.push_back(f.validate_us + f.steer_us + f.saliency_us + f.reconstruct_us +
                             f.score_ssim_us);
    }
  }
  const double base = mean(untraced_us);
  const double gap = std::abs(mean(stage_sum_us) - base) / base;
  report.add("trace.reconcile_gap", gap, "ratio", static_cast<int64_t>(stage_sum_us.size()));
  return gap;
}

void probe_missing_stages(const Fixture& fx, const std::vector<const Image*>& frames,
                          SpanLog& spans, Report& report) {
  const core::NoveltyDetector& det = *fx.detector;
  if (!report.has("steer.p50_us")) {
    serving::Supervisor sup(det, fx.steering.get());
    serving::Supervisor traced_sup(det, fx.steering.get());
    std::vector<double> untraced_us;
    std::vector<TracedFrame> traced;
    for (int64_t first = 0; first < kProbeCalls; first += kProbeBlock) {
      for (int64_t i = first; i < first + kProbeBlock; ++i) {
        const Image& frame = *frames[static_cast<size_t>(i) % frames.size()];
        const int64_t start = now_ns();
        (void)sup.process(frame);
        untraced_us.push_back(static_cast<double>(now_ns() - start) * 1e-3);
      }
      for (int64_t i = first; i < first + kProbeBlock; ++i) {
        traced.push_back(traced_float_frame(fx, traced_sup, *frames[static_cast<size_t>(i) % frames.size()],
                                            i, spans));
      }
    }
    add_float_stage_metrics(traced, report);
    if (!report.has("trace.reconcile_gap")) (void)add_reconcile_gap(untraced_us, traced, report);
  }
  if (!report.has("steer_q8.p50_us")) {
    const nn::QuantizedForward& q8_steering = *det.quant_steering();
    std::vector<double> steer, saliency, reconstruct;
    for (int64_t i = 0; i < kProbeCalls; ++i) {
      const Image& frame = *frames[static_cast<size_t>(i) % frames.size()];
      Image mask;
      steer.push_back(spans.timed_us("steer_q8", -1, i, [&] {
        (void)driving::predict_steering_q8(q8_steering, frame);
      }));
      saliency.push_back(spans.timed_us("saliency_q8", -1, i, [&] {
        mask = det.variant_preprocess(DetectorVariant::kPrimaryQ8, frame);
      }));
      reconstruct.push_back(spans.timed_us("reconstruct_q8", -1, i, [&] {
        (void)det.variant_reconstruct(DetectorVariant::kPrimaryQ8, mask);
      }));
    }
    add_span_percentiles(report, "steer_q8", steer);
    add_span_percentiles(report, "saliency_q8", saliency);
    add_span_percentiles(report, "reconstruct_q8", reconstruct);
  }
}

void probe_batched_stages(const Fixture& fx, const std::vector<const Image*>& frames,
                          int64_t batch, SpanLog& spans, Report& report) {
  const core::NoveltyDetector& det = *fx.detector;
  const int64_t calls = std::max<int64_t>(16, kProbeCalls / batch);
  std::vector<double> steer, saliency, reconstruct;
  for (int64_t c = 0; c < calls; ++c) {
    std::vector<const Image*> inputs;
    for (int64_t b = 0; b < batch; ++b) {
      inputs.push_back(frames[static_cast<size_t>(c * batch + b) % frames.size()]);
    }
    std::vector<Image> masks;
    steer.push_back(spans.timed_us("steer_batch", -1, c, [&] {
      (void)driving::predict_steering_batch(*fx.steering, inputs);
    }));
    saliency.push_back(spans.timed_us("saliency_batch", -1, c, [&] {
      masks = det.variant_preprocess_batch(DetectorVariant::kPrimary, inputs);
    }));
    std::vector<const Image*> mask_ptrs;
    for (const Image& m : masks) mask_ptrs.push_back(&m);
    reconstruct.push_back(spans.timed_us("reconstruct_batch", -1, c, [&] {
      (void)det.variant_reconstruct_batch(DetectorVariant::kPrimary, mask_ptrs);
    }));
  }
  add_span_percentiles(report, "steer_batch", steer);
  add_span_percentiles(report, "saliency_batch", saliency);
  add_span_percentiles(report, "reconstruct_batch", reconstruct);
}

void probe_kernels(const Fixture& fx, SpanLog& spans, Report& report) {
  // The autoencoder's first layer: [m, H*W] x [H*W, hidden[0]].
  const core::AutoencoderConfig& ae = fx.detector->config().autoencoder;
  const int64_t k = fx.detector->config().height * fx.detector->config().width;
  const int64_t n = ae.hidden_units.front();
  Rng rng(3);
  std::vector<float> b(static_cast<size_t>(k * n));
  for (float& v : b) v = static_cast<float>(rng.uniform(-0.05, 0.05));
  const PackedMatrix packed_b = pack_b_panels(b.data(), k, n);
  std::vector<int8_t> b8(b.size());
  for (size_t i = 0; i < b.size(); ++i) b8[i] = static_cast<int8_t>(rng.uniform_int(-127, 127));
  const PackedQuantMatrix packed_b8 = pack_quant_b(b8.data(), k, n);

  auto run_f32 = [&](int64_t m, const char* name) {
    std::vector<float> a(static_cast<size_t>(m * k));
    for (float& v : a) v = static_cast<float>(rng.uniform(0.0, 1.0));
    std::vector<float> c(static_cast<size_t>(m * n));
    std::vector<double> us;
    for (int64_t i = 0; i < kKernelCalls; ++i) {
      us.push_back(spans.timed_us(name, -1, i, [&] {
        gemm_ex(a.data(), b.data(), c.data(), m, n, k, GemmEpilogue{}, nullptr, &packed_b);
      }));
    }
    const std::string prefix = std::string("tensor.") + name;
    report.add(prefix + "_us", median(us), "us", kKernelCalls);
    report.add(prefix + "_ops", static_cast<double>(2 * m * n * k), "flop", 1);
    report.add(prefix + "_bytes", static_cast<double>(4 * (m * k + k * n + m * n)), "B", 1);
  };
  run_f32(1, "gemm_f32_b1");
  run_f32(16, "gemm_f32_b16");

  std::vector<uint8_t> a8(static_cast<size_t>(k));
  for (uint8_t& v : a8) v = static_cast<uint8_t>(rng.uniform_int(0, 127));
  std::vector<int32_t> c32(static_cast<size_t>(n));
  std::vector<double> us;
  for (int64_t i = 0; i < kKernelCalls; ++i) {
    us.push_back(spans.timed_us("gemm_s8_b1", -1, i, [&] {
      gemm_u8s8(a8.data(), b8.data(), c32.data(), 1, n, k, &packed_b8);
    }));
  }
  report.add("tensor.gemm_s8_b1_us", median(us), "us", kKernelCalls);
  report.add("tensor.gemm_s8_b1_ops", static_cast<double>(2 * n * k), "op", 1);
  report.add("tensor.gemm_s8_b1_bytes", static_cast<double>(k + k * n + 4 * n), "B", 1);
}

}  // namespace servebench
