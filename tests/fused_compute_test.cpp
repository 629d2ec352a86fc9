// The compute layer's single batched path per network.
//
// Every entry runs stack -> forward -> read with precision as an argument,
// batch-1 being the batch of one, and the serving cluster takes a saliency
// frame's steering angle from the VisualBackProp forward that produced its
// mask. These cases pin what that design must keep:
//
//   * the shared frame-stacking helper (and so every batched entry) rejects
//     null elements and mixed sizes with std::invalid_argument;
//   * the fused entry's angles and masks equal predict_steering{,_q8} and
//     variant_preprocess run alone, bit for bit, at any batch size;
//   * a Supervisor or ServingCluster refuses a steering model other than
//     the one attached to its saliency detector;
//   * a cluster whose streams sit on float, q8 and raw rungs (plus a
//     half-open probe) decides exactly as batch-1 Supervisors do, and
//     serves every valid frame a batched steering angle.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/novelty_detector.hpp"
#include "driving/pilotnet.hpp"
#include "driving/steering_trainer.hpp"
#include "faults/timing_faults.hpp"
#include "prop.hpp"
#include "saliency/visual_backprop.hpp"
#include "serving/clock.hpp"
#include "serving/cluster.hpp"
#include "serving/supervisor.hpp"

namespace salnov {

/// Counterexample printer for frame batches (found by ADL from
/// prop::for_all); the replay seed is the reproduction path.
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
constexpr int64_t kMs = 1'000'000;  // ns

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

bool same_bits(const Image& a, const Image& b) {
  return a.height() == b.height() && a.width() == b.width() &&
         a.tensor().numel() == b.tensor().numel() &&
         (a.tensor().numel() == 0 ||
          std::memcmp(a.tensor().data(), b.tensor().data(),
                      static_cast<size_t>(a.tensor().numel()) * sizeof(float)) == 0);
}

Image smooth_frame(Rng& rng) {
  Image img(kH, kW);
  const double slope = rng.uniform(0.5, 1.5);
  const double offset = rng.uniform(0.0, 0.3);
  for (int64_t y = 0; y < kH; ++y) {
    for (int64_t x = 0; x < kW; ++x) {
      img(y, x) = static_cast<float>(offset + slope * (y + x) / static_cast<double>(kH + kW));
    }
  }
  img.clamp01();
  return img;
}

Image noise_frame(Rng& rng) {
  Image img(kH, kW);
  for (int64_t y = 0; y < kH; ++y) {
    for (int64_t x = 0; x < kW; ++x) img(y, x) = static_cast<float>(rng.uniform(0.0, 1.0));
  }
  return img;
}

Image random_frame(Rng& rng) {
  return rng.uniform(0.0, 1.0) < 0.6 ? smooth_frame(rng) : noise_frame(rng);
}

// ---------------------------------------------------------------------------
// The stacking helper itself.

TEST(StackFrames, StacksRowMajorAndUnstacksBack) {
  Rng rng(1);
  const Image a = noise_frame(rng);
  const Image b = noise_frame(rng);
  const Tensor stacked = stack_frames({&a, &b}, "test");
  EXPECT_EQ(stacked.shape(), (Shape{2, 1, kH, kW}));
  EXPECT_EQ(0, std::memcmp(stacked.data(), a.tensor().data(), kH * kW * sizeof(float)));
  EXPECT_EQ(0, std::memcmp(stacked.data() + kH * kW, b.tensor().data(), kH * kW * sizeof(float)));
  const std::vector<Image> back = unstack_frames(stacked, kH, kW);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_TRUE(same_bits(back[0], a));
  EXPECT_TRUE(same_bits(back[1], b));
  EXPECT_THROW(unstack_frames(stacked, kH + 1, kW), std::invalid_argument);
}

TEST(StackFrames, RejectsEmptyNullAndMixedSizes) {
  const Image a(kH, kW);
  const Image other(kH, kW + 1);
  EXPECT_THROW(stack_frames({}, "test"), std::invalid_argument);
  EXPECT_THROW(stack_frames({nullptr}, "test"), std::invalid_argument);
  EXPECT_THROW(stack_frames({&a, nullptr}, "test"), std::invalid_argument);
  EXPECT_THROW(stack_frames({&a, &other}, "test"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// A fitted VBP + SSIM pipeline with its int8 path.

class FusedComputeFixture : public ::testing::Test {
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

    std::vector<Image> train;
    for (int i = 0; i < 24; ++i) train.push_back(smooth_frame(rng));
    detector_->fit(train, rng);
  }

  static void TearDownTestSuite() {
    delete detector_;
    detector_ = nullptr;
    delete steering_;
    steering_ = nullptr;
  }

  static NoveltyDetector* detector_;
  static nn::Sequential* steering_;
};

NoveltyDetector* FusedComputeFixture::detector_ = nullptr;
nn::Sequential* FusedComputeFixture::steering_ = nullptr;

TEST_F(FusedComputeFixture, BatchedEntriesRejectNullAndMixedFrames) {
  ASSERT_TRUE(detector_->has_quant_path());
  const nn::QuantizedForward& q8 = *detector_->quant_steering();
  saliency::VisualBackProp vbp;
  Rng rng(2);
  const Image a = smooth_frame(rng);
  const Image other(kH + 2, kW);
  const std::vector<std::vector<const Image*>> bad = {{nullptr}, {&a, nullptr}, {&a, &other}};
  for (const auto& frames : bad) {
    const std::string what = "batch of " + std::to_string(frames.size());
    EXPECT_THROW(driving::predict_steering_batch(*steering_, frames), std::invalid_argument)
        << what;
    EXPECT_THROW(driving::predict_steering_q8_batch(q8, frames), std::invalid_argument) << what;
    EXPECT_THROW(vbp.compute_batch(*steering_, frames), std::invalid_argument) << what;
    EXPECT_THROW(vbp.compute_batch(*steering_, &q8, frames), std::invalid_argument) << what;
    for (DetectorVariant v : {DetectorVariant::kPrimary, DetectorVariant::kPrimaryQ8,
                              DetectorVariant::kRawMse}) {
      std::vector<double> angles;
      EXPECT_THROW(detector_->variant_preprocess_batch(v, frames), std::invalid_argument)
          << what;
      EXPECT_THROW(detector_->variant_preprocess_batch(v, frames, &angles),
                   std::invalid_argument)
          << what;
      EXPECT_THROW(detector_->variant_reconstruct_batch(v, frames), std::invalid_argument)
          << what;
      EXPECT_THROW(detector_->score_batch(v, frames), std::invalid_argument) << what;
    }
    EXPECT_THROW(detector_->reconstruct_batch(frames), std::invalid_argument) << what;
  }
}

TEST_F(FusedComputeFixture, VbpRejectsAQuantizedViewOfAnotherModel) {
  Rng rng(3);
  const nn::Sequential other = driving::build_pilotnet(driving::PilotNetConfig::tiny(kH, kW), rng);
  const Image a = smooth_frame(rng);
  saliency::VisualBackProp vbp;
  EXPECT_THROW(vbp.compute_batch(other, detector_->quant_steering(), {&a}),
               std::invalid_argument);
}

TEST_F(FusedComputeFixture, FusedAnglesAndMasksMatchSoloEntries) {
  // variant_preprocess_batch(v, frames, &angles) reads each angle from the
  // forward that produced the masks; it must equal the steering entries
  // (a separate fused forward, not forward_collect) and the batch-1 mask.
  ASSERT_TRUE(detector_->has_quant_path());
  const nn::QuantizedForward& q8 = *detector_->quant_steering();
  prop::for_all<std::vector<Image>>(
      "fused angles + masks == predict_steering{,_q8} + variant_preprocess alone",
      [](Rng& rng) {
        const int64_t n = rng.uniform_int(1, 8);
        std::vector<Image> frames;
        for (int64_t i = 0; i < n; ++i) frames.push_back(random_frame(rng));
        return frames;
      },
      [&](const std::vector<Image>& frames) {
        const std::vector<const Image*> views = image_views(frames);
        for (DetectorVariant v : {DetectorVariant::kPrimary, DetectorVariant::kPrimaryQ8,
                                  DetectorVariant::kRawMse}) {
          const bool quantized = core::detector_variant_quantized(v);
          std::vector<double> angles;
          const std::vector<Image> masks = detector_->variant_preprocess_batch(v, views, &angles);
          if (masks.size() != frames.size() || angles.size() != frames.size()) return false;
          for (size_t i = 0; i < frames.size(); ++i) {
            const double solo_angle = quantized ? driving::predict_steering_q8(q8, frames[i])
                                                : driving::predict_steering(*steering_, frames[i]);
            if (!same_bits(angles[i], solo_angle)) return false;
            if (!same_bits(masks[i], detector_->variant_preprocess(v, frames[i]))) return false;
          }
        }
        return true;
      },
      {/*trials=*/12, /*seed=*/131});
}

TEST_F(FusedComputeFixture, SupervisorRejectsAnotherSteeringModel) {
  Rng rng(4);
  nn::Sequential other = driving::build_pilotnet(driving::PilotNetConfig::tiny(kH, kW), rng);
  serving::FakeClock clock;
  EXPECT_THROW(serving::Supervisor(*detector_, &other, {}, &clock), std::invalid_argument);
  EXPECT_THROW(serving::Supervisor(*detector_, nullptr, {}, &clock), std::invalid_argument);
  EXPECT_NO_THROW(serving::Supervisor(*detector_, steering_, {}, &clock));
}

TEST_F(FusedComputeFixture, ClusterRejectsAnotherSteeringModel) {
  Rng rng(5);
  nn::Sequential other = driving::build_pilotnet(driving::PilotNetConfig::tiny(kH, kW), rng);
  serving::FakeClock clock;
  serving::ClusterConfig config;
  config.streams = 2;
  EXPECT_THROW(serving::ServingCluster(*detector_, &other, config, &clock),
               std::invalid_argument);
  serving::ServingCluster cluster(*detector_, steering_, config, &clock);
  cluster.stop();
}

TEST_F(FusedComputeFixture, MixedRungClusterMatchesSoloSupervisorsAndSteersEveryFrame) {
  // One shared stall schedule, applied per stream by frame index: frames 1
  // and 3 overrun reconstruct (vbp+ssim -> vbp+ssim-q8 -> vbp+mse), frames
  // 5 and 6 overrun saliency (the breaker trips to raw+mse), and two frames
  // later the half-open probe restores vbp+ssim. Streams start two rounds
  // apart, so most batches mix float, q8 and raw frames.
  faults::TimingFaultInjector stalls;
  stalls.add({/*stage=*/3, /*stall_ns=*/10 * kMs, /*first_frame=*/1, /*last_frame=*/1,
              /*period=*/1});
  stalls.add({/*stage=*/3, /*stall_ns=*/10 * kMs, /*first_frame=*/3, /*last_frame=*/3,
              /*period=*/1});
  stalls.add({/*stage=*/2, /*stall_ns=*/10 * kMs, /*first_frame=*/5, /*last_frame=*/6,
              /*period=*/1});
  serving::SupervisorConfig sup;
  sup.stage_budget_ns = {kMs, kMs, kMs, kMs, kMs};
  sup.frame_budget_ns = 1000 * kMs;
  sup.timing_faults = &stalls;
  sup.enable_quant_rungs = true;
  sup.breaker.failure_threshold = 2;
  sup.breaker.open_frames = 2;

  constexpr int64_t kStreams = 4;
  constexpr int64_t kRounds = 16;
  constexpr int64_t kStagger = 2;
  std::vector<std::vector<Image>> scripts(kStreams);
  for (int64_t s = 0; s < kStreams; ++s) {
    Rng rng(200 + static_cast<uint64_t>(s));
    for (int64_t i = 0; i < kRounds - kStagger * s; ++i) {
      scripts[static_cast<size_t>(s)].push_back(i % 4 == 3 ? noise_frame(rng) : smooth_frame(rng));
    }
  }

  std::vector<std::vector<serving::ServeResult>> solo(kStreams);
  int64_t frames_total = 0;
  for (int64_t s = 0; s < kStreams; ++s) {
    serving::FakeClock clock;
    serving::Supervisor supervisor(*detector_, steering_, sup, &clock);
    ASSERT_TRUE(supervisor.quant_rungs_active());
    for (const Image& frame : scripts[static_cast<size_t>(s)]) {
      solo[static_cast<size_t>(s)].push_back(supervisor.process(frame));
      ++frames_total;
    }
  }

  serving::FakeClock clock;
  serving::ClusterConfig config;
  config.streams = kStreams;
  config.replicas = 1;  // stalls advance the shared clock: keep stages serial
  config.gather_window_ns = 10 * kMs;
  config.max_batch = 16;
  config.supervisor = sup;
  serving::ServingCluster cluster(*detector_, steering_, config, &clock);
  cluster.pause();
  for (int64_t round = 0; round < kRounds; ++round) {
    for (int64_t s = 0; s < kStreams; ++s) {
      const int64_t i = round - kStagger * s;
      if (i >= 0) cluster.submit(s, scripts[static_cast<size_t>(s)][static_cast<size_t>(i)]);
    }
    clock.advance_ns(20 * kMs);  // each round is its own gather window
  }
  cluster.drain();
  const std::vector<serving::ClusterResult> results = cluster.take_results();
  const serving::ClusterStats stats = cluster.stats();
  int64_t probe_successes = 0;
  for (int64_t s = 0; s < kStreams; ++s) probe_successes += cluster.stream_health(s).probe_successes;
  cluster.stop();

  ASSERT_EQ(static_cast<int64_t>(results.size()), frames_total);
  std::map<int64_t, int64_t> next_frame;
  std::map<int64_t, std::set<bool>> batch_precisions;  // batch_seq -> q8 / float rungs served
  std::set<serving::ServingMode> modes;
  for (const serving::ClusterResult& cr : results) {
    const int64_t i = next_frame[cr.stream_id]++;
    const serving::ServeResult& a = solo[static_cast<size_t>(cr.stream_id)][static_cast<size_t>(i)];
    const serving::ServeResult& b = cr.result;
    EXPECT_EQ(a.mode, b.mode) << "stream " << cr.stream_id << " frame " << i;
    EXPECT_EQ(a.scored, b.scored) << "stream " << cr.stream_id << " frame " << i;
    EXPECT_EQ(a.novel, b.novel) << "stream " << cr.stream_id << " frame " << i;
    EXPECT_EQ(a.deadline_overrun, b.deadline_overrun) << "stream " << cr.stream_id << " frame " << i;
    EXPECT_EQ(a.monitor_state, b.monitor_state) << "stream " << cr.stream_id << " frame " << i;
    EXPECT_TRUE(same_bits(a.score, b.score)) << "stream " << cr.stream_id << " frame " << i;
    EXPECT_TRUE(same_bits(a.steering, b.steering)) << "stream " << cr.stream_id << " frame " << i;
    modes.insert(b.mode);
    batch_precisions[cr.batch_seq].insert(serving::serving_mode_quantized(b.mode));
  }

  // The scenario reached every kind of rung the fused path distinguishes.
  EXPECT_TRUE(modes.count(serving::ServingMode::kVbpSsim));
  EXPECT_TRUE(modes.count(serving::ServingMode::kVbpSsimQ8));
  EXPECT_TRUE(modes.count(serving::ServingMode::kRawMse));
  EXPECT_GT(probe_successes, 0) << "no half-open probe restored a stream";
  bool mixed_batch = false;
  for (const auto& [seq, precisions] : batch_precisions) mixed_batch |= precisions.size() == 2;
  EXPECT_TRUE(mixed_batch) << "no batch mixed float and q8 frames";

  // Every frame is valid and no batch was withheld, so every frame got a
  // batched angle: from its mask's forward or from the steer-only batch.
  EXPECT_EQ(stats.batched_frames, frames_total);
  EXPECT_EQ(stats.prescreen_rejects, 0);
  EXPECT_EQ(stats.provided_steer, frames_total);
  EXPECT_GT(stats.provided_saliency, 0);
  EXPECT_LT(stats.provided_saliency, frames_total);
}

TEST(FusedComputeGradient, AnglesComeFromOneSteeringBatch) {
  // Gradient saliency exposes no forward, so the detector runs a steering
  // batch of its own; the angles still equal predict_steering.
  Rng rng(6);
  nn::Sequential steering = driving::build_pilotnet(driving::PilotNetConfig::tiny(kH, kW), rng);
  NoveltyDetectorConfig config;
  config.height = kH;
  config.width = kW;
  config.preprocessing = Preprocessing::kGradient;
  NoveltyDetector detector(config);
  detector.attach_steering_model(&steering);
  std::vector<Image> frames;
  for (int i = 0; i < 3; ++i) frames.push_back(random_frame(rng));
  std::vector<double> angles;
  const std::vector<Image> masks =
      detector.variant_preprocess_batch(DetectorVariant::kPrimary, image_views(frames), &angles);
  ASSERT_EQ(angles.size(), frames.size());
  for (size_t i = 0; i < frames.size(); ++i) {
    EXPECT_TRUE(same_bits(angles[i], driving::predict_steering(steering, frames[i]))) << i;
    EXPECT_TRUE(same_bits(masks[i], detector.variant_preprocess(DetectorVariant::kPrimary, frames[i])))
        << i;
  }
}

}  // namespace
}  // namespace salnov
