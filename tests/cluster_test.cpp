// ServingCluster tests: multi-stream routing, cross-frame micro-batching,
// batch-composition determinism, per-stream policy isolation, and the
// bit-identity contract — a frame scored inside any batch must produce
// exactly the result it would have produced through a bare Supervisor —
// plus the one-stream cluster as a single camera's bounded drop-oldest
// front end.
//
// The batching scenarios run under a FakeClock with pre-staged arrival
// schedules (pause -> submit -> advance -> resume), so batch composition is
// a pure function of the scripted timestamps. The one-stream front-end
// cases submit live (some on the real clock) and assert only what holds
// under any interleaving: conservation, the queue bound, and policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "calib/threshold_set.hpp"
#include "core/novelty_detector.hpp"
#include "driving/pilotnet.hpp"
#include "faults/timing_faults.hpp"
#include "serving/clock.hpp"
#include "serving/cluster.hpp"
#include "serving/supervisor.hpp"

namespace salnov::serving {
namespace {

using core::NoveltyDetector;
using core::NoveltyDetectorConfig;
using core::Preprocessing;
using core::ReconstructionScore;

constexpr int64_t kH = 16;
constexpr int64_t kW = 24;
constexpr int64_t kMs = 1'000'000;  // ns

class ClusterFixture : public ::testing::Test {
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
    for (int i = 0; i < 24; ++i) train.push_back(familiar_frame(rng));
    detector_->fit(train, rng);
  }

  static void TearDownTestSuite() {
    delete detector_;
    detector_ = nullptr;
    delete steering_;
    steering_ = nullptr;
  }

  static Image familiar_frame(Rng& rng) {
    Image img(kH, kW);
    const double slope = rng.uniform(0.8, 1.2);
    for (int64_t y = 0; y < kH; ++y) {
      for (int64_t x = 0; x < kW; ++x) {
        img(y, x) = static_cast<float>(slope * (y + x) / static_cast<double>(kH + kW));
      }
    }
    img.clamp01();
    return img;
  }

  static Image noise_frame(Rng& rng) {
    Image img(kH, kW);
    for (int64_t y = 0; y < kH; ++y) {
      for (int64_t x = 0; x < kW; ++x) img(y, x) = static_cast<float>(rng.uniform(0.0, 1.0));
    }
    return img;
  }

  /// Per-stream frame scripts: stream s gets a deterministic mix of
  /// familiar and novel frames, distinct across streams.
  static std::vector<std::vector<Image>> stream_scripts(int64_t streams, int64_t frames) {
    std::vector<std::vector<Image>> scripts(static_cast<size_t>(streams));
    for (int64_t s = 0; s < streams; ++s) {
      Rng rng(100 + static_cast<uint64_t>(s));
      for (int64_t i = 0; i < frames; ++i) {
        scripts[static_cast<size_t>(s)].push_back(
            (i + s) % 3 == 2 ? noise_frame(rng) : familiar_frame(rng));
      }
    }
    return scripts;
  }

  static void expect_results_bitexact(const ServeResult& solo, const ServeResult& batched) {
    EXPECT_EQ(solo.frame_index, batched.frame_index);
    EXPECT_EQ(solo.mode, batched.mode);
    EXPECT_EQ(solo.scored, batched.scored);
    EXPECT_EQ(solo.abandoned, batched.abandoned);
    EXPECT_EQ(solo.deadline_overrun, batched.deadline_overrun);
    EXPECT_EQ(solo.sensor_bad, batched.sensor_bad);
    EXPECT_EQ(solo.novel, batched.novel);
    // Bit-exact, NaN-tolerant: compare the representations.
    EXPECT_TRUE((std::isnan(solo.score) && std::isnan(batched.score)) ||
                solo.score == batched.score)
        << "score " << solo.score << " vs " << batched.score;
    EXPECT_TRUE((std::isnan(solo.steering) && std::isnan(batched.steering)) ||
                solo.steering == batched.steering)
        << "steering " << solo.steering << " vs " << batched.steering;
    EXPECT_EQ(solo.monitor_state, batched.monitor_state);
    EXPECT_EQ(solo.fallback_path, batched.fallback_path);
  }

  static NoveltyDetector* detector_;
  static nn::Sequential* steering_;
};

NoveltyDetector* ClusterFixture::detector_ = nullptr;
nn::Sequential* ClusterFixture::steering_ = nullptr;

// ---------------------------------------------------------------------------
// Construction and basic routing.

TEST_F(ClusterFixture, RejectsBadConfigs) {
  ClusterConfig config;
  config.streams = 0;
  EXPECT_THROW(ServingCluster(*detector_, steering_, config), std::invalid_argument);
  config.streams = 1;
  config.replicas = 0;
  EXPECT_THROW(ServingCluster(*detector_, steering_, config), std::invalid_argument);
  config.replicas = 1;
  config.max_batch = 0;
  EXPECT_THROW(ServingCluster(*detector_, steering_, config), std::invalid_argument);
}

TEST_F(ClusterFixture, RejectsBadStreamIds) {
  FakeClock clock;
  ClusterConfig config;
  config.streams = 2;
  ServingCluster cluster(*detector_, steering_, config, &clock);
  Rng rng(7);
  EXPECT_THROW(cluster.submit(-1, familiar_frame(rng)), std::out_of_range);
  EXPECT_THROW(cluster.submit(2, familiar_frame(rng)), std::out_of_range);
  EXPECT_THROW(cluster.stream_health(2), std::out_of_range);
  cluster.stop();
}

TEST_F(ClusterFixture, StopIsIdempotentAndDropsLateSubmissions) {
  FakeClock clock;
  ClusterConfig config;
  config.streams = 1;
  ServingCluster cluster(*detector_, steering_, config, &clock);
  Rng rng(7);
  cluster.submit(0, familiar_frame(rng));
  cluster.stop();
  cluster.stop();
  cluster.submit(0, familiar_frame(rng));  // dropped, not queued
  EXPECT_EQ(cluster.stream_health(0).frames_total, 1);
}

// ---------------------------------------------------------------------------
// Tentpole contract: batched scores are bit-identical to the solo path.

TEST_F(ClusterFixture, BatchedResultsBitIdenticalToSoloSupervisors) {
  const int64_t streams = 4;
  const int64_t frames = 6;
  const auto scripts = stream_scripts(streams, frames);

  // Reference: one independent supervisor per stream (FakeClock, no stalls:
  // timing never varies, so decisions depend only on the frames).
  std::vector<std::vector<ServeResult>> solo(static_cast<size_t>(streams));
  for (int64_t s = 0; s < streams; ++s) {
    FakeClock clock;
    Supervisor supervisor(*detector_, steering_, SupervisorConfig{}, &clock);
    for (const Image& frame : scripts[static_cast<size_t>(s)]) {
      solo[static_cast<size_t>(s)].push_back(supervisor.process(frame));
    }
  }

  // Cluster: 2 replicas, generous window so whole rounds batch together.
  FakeClock clock;
  ClusterConfig config;
  config.streams = streams;
  config.replicas = 2;
  config.gather_window_ns = 10 * kMs;
  config.max_batch = 16;
  ServingCluster cluster(*detector_, steering_, config, &clock);
  cluster.pause();
  for (int64_t i = 0; i < frames; ++i) {
    for (int64_t s = 0; s < streams; ++s) {
      cluster.submit(s, scripts[static_cast<size_t>(s)][static_cast<size_t>(i)]);
    }
    clock.advance_ns(20 * kMs);  // each round is its own gather window
  }
  cluster.drain();
  const std::vector<ClusterResult> results = cluster.take_results();
  cluster.stop();

  ASSERT_EQ(results.size(), static_cast<size_t>(streams * frames));
  std::map<int64_t, int64_t> next_frame;
  bool any_batched = false;
  for (const ClusterResult& cr : results) {
    const int64_t s = cr.stream_id;
    const int64_t i = next_frame[s]++;
    ASSERT_LT(i, frames);
    expect_results_bitexact(solo[static_cast<size_t>(s)][static_cast<size_t>(i)], cr.result);
    if (cr.batch_size > 1) any_batched = true;
  }
  EXPECT_TRUE(any_batched) << "scenario never exercised a multi-frame batch";
  // Every frame went through batched compute: steer and reconstruction were
  // provided for all frames, saliency for every frame predicted on a
  // saliency rung.
  const ClusterStats stats = cluster.stats();
  EXPECT_EQ(stats.batched_frames, streams * frames);
  EXPECT_EQ(stats.provided_steer, streams * frames);
  EXPECT_GT(stats.provided_saliency, 0);
  EXPECT_GT(stats.provided_recon, 0);
}

// ---------------------------------------------------------------------------
// Batch composition is a pure function of the arrival schedule.

TEST_F(ClusterFixture, SealsOnGatherWindowBoundaries) {
  FakeClock clock;
  ClusterConfig config;
  config.streams = 1;
  config.gather_window_ns = 2 * kMs;
  config.max_batch = 16;
  ServingCluster cluster(*detector_, steering_, config, &clock);
  cluster.pause();
  Rng rng(5);
  for (int i = 0; i < 3; ++i) cluster.submit(0, familiar_frame(rng));  // t = 0
  clock.advance_ns(6 * kMs);
  for (int i = 0; i < 2; ++i) cluster.submit(0, familiar_frame(rng));  // t = 6 ms
  clock.advance_ns(6 * kMs);                                           // now 12 ms > 6 + 2
  cluster.drain();
  const std::vector<ClusterResult> results = cluster.take_results();
  cluster.stop();

  ASSERT_EQ(results.size(), 5u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(results[static_cast<size_t>(i)].batch_size, 3) << "frame " << i;
    EXPECT_EQ(results[static_cast<size_t>(i)].batch_seq, 0) << "frame " << i;
  }
  for (int i = 3; i < 5; ++i) {
    EXPECT_EQ(results[static_cast<size_t>(i)].batch_size, 2) << "frame " << i;
    EXPECT_EQ(results[static_cast<size_t>(i)].batch_seq, 1) << "frame " << i;
  }
  const ClusterStats stats = cluster.stats();
  EXPECT_EQ(stats.batches, 2);
  EXPECT_EQ(stats.window_seals, 2);
  EXPECT_EQ(stats.max_batch_seals, 0);
  // Gather wait is bounded by the scripted schedule: the first batch sealed
  // when the beyond-window frames landed at t = 6 ms.
  EXPECT_LE(stats.max_gather_wait_ns, 12 * kMs);
}

TEST_F(ClusterFixture, SealsAtMaxBatch) {
  FakeClock clock;
  ClusterConfig config;
  config.streams = 1;
  config.gather_window_ns = 100 * kMs;
  config.max_batch = 4;
  ServingCluster cluster(*detector_, steering_, config, &clock);
  cluster.pause();
  Rng rng(5);
  for (int i = 0; i < 6; ++i) cluster.submit(0, familiar_frame(rng));  // all t = 0
  cluster.drain();  // seals 4 (max_batch), then flushes the remaining 2
  const std::vector<ClusterResult> results = cluster.take_results();
  cluster.stop();

  ASSERT_EQ(results.size(), 6u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(results[static_cast<size_t>(i)].batch_size, 4);
  for (int i = 4; i < 6; ++i) EXPECT_EQ(results[static_cast<size_t>(i)].batch_size, 2);
  const ClusterStats stats = cluster.stats();
  EXPECT_EQ(stats.max_batch_seals, 1);
  EXPECT_EQ(stats.flush_seals, 1);
}

TEST_F(ClusterFixture, CompositionIsDeterministicAcrossRuns) {
  const auto run_once = [&] {
    FakeClock clock;
    ClusterConfig config;
    config.streams = 3;
    config.replicas = 2;
    config.gather_window_ns = 3 * kMs;
    config.max_batch = 4;
    ServingCluster cluster(*detector_, steering_, config, &clock);
    cluster.pause();
    const auto scripts = stream_scripts(3, 5);
    for (int64_t i = 0; i < 5; ++i) {
      for (int64_t s = 0; s < 3; ++s) {
        cluster.submit(s, scripts[static_cast<size_t>(s)][static_cast<size_t>(i)]);
      }
      clock.advance_ns(2 * kMs);  // every other round crosses a window boundary
    }
    cluster.drain();
    auto results = cluster.take_results();
    cluster.stop();
    return results;
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].stream_id, b[i].stream_id) << i;
    EXPECT_EQ(a[i].arrival_seq, b[i].arrival_seq) << i;
    EXPECT_EQ(a[i].replica, b[i].replica) << i;
    EXPECT_EQ(a[i].batch_seq, b[i].batch_seq) << i;
    EXPECT_EQ(a[i].batch_size, b[i].batch_size) << i;
    EXPECT_TRUE((std::isnan(a[i].result.score) && std::isnan(b[i].result.score)) ||
                a[i].result.score == b[i].result.score)
        << i;
  }
}

// ---------------------------------------------------------------------------
// Per-stream policy isolation.

TEST_F(ClusterFixture, StreamsDegradeIndependently) {
  FakeClock clock;
  ClusterConfig config;
  config.streams = 2;
  config.replicas = 2;
  config.gather_window_ns = 5 * kMs;
  // Fast monitor so the novelty-fed stream reaches fallback within the run.
  config.supervisor.monitor.trigger_frames = 3;
  ServingCluster cluster(*detector_, steering_, config, &clock);
  cluster.pause();
  Rng familiar_rng(11);
  Rng noise_rng(12);
  for (int i = 0; i < 8; ++i) {
    cluster.submit(0, familiar_frame(familiar_rng));
    cluster.submit(1, noise_frame(noise_rng));
    clock.advance_ns(10 * kMs);
  }
  cluster.drain();
  cluster.stop();

  const HealthSnapshot healthy = cluster.stream_health(0);
  const HealthSnapshot novel = cluster.stream_health(1);
  EXPECT_EQ(healthy.frames_total, 8);
  EXPECT_EQ(novel.frames_total, 8);
  EXPECT_EQ(healthy.frames_scored, 8);
  // Stream 1 scores novel frame after frame; its monitor must escalate while
  // stream 0 stays nominal.
  const core::NoveltyMonitor& monitor0 = cluster.stream_supervisor(0).monitor();
  const core::NoveltyMonitor& monitor1 = cluster.stream_supervisor(1).monitor();
  EXPECT_NE(monitor0.state(), core::MonitorState::kFallback);
  EXPECT_EQ(monitor1.state(), core::MonitorState::kFallback);

  const HealthSnapshot aggregate = cluster.aggregate_health();
  EXPECT_EQ(aggregate.frames_total, 16);
  EXPECT_EQ(aggregate.frames_scored, healthy.frames_scored + novel.frames_scored);
}

// ---------------------------------------------------------------------------
// Speculation misses fall back to in-stage compute with identical bits.

TEST_F(ClusterFixture, MispredictedReconstructionFallsBackBitIdentically) {
  // Stalls on the reconstruct stage of frames 0 and 1 demote the stream to
  // raw+MSE; frame 2 sits in the same batch, so its reconstruction was
  // speculated from the saliency mask and must be discarded and recomputed
  // from the raw frame.
  faults::TimingFaultInjector stalls;
  stalls.add({/*stage=*/3, /*stall_ns=*/10 * kMs, /*first_frame=*/0, /*last_frame=*/1,
              /*period=*/1});
  SupervisorConfig sup;
  sup.stage_budget_ns = {kMs, kMs, kMs, kMs, kMs};
  sup.frame_budget_ns = 1000 * kMs;
  sup.timing_faults = &stalls;

  const auto scripts = stream_scripts(1, 6);

  // Solo reference under the identical stall schedule.
  std::vector<ServeResult> solo;
  {
    FakeClock clock;
    Supervisor supervisor(*detector_, steering_, sup, &clock);
    for (const Image& frame : scripts[0]) solo.push_back(supervisor.process(frame));
  }

  FakeClock clock;
  ClusterConfig config;
  config.streams = 1;
  config.gather_window_ns = 100 * kMs;
  config.max_batch = 16;
  config.supervisor = sup;
  ServingCluster cluster(*detector_, steering_, config, &clock);
  cluster.pause();
  for (const Image& frame : scripts[0]) cluster.submit(0, frame);
  cluster.drain();
  const std::vector<ClusterResult> results = cluster.take_results();
  const ClusterStats stats = cluster.stats();
  cluster.stop();

  ASSERT_EQ(results.size(), solo.size());
  EXPECT_EQ(results[0].batch_size, 6) << "scenario requires one mixed batch";
  for (size_t i = 0; i < solo.size(); ++i) {
    expect_results_bitexact(solo[i], results[i].result);
  }
  // The mode change mid-batch invalidated at least one speculated
  // reconstruction (raw rung scores against the frame, not the mask).
  EXPECT_GT(stats.recon_mispredicts, 0);
  EXPECT_EQ(cluster.stream_health(0).mode, ServingMode::kRawMse);
}

// ---------------------------------------------------------------------------
// Invalid frames are screened out of batched compute but still accounted.

TEST_F(ClusterFixture, MalformedFramesAreScreenedNotBatched) {
  FakeClock clock;
  ClusterConfig config;
  config.streams = 1;
  config.gather_window_ns = 100 * kMs;
  ServingCluster cluster(*detector_, steering_, config, &clock);
  cluster.pause();
  Rng rng(9);
  Image bad(kH, kW);
  bad(0, 0) = std::numeric_limits<float>::quiet_NaN();
  cluster.submit(0, familiar_frame(rng));
  cluster.submit(0, bad);
  cluster.submit(0, familiar_frame(rng));
  cluster.drain();
  const std::vector<ClusterResult> results = cluster.take_results();
  const ClusterStats stats = cluster.stats();
  cluster.stop();

  ASSERT_EQ(results.size(), 3u);
  EXPECT_FALSE(results[0].result.sensor_bad);
  EXPECT_TRUE(results[1].result.sensor_bad);
  EXPECT_FALSE(results[2].result.sensor_bad);
  EXPECT_EQ(stats.prescreen_rejects, 1);
  EXPECT_EQ(cluster.stream_health(0).frames_sensor_bad, 1);
  EXPECT_EQ(cluster.stream_health(0).frames_scored, 2);
}

// ---------------------------------------------------------------------------
// One-stream cluster as the asynchronous single-camera front end: admission
// credits are the bounded drop-oldest queue in front of one Supervisor.
// Every accepted frame is either served or shed, the pending high-water mark
// never exceeds the credits, and the supervisor's own policy (breaker,
// ladder, threshold hot-swap) is unaffected by queue pressure. The
// concurrent cases also run under TSan (tools/run_tsan.sh).

/// One stream with `credits` (>= 4) admission credits. max_batch 4 is at
/// most the credits, so batches seal while a burst is still arriving, even
/// under a FakeClock that only moves when a stage stalls.
ClusterConfig one_stream_config(int64_t credits, SupervisorConfig supervisor) {
  ClusterConfig config;
  config.streams = 1;
  config.admission_credits = credits;
  config.max_batch = 4;
  config.supervisor = std::move(supervisor);
  return config;
}

/// Tight 1 ms stage budgets; under a FakeClock an injected stall is the only
/// way a stage can overrun.
SupervisorConfig tight_config(const faults::TimingFaultInjector* faults) {
  SupervisorConfig config;
  config.stage_budget_ns = {kMs, kMs, kMs, kMs, kMs};
  config.frame_budget_ns = 1000 * kMs;
  config.timing_faults = faults;
  return config;
}

TEST_F(ClusterFixture, OneStreamShedsOldestWhenFull) {
  // Five frames into three credits with the replica paused: frames 0 and 1
  // are shed, the freshest three are served in order, and the pending queue
  // peaks at exactly its credits.
  FakeClock clock;
  ClusterConfig config;
  config.streams = 1;
  config.admission_credits = 3;
  ServingCluster cluster(*detector_, steering_, config, &clock);
  cluster.pause();
  Rng rng(61);
  for (int i = 0; i < 5; ++i) cluster.submit(0, familiar_frame(rng));
  HealthSnapshot health = cluster.stream_health(0);
  EXPECT_EQ(health.queue_shed, 2);
  EXPECT_EQ(health.queue_capacity, 3);
  EXPECT_EQ(health.queue_high_water, 3);
  EXPECT_EQ(health.frames_total, 0);
  cluster.drain();
  std::vector<int64_t> served;
  for (const ClusterResult& r : cluster.take_results()) served.push_back(r.arrival_seq);
  EXPECT_EQ(served, (std::vector<int64_t>{2, 3, 4})) << "frames 0 and 1 were shed";
  std::vector<int64_t> shed_seqs;
  for (const ClusterEvent& e : cluster.take_events()) {
    if (e.kind == ClusterEventKind::kShed) shed_seqs.push_back(e.detail);
  }
  EXPECT_EQ(shed_seqs, (std::vector<int64_t>{0, 1}));
  health = cluster.stream_health(0);
  EXPECT_EQ(health.frames_total, 3);
  EXPECT_EQ(health.queue_high_water, 3);
  cluster.stop();
}

/// A FakeClock whose first positive sleep after arm() holds the sleeping
/// thread until release(). A stage stall then keeps a sealed batch in
/// flight for exactly as long as the test needs; every other sleep just
/// advances time.
class GatedClock final : public Clock {
 public:
  int64_t now_ns() override { return clock_.now_ns(); }
  void sleep_ns(int64_t ns) override {
    if (ns > 0) {
      std::unique_lock<std::mutex> lock(mu_);
      if (armed_ && !released_) {
        sleeping_ = true;
        cv_.notify_all();
        cv_.wait(lock, [&] { return released_; });
      }
    }
    clock_.advance_ns(ns);
  }
  void arm() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = true;
  }
  void wait_until_sleeping() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return sleeping_; });
  }
  void release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  FakeClock clock_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool armed_ = false;
  bool sleeping_ = false;
  bool released_ = false;
};

TEST_F(ClusterFixture, OneStreamInFlightBatchShedsArrivalsNewestFirst) {
  // A frame holds its admission credit until it is served, so the frames of
  // a sealed batch in flight count against the credits. With max_batch >=
  // credits one full batch leaves no queued frame to shed, and each arrival
  // while it runs is shed itself: newest-first, not oldest-first.
  faults::TimingFaultInjector faults;
  faults.add({static_cast<int>(Stage::kSaliency), 1, 0, std::numeric_limits<int64_t>::max(), 1});
  GatedClock clock;
  ClusterConfig config = one_stream_config(2, tight_config(&faults));
  config.max_batch = 2;
  ServingCluster cluster(*detector_, steering_, config, &clock);
  cluster.pause();
  Rng rng(81);
  cluster.submit(0, familiar_frame(rng));
  cluster.submit(0, familiar_frame(rng));
  clock.arm();
  cluster.resume();             // seals {0, 1} at max_batch
  clock.wait_until_sleeping();  // frame 0 is stalled inside that batch
  cluster.submit(0, familiar_frame(rng));
  cluster.submit(0, familiar_frame(rng));
  // shed_for_stream, not stream_health: the stalled frame holds the
  // stream's supervisor lock that a health snapshot takes.
  EXPECT_EQ(cluster.shed_for_stream(0), 2);
  clock.release();
  cluster.drain();
  std::vector<int64_t> served;
  for (const ClusterResult& r : cluster.take_results()) served.push_back(r.arrival_seq);
  EXPECT_EQ(served, (std::vector<int64_t>{0, 1})) << "the batch in flight is served";
  std::vector<int64_t> shed_seqs;
  for (const ClusterEvent& e : cluster.take_events()) {
    if (e.kind == ClusterEventKind::kShed) shed_seqs.push_back(e.detail);
  }
  EXPECT_EQ(shed_seqs, (std::vector<int64_t>{2, 3})) << "the arrivals are shed, newest first";
  const HealthSnapshot health = cluster.stream_health(0);
  EXPECT_EQ(health.frames_total, 2);
  EXPECT_EQ(health.queue_shed, 2);
  EXPECT_EQ(health.queue_high_water, 2);
  cluster.stop();
}

TEST_F(ClusterFixture, OneStreamStopServesQueuedFramesThenDropsLateOnes) {
  FakeClock clock;
  ClusterConfig config;
  config.streams = 1;
  config.admission_credits = 4;
  ServingCluster cluster(*detector_, steering_, config, &clock);
  cluster.pause();
  Rng rng(71);
  for (int i = 0; i < 3; ++i) cluster.submit(0, familiar_frame(rng));
  cluster.stop();  // returns with all three still queued: it serves them, then joins
  EXPECT_EQ(cluster.stream_health(0).frames_total, 3);
  cluster.submit(0, familiar_frame(rng));  // dropped, not queued
  const HealthSnapshot health = cluster.stream_health(0);
  EXPECT_EQ(health.frames_total, 3);
  EXPECT_EQ(health.queue_shed, 0) << "a late submission is dropped, not shed";
  EXPECT_EQ(cluster.take_results().size(), 3u);
}

TEST_F(ClusterFixture, OneStreamServesOrShedsEveryFrame) {
  ServingCluster cluster(*detector_, steering_, one_stream_config(8, tight_config(nullptr)));
  Rng rng(63);
  for (int i = 0; i < 50; ++i) cluster.submit(0, familiar_frame(rng));
  cluster.drain();
  const HealthSnapshot health = cluster.stream_health(0);
  EXPECT_EQ(health.frames_total + health.queue_shed, 50);
  EXPECT_EQ(health.queue_shed, cluster.shed_for_stream(0));
  EXPECT_GE(health.queue_high_water, 1);
  EXPECT_LE(health.queue_high_water, 8);
  EXPECT_EQ(health.queue_capacity, 8);
  EXPECT_EQ(static_cast<int64_t>(cluster.take_results().size()), health.frames_total);
  cluster.stop();
}

TEST_F(ClusterFixture, OneStreamRealClockBurstRespectsCredits) {
  // Stall every frame's saliency stage on a real clock so the replica is
  // genuinely slower than the producer; pending frames must cap at the
  // credits, shed the oldest, and never exceed the bound.
  faults::TimingFaultInjector faults;
  faults.add({static_cast<int>(Stage::kSaliency), 2 * kMs, 0,
              std::numeric_limits<int64_t>::max() - 1, 1});
  SupervisorConfig supervisor = tight_config(&faults);
  supervisor.breaker.failure_threshold = 1'000'000;
  ClusterConfig config = one_stream_config(4, supervisor);
  config.keep_results = false;
  ServingCluster cluster(*detector_, steering_, config);
  Rng rng(65);
  for (int i = 0; i < 64; ++i) cluster.submit(0, familiar_frame(rng));
  cluster.drain();
  const HealthSnapshot health = cluster.stream_health(0);
  EXPECT_EQ(health.frames_total + health.queue_shed, 64);
  EXPECT_GT(health.frames_total, 0);
  EXPECT_LE(health.queue_high_water, 4);
  EXPECT_TRUE(cluster.take_results().empty());
  cluster.stop();
}

TEST_F(ClusterFixture, OneStreamProbeDuringQueueBurstRestoresLadder) {
  // The half-open probe fires while the stream is absorbing a producer
  // burst: shedding changes which *camera* frames are served, but stalls
  // key off the supervisor's own frame counter, so the trip -> backoff ->
  // probe -> restore cycle happens on exactly the same served-frame indices
  // regardless of queue pressure.
  faults::TimingFaultInjector faults;
  faults.add({static_cast<int>(Stage::kSaliency), 10 * kMs, /*first_frame=*/0,
              /*last_frame=*/1, /*period=*/1});
  FakeClock clock;
  SupervisorConfig supervisor = tight_config(&faults);
  supervisor.breaker.failure_threshold = 2;
  supervisor.breaker.open_frames = 2;
  supervisor.promote_after_healthy_frames = 2;
  ServingCluster cluster(*detector_, steering_, one_stream_config(8, supervisor), &clock);
  Rng rng(73);
  for (int i = 0; i < 60; ++i) cluster.submit(0, familiar_frame(rng));
  cluster.drain();
  const HealthSnapshot health = cluster.stream_health(0);
  EXPECT_EQ(health.frames_total + health.queue_shed, 60);
  // However hard the burst sheds, the frames pending at the last shed are
  // all served, which covers trip (frame 1), backoff (2..3), and the
  // successful probe that restores the top rung.
  ASSERT_GE(health.frames_total, 8);
  EXPECT_LE(health.queue_high_water, 8);
  EXPECT_EQ(health.breaker_trips, 1);
  EXPECT_EQ(health.probe_failures, 0);
  EXPECT_EQ(health.probe_successes, 1);
  EXPECT_EQ(health.breaker_state, BreakerState::kClosed);
  EXPECT_EQ(health.mode, ServingMode::kVbpSsim);
  EXPECT_EQ(static_cast<int64_t>(cluster.take_results().size()), health.frames_total);
  cluster.stop();
}

TEST_F(ClusterFixture, OneStreamConcurrentHotSwapNeverBlocksScoring) {
  // One thread streams frames through the cluster while another repeatedly
  // installs fresh ThresholdSets on the stream's supervisor and reads health
  // snapshots. The scorer's acquire is wait-free, so every frame is served
  // or shed and the served epoch only moves forward.
  ServingCluster cluster(*detector_, steering_, one_stream_config(16, tight_config(nullptr)));

  constexpr int64_t kInstalls = 200;
  std::thread installer([&] {
    for (int64_t epoch = 1; epoch <= kInstalls; ++epoch) {
      auto set = std::make_shared<calib::ThresholdSet>();
      set->epoch = epoch;
      for (int v = 0; v < core::kDetectorVariantCount; ++v) {
        set->thresholds[static_cast<size_t>(v)] =
            detector_->variant_calibration(static_cast<core::DetectorVariant>(v)).threshold;
      }
      cluster.stream_supervisor(0).install_thresholds(std::move(set));
      (void)cluster.stream_health(0);
    }
  });

  Rng rng(77);
  for (int i = 0; i < 40; ++i) cluster.submit(0, familiar_frame(rng));
  installer.join();
  cluster.drain();

  const HealthSnapshot health = cluster.stream_health(0);
  EXPECT_EQ(health.frames_total + health.queue_shed, 40);
  EXPECT_EQ(health.threshold_swaps, kInstalls);
  int64_t last_epoch = 0;
  for (const ClusterResult& served : cluster.take_results()) {
    EXPECT_GE(served.result.threshold_epoch, last_epoch) << "served epoch must be monotone";
    last_epoch = std::max(last_epoch, served.result.threshold_epoch);
  }
  cluster.stop();
}

TEST_F(ClusterFixture, OneStreamConcurrentProducersAndSnapshots) {
  ServingCluster cluster(*detector_, steering_, one_stream_config(16, tight_config(nullptr)));
  const auto produce = [&](int seed) {
    Rng rng(seed);
    for (int i = 0; i < 25; ++i) cluster.submit(0, familiar_frame(rng));
  };
  std::thread a(produce, 67);
  std::thread b(produce, 69);
  for (int i = 0; i < 10; ++i) {
    const HealthSnapshot snapshot = cluster.stream_health(0);  // concurrent snapshots
    EXPECT_LE(snapshot.queue_high_water, 16);
  }
  a.join();
  b.join();
  cluster.drain();
  const HealthSnapshot health = cluster.stream_health(0);
  EXPECT_EQ(health.frames_total + health.queue_shed, 50);
  EXPECT_LE(health.queue_high_water, 16);
  cluster.stop();
}

}  // namespace
}  // namespace salnov::serving
