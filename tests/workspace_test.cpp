// Tests for the per-thread workspace arena: bump/mark/release semantics,
// alignment, pointer stability across growth, and the steady-state
// zero-allocation guarantee through the full NoveltyDetector::score path.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/novelty_detector.hpp"
#include "driving/pilotnet.hpp"
#include "parallel/parallel_for.hpp"
#include "roadsim/dataset.hpp"
#include "roadsim/outdoor_generator.hpp"
#include "tensor/rng.hpp"
#include "tensor/workspace.hpp"

namespace salnov {
namespace {

struct ThreadGuard {
  ~ThreadGuard() { parallel::set_num_threads(0); }
};

TEST(Workspace, BuffersAreAlignedAndDisjoint) {
  Workspace ws;
  const auto marker = ws.mark();
  float* a = ws.alloc_floats(100);
  float* b = ws.alloc_floats(1);
  float* c = ws.alloc_floats(7);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(c) % 64, 0u);
  EXPECT_GE(b, a + 100);
  EXPECT_GE(c, b + 1);
  ws.release(marker);
}

TEST(Workspace, ReleaseRewindsForReuse) {
  Workspace ws;
  const auto marker = ws.mark();
  float* first = ws.alloc_floats(512);
  ws.release(marker);
  float* second = ws.alloc_floats(512);
  EXPECT_EQ(first, second) << "released memory must be reused, not reallocated";
  ws.release(marker);
}

TEST(Workspace, ScopesNestAndRestore) {
  Workspace& ws = Workspace::tls();
  float* outer = nullptr;
  float* probe = nullptr;
  {
    WorkspaceScope outer_scope;
    outer = outer_scope.floats(64);
    outer[0] = 1.0f;
    {
      WorkspaceScope inner_scope;
      float* inner = inner_scope.floats(64);
      EXPECT_GE(inner, outer + 64) << "inner scope must allocate past the outer buffer";
      inner[0] = 2.0f;
    }
    // Inner released; the next inner-level allocation reuses its space while
    // the outer buffer stays intact.
    {
      WorkspaceScope again;
      probe = again.floats(64);
    }
    EXPECT_EQ(outer[0], 1.0f);
    EXPECT_GE(probe, outer + 64);
  }
  // Fully unwound: a fresh scope starts from the same place.
  WorkspaceScope fresh;
  EXPECT_EQ(fresh.floats(1), outer);
  (void)ws;
}

TEST(Workspace, GrowthKeepsOldBuffersValid) {
  Workspace ws;
  float* small = ws.alloc_floats(16);
  small[0] = 7.0f;
  // Force at least one new chunk: far larger than the minimum chunk size.
  float* big = ws.alloc_floats(1 << 22);
  big[0] = 8.0f;
  EXPECT_EQ(small[0], 7.0f) << "growth must append chunks, never move old ones";
}

TEST(Workspace, GrowthIsGeometricNotLinear) {
  // Batch-B panels make arenas grow far past the single-frame high-water
  // mark; growth must be amortized. N live allocations of the minimum chunk
  // size must cost O(log N) heap trips (each new chunk reserves at least the
  // total reserved so far), not one chunk per allocation.
  Workspace ws;
  constexpr int64_t kMinChunkFloats = 1 << 16;  // workspace.cpp's floor
  const int64_t before = Workspace::heap_allocation_count();
  for (int i = 0; i < 200; ++i) ws.alloc_floats(kMinChunkFloats);
  const int64_t chunks = Workspace::heap_allocation_count() - before;
  EXPECT_LE(chunks, 12) << "200 min-sized allocations must share geometric chunks";
  EXPECT_GE(chunks, 1);
}

TEST(Workspace, ZeroCountAllocationIsValid) {
  Workspace ws;
  EXPECT_NO_THROW(ws.alloc_floats(0));
  EXPECT_THROW(ws.alloc_floats(-1), std::invalid_argument);
}

TEST(Workspace, SteadyStateDetectorScoringAllocatesNothing) {
  // The zero-allocation guarantee from the issue: after warm-up, repeated
  // NoveltyDetector::score calls must not grow any thread's arena — the
  // process-wide chunk-allocation counter stays flat.
  ThreadGuard guard;
  parallel::set_num_threads(2);

  constexpr int64_t kH = 24, kW = 48;
  Rng rng(321);
  roadsim::OutdoorSceneGenerator outdoor;
  const auto train = roadsim::DrivingDataset::generate(outdoor, 12, kH, kW, rng);
  const auto probe = roadsim::DrivingDataset::generate(outdoor, 4, kH, kW, rng);

  nn::Sequential steering = driving::build_pilotnet(driving::PilotNetConfig::tiny(kH, kW), rng);

  core::NoveltyDetectorConfig config;
  config.height = kH;
  config.width = kW;
  config.preprocessing = core::Preprocessing::kVbp;
  config.score = core::ReconstructionScore::kSsim;
  config.autoencoder = core::AutoencoderConfig::tiny(kH, kW);
  config.train_epochs = 2;

  core::NoveltyDetector detector(config);
  detector.attach_steering_model(&steering);
  Rng fit_rng(9);
  detector.fit(train.images(), fit_rng);

  // Warm-up: grows every participating thread's arena to its high-water
  // mark and populates the lazy weight packs. The VBP channel averages and
  // relevance ping-pong and the SSIM summed-area tables all come from the
  // arena, so a frame that needed fresh scratch would move the counter.
  std::vector<double> warm;
  for (const auto& img : probe.images()) warm.push_back(detector.score(img));
  const std::vector<const Image*> batch = image_views(probe.images());
  ASSERT_EQ(batch.size(), 4u);
  const std::vector<double> warm_batch =
      detector.score_batch(core::DetectorVariant::kPrimary, batch);

  const int64_t baseline = Workspace::heap_allocation_count();
  std::vector<double> steady;
  for (int round = 0; round < 3; ++round) {
    for (const auto& img : probe.images()) steady.push_back(detector.score(img));
  }
  EXPECT_EQ(Workspace::heap_allocation_count(), baseline)
      << "steady-state scoring grew a workspace arena";
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(detector.score_batch(core::DetectorVariant::kPrimary, batch), warm_batch);
  }
  EXPECT_EQ(Workspace::heap_allocation_count(), baseline)
      << "steady-state batch-4 scoring grew a workspace arena";

  // And warm-up did not change the scores; the batch scores are the
  // batch-1 ones.
  for (size_t i = 0; i < warm.size(); ++i) {
    EXPECT_EQ(steady[i], warm[i]) << "score " << i;
    EXPECT_EQ(warm_batch[i], warm[i]) << "batch score " << i;
  }
}

}  // namespace
}  // namespace salnov
