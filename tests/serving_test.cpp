// Serving-runtime tests: deadline watchdog, degraded-mode ladder, circuit
// breaker, and health accounting. The asynchronous queue in front of a
// Supervisor is a one-stream ServingCluster (see cluster_test).
//
// Every timing scenario runs under a FakeClock with a deterministic
// TimingFaultInjector: injected stalls are the ONLY thing that advances
// time, so budget overruns, ladder steps, and breaker transitions happen on
// exactly the frames the schedule says — bit-for-bit reproducible on any
// machine, loaded or not.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/novelty_detector.hpp"
#include "driving/pilotnet.hpp"
#include "faults/timing_faults.hpp"
#include "serving/circuit_breaker.hpp"
#include "serving/clock.hpp"
#include "serving/health.hpp"
#include "serving/supervisor.hpp"

namespace salnov::serving {
namespace {

using core::DetectorVariant;
using core::NoveltyDetector;
using core::NoveltyDetectorConfig;
using core::Preprocessing;
using core::ReconstructionScore;

constexpr int64_t kH = 16;
constexpr int64_t kW = 24;
constexpr int64_t kMs = 1'000'000;  // ns

/// Fitted VBP+SSIM detector + steering model, shared across the suite (the
/// fit is the expensive part). Smooth gradients are familiar; noise is novel.
class ServingFixture : public ::testing::Test {
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

  /// Supervisor config with tight 1 ms stage budgets; under the FakeClock a
  /// 10 ms injected stall is the only way a stage can overrun.
  static SupervisorConfig tight_config(const faults::TimingFaultInjector* faults) {
    SupervisorConfig config;
    config.stage_budget_ns = {kMs, kMs, kMs, kMs, kMs};
    config.frame_budget_ns = 1000 * kMs;
    config.timing_faults = faults;
    return config;
  }

  static NoveltyDetector* detector_;
  static nn::Sequential* steering_;
};

NoveltyDetector* ServingFixture::detector_ = nullptr;
nn::Sequential* ServingFixture::steering_ = nullptr;

// ---------------------------------------------------------------------------
// Building blocks.

TEST(TimingFaults, ScheduleIsDeterministic) {
  faults::TimingFaultInjector injector;
  injector.add({/*stage=*/2, /*stall_ns=*/10 * kMs, /*first_frame=*/4, /*last_frame=*/12,
                /*period=*/4});
  EXPECT_EQ(injector.stall_ns(2, 3), 0);
  EXPECT_EQ(injector.stall_ns(2, 4), 10 * kMs);
  EXPECT_EQ(injector.stall_ns(2, 5), 0);
  EXPECT_EQ(injector.stall_ns(2, 8), 10 * kMs);
  EXPECT_EQ(injector.stall_ns(2, 12), 10 * kMs);
  EXPECT_EQ(injector.stall_ns(2, 13), 0);
  EXPECT_EQ(injector.stall_ns(1, 8), 0) << "other stages unaffected";
  // Overlapping faults sum.
  injector.add({2, 5 * kMs, 8, 8, 1});
  EXPECT_EQ(injector.stall_ns(2, 8), 15 * kMs);
}

TEST(TimingFaults, RejectsBadSchedules) {
  faults::TimingFaultInjector injector;
  EXPECT_THROW(injector.add({0, -1, 0, 10, 1}), std::invalid_argument);
  EXPECT_THROW(injector.add({0, 1, 0, 10, 0}), std::invalid_argument);
  EXPECT_THROW(injector.add({0, 1, 10, 4, 1}), std::invalid_argument);
}

TEST(FakeClockTest, SleepAdvancesTime) {
  FakeClock clock(100);
  EXPECT_EQ(clock.now_ns(), 100);
  clock.sleep_ns(50);
  EXPECT_EQ(clock.now_ns(), 150);
  clock.sleep_ns(-5);  // negative sleeps are ignored
  EXPECT_EQ(clock.now_ns(), 150);
}

TEST(CircuitBreakerTest, TripsAfterConsecutiveFailuresOnly) {
  CircuitBreakerConfig config;
  config.failure_threshold = 3;
  config.open_frames = 2;
  CircuitBreaker breaker(config);
  breaker.record_failure();
  breaker.record_failure();
  breaker.record_success();  // resets the streak
  breaker.record_failure();
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.trips(), 1);
}

TEST(CircuitBreakerTest, HalfOpenProbeLifecycle) {
  CircuitBreakerConfig config;
  config.failure_threshold = 1;
  config.open_frames = 2;
  CircuitBreaker breaker(config);
  breaker.record_failure();
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_FALSE(breaker.allows());
  breaker.begin_frame();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  breaker.begin_frame();
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_TRUE(breaker.allows());
  // Failed probe re-opens for a fresh backoff window.
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.probe_failures(), 1);
  breaker.begin_frame();
  breaker.begin_frame();
  ASSERT_EQ(breaker.state(), BreakerState::kHalfOpen);
  breaker.record_success();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.probe_successes(), 1);
  EXPECT_EQ(breaker.trips(), 1) << "probe failures are not fresh trips";
}

TEST(CircuitBreakerTest, RepeatedProbeFailuresBackOffWithoutFreshTrips) {
  // A stage that stays broken across many probe windows must keep the
  // breaker cycling open -> half-open -> open, counting probe failures but
  // never inflating the trip counter or shortening the backoff.
  CircuitBreakerConfig config;
  config.failure_threshold = 2;
  config.open_frames = 3;
  CircuitBreaker breaker(config);
  breaker.record_failure();
  breaker.record_failure();
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);

  for (int cycle = 1; cycle <= 5; ++cycle) {
    // A full backoff window must elapse before each probe.
    for (int64_t i = 0; i < config.open_frames - 1; ++i) {
      breaker.begin_frame();
      EXPECT_EQ(breaker.state(), BreakerState::kOpen) << "cycle " << cycle;
      EXPECT_FALSE(breaker.allows());
    }
    breaker.begin_frame();
    ASSERT_EQ(breaker.state(), BreakerState::kHalfOpen) << "cycle " << cycle;
    breaker.record_failure();
    EXPECT_EQ(breaker.state(), BreakerState::kOpen);
    EXPECT_EQ(breaker.probe_failures(), cycle);
    EXPECT_EQ(breaker.trips(), 1);
  }

  // Recovery after the 5th failed probe: the next window's probe succeeds,
  // and the failure streak must start from zero again (a single failure
  // right after closing is below the threshold).
  for (int64_t i = 0; i < config.open_frames; ++i) breaker.begin_frame();
  ASSERT_EQ(breaker.state(), BreakerState::kHalfOpen);
  breaker.record_success();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed) << "streak reset on close";
}

TEST(CircuitBreakerTest, HalfOpenHoldsUntilAProbeResultArrives) {
  // Extra frame ticks while half-open (e.g. frames that skip the guarded
  // stage entirely) must not re-open, re-close, or double-arm the probe.
  CircuitBreakerConfig config;
  config.failure_threshold = 1;
  config.open_frames = 1;
  CircuitBreaker breaker(config);
  breaker.record_failure();
  breaker.begin_frame();
  ASSERT_EQ(breaker.state(), BreakerState::kHalfOpen);
  for (int i = 0; i < 4; ++i) {
    breaker.begin_frame();
    EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
    EXPECT_TRUE(breaker.allows());
  }
  breaker.record_success();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.probe_successes(), 1);
}

TEST(LatencyRingTest, NearestRankPercentiles) {
  LatencyRing ring(8);
  EXPECT_EQ(ring.percentile_ns(0.99), 0) << "empty ring reports 0";
  for (int64_t v = 1; v <= 8; ++v) ring.push(v * 100);
  EXPECT_EQ(ring.percentile_ns(0.50), 400);
  EXPECT_EQ(ring.percentile_ns(0.99), 800);
  // Window rolls: pushing 4 more evicts 100..400.
  for (int64_t v = 9; v <= 12; ++v) ring.push(v * 100);
  EXPECT_EQ(ring.percentile_ns(0.99), 1200);
  EXPECT_EQ(ring.count(), 12);
}

// ---------------------------------------------------------------------------
// Supervisor scenarios (all under FakeClock + injected stalls).

TEST_F(ServingFixture, HealthyStreamServesAtTopOfLadder) {
  FakeClock clock;
  Supervisor supervisor(*detector_, steering_, tight_config(nullptr), &clock);
  Rng rng(43);
  for (int i = 0; i < 8; ++i) {
    const ServeResult result = supervisor.process(familiar_frame(rng));
    EXPECT_EQ(result.mode, ServingMode::kVbpSsim);
    EXPECT_TRUE(result.scored);
    EXPECT_FALSE(result.deadline_overrun);
    EXPECT_FALSE(result.abandoned);
    EXPECT_TRUE(std::isfinite(result.score));
    EXPECT_TRUE(std::isfinite(result.steering));
  }
  const HealthSnapshot health = supervisor.health();
  EXPECT_EQ(health.frames_total, 8);
  EXPECT_EQ(health.frames_scored, 8);
  EXPECT_EQ(health.deadline_overruns, 0);
  EXPECT_EQ(health.step_downs, 0);
  EXPECT_EQ(health.mode, ServingMode::kVbpSsim);
  EXPECT_EQ(health.breaker_state, BreakerState::kClosed);
}

TEST_F(ServingFixture, SaliencyStallStepsDownLadderRungByRung) {
  faults::TimingFaultInjector faults;
  faults.add({static_cast<int>(Stage::kSaliency), 10 * kMs, 0, 1, 1});
  SupervisorConfig config = tight_config(&faults);
  config.breaker.failure_threshold = 10;  // keep the breaker out of this test
  FakeClock clock;
  Supervisor supervisor(*detector_, steering_, config, &clock);
  Rng rng(45);

  // Frame 0: saliency blows its budget -> the frame itself is still served,
  // on the raw+MSE rung, and the ladder steps down to VBP+MSE.
  const ServeResult f0 = supervisor.process(familiar_frame(rng));
  EXPECT_EQ(f0.mode, ServingMode::kRawMse) << "within-frame fallback";
  EXPECT_TRUE(f0.scored);
  EXPECT_TRUE(f0.deadline_overrun);
  EXPECT_EQ(f0.stage_ns[static_cast<size_t>(Stage::kSaliency)], 10 * kMs);
  EXPECT_EQ(supervisor.mode(), ServingMode::kVbpMse);

  // Frame 1: still stalling -> second step down, to raw+MSE.
  const ServeResult f1 = supervisor.process(familiar_frame(rng));
  EXPECT_EQ(f1.mode, ServingMode::kRawMse);
  EXPECT_EQ(supervisor.mode(), ServingMode::kRawMse);

  // Frame 2: the raw rung never touches saliency -> healthy.
  const ServeResult f2 = supervisor.process(familiar_frame(rng));
  EXPECT_EQ(f2.mode, ServingMode::kRawMse);
  EXPECT_FALSE(f2.deadline_overrun);
  EXPECT_EQ(f2.stage_ns[static_cast<size_t>(Stage::kSaliency)], 0) << "stage skipped";

  const HealthSnapshot health = supervisor.health();
  EXPECT_EQ(health.step_downs, 2);
  EXPECT_EQ(health.deadline_overruns, 2);
  EXPECT_EQ(health.stages[static_cast<size_t>(Stage::kSaliency)].overruns, 2);
  EXPECT_EQ(health.frames_scored, 3);
}

TEST_F(ServingFixture, PromotionClimbsBackAfterRecovery) {
  faults::TimingFaultInjector faults;
  faults.add({static_cast<int>(Stage::kSaliency), 10 * kMs, 0, 1, 1});
  SupervisorConfig config = tight_config(&faults);
  config.breaker.failure_threshold = 10;
  config.promote_after_healthy_frames = 3;
  FakeClock clock;
  Supervisor supervisor(*detector_, steering_, config, &clock);
  Rng rng(47);

  for (int i = 0; i < 8; ++i) supervisor.process(familiar_frame(rng));
  // f0,f1 demote to raw+mse; f2..f4 healthy -> vbp+mse; f5..f7 -> vbp+ssim.
  EXPECT_EQ(supervisor.mode(), ServingMode::kVbpSsim);
  const HealthSnapshot health = supervisor.health();
  EXPECT_EQ(health.step_downs, 2);
  EXPECT_EQ(health.promotions, 2);
}

TEST_F(ServingFixture, BreakerTripForcesRawAndProbeRestoresTop) {
  faults::TimingFaultInjector faults;
  faults.add({static_cast<int>(Stage::kSaliency), 10 * kMs, 0, 2, 1});
  SupervisorConfig config = tight_config(&faults);
  config.breaker.failure_threshold = 3;
  config.breaker.open_frames = 2;
  config.demote_after_bad_frames = 100;     // isolate the breaker path
  config.promote_after_healthy_frames = 100;
  FakeClock clock;
  Supervisor supervisor(*detector_, steering_, config, &clock);
  Rng rng(49);

  supervisor.process(familiar_frame(rng));  // f0: failure 1
  supervisor.process(familiar_frame(rng));  // f1: failure 2
  EXPECT_EQ(supervisor.mode(), ServingMode::kVbpSsim) << "hysteresis held the rung";
  const ServeResult f2 = supervisor.process(familiar_frame(rng));  // f2: trips
  EXPECT_EQ(supervisor.breaker_state(), BreakerState::kOpen);
  EXPECT_EQ(supervisor.mode(), ServingMode::kRawMse) << "trip forces the raw rung";
  EXPECT_EQ(f2.mode, ServingMode::kRawMse);

  // f3: breaker open -> saliency untouched.
  const ServeResult f3 = supervisor.process(familiar_frame(rng));
  EXPECT_EQ(f3.stage_ns[static_cast<size_t>(Stage::kSaliency)], 0);
  EXPECT_FALSE(f3.deadline_overrun);

  // f4: open_frames elapsed -> half-open probe; the stall cleared at f2, so
  // the probe succeeds and restores VBP+SSIM directly.
  const ServeResult f4 = supervisor.process(familiar_frame(rng));
  EXPECT_EQ(f4.mode, ServingMode::kVbpSsim);
  EXPECT_TRUE(f4.scored);
  EXPECT_EQ(supervisor.mode(), ServingMode::kVbpSsim);
  EXPECT_EQ(supervisor.breaker_state(), BreakerState::kClosed);

  const HealthSnapshot health = supervisor.health();
  EXPECT_EQ(health.breaker_trips, 1);
  EXPECT_EQ(health.probe_successes, 1);
  EXPECT_EQ(health.probe_failures, 0);
}

TEST_F(ServingFixture, FailedProbeReopensForAnotherBackoff) {
  faults::TimingFaultInjector faults;
  faults.add({static_cast<int>(Stage::kSaliency), 10 * kMs, 0, 4, 1});
  SupervisorConfig config = tight_config(&faults);
  config.breaker.failure_threshold = 3;
  config.breaker.open_frames = 2;
  config.demote_after_bad_frames = 100;
  config.promote_after_healthy_frames = 100;
  FakeClock clock;
  Supervisor supervisor(*detector_, steering_, config, &clock);
  Rng rng(51);

  for (int i = 0; i < 5; ++i) supervisor.process(familiar_frame(rng));
  // f0..f2 trip the breaker; f4 is the first probe and the stall is still
  // active, so it fails and the breaker re-opens.
  EXPECT_EQ(supervisor.breaker_state(), BreakerState::kOpen);
  EXPECT_EQ(supervisor.health().probe_failures, 1);

  // Two more open frames -> second probe at f6, now past the stall window.
  supervisor.process(familiar_frame(rng));
  const ServeResult f6 = supervisor.process(familiar_frame(rng));
  EXPECT_EQ(f6.mode, ServingMode::kVbpSsim);
  EXPECT_EQ(supervisor.breaker_state(), BreakerState::kClosed);
  const HealthSnapshot health = supervisor.health();
  EXPECT_EQ(health.breaker_trips, 1);
  EXPECT_EQ(health.probe_failures, 1);
  EXPECT_EQ(health.probe_successes, 1);
}

TEST_F(ServingFixture, FrameDeadlineAbandonsMidPipeline) {
  faults::TimingFaultInjector faults;
  faults.add({static_cast<int>(Stage::kReconstruct), 10 * kMs, 0, 0, 1});
  SupervisorConfig config = tight_config(&faults);
  config.frame_budget_ns = 5 * kMs;
  FakeClock clock;
  Supervisor supervisor(*detector_, steering_, config, &clock);
  Rng rng(53);

  const ServeResult f0 = supervisor.process(familiar_frame(rng));
  EXPECT_TRUE(f0.abandoned);
  EXPECT_FALSE(f0.scored);
  EXPECT_TRUE(f0.deadline_overrun);
  EXPECT_EQ(f0.stage_ns[static_cast<size_t>(Stage::kScore)], 0) << "score stage skipped";

  const ServeResult f1 = supervisor.process(familiar_frame(rng));
  EXPECT_FALSE(f1.abandoned);
  EXPECT_TRUE(f1.scored);

  const HealthSnapshot health = supervisor.health();
  EXPECT_EQ(health.frames_abandoned, 1);
  EXPECT_EQ(health.frames_total, 2);
  EXPECT_EQ(health.step_downs, 1) << "an abandoned frame is a bad frame";
}

TEST_F(ServingFixture, LadderExhaustionHoldsAndRecovers) {
  // Reconstruct runs on every rung, so a sustained stall walks the ladder
  // all the way down to sensor hold; once it clears the supervisor climbs
  // back and the monitor releases.
  faults::TimingFaultInjector faults;
  faults.add({static_cast<int>(Stage::kReconstruct), 10 * kMs, 0, 9, 1});
  SupervisorConfig config = tight_config(&faults);
  config.promote_after_healthy_frames = 2;
  config.breaker.failure_threshold = 100;
  FakeClock clock;
  Supervisor supervisor(*detector_, steering_, config, &clock);
  Rng rng(55);

  bool saw_hold_with_sensor_fault = false;
  for (int i = 0; i < 10; ++i) {
    const ServeResult result = supervisor.process(familiar_frame(rng));
    if (result.mode == ServingMode::kSensorHold) {
      EXPECT_FALSE(result.scored) << "held frames make no calibrated claim";
      if (result.monitor_state == core::MonitorState::kSensorFault) {
        EXPECT_EQ(result.fallback_path, core::FallbackPath::kSensorFault);
        saw_hold_with_sensor_fault = true;
      }
    }
  }
  EXPECT_EQ(supervisor.mode(), ServingMode::kSensorHold);
  EXPECT_TRUE(saw_hold_with_sensor_fault)
      << "sustained hold must engage the monitor's sensor path";
  const HealthSnapshot mid = supervisor.health();
  EXPECT_EQ(mid.step_downs, 3);
  EXPECT_GT(mid.frames_held, 0);

  // Stall clears: promote back up to the top and release the monitor.
  for (int i = 0; i < 20; ++i) supervisor.process(familiar_frame(rng));
  EXPECT_EQ(supervisor.mode(), ServingMode::kVbpSsim);
  EXPECT_NE(supervisor.monitor().state(), core::MonitorState::kSensorFault);
  const HealthSnapshot health = supervisor.health();
  EXPECT_EQ(health.frames_total, 30);
  EXPECT_EQ(health.frames_scored + health.frames_held + health.frames_abandoned, 30);
}

TEST_F(ServingFixture, SensorBadFramesAreLadderNeutral) {
  FakeClock clock;
  Supervisor supervisor(*detector_, steering_, tight_config(nullptr), &clock);
  Rng rng(57);
  supervisor.process(familiar_frame(rng));
  const ServeResult bad = supervisor.process(Image(kH + 2, kW));  // wrong size
  EXPECT_TRUE(bad.sensor_bad);
  EXPECT_FALSE(bad.scored);
  EXPECT_EQ(supervisor.mode(), ServingMode::kVbpSsim) << "ladder unaffected";
  const HealthSnapshot health = supervisor.health();
  EXPECT_EQ(health.frames_sensor_bad, 1);
  EXPECT_EQ(health.step_downs, 0);
}

TEST_F(ServingFixture, PeriodicSpikesCountExactlyAndNeverDemote) {
  faults::TimingFaultInjector faults;
  faults.add({static_cast<int>(Stage::kSaliency), 10 * kMs, 0, 11, 4});  // f0, f4, f8
  SupervisorConfig config = tight_config(&faults);
  config.demote_after_bad_frames = 2;  // isolated spikes never make a streak
  config.breaker.failure_threshold = 10;
  FakeClock clock;
  Supervisor supervisor(*detector_, steering_, config, &clock);
  Rng rng(59);

  for (int i = 0; i < 12; ++i) supervisor.process(familiar_frame(rng));
  const HealthSnapshot health = supervisor.health();
  EXPECT_EQ(health.deadline_overruns, 3);
  EXPECT_EQ(health.stages[static_cast<size_t>(Stage::kSaliency)].overruns, 3);
  EXPECT_EQ(health.step_downs, 0);
  EXPECT_EQ(health.mode, ServingMode::kVbpSsim);
  EXPECT_EQ(health.frames_scored, 12);

  const std::string json = health.to_json();
  EXPECT_NE(json.find("\"deadline_overruns\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"mode\":\"vbp+ssim\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"saliency\",\"overruns\":3"), std::string::npos) << json;
}

TEST_F(ServingFixture, IdenticalSchedulesProduceIdenticalHealth) {
  const auto run = [&] {
    faults::TimingFaultInjector faults;
    faults.add({static_cast<int>(Stage::kSaliency), 10 * kMs, 1, 6, 2});
    faults.add({static_cast<int>(Stage::kScore), 3 * kMs, 4, 4, 1});
    SupervisorConfig config = tight_config(&faults);
    config.promote_after_healthy_frames = 3;
    FakeClock clock;
    Supervisor supervisor(*detector_, steering_, config, &clock);
    Rng rng(61);
    for (int i = 0; i < 16; ++i) supervisor.process(familiar_frame(rng));
    return supervisor.health().to_json();
  };
  EXPECT_EQ(run(), run());
}

TEST_F(ServingFixture, PersistentStallFailsEveryProbeWithoutRetripping) {
  // Supervisor-level view of the repeated-probe-failure cycle: a saliency
  // stall that never clears must trip the breaker exactly once, fail every
  // half-open probe thereafter, and keep serving calibrated raw+MSE scores
  // the whole time.
  faults::TimingFaultInjector faults;
  faults.add({static_cast<int>(Stage::kSaliency), 10 * kMs, 0,
              std::numeric_limits<int64_t>::max() - 1, 1});
  FakeClock clock;
  SupervisorConfig config = tight_config(&faults);
  config.breaker.failure_threshold = 2;
  config.breaker.open_frames = 2;
  // An isolated failed-probe frame must not demote the ladder below raw+MSE
  // (each probe blows the stage budget, but two bad frames never run
  // consecutively once the breaker is open).
  config.demote_after_bad_frames = 2;
  Supervisor supervisor(*detector_, steering_, config, &clock);
  Rng rng(71);
  for (int i = 0; i < 20; ++i) {
    const ServeResult result = supervisor.process(familiar_frame(rng));
    if (i >= 2) {
      EXPECT_EQ(result.mode, ServingMode::kRawMse) << "frame " << i;
      EXPECT_TRUE(result.scored) << "frame " << i;
    }
  }
  const HealthSnapshot health = supervisor.health();
  EXPECT_EQ(health.breaker_trips, 1) << "failed probes must not count as trips";
  EXPECT_GE(health.probe_failures, 3);
  EXPECT_EQ(health.probe_successes, 0);
  EXPECT_EQ(health.promotions, 0);
  EXPECT_NE(health.breaker_state, BreakerState::kClosed);
  EXPECT_EQ(health.mode, ServingMode::kRawMse);
}

TEST_F(ServingFixture, HotSwapChangesVerdictsWithoutInterruptingService) {
  // Drift path end to end on the primary rung: a stream of off-distribution
  // frames is flagged novel against the fitted threshold until the shadow
  // calibration swaps in a threshold fitted to the new distribution — after
  // which the same frames read as nominal. Service never pauses.
  SupervisorConfig config = tight_config(nullptr);
  config.monitor.trigger_frames = 1'000'000;  // keep the monitor quiet
  config.calibration.enabled = true;
  config.calibration.warmup = 16;
  config.calibration.min_samples = 24;
  config.calibration.check_every_frames = 8;
  config.calibration.trigger_checks = 2;
  config.calibration.release_checks = 2;
  FakeClock clock;
  Supervisor supervisor(*detector_, steering_, config, &clock);
  Rng rng(75);

  const auto off_distribution_frame = [&] {
    Image img = familiar_frame(rng);
    for (int64_t i = 0; i < img.numel(); ++i) {
      img.tensor()[i] = 1.0f - img.tensor()[i];  // inverted gradient
    }
    return img;
  };

  int64_t novel_before_swap = 0;
  int64_t scored_before_swap = 0;
  int64_t novel_after_swap = 0;
  int64_t scored_after_swap = 0;
  for (int i = 0; i < 160; ++i) {
    const ServeResult result = supervisor.process(off_distribution_frame());
    ASSERT_TRUE(result.scored) << "frame " << i << ": service must not pause for a swap";
    if (result.threshold_epoch == 0) {
      ++scored_before_swap;
      novel_before_swap += result.novel ? 1 : 0;
    } else {
      ++scored_after_swap;
      novel_after_swap += result.novel ? 1 : 0;
    }
  }
  const HealthSnapshot health = supervisor.health();
  ASSERT_GE(health.threshold_swaps, 1) << "sustained shift must trigger a recalibration";
  ASSERT_GT(scored_before_swap, 0);
  ASSERT_GT(scored_after_swap, 0);
  EXPECT_GT(static_cast<double>(novel_before_swap) / scored_before_swap, 0.9)
      << "fitted threshold flags the shifted stream";
  EXPECT_LT(static_cast<double>(novel_after_swap) / scored_after_swap, 0.25)
      << "swapped threshold is calibrated to the shifted stream";
}

}  // namespace
}  // namespace salnov::serving
