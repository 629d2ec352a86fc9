// single_stream and degraded_ladder: one camera through a batch-1
// Supervisor, closed loop; plus the set-up repetitions every workload uses.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include <malloc.h>
#include <unistd.h>

#include "bench.hpp"
#include "driving/steering_trainer.hpp"
#include "faults/fault_injector.hpp"
#include "faults/timing_faults.hpp"
#include "parallel/parallel_for.hpp"
#include "roadsim/conditions.hpp"

namespace servebench {

using namespace salnov;
using serving::ServeResult;
using serving::ServingMode;

namespace {

/// single_stream: every served score at this stride is recomputed with
/// NoveltyDetector::score_variant outside the timed loop.
constexpr int64_t kGateStride = 37;
/// single_stream's latency figures are medians over windows this long.
constexpr double kWindowSeconds = 1.0;
/// single_stream serves frames in blocks of this many (see the loop).
constexpr int64_t kBlockFrames = 64;

// degraded_ladder's schedule: one pass serves the first kLadderPoolFrames
// pool frames twice, clean and then at dusk. A pass over the whole pool
// gave the calibrator more swaps, which lowered novel_detect_rate to about
// 0.33 and widened its spread between seeds.
constexpr int64_t kLadderPoolFrames = 1024;
constexpr int64_t kLadderFrames = 2 * kLadderPoolFrames;
constexpr double kDuskSeverity = 0.6;  ///< condition drift over the second half
/// Sensor faults sit at fixed offsets in every block of this many frames, so
/// the rung sequence is the same for every seed: NaN, dead, frozen (6%).
constexpr int64_t kFaultBlock = 50;
constexpr int64_t kNanOffset = 7;
constexpr int64_t kDeadOffset = 23;
constexpr int64_t kFrozenOffset = 41;
constexpr int64_t kStallBlock = 512;
/// Host steal is read every this many ladder frames (a divisor of kStallBlock).
constexpr int64_t kStealSampleFrames = 64;
constexpr int64_t kMs = 1'000'000;

bool same_outcome(const ServeResult& a, const ServeResult& b) {
  return a.mode == b.mode && a.scored == b.scored && a.novel == b.novel &&
         a.sensor_bad == b.sensor_bad && a.abandoned == b.abandoned &&
         a.threshold_epoch == b.threshold_epoch &&
         std::memcmp(&a.score, &b.score, sizeof(double)) == 0;
}

/// One served frame of a closed loop: which input, its process() wall time,
/// and the outcome.
struct FrameRecord {
  int64_t input = 0;
  FrameTiming timing;
  ServeResult result;
  double latency_ms() const { return static_cast<double>(timing.end_ns - timing.start_ns) * 1e-6; }
};

/// Times one process() call.
FrameRecord serve(serving::Supervisor& sup, const Image& frame, int64_t input) {
  FrameRecord record;
  record.input = input;
  record.timing.start_ns = now_ns();
  record.result = sup.process(frame);
  record.timing.end_ns = now_ns();
  return record;
}

/// The end-to-end figures of a closed loop; `window[i]` is the latency
/// window of records[i].
void add_closed_loop_metrics(const std::vector<FrameRecord>& records,
                             const std::vector<int64_t>& window, const StealLog& steal,
                             const std::vector<bool>& indoor, double limit_ms, int64_t failed,
                             Report& report) {
  std::vector<FrameOutcome> frames;
  for (const FrameRecord& f : records) {
    frames.push_back({f.timing, &f.result, indoor[static_cast<size_t>(f.input)]});
  }
  add_serving_metrics(frames, window, kSustainedQuantile, steal,
                      static_cast<int64_t>(records.size()), limit_ms, failed, report);
}

/// First forwards on every path the workloads use, so lazily packed weight
/// panels and workspaces exist before the first timed frame.
void warm_up(const Fixture& fx) {
  const core::NoveltyDetector& det = *fx.detector;
  std::vector<const Image*> batch;
  for (size_t i = 0; i < 16; ++i) batch.push_back(&fx.pool.frames[i % fx.pool.frames.size()]);
  for (const core::DetectorVariant v :
       {core::DetectorVariant::kPrimary, core::DetectorVariant::kPrimaryQ8,
        core::DetectorVariant::kRawMse}) {
    (void)det.score_variant(v, *batch.front());
  }
  (void)driving::predict_steering(*fx.steering, *batch.front());
  (void)driving::predict_steering_q8(*det.quant_steering(), *batch.front());
  (void)driving::predict_steering_batch(*fx.steering, batch);
  (void)det.score_batch(core::DetectorVariant::kPrimary, batch);
}

/// The per-layer figures a closed-loop workload's own path does not
/// produce: probed stages, the cluster control run and the kernels.
void add_layer_probes(const Options& opts, const Fixture& fx, SpanLog& spans, Report& report) {
  std::vector<const Image*> frames;
  for (const Image& f : fx.pool.frames) frames.push_back(&f);
  probe_missing_stages(fx, frames, spans, report);
  probe_cluster(fx, frames, opts.cluster_rate_fps, 1.0, spans, report);
  probe_kernels(fx, spans, report);
}

}  // namespace

void set_up(const Options& opts, Fixture& fx, const std::function<void()>& release,
            const std::function<void(Fixture&)>& construct, Report& report) {
  parallel::set_num_threads(0);  // set-up uses every core
  const std::string scratch =
      opts.out_dir + "/setup_" + std::to_string(static_cast<long long>(getpid())) + ".pipeline";
  std::vector<double> total, generate, train, fit, load, construct_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    release();
    fx = Fixture{};
    // Hand the freed heap back, so each repetition's peak RSS is its own and
    // not the previous repetition's fragmentation.
    malloc_trim(0);
    SetupTimes t;
    fx = build_fixture(opts.seed, scratch, t);
    const int64_t start = now_ns();
    construct(fx);
    warm_up(fx);
    t.serving_construct = static_cast<double>(now_ns() - start) * 1e-9;
    total.push_back(t.total());
    generate.push_back(t.generate);
    train.push_back(t.steering_train);
    fit.push_back(t.detector_fit);
    load.push_back(t.pipeline_load);
    construct_s.push_back(t.serving_construct);
  }
  report.add("setup_s", median(total), "s", kSetupReps);
  report.add("setup.roadsim_generate_s", median(generate), "s", kSetupReps);
  report.add("setup.steering_train_s", median(train), "s", kSetupReps);
  report.add("setup.detector_fit_s", median(fit), "s", kSetupReps);
  report.add("setup.pipeline_load_s", median(load), "s", kSetupReps);
  report.add("setup.serving_construct_s", median(construct_s), "s", kSetupReps);
  // Measured phases run the compute pool on the calling thread only: stage
  // tails are steady that way, and cluster replicas supply the parallelism.
  parallel::set_num_threads(1);
}

void add_ladder_metrics(const std::vector<ServingMode>& modes,
                        const serving::HealthSnapshot& health, Report& report) {
  static constexpr std::pair<ServingMode, const char*> kRungs[] = {
      {ServingMode::kVbpSsim, "vbp_ssim"},   {ServingMode::kVbpSsimQ8, "vbp_ssim_q8"},
      {ServingMode::kVbpMse, "vbp_mse"},     {ServingMode::kVbpMseQ8, "vbp_mse_q8"},
      {ServingMode::kRawMse, "raw_mse"},     {ServingMode::kSensorHold, "sensor_hold"},
  };
  const int64_t n = static_cast<int64_t>(modes.size());
  for (const auto& [mode, name] : kRungs) {
    const int64_t count = std::count(modes.begin(), modes.end(), mode);
    report.add(std::string("ladder.rung_share.") + name,
               n > 0 ? static_cast<double>(count) / static_cast<double>(n) : 0.0, "ratio", n);
  }
  report.add("ladder.step_downs", static_cast<double>(health.step_downs), "count", 1);
  report.add("breaker.trips", static_cast<double>(health.breaker_trips), "count", 1);
  report.add("validate.rejects", static_cast<double>(health.frames_sensor_bad), "count", 1);
  report.add("calib.drift_checks", static_cast<double>(health.drift_checks), "count", 1);
  report.add("calib.threshold_swaps", static_cast<double>(health.threshold_swaps), "count", 1);
}

// --- single_stream -------------------------------------------------------------

RunResult run_single_stream(const Options& opts, SpanLog& spans) {
  RunResult out;
  Report& report = out.report;
  Fixture fx;
  std::unique_ptr<serving::Supervisor> sup;
  set_up(
      opts, fx, [&] { sup.reset(); },
      [&](Fixture& f) { sup = std::make_unique<serving::Supervisor>(*f.detector, f.steering.get()); }, report);
  const std::vector<Image>& pool = fx.pool.frames;
  const int64_t pool_size = static_cast<int64_t>(pool.size());

  // Frames are served in blocks. In a trace run each untraced block is
  // followed by a traced block of the same frames on a second Supervisor,
  // so both see the same host state and their times can be reconciled.
  std::unique_ptr<serving::Supervisor> traced_sup;
  if (opts.trace) traced_sup = std::make_unique<serving::Supervisor>(*fx.detector, fx.steering.get());
  std::vector<FrameRecord> records;
  std::vector<TracedFrame> traced;
  StealLog steal;
  const int64_t stop = now_ns() + static_cast<int64_t>(opts.seconds * 1e9);
  for (int64_t first = 0; now_ns() < stop; first += kBlockFrames) {
    steal.sample();
    for (int64_t i = first; i < first + kBlockFrames; ++i) {
      records.push_back(serve(*sup, pool[static_cast<size_t>(i % pool_size)], i % pool_size));
    }
    for (int64_t i = first; traced_sup && i < first + kBlockFrames; ++i) {
      traced.push_back(traced_float_frame(fx, *traced_sup, pool[static_cast<size_t>(i % pool_size)], i, spans));
    }
  }
  steal.sample();
  const serving::HealthSnapshot health = sup->health();
  std::vector<FrameTiming> timings;
  for (const FrameRecord& f : records) timings.push_back(f.timing);
  add_closed_loop_metrics(records, windows_by_time(timings, kWindowSeconds), steal, fx.pool.indoor,
                          kSingleStreamLimitMs, health.scoring_failures, report);
  out.attempted = static_cast<int64_t>(records.size());
  out.failed = health.scoring_failures;

  // Gate: a sample of served scores equals the offline pipeline's score.
  int64_t mismatches = 0;
  for (size_t i = 0; i < records.size(); i += kGateStride) {
    const ServeResult& r = records[i].result;
    if (!r.scored) continue;
    const double expected = fx.detector->score_variant(serving::Supervisor::variant_for(r.mode),
                                                       pool[static_cast<size_t>(records[i].input)]);
    if (std::memcmp(&expected, &r.score, sizeof(double)) != 0) ++mismatches;
  }
  if (mismatches != 0) {
    out.correct = false;
    out.failed += mismatches;
    out.notes.push_back("served scores differ from score_variant on " +
                        std::to_string(mismatches) + " sampled frames");
  }

  std::vector<ServingMode> modes;
  for (const FrameRecord& f : records) {
    if (!f.result.sensor_bad) modes.push_back(f.result.mode);
  }
  add_ladder_metrics(modes, health, report);
  report.add("peak_rss_mb", peak_rss_mb(), "MB", 1);
  if (!opts.trace) return out;

  // Wall-clock budgets can demote either Supervisor at a different frame, so
  // only frames both served on the same rung are compared.
  int64_t diverged = 0;
  for (size_t i = 0; i < traced.size(); ++i) {
    const ServeResult& a = traced[i].result;
    const ServeResult& b = records[i].result;
    if (a.mode == b.mode && a.scored && b.scored) diverged += !same_outcome(a, b);
  }
  if (diverged != 0) {
    out.correct = false;
    out.notes.push_back("traced pass diverged from the untraced pass on " +
                        std::to_string(diverged) + " frames");
  }
  add_float_stage_metrics(traced, report);

  // Reconciliation: the stage spans against the untraced per-frame time,
  // both as means; policy.self_us is the residual.
  std::vector<double> untraced_us, frame_us;
  for (const FrameRecord& f : records) untraced_us.push_back(f.latency_ms() * 1e3);
  for (const TracedFrame& f : traced) frame_us.push_back(f.frame_us);
  const double base = mean(untraced_us);
  const double gap = add_reconcile_gap(untraced_us, traced, report);
  report.add("trace.overhead_ratio", (mean(frame_us) - base) / base, "ratio",
             static_cast<int64_t>(frame_us.size()));
  if (gap > 0.10) {
    out.correct = false;
    out.notes.push_back("traced stage times do not reconcile with the untraced frame time (gap " +
                        std::to_string(gap) + ")");
  }
  add_layer_probes(opts, fx, spans, report);
  return out;
}

// --- degraded_ladder -------------------------------------------------------------

namespace {

/// The degraded_ladder input: pool frames with a dusk drift over the second
/// half and a fixed share of NaN, dead and frozen frames.
struct LadderInput {
  std::vector<Image> frames;
  std::vector<bool> indoor;
  faults::TimingFaultInjector stalls;
};

LadderInput build_ladder_input(const FramePool& pool, uint64_t seed) {
  LadderInput in;
  faults::FaultInjector injector(seed);
  bool last_healthy_indoor = false;
  for (int64_t k = 0; k < kLadderFrames; ++k) {
    const size_t p = static_cast<size_t>(k % kLadderPoolFrames);
    Image base = k < kLadderFrames / 2 ? pool.frames[p] : roadsim::apply_dusk(pool.frames[p], kDuskSeverity);
    bool indoor = pool.indoor[p];
    const int64_t offset = k % kFaultBlock;
    if (offset == kNanOffset) {
      base(base.height() / 2, base.width() / 2) = std::numeric_limits<float>::quiet_NaN();
    } else if (offset == kDeadOffset) {
      base = injector.apply(faults::CameraFault::kDroppedFrame, 1.0, base);
    } else if (offset == kFrozenOffset) {
      base = injector.apply(faults::CameraFault::kFrozenFrame, 1.0, base);
      indoor = last_healthy_indoor;
    } else {
      base = injector.apply(faults::CameraFault::kFrozenFrame, 0.0, base);  // buffer updates
      last_healthy_indoor = indoor;
    }
    in.frames.push_back(std::move(base));
    in.indoor.push_back(indoor);
  }
  // Stalls advance only the fake clock. In every block of 512 frames:
  // four reconstruct overruns in a row walk the ladder down vbp+ssim ->
  // vbp+ssim-q8 -> vbp+mse -> vbp+mse-q8 -> raw+mse (hysteresis climbs it
  // back); three saliency overruns in a row trip the breaker (its half-open
  // probe restores vbp+ssim); a steer stall past the whole-frame budget
  // abandons one frame; two more reconstruct overruns step down two rungs.
  // The events are far enough apart that the ladder is back on top first.
  const auto every_block = [&](serving::Stage stage, int64_t stall_ms, int64_t offset) {
    in.stalls.add({static_cast<int>(stage), stall_ms * kMs, offset,
                   std::numeric_limits<int64_t>::max(), kStallBlock});
  };
  for (int64_t j = 0; j < 4; ++j) every_block(serving::Stage::kReconstruct, 30, 8 + j);
  for (int64_t j = 0; j < 3; ++j) every_block(serving::Stage::kSaliency, 60, 200 + j);
  every_block(serving::Stage::kSteer, 250, 300);
  for (int64_t j = 0; j < 2; ++j) every_block(serving::Stage::kReconstruct, 30, 400 + j);
  return in;
}

serving::SupervisorConfig ladder_config(const LadderInput& in) {
  serving::SupervisorConfig config;
  config.enable_quant_rungs = true;
  config.promote_after_healthy_frames = 32;
  config.calibration.enabled = true;
  config.timing_faults = &in.stalls;
  return config;
}

/// Replays, outside the served frame, the public stage calls of the rung
/// that served it, as root spans of that frame. Returns their summed time.
double replay_stages(const Fixture& fx, const Image& frame, const ServeResult& r, int64_t k,
                     SpanLog& spans, std::map<std::string, std::vector<double>>& stage_us) {
  const core::NoveltyDetector& det = *fx.detector;
  auto timed = [&](const std::string& name, auto&& fn) {
    const double us = spans.timed_us(name, -1, k, fn);
    stage_us[name].push_back(us);
    return us;
  };
  double sum = timed("validate", [&] { (void)det.frame_validator().check(frame); });
  if (r.sensor_bad || r.abandoned) return sum;
  const bool q8 = serving::serving_mode_quantized(r.mode);
  const std::string suffix = q8 ? "_q8" : "";
  const core::DetectorVariant variant = serving::Supervisor::variant_for(r.mode);
  sum += timed("steer" + suffix, [&] {
    (void)(q8 ? driving::predict_steering_q8(*det.quant_steering(), frame)
              : driving::predict_steering(*fx.steering, frame));
  });
  Image pre = frame;
  if (serving::Supervisor::mode_uses_saliency(r.mode)) {
    sum += timed("saliency" + suffix, [&] {
      pre = det.variant_preprocess(
          q8 ? core::DetectorVariant::kPrimaryQ8 : core::DetectorVariant::kPrimary, frame);
    });
  }
  Image recon;
  sum += timed("reconstruct" + suffix, [&] { recon = det.variant_reconstruct(variant, pre); });
  const bool ssim = det.variant_score_metric(variant) == core::ReconstructionScore::kSsim;
  sum += timed(ssim ? "score_ssim" : "score_mse",
               [&] { (void)det.variant_score_pair(variant, pre, recon); });
  return sum;
}

}  // namespace

RunResult run_degraded_ladder(const Options& opts, SpanLog& spans) {
  RunResult out;
  Report& report = out.report;
  Fixture fx;
  std::unique_ptr<LadderInput> input;
  set_up(
      opts, fx, [&] { input.reset(); },
      [&](Fixture& f) { input = std::make_unique<LadderInput>(build_ladder_input(f.pool, opts.seed)); },
      report);
  const serving::SupervisorConfig config = ladder_config(*input);

  // Each pass serves the whole schedule on a fresh Supervisor and FakeClock;
  // passes repeat until the measured time is used (at least two, so the
  // second can be checked against the first).
  const double measured_s = opts.trace ? opts.seconds / 2 : opts.seconds;
  std::vector<FrameRecord> first_pass, records;
  serving::HealthSnapshot health;
  double wall_s = 0.0;
  int64_t passes = 0, diverged = 0, failed = 0;
  StealLog steal;
  while (passes < 2 || wall_s < measured_s) {
    serving::FakeClock clock;
    serving::Supervisor sup(*fx.detector, fx.steering.get(), config, &clock);
    const int64_t start = now_ns();
    for (int64_t k = 0; k < kLadderFrames; ++k) {
      if (k % kStealSampleFrames == 0) steal.sample();
      records.push_back(serve(sup, input->frames[static_cast<size_t>(k)], k));
    }
    steal.sample();
    wall_s += static_cast<double>(now_ns() - start) * 1e-9;
    const auto pass = records.end() - kLadderFrames;
    if (passes == 0) {
      first_pass.assign(pass, records.end());
      health = sup.health();
    } else {
      for (int64_t k = 0; k < kLadderFrames; ++k) {
        diverged += !same_outcome(pass[k].result, first_pass[static_cast<size_t>(k)].result);
      }
    }
    failed += sup.health().scoring_failures;
    ++passes;
  }
  // Latency windows are the schedule's stall blocks, so every window holds
  // the same rung mix.
  std::vector<int64_t> window;
  for (size_t i = 0; i < records.size(); ++i) window.push_back(static_cast<int64_t>(i) / kStallBlock);
  add_closed_loop_metrics(records, window, steal, input->indoor, kLadderLimitMs, failed, report);
  out.attempted = static_cast<int64_t>(records.size());
  out.failed = failed;
  if (diverged != 0) {
    out.correct = false;
    out.failed += diverged;
    out.notes.push_back("ladder passes diverged on " + std::to_string(diverged) + " frames");
  }
  std::vector<ServingMode> modes;
  for (const FrameRecord& f : first_pass) {
    if (!f.result.sensor_bad) modes.push_back(f.result.mode);
  }
  add_ladder_metrics(modes, health, report);
  report.add("peak_rss_mb", peak_rss_mb(), "MB", 1);
  if (!opts.trace) return out;

  // Traced pass: the same schedule with each process() call in a frame span,
  // then the served rung's stage calls replayed on that frame.
  serving::FakeClock clock;
  serving::Supervisor sup(*fx.detector, fx.steering.get(), config, &clock);
  std::map<std::string, std::vector<double>> stage_us;
  std::vector<double> frame_us, policy_us, stage_sum_us;
  const int64_t traced_stop = now_ns() + static_cast<int64_t>((opts.seconds - measured_s) * 1e9);
  for (int64_t k = 0; k < kLadderFrames && (k < 64 || now_ns() < traced_stop); ++k) {
    const Image& frame = input->frames[static_cast<size_t>(k)];
    const int64_t root = spans.begin("frame", -1, k);
    const int64_t proc = spans.begin("process", root, k);
    const ServeResult r = sup.process(frame);
    spans.end(proc);
    spans.end(root);
    const Span& p = spans.spans()[static_cast<size_t>(proc)];
    const double process_us = static_cast<double>(p.end_ns - p.start_ns) * 1e-3;
    frame_us.push_back(process_us);
    if (!same_outcome(r, first_pass[static_cast<size_t>(k)].result)) ++diverged;
    stage_sum_us.push_back(replay_stages(fx, frame, r, k, spans, stage_us));
    policy_us.push_back(process_us - stage_sum_us.back());
  }
  if (diverged != 0) {
    out.correct = false;
    out.notes.push_back("traced ladder pass diverged from the untraced one");
  }
  for (const auto& [name, us] : stage_us) add_span_percentiles(report, name, us);
  report.add("policy.self_us", mean(policy_us), "us", static_cast<int64_t>(policy_us.size()));
  // Overhead against the untraced passes' frames of the same schedule span.
  std::vector<double> untraced_us;
  for (const FrameRecord& f : records) {
    if (f.input < static_cast<int64_t>(frame_us.size())) untraced_us.push_back(f.latency_ms() * 1e3);
  }
  const double base = mean(untraced_us);
  report.add("trace.overhead_ratio", (mean(frame_us) - base) / base, "ratio",
             static_cast<int64_t>(frame_us.size()));
  // The replayed stages of each frame's rung against the untraced frame time
  // (reported, not gated: the replay runs outside the Supervisor).
  report.add("trace.reconcile_gap", std::abs(mean(stage_sum_us) - base) / base, "ratio",
             static_cast<int64_t>(stage_sum_us.size()));
  add_layer_probes(opts, fx, spans, report);
  return out;
}

}  // namespace servebench
