// Shared pieces of the serving benchmark: the trained fixture, span
// recorder, metric report, and the workload entry points.
//
// The benchmark drives the library only through its public entry points
// (Supervisor::process, ServingCluster::submit/take_results/drain and the
// layer functions those call). Spans are recorded by the benchmark around
// those calls; nothing inside the library is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/novelty_detector.hpp"
#include "image/image.hpp"
#include "nn/sequential.hpp"
#include "serving/supervisor.hpp"

namespace servebench {

using salnov::Image;

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double cluster_rate_fps = 0.0;  ///< cluster_open's fixed aggregate send rate
  std::string out_dir = ".bench_out";
};

// --- Metric report -----------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
  int64_t samples = 0;  ///< observations behind the value (1 for a single count)
};

/// Named metrics (a later add() of the same name replaces the value).
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit, int64_t samples);
  const std::map<std::string, Metric>& metrics() const { return metrics_; }
  bool has(const std::string& name) const { return metrics_.count(name) != 0; }

 private:
  std::map<std::string, Metric> metrics_;
};

/// Nearest-rank percentile of `values` (EmpiricalCdf::upper_quantile); 0
/// when empty.
double percentile(const std::vector<double>& values, double p);
double median(const std::vector<double>& values);
double mean(const std::vector<double>& values);

// --- Spans -------------------------------------------------------------------

/// One timed interval around a public call. Spans of one frame share
/// `frame`; `parent` is the index of the enclosing span (-1 for a root).
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  int64_t frame = -1;
};

/// In-memory span log, written out once at exit.
class SpanLog {
 public:
  /// Opens a span and returns its index; close it with end().
  int64_t begin(const std::string& name, int64_t parent, int64_t frame);
  void end(int64_t span);

  /// Runs `fn` inside a span and returns the span's duration in us.
  template <class Fn>
  double timed_us(const std::string& name, int64_t parent, int64_t frame, Fn&& fn) {
    const int64_t s = begin(name, parent, frame);
    fn();
    end(s);
    return static_cast<double>(spans_[static_cast<size_t>(s)].end_ns -
                               spans_[static_cast<size_t>(s)].start_ns) *
           1e-3;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Per-span self time: duration minus the part of it covered by its
  /// children (children never overlap each other here).
  std::vector<int64_t> self_times_ns() const;

  void write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

// --- Host steal time -----------------------------------------------------------

/// Readings of the host's steal time, taken by the measuring thread while it
/// measures: the time the hypervisor ran something else on this VM's vCPUs,
/// summed over vCPUs (/proc/stat). Where /proc/stat has no steal field every
/// reading is 0.
class StealLog {
 public:
  void sample();
  /// Steal between the last reading at or before `begin_ns` and the first at
  /// or after `end_ns`, as a share of the vCPUs' time over that span; 0 with
  /// fewer than two readings.
  double share(int64_t begin_ns, int64_t end_ns) const;

 private:
  std::vector<std::pair<int64_t, int64_t>> readings_;  ///< (now_ns, steal ticks)
};

/// A window is disturbed when the host stole more than this share of the
/// vCPUs' time during it. Open-loop tails follow steal: on the reference host
/// 0.5 s windows with at most 2.5% steal had a p90 near 4.1 ms and windows
/// with 5% or more up to 13 ms.
inline constexpr double kDisturbedStealShare = 0.025;

/// When one served frame started (closed loop: the process() call; open
/// loop: its due time) and ended (the call returned; the result was
/// observed).
struct FrameTiming {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Window index of each frame when frames are cut by start time into
/// windows of `window_s`.
std::vector<int64_t> windows_by_time(const std::vector<FrameTiming>& frames, double window_s);

/// Adds frames_per_s, frame_p50_ms, frame_p90_ms and frame_p99_ms over
/// windows (`window[i]` is frame i's window). Windows the host disturbed
/// (steal above kDisturbedStealShare, from `steal`) are left out; when under
/// a quarter of the windows are undisturbed, the quarter with the least
/// steal is kept instead. Each latency figure is the `window_quantile`
/// quantile over the kept windows of that window's latency percentile;
/// frames_per_s is the throughput at the same quantile of the windows' time
/// per frame. At 0.5 they are medians over windows; at kSustainedQuantile
/// they are what the run sustained in nine windows of ten (see README.md,
/// "Windows"). A window holding under half as many frames as the largest (a
/// cut-off last window) is left out first. Also adds host.steal_share (over
/// the whole span of the frames) and host.kept_window_share.
void add_windowed_latency(const std::vector<FrameTiming>& frames,
                          const std::vector<int64_t>& window, double window_quantile,
                          const StealLog& steal, Report& report);

/// Window quantile of the closed loops: their frame cost follows the host's
/// speed, which switches between a fast and a slow state every few seconds.
/// The 0.9 quantile reads the slow state whenever it holds a tenth of a
/// run's windows, where a median reads whichever state holds more.
inline constexpr double kSustainedQuantile = 0.9;

/// One served frame as the end-to-end figures see it.
struct FrameOutcome {
  FrameTiming timing;
  const salnov::serving::ServeResult* result = nullptr;
  bool indoor = false;  ///< DSI-sim ground truth
};

/// Adds the latency figures (as add_windowed_latency),
/// deadline_met_rate / deadline_miss_rate against `limit_ms`,
/// novel_detect_rate, false_alarm_rate, nominal_pass_rate and the frames.*
/// counts. `attempted` counts every frame sent, including frames never
/// observed, which miss their deadline; `failed` is reported as
/// frames.failed.
void add_serving_metrics(const std::vector<FrameOutcome>& frames, const std::vector<int64_t>& window,
                         double window_quantile, const StealLog& steal, int64_t attempted,
                         double limit_ms, int64_t failed, Report& report);

/// Adds `<prefix>.p50_us` and `<prefix>.p99_us` from a list of span times.
void add_span_percentiles(Report& report, const std::string& prefix,
                          const std::vector<double>& us);

// --- Fixture -----------------------------------------------------------------

/// Every workload serves a pool of DSU-sim (nominal) and DSI-sim (novel)
/// frames in this 3:1 mix.
inline constexpr int64_t kNominalFrames = 1536;
inline constexpr int64_t kNovelFrames = 512;

/// Frames a workload serves, with their ground truth.
struct FramePool {
  std::vector<Image> frames;
  std::vector<bool> indoor;  ///< DSI-sim (novel) vs DSU-sim (nominal)
};

/// What set-up builds: the served pipeline (loaded back from disk, as a
/// deployment would) and the workload's frames.
struct Fixture {
  std::unique_ptr<salnov::nn::Sequential> steering;
  std::unique_ptr<salnov::core::NoveltyDetector> detector;
  FramePool pool;
};

/// Wall time of each set-up phase, in seconds.
struct SetupTimes {
  double generate = 0.0;
  double steering_train = 0.0;
  double detector_fit = 0.0;
  double pipeline_save = 0.0;
  double pipeline_load = 0.0;
  double serving_construct = 0.0;
  double total() const {
    return generate + steering_train + detector_fit + pipeline_save + pipeline_load +
           serving_construct;
  }
};

/// Generates the training set (fixed seed) and the workload's frame pool
/// (from `seed`), trains the steering model, fits the detector, and round
/// trips the pipeline through PipelineIo via `scratch_path`. Fills every
/// field of `times` except serving_construct.
Fixture build_fixture(uint64_t seed, const std::string& scratch_path, SetupTimes& times);

// --- Workloads ---------------------------------------------------------------

/// Latency limits behind deadline_met_rate: process() wall time for the
/// closed loops, due time to observed result for cluster_open.
inline constexpr double kSingleStreamLimitMs = 10.0;
inline constexpr double kLadderLimitMs = 20.0;
inline constexpr double kClusterLimitMs = 25.0;

/// What a workload run hands back to main: its metrics plus the counts the
/// result line carries.
struct RunResult {
  Report report;
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> notes;  ///< correctness-gate failures, validity flags
};

/// Each workload performs its own set-up repetitions (so setup_s covers
/// its serving construction), measures for opts.seconds, runs its
/// correctness gate, and in trace mode splits the time between an untraced
/// and a traced pass over the same frames.
RunResult run_single_stream(const Options& opts, SpanLog& spans);
RunResult run_cluster_open(const Options& opts, SpanLog& spans);
RunResult run_degraded_ladder(const Options& opts, SpanLog& spans);

// --- Set-up (workloads.cpp) -------------------------------------------------

/// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupReps = 3;

/// Runs set-up kSetupReps times. Before each repetition `release` drops the
/// serving objects built on the previous fixture; after it `construct`
/// builds (and warms up) the serving objects on the new one, timed as
/// serving construction. Adds setup_s and the setup.* metrics; `fx` holds
/// the last repetition's fixture.
void set_up(const Options& opts, Fixture& fx, const std::function<void()>& release,
            const std::function<void(Fixture&)>& construct, Report& report);

// --- Layer probes (probes.cpp) ------------------------------------------------

/// One frame served through the public stage calls: steer, saliency and
/// reconstruct are timed as children of the frame span and handed to
/// Supervisor::process through ProvidedCompute, so the process span holds
/// validation, scoring and policy. Validation and both scores are then
/// timed again outside the frame on the same inputs. Frames the top float
/// rung would not serve in full are processed undecomposed.
struct TracedFrame {
  salnov::serving::ServeResult result;
  bool decomposed = false;
  double frame_us = 0.0;
  double process_us = 0.0;
  double steer_us = 0.0;
  double saliency_us = 0.0;
  double reconstruct_us = 0.0;
  double validate_us = 0.0;
  double score_ssim_us = 0.0;
  double score_mse_us = 0.0;
  double policy_us = 0.0;  ///< process minus validate minus score_ssim
};
TracedFrame traced_float_frame(const Fixture& fx, salnov::serving::Supervisor& sup,
                               const Image& frame, int64_t frame_id, SpanLog& spans);

/// validate/steer/saliency/reconstruct/score_ssim/score_mse percentiles and
/// policy.self_us (the mean residual of process() after validation and
/// scoring) over decomposed frames.
void add_float_stage_metrics(const std::vector<TracedFrame>& frames, Report& report);

/// Reconciles traced frames with untraced ones: the mean of the stage spans
/// timed on their own (validate, steer, saliency, reconstruct, score_ssim)
/// over decomposed frames against the mean untraced process() time. The
/// policy residual is not part of the sum, so a missing or wrong stage span
/// shows as a gap. Adds trace.reconcile_gap and returns it.
double add_reconcile_gap(const std::vector<double>& untraced_us,
                         const std::vector<TracedFrame>& traced, Report& report);

/// Adds the float stages (as traced_float_frame on a probe Supervisor, in
/// blocks alternating with untraced frames on a second one, plus their
/// trace.reconcile_gap) and the q8 stages (steer_q8, saliency_q8,
/// reconstruct_q8) when the report does not have them yet, timing the
/// public calls on `frames`.
void probe_missing_stages(const Fixture& fx, const std::vector<const Image*>& frames,
                          SpanLog& spans, Report& report);

/// Times the batched entries (predict_steering_batch,
/// variant_preprocess_batch, variant_reconstruct_batch) at batch size
/// `batch` over `frames`.
void probe_batched_stages(const Fixture& fx, const std::vector<const Image*>& frames,
                          int64_t batch, SpanLog& spans, Report& report);

/// Times gemm_ex / gemm_u8s8 at the autoencoder's first-layer shape and
/// reports operation counts and bytes moved derived from the operand sizes.
void probe_kernels(const Fixture& fx, SpanLog& spans, Report& report);

// --- Cluster (cluster.cpp) ----------------------------------------------------

/// Replicas for the cluster: the replicas, the generator thread and one
/// spare core (so the generator wakes on time) stay within the host's cores.
int64_t cluster_replicas();

/// Runs an open-loop schedule of `duration_s` at `rate_fps` through a fresh
/// default ServingCluster on `frames` and adds every cluster.* metric,
/// the *_batch spans at the observed mean batch size, and (when `traced`)
/// submit/take_results spans. Used as the measured loop of cluster_open and
/// as a short control run on the other workloads.
void probe_cluster(const Fixture& fx, const std::vector<const Image*>& frames, double rate_fps,
                   double duration_s, SpanLog& spans, Report& report);

/// ladder.rung_share.<rung> over `modes` (the rung of every frame that
/// reached the pipeline) and the ladder/breaker/validator/calibration
/// counters of `health`.
void add_ladder_metrics(const std::vector<salnov::serving::ServingMode>& modes,
                        const salnov::serving::HealthSnapshot& health, Report& report);

/// Peak resident set size of this process in MB.
double peak_rss_mb();

}  // namespace servebench
