// cluster_open: an open-loop, fixed-rate schedule of 16 camera streams into
// a ServingCluster, and the same loop as a short control on the other
// workloads.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>

#include "bench.hpp"
#include "serving/cluster.hpp"

namespace servebench {

using namespace salnov;

namespace {

/// The generator counts as having fallen behind, invalidating the run,
/// when its p99 send lateness or p99 gap between result polls exceeds this.
constexpr double kGeneratorSlackMs = 1.0;
constexpr int64_t kClusterStreams = 16;
/// The generator polls take_results() at most this often between sends.
constexpr int64_t kPollIntervalNs = 100'000;
/// Latency figures are medians over windows of this many seconds of due time.
constexpr double kClusterWindowSeconds = 1.0;
/// The generator reads host steal after every this many sends.
constexpr int64_t kStealSampleFrames = 100;

double ms(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

/// Stream supervisors run without wall-clock budgets: a scheduler stall
/// inside a stage would otherwise demote one stream's ladder at a time no
/// batch-1 replay can reproduce. Deadlines are judged by the benchmark's own
/// latency limit instead; the ladder is degraded_ladder's subject.
serving::SupervisorConfig cluster_supervisor_config() {
  serving::SupervisorConfig config;
  config.stage_budget_ns.fill(0);
  config.frame_budget_ns = 0;
  return config;
}

std::unique_ptr<serving::ServingCluster> make_cluster(const Fixture& fx) {
  serving::ClusterConfig config;
  config.streams = kClusterStreams;
  config.replicas = cluster_replicas();
  config.supervisor = cluster_supervisor_config();
  return std::make_unique<serving::ServingCluster>(*fx.detector, fx.steering.get(), config);
}

/// Everything observed from one open-loop run, indexed by arrival order.
struct OpenLoop {
  int64_t start_ns = 0;
  std::vector<int64_t> due_ns;
  std::vector<int64_t> observed_ns;  ///< 0 = never observed
  std::vector<serving::ClusterResult> results;
  std::vector<double> lateness_ms;
  std::vector<double> poll_gap_ms;
  StealLog steal;
  serving::ClusterStats stats;
  serving::HealthSnapshot health;
};

/// Frame k of the schedule goes to stream k % 16; with a pool size that is
/// a multiple of 16 each stream cycles through its own distinct frames.
const Image& scheduled_frame(const std::vector<const Image*>& frames, int64_t k) {
  return *frames[static_cast<size_t>(k) % frames.size()];
}

/// Sends `rate_fps * duration_s` frames on a fixed schedule, polling
/// take_results() between sends, and times each frame from its due time to
/// the poll that returned it. `spans` (may be null) gets submit and
/// take_results spans.
OpenLoop run_open_loop(serving::ServingCluster& cluster, const std::vector<const Image*>& frames,
                       double rate_fps, double duration_s, SpanLog* spans) {
  OpenLoop run;
  const int64_t n = std::max<int64_t>(kClusterStreams, std::llround(rate_fps * duration_s));
  const double interval_ns = 1e9 / rate_fps;
  run.due_ns.resize(static_cast<size_t>(n));
  run.observed_ns.assign(static_cast<size_t>(n), 0);
  int64_t last_poll = 0;
  auto poll = [&] {
    const int64_t span = spans != nullptr ? spans->begin("take_results", -1, -1) : -1;
    std::vector<serving::ClusterResult> got = cluster.take_results();
    if (spans != nullptr) spans->end(span);
    const int64_t t = now_ns();
    for (serving::ClusterResult& r : got) {
      run.observed_ns[static_cast<size_t>(r.arrival_seq)] = t;
      run.results.push_back(std::move(r));
    }
    if (last_poll != 0) run.poll_gap_ms.push_back(ms(t - last_poll));
    last_poll = t;
  };

  run.start_ns = now_ns() + 1'000'000;
  for (int64_t k = 0; k < n; ++k) {
    const int64_t due = run.start_ns + std::llround(static_cast<double>(k) * interval_ns);
    run.due_ns[static_cast<size_t>(k)] = due;
    for (int64_t t = now_ns(); t < due; t = now_ns()) {
      if (t - last_poll >= kPollIntervalNs) poll();
      if (due - now_ns() > 300'000) std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    run.lateness_ms.push_back(ms(now_ns() - due));
    const int64_t span = spans != nullptr ? spans->begin("submit", -1, k) : -1;
    cluster.submit(k % kClusterStreams, scheduled_frame(frames, k));
    if (spans != nullptr) spans->end(span);
    if (k % kStealSampleFrames == 0) run.steal.sample();
  }
  const int64_t give_up = now_ns() + 10'000'000'000;
  while (static_cast<int64_t>(run.results.size()) < n && now_ns() < give_up) {
    poll();
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  cluster.drain();
  poll();
  run.steal.sample();
  run.stats = cluster.stats();
  run.health = cluster.aggregate_health();
  std::sort(run.results.begin(), run.results.end(),
            [](const auto& a, const auto& b) { return a.arrival_seq < b.arrival_seq; });
  return run;
}

void add_batching_metrics(const Fixture& fx, const std::vector<const Image*>& frames,
                          const OpenLoop& run, SpanLog& spans, Report& report) {
  const serving::ClusterStats& st = run.stats;
  std::vector<double> gather_ms, service_ms;
  for (const serving::ClusterResult& r : run.results) {
    if (r.replica < 0) continue;
    gather_ms.push_back(ms(r.sealed_ns - r.arrival_ns));
    service_ms.push_back(ms(run.observed_ns[static_cast<size_t>(r.arrival_seq)] - r.sealed_ns));
  }
  const int64_t n_batched = static_cast<int64_t>(gather_ms.size());
  const double mean_batch =
      st.batches > 0 ? static_cast<double>(st.batched_frames) / static_cast<double>(st.batches) : 1.0;
  report.add("cluster.batch_size_mean", mean_batch, "frames", st.batches);
  report.add("cluster.gather_wait_p50_ms", percentile(gather_ms, 0.50), "ms", n_batched);
  report.add("cluster.gather_wait_p99_ms", percentile(gather_ms, 0.99), "ms", n_batched);
  report.add("cluster.service_p50_ms", percentile(service_ms, 0.50), "ms", n_batched);
  report.add("cluster.max_batch_seals", static_cast<double>(st.max_batch_seals), "count", 1);
  report.add("cluster.window_seals", static_cast<double>(st.window_seals), "count", 1);
  report.add("cluster.flush_seals", static_cast<double>(st.flush_seals), "count", 1);
  report.add("cluster.provided_recon_ratio",
             st.batched_frames > 0
                 ? static_cast<double>(st.provided_recon) / static_cast<double>(st.batched_frames)
                 : 0.0,
             "ratio", st.batched_frames);
  report.add("cluster.recon_mispredicts", static_cast<double>(st.recon_mispredicts), "count", 1);
  report.add("cluster.fallback_frames", static_cast<double>(st.fallback_frames), "count", 1);
  report.add("cluster.shed_frames", static_cast<double>(st.shed_frames), "count", 1);

  const double lateness_p99 = percentile(run.lateness_ms, 0.99);
  const double gap_p99 = percentile(run.poll_gap_ms, 0.99);
  report.add("cluster.generator_lateness_p99_ms", lateness_p99, "ms",
             static_cast<int64_t>(run.lateness_ms.size()));
  report.add("cluster.observation_gap_p99_ms", gap_p99, "ms",
             static_cast<int64_t>(run.poll_gap_ms.size()));
  report.add("cluster.generator_valid",
             lateness_p99 <= kGeneratorSlackMs && gap_p99 <= kGeneratorSlackMs ? 1.0 : 0.0, "bool", 1);

  probe_batched_stages(fx, frames, std::max<int64_t>(1, std::llround(mean_batch)), spans, report);
}

/// Replays each stream's frame sequence through its own batch-1 Supervisor
/// (streams split across threads) and counts frames whose outcome is not
/// bit-identical to the cluster's.
int64_t batch1_mismatches(const Fixture& fx, const std::vector<const Image*>& frames,
                          const OpenLoop& run) {
  std::vector<std::vector<const serving::ClusterResult*>> per_stream(kClusterStreams);
  for (const serving::ClusterResult& r : run.results) {
    per_stream[static_cast<size_t>(r.stream_id)].push_back(&r);
  }
  std::vector<int64_t> mismatches(kClusterStreams, 0);
  const int64_t workers =
      std::clamp<int64_t>(std::thread::hardware_concurrency(), 1, kClusterStreams);
  std::vector<std::thread> threads;
  for (int64_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      for (int64_t s = w; s < kClusterStreams; s += workers) {
        serving::Supervisor sup(*fx.detector, fx.steering.get(), cluster_supervisor_config());
        for (const serving::ClusterResult* c : per_stream[static_cast<size_t>(s)]) {
          const serving::ServeResult r = sup.process(scheduled_frame(frames, c->arrival_seq));
          const serving::ServeResult& got = c->result;
          const bool same = r.scored == got.scored && r.novel == got.novel &&
                            r.mode == got.mode && r.sensor_bad == got.sensor_bad &&
                            std::memcmp(&r.score, &got.score, sizeof(double)) == 0;
          if (!same) ++mismatches[static_cast<size_t>(s)];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  int64_t total = 0;
  for (const int64_t m : mismatches) total += m;
  return total;
}

}  // namespace

int64_t cluster_replicas() {
  const int64_t cores = std::max<int64_t>(1, std::thread::hardware_concurrency());
  return std::max<int64_t>(1, cores - 2);
}

void probe_cluster(const Fixture& fx, const std::vector<const Image*>& frames, double rate_fps,
                   double duration_s, SpanLog& spans, Report& report) {
  std::unique_ptr<serving::ServingCluster> cluster = make_cluster(fx);
  const OpenLoop run = run_open_loop(*cluster, frames, rate_fps, duration_s, nullptr);
  cluster.reset();
  add_batching_metrics(fx, frames, run, spans, report);
}

RunResult run_cluster_open(const Options& opts, SpanLog& spans) {
  RunResult out;
  Report& report = out.report;
  if (!(opts.cluster_rate_fps > 0.0)) throw std::invalid_argument("cluster_open needs --cluster-rate");
  Fixture fx;
  std::unique_ptr<serving::ServingCluster> cluster;
  set_up(opts, fx, [&] { cluster.reset(); }, [&](Fixture& f) { cluster = make_cluster(f); }, report);
  std::vector<const Image*> frames;
  for (const Image& f : fx.pool.frames) frames.push_back(&f);

  const double measured_s = opts.trace ? opts.seconds / 2 : opts.seconds;
  const OpenLoop run = run_open_loop(*cluster, frames, opts.cluster_rate_fps, measured_s, nullptr);
  cluster.reset();

  // End-to-end figures: every scheduled frame is attempted; one that was
  // never observed, not scored, or observed past the limit misses.
  const int64_t n = static_cast<int64_t>(run.due_ns.size());
  const int64_t lost = n - static_cast<int64_t>(run.results.size());
  std::vector<FrameOutcome> outcomes;
  for (const serving::ClusterResult& c : run.results) {
    const size_t k = static_cast<size_t>(c.arrival_seq);
    outcomes.push_back({{run.due_ns[k], run.observed_ns[k]}, &c.result,
                        fx.pool.indoor[k % fx.pool.indoor.size()]});
  }
  std::vector<FrameTiming> timings;
  for (const FrameOutcome& o : outcomes) timings.push_back(o.timing);
  // Medians over windows: unlike the closed loops' frame cost, open-loop
  // latency has no slow host state to read (see README.md, "Windows").
  add_serving_metrics(outcomes, windows_by_time(timings, kClusterWindowSeconds), 0.5, run.steal, n,
                      kClusterLimitMs, lost, report);
  out.attempted = n;
  out.failed = lost;

  // The open loop's own batching figures come from the measured run.
  add_batching_metrics(fx, frames, run, spans, report);
  std::vector<serving::ServingMode> modes;
  for (const serving::ClusterResult& c : run.results) {
    if (!c.result.sensor_bad) modes.push_back(c.result.mode);
  }
  add_ladder_metrics(modes, run.health, report);
  report.add("peak_rss_mb", peak_rss_mb(), "MB", 1);
  if (report.metrics().at("cluster.generator_valid").value < 1.0) {
    out.notes.push_back("generator fell behind its schedule: the run does not measure the system");
  }

  const int64_t mismatches = batch1_mismatches(fx, frames, run);
  if (mismatches != 0 || lost != 0) {
    out.correct = false;
    out.failed += mismatches;
    out.notes.push_back("cluster outcomes differ from batch-1 Supervisors on " +
                        std::to_string(mismatches) + " frames; " + std::to_string(lost) + " lost");
  }

  if (opts.trace) {
    // Same schedule on a fresh cluster with spans on the generator thread.
    std::unique_ptr<serving::ServingCluster> traced = make_cluster(fx);
    const OpenLoop traced_run =
        run_open_loop(*traced, frames, opts.cluster_rate_fps, opts.seconds - measured_s, &spans);
    traced.reset();
    std::vector<double> traced_ms;
    for (const serving::ClusterResult& c : traced_run.results) {
      const size_t k = static_cast<size_t>(c.arrival_seq);
      traced_ms.push_back(ms(traced_run.observed_ns[k] - traced_run.due_ns[k]));
    }
    std::vector<double> latency_ms;
    for (const FrameTiming& t : timings) latency_ms.push_back(ms(t.end_ns - t.start_ns));
    const double base = mean(latency_ms);
    report.add("trace.overhead_ratio", (mean(traced_ms) - base) / base, "ratio",
               static_cast<int64_t>(traced_ms.size()));
    probe_missing_stages(fx, frames, spans, report);
    probe_kernels(fx, spans, report);
  }
  return out;
}

}  // namespace servebench
