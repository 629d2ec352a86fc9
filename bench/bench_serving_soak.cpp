// Serving-runtime soak: long-haul robustness of the supervisor + cluster.
//
// Phase A streams frames synchronously through a Supervisor under a fake
// clock with a deterministic stall schedule — periodic saliency spikes, one
// consecutive-failure episode that trips the circuit breaker, and one
// sustained reconstruct stall that walks the ladder all the way to sensor
// hold. The run asserts the runtime reacted (trip + probe restore, step-downs
// and promotions, final mode back at the top) and every frame is accounted
// for. Phase B bursts frames at a one-stream ServingCluster faster than its
// replica can drain them, asserting admission credits shed the oldest frames
// instead of growing the queue and the pending high-water mark respects the
// credits. Phase C drives eight live streams
// at uneven rates through a micro-batching ServingCluster with one stream
// stalling mid-run, asserting a dead camera never holds other streams'
// frames past the gather window (no cross-stream head-of-line blocking) and
// per-stream accounting (served + per-stream shed == submitted) stays
// exact. Phase D is the seeded chaos soak: the same uneven streams on three
// replicas while a deterministic replica-fault schedule (crash, hard-hang,
// slow replica, weight corruption) kills and restores replicas under the
// watchdog, gated on zero lost frames beyond the shed policy, bounded
// per-stream staleness, and the quarantine -> probe -> restore cycle; the
// same chaos shape is then recorded as a format-v4 trace and must replay
// bit-exactly at 1 and 4 worker threads.
//
// Frame count is argv[1] (default 10000, minimum 200); CI smoke passes a
// small count. Phase C runs a fixed 64 rounds regardless of the frame
// count; phases D scale with it (~frames chaos frames live, frames/8 per
// stream traced). Emits BENCH_serving.json for trend tracking.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "faults/replica_faults.hpp"
#include "faults/timing_faults.hpp"
#include "parallel/parallel_for.hpp"
#include "serving/cluster.hpp"
#include "serving/supervisor.hpp"
#include "trace/trace.hpp"

namespace salnov::bench {
namespace {

constexpr uint64_t kDetectorSeed = 5;
constexpr int64_t kMs = 1'000'000;

double elapsed_ms(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

int check(bool ok, const char* what) {
  if (!ok) std::fprintf(stderr, "SOAK FAILURE: %s\n", what);
  return ok ? 0 : 1;
}

}  // namespace

int run(int64_t frames) {
  print_header("Serving soak",
               "Supervisor under a deterministic stall schedule (fake clock), then a burst\n"
               "through a one-stream ServingCluster with admission credits. Asserts the\n"
               "degraded-mode ladder, breaker, and shedding all engage and recover.");

  Env& env = environment();
  DetectorHandle handle = fit_or_load_detector(
      env, bench_detector_config(core::Preprocessing::kVbp, core::ReconstructionScore::kSsim),
      kDetectorSeed);
  const core::NoveltyDetector& detector = *handle.detector;
  nn::Sequential* steering = handle.steering ? handle.steering.get() : &env.steering;
  const std::vector<Image>& pool = env.outdoor_test.images();

  // --- Phase A: deterministic soak under the fake clock --------------------
  // Only injected stalls advance time, so the overrun/ladder/breaker trace
  // depends solely on the schedule below, not on machine speed.
  faults::TimingFaultInjector stalls;
  {
    faults::TimingFault spike;  // isolated saliency spikes, absorbed (demote_after = 2)
    spike.stage = static_cast<int>(serving::Stage::kSaliency);
    spike.stall_ns = 60 * kMs;
    spike.period = 97;
    stalls.add(spike);

    faults::TimingFault episode;  // consecutive failures: trips the breaker
    episode.stage = static_cast<int>(serving::Stage::kSaliency);
    episode.stall_ns = 60 * kMs;
    episode.first_frame = frames / 10;
    episode.last_frame = frames / 10 + 4;
    stalls.add(episode);

    faults::TimingFault outage;  // hits every rung: ladder descends to sensor hold
    outage.stage = static_cast<int>(serving::Stage::kReconstruct);
    outage.stall_ns = 30 * kMs;
    outage.first_frame = frames / 2;
    outage.last_frame = frames / 2 + 19;
    stalls.add(outage);
  }

  serving::SupervisorConfig config;
  config.timing_faults = &stalls;
  config.demote_after_bad_frames = 2;  // absorb isolated spikes, react to episodes
  serving::FakeClock clock;
  serving::Supervisor supervisor(detector, steering, config, &clock);

  std::printf("\nPhase A: %" PRId64 " frames, periodic spikes + breaker episode + outage...\n",
              frames);
  const auto a_start = std::chrono::steady_clock::now();
  for (int64_t i = 0; i < frames; ++i) {
    supervisor.process(pool[static_cast<size_t>(i) % pool.size()]);
  }
  const double a_ms = elapsed_ms(a_start);
  const serving::HealthSnapshot a = supervisor.health();

  std::printf("  %.0f ms (%.1f frames/s), final mode %s, breaker %s\n", a_ms,
              1000.0 * static_cast<double>(frames) / a_ms, serving::serving_mode_name(a.mode),
              serving::breaker_state_name(a.breaker_state));
  std::printf("  overruns %" PRId64 ", step-downs %" PRId64 ", promotions %" PRId64
              ", trips %" PRId64 ", probe ok/fail %" PRId64 "/%" PRId64 "\n",
              a.deadline_overruns, a.step_downs, a.promotions, a.breaker_trips, a.probe_successes,
              a.probe_failures);

  int failures = 0;
  failures += check(a.frames_total == frames, "phase A processed every frame");
  failures += check(a.frames_scored + a.frames_held + a.frames_abandoned + a.frames_sensor_bad ==
                        frames,
                    "phase A accounted for every frame");
  failures += check(a.deadline_overruns > 0, "stalls produced overruns");
  failures += check(a.breaker_trips >= 1, "breaker tripped on the episode");
  failures += check(a.probe_successes >= 1, "half-open probe restored saliency");
  failures += check(a.step_downs >= 5, "ladder stepped down through the outage");
  failures += check(a.promotions >= 2, "ladder climbed back after recovery");
  failures += check(a.mode == serving::ServingMode::kVbpSsim, "soak ends at the top rung");

  // --- Phase B: burst shedding through a one-stream cluster ----------------
  // Admission credits bound the stream's pending frames; past them the
  // oldest queued frame is shed. A frame holds its credit until served, so
  // max_batch stays below the credits: a batch in flight leaves room to
  // queue the freshest arrivals. Real clock, generous budgets.
  const int64_t burst = frames < 512 ? frames : frames / 8;
  serving::ClusterConfig b_config;
  b_config.admission_credits = 16;
  b_config.max_batch = 4;
  b_config.keep_results = false;
  b_config.supervisor.stage_budget_ns.fill(0);  // latency rings only; no degradation
  b_config.supervisor.frame_budget_ns = 0;

  std::printf("\nPhase B: bursting %" PRId64 " frames at one stream with %" PRId64
              " credits...\n",
              burst, b_config.admission_credits);
  const auto b_start = std::chrono::steady_clock::now();
  serving::HealthSnapshot b;
  {
    serving::ServingCluster b_cluster(detector, steering, b_config);
    for (int64_t i = 0; i < burst; ++i) {
      b_cluster.submit(0, pool[static_cast<size_t>(i) % pool.size()]);
    }
    b_cluster.stop();
    b = b_cluster.stream_health(0);
  }
  const double b_ms = elapsed_ms(b_start);

  std::printf("  %.0f ms, processed %" PRId64 ", shed %" PRId64 ", high water %" PRId64 "/%"
              PRId64 "\n",
              b_ms, b.frames_total, b.queue_shed, b.queue_high_water, b.queue_capacity);
  failures += check(b.queue_high_water <= b.queue_capacity, "queue high water respects capacity");
  failures += check(b.frames_total + b.queue_shed == burst, "phase B accounted for every frame");
  failures += check(b.frames_total > 0, "worker processed at least some of the burst");

  // --- Phase C: multi-stream cluster under uneven live rates ---------------
  // Eight streams at three different frame rates share two replicas through
  // the micro-batching ServingCluster; the fastest-indexed stream stalls
  // halfway through (a dead camera). Arrival timestamps come from a fake
  // clock advanced once per round, but submission is live — workers batch
  // and process concurrently — so the phase asserts liveness: a stalled
  // stream must never hold other streams' frames past the gather window.
  // Also checked: exact per-stream accounting and the gather-wait bound.
  constexpr int64_t kCRounds = 64;
  constexpr int64_t kCStreams = 8;
  constexpr int64_t kCPeriodNs = 1 * kMs;      // clock advance per round
  constexpr int64_t kCWindowNs = 2 * kMs;      // gather window
  serving::ClusterConfig c_config;
  c_config.streams = kCStreams;
  c_config.replicas = 2;
  // 15 frames/round over two replicas: the busier replica fills 16 inside
  // one window (max-batch seals) while the other seals on the deadline —
  // both seal paths get exercised, plus flush seals from the final drain.
  c_config.max_batch = 16;
  c_config.gather_window_ns = kCWindowNs;
  c_config.supervisor.stage_budget_ns.fill(0);  // scheduling phase, not ladder
  c_config.supervisor.frame_budget_ns = 0;
  c_config.keep_results = false;

  std::printf("\nPhase C: %" PRId64 " uneven streams on 2 replicas, one stalls at round %"
              PRId64 "...\n",
              kCStreams, kCRounds / 2);
  const auto c_start = std::chrono::steady_clock::now();
  serving::FakeClock c_clock;
  serving::ServingCluster cluster(detector, steering, c_config, &c_clock);
  std::vector<int64_t> submitted(static_cast<size_t>(kCStreams), 0);
  std::vector<std::vector<int64_t>> submitted_through_round;  // per-stream, per round
  int64_t c_total = 0;
  bool c_live = true;
  const auto streams_caught_up = [&](const std::vector<int64_t>& due) {
    for (int64_t s = 0; s < kCStreams; ++s) {
      if (cluster.stream_health(s).frames_total < due[static_cast<size_t>(s)]) return false;
    }
    return true;
  };
  for (int64_t round = 0; round < kCRounds && c_live; ++round) {
    c_clock.advance_ns(kCPeriodNs);
    for (int64_t s = 0; s < kCStreams; ++s) {
      if (s == kCStreams - 1 && round >= kCRounds / 2) continue;  // camera died
      for (int64_t j = 0; j < s % 3 + 1; ++j) {  // 1/2/3 frames per round
        cluster.submit(s, pool[static_cast<size_t>((s * 37 + c_total) % pool.size())]);
        ++submitted[static_cast<size_t>(s)];
        ++c_total;
      }
    }
    submitted_through_round.push_back(submitted);
    if (round < 4) continue;
    // Every stream's frames from four rounds ago must be processed by now:
    // the window deadline is strict (seals fire on the clock advance AFTER
    // it passes) and a max-batch seal may leave a frame queued for one more
    // seal cycle. The check is per stream so one replica racing ahead
    // cannot mask the other lagging. Give the workers bounded real time to
    // clear the backlog; a timeout means the stalled stream (or anything
    // else) wedged cross-stream progress.
    const std::vector<int64_t>& due = submitted_through_round[static_cast<size_t>(round - 4)];
    const auto wait_start = std::chrono::steady_clock::now();
    while (!streams_caught_up(due) && elapsed_ms(wait_start) < 5000.0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    if (!streams_caught_up(due)) {
      failures += check(false, "phase C: stalled stream blocked cross-stream progress");
      c_live = false;
    }
  }
  cluster.drain();
  const serving::ClusterStats c_stats = cluster.stats();
  const double c_ms = elapsed_ms(c_start);

  std::printf("  %.0f ms, %" PRId64 " frames in %" PRId64 " batches (seals: %" PRId64
              " window, %" PRId64 " max-batch, %" PRId64 " flush), worst gather wait %.2f ms\n",
              c_ms, c_stats.batched_frames, c_stats.batches, c_stats.window_seals,
              c_stats.max_batch_seals, c_stats.flush_seals,
              static_cast<double>(c_stats.max_gather_wait_ns) / 1e6);
  failures += check(c_stats.batched_frames == c_total, "phase C processed every frame");
  int64_t c_shed_sum = 0;
  for (int64_t s = 0; s < kCStreams; ++s) {
    const serving::HealthSnapshot health = cluster.stream_health(s);
    const int64_t shed_s = cluster.shed_for_stream(s);
    c_shed_sum += shed_s;
    // Per-stream conservation: every submitted frame is either served or
    // named in that stream's own shed counter (admission control is off
    // here, so shed must be zero — but the identity is the invariant).
    if (health.frames_total + shed_s != submitted[static_cast<size_t>(s)]) {
      std::fprintf(stderr,
                   "SOAK FAILURE: phase C stream %" PRId64 " accounted %" PRId64 " + %" PRId64
                   " shed of %" PRId64 " frames\n",
                   s, health.frames_total, shed_s, submitted[static_cast<size_t>(s)]);
      ++failures;
    }
  }
  failures += check(c_shed_sum == c_stats.shed_frames,
                    "phase C: per-stream shed counters sum to the aggregate");
  failures += check(c_stats.window_seals >= 1,
                    "phase C: uneven rates produced window-deadline seals");
  // Gather-wait bound: a frame submitted at round x must be processed
  // before the liveness guard releases round x+4's successor, i.e. before
  // the clock reaches x+5 — so no frame can wait more than the window plus
  // two periods, no matter how slow the workers run in real time.
  failures += check(c_stats.max_gather_wait_ns <= kCWindowNs + 2 * kCPeriodNs,
                    "phase C: no frame waited past the gather window bound");
  cluster.stop();

  // --- Phase D: seeded chaos — kill/restore replicas under uneven live load
  // Eight streams at 1/2/3 frames per round on three replicas, with a
  // deterministic fault schedule running underneath: replica 0 crashes, then
  // has its weights bit-flipped; replica 1 hard-hangs; replica 2 runs slow
  // enough to miss every batch deadline. The watchdog quarantines each
  // faulted replica, fails streams over to survivors, and restores via
  // half-open probes once the windows close. Admission credits bound each
  // stream's pending backlog, shedding oldest-first. Gates: zero lost frames
  // beyond the per-stream shed counters, bounded per-stream staleness (the
  // same liveness guard as phase C, with slack for quarantine detection),
  // and the quarantine/restore cycle actually happening.
  constexpr int64_t kDStreams = 8;
  constexpr int64_t kDReplicas = 3;
  // 15 frames per round (streams at 1/2/3 each); round up so the default
  // 10k-frame run drives at least 10k chaos frames end to end.
  const int64_t d_rounds = std::max<int64_t>(64, (frames + 14) / 15);
  const int64_t d_dur = d_rounds * kCPeriodNs;
  // Every fault starts at d/4 or later: the staleness guard below only
  // begins pacing the driver at round 8, and a fault that lands inside the
  // initial unpaced burst freezes fake time before the watchdog's
  // quarantine horizon (fault start + missed * deadline) can be reached.
  faults::ReplicaFaultSchedule d_faults;
  d_faults.add({0, faults::ReplicaFaultKind::kCrash, d_dur / 4, 3 * d_dur / 8});
  d_faults.add({2, faults::ReplicaFaultKind::kSlow, 3 * d_dur / 8, 5 * d_dur / 8,
                /*slow_penalty_ns=*/20 * kMs});
  d_faults.add({1, faults::ReplicaFaultKind::kHang, d_dur / 2, 3 * d_dur / 4});
  d_faults.add({0, faults::ReplicaFaultKind::kWeightCorrupt, 5 * d_dur / 8, 2 * d_dur,
                /*slow_penalty_ns=*/0, /*weight_bits=*/64, /*seed=*/5});

  serving::ClusterConfig d_config;
  d_config.streams = kDStreams;
  d_config.replicas = kDReplicas;
  d_config.max_batch = 16;
  d_config.gather_window_ns = kCWindowNs;
  d_config.supervisor.stage_budget_ns.fill(0);
  d_config.supervisor.frame_budget_ns = 0;
  d_config.keep_results = false;
  d_config.watchdog.enabled = true;
  d_config.watchdog.batch_deadline_ns = 2 * kMs;
  d_config.watchdog.missed_deadlines_to_quarantine = 2;
  d_config.watchdog.probe_backoff_ns = 4 * kMs;
  d_config.watchdog.max_probe_backoff_ns = 32 * kMs;
  d_config.replica_faults = &d_faults;
  // Wide enough that a healthy, paced stream never hits the bound (the
  // staleness guard holds the driver ~16 rounds back at most, i.e. <= 48
  // pending on the busiest streams), tight enough that an outage pileup on
  // a 3-frames/round stream sheds visibly before quarantine migration.
  d_config.admission_credits = 24;
  d_config.sleep_on_slow = false;  // FakeClock is shared across replicas

  std::printf("\nPhase D: seeded chaos, %" PRId64 " uneven streams on %" PRId64
              " replicas over %" PRId64 " rounds (crash + hang + slow + weight-corruption)...\n",
              kDStreams, kDReplicas, d_rounds);
  const auto d_start = std::chrono::steady_clock::now();
  serving::FakeClock d_clock;
  serving::ServingCluster d_cluster(detector, steering, d_config, &d_clock);
  std::vector<int64_t> d_submitted(static_cast<size_t>(kDStreams), 0);
  std::vector<std::vector<int64_t>> d_due_by_round;
  int64_t d_total = 0;
  bool d_live = true;
  const auto d_caught_up = [&](const std::vector<int64_t>& due) {
    for (int64_t s = 0; s < kDStreams; ++s) {
      // Shed frames never get served; they count as resolved.
      if (d_cluster.stream_health(s).frames_total + d_cluster.shed_for_stream(s) <
          due[static_cast<size_t>(s)]) {
        return false;
      }
    }
    return true;
  };
  for (int64_t round = 0; round < d_rounds && d_live; ++round) {
    d_clock.advance_ns(kCPeriodNs);
    for (int64_t s = 0; s < kDStreams; ++s) {
      for (int64_t j = 0; j < s % 3 + 1; ++j) {
        d_cluster.submit(s, pool[static_cast<size_t>((s * 41 + d_total) % pool.size())]);
        ++d_submitted[static_cast<size_t>(s)];
        ++d_total;
      }
    }
    d_due_by_round.push_back(d_submitted);
    if (round < 8) continue;
    // Bounded staleness: frames from 8 rounds ago must be served (or shed)
    // by now. Eight rounds of fake time cover the worst recovery chain —
    // missed-deadline accrual (2 x 2 ms), the quarantine tick, and the
    // migration of the replica's backlog — all of which fire on submit
    // ticks that precede this check (seals themselves need future clock
    // advances, so the lag cannot shrink below the gather window). The
    // real-time wait covers worker scheduling lag, and the round-by-round
    // check also paces the driver, so the backlog (and any shedding)
    // reflects injected outages, not submission speed.
    const std::vector<int64_t>& due = d_due_by_round[static_cast<size_t>(round - 8)];
    const auto wait_start = std::chrono::steady_clock::now();
    int64_t extra_ms = 0;
    while (!d_caught_up(due) && elapsed_ms(wait_start) < 5000.0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      // A stalled catch-up means frames are stranded behind a fault the
      // watchdog has not yet charged past its quarantine horizon — and the
      // watchdog only advances on submits, which this wait is withholding.
      // The source pausing does not stop wall time: keep fake time flowing
      // (bounded) and tick the cluster so quarantine -> migration can fire.
      if (extra_ms < 8 && elapsed_ms(wait_start) > 2.0 * static_cast<double>(extra_ms + 1)) {
        d_clock.advance_ns(kMs);
        d_cluster.tick();
        ++extra_ms;
      }
    }
    if (!d_caught_up(due)) {
      failures += check(false, "phase D: chaos blocked per-stream progress past the bound");
      d_live = false;
    }
  }
  d_cluster.drain();
  const serving::ClusterStats d_stats = d_cluster.stats();
  const double d_ms = elapsed_ms(d_start);

  std::printf("  %.0f ms, %" PRId64 " frames (%" PRId64 " batched, %" PRId64 " inline, %" PRId64
              " shed), quarantines %" PRId64 ", probes %" PRId64 " (%" PRId64
              " failed), restores %" PRId64 ", failovers %" PRId64 ", redispatched %" PRId64 "\n",
              d_ms, d_total, d_stats.batched_frames, d_stats.fallback_frames, d_stats.shed_frames,
              d_stats.quarantines, d_stats.probe_attempts, d_stats.probe_failures,
              d_stats.restores, d_stats.failovers, d_stats.redispatched_frames);
  int64_t d_shed_sum = 0;
  for (int64_t s = 0; s < kDStreams; ++s) {
    const serving::HealthSnapshot health = d_cluster.stream_health(s);
    const int64_t shed_s = d_cluster.shed_for_stream(s);
    d_shed_sum += shed_s;
    if (health.frames_total + shed_s != d_submitted[static_cast<size_t>(s)]) {
      std::fprintf(stderr,
                   "SOAK FAILURE: phase D stream %" PRId64 " accounted %" PRId64 " + %" PRId64
                   " shed of %" PRId64 " frames\n",
                   s, health.frames_total, shed_s, d_submitted[static_cast<size_t>(s)]);
      ++failures;
    }
    failures += check(health.frames_total > 0, "phase D: every stream made progress");
  }
  failures += check(d_shed_sum == d_stats.shed_frames,
                    "phase D: per-stream shed counters sum to the aggregate");
  failures += check(d_stats.batched_frames + d_stats.fallback_frames + d_stats.shed_frames ==
                        d_total,
                    "phase D: zero frames lost beyond the shed policy");
  failures += check(d_stats.quarantines >= 3,
                    "phase D: crash, hang, and slow replicas were all quarantined");
  failures += check(d_stats.restores >= 2, "phase D: quarantined replicas were restored");
  failures += check(d_stats.probe_attempts >= d_stats.restores,
                    "phase D: restores came through half-open probes");
  d_cluster.stop();

  // --- Phase D trace gate: the same chaos shape, recorded and replayed ----
  // A staged (paused-submission) run of the chaos schedule is recorded as a
  // format-v4 trace and must replay bit-exactly at 1 and 4 worker threads —
  // quarantines, probes, failovers, and every per-frame score included.
  trace::TraceRunSpec d_spec;
  d_spec.dataset = "outdoor";
  d_spec.frame_seed = 2024;
  d_spec.fault_seed = 7;
  d_spec.frames = std::max<int64_t>(25, frames / 8);  // per stream
  d_spec.height = detector.config().height;
  d_spec.width = detector.config().width;
  d_spec.supervisor.stage_budget_ns.fill(0);
  d_spec.supervisor.frame_budget_ns = 0;
  d_spec.cluster.streams = kDStreams;
  d_spec.cluster.replicas = kDReplicas;
  d_spec.cluster.gather_window_ns = kCWindowNs;
  d_spec.cluster.max_batch = 16;
  d_spec.cluster.arrival_period_ns = kCPeriodNs;
  d_spec.cluster.watchdog = d_config.watchdog;
  d_spec.cluster.admission_credits = 0;  // staged runs never drain mid-round
  const int64_t t_dur = d_spec.frames * kCPeriodNs;
  d_spec.cluster.replica_faults.push_back(
      {0, faults::ReplicaFaultKind::kCrash, t_dur / 8, 3 * t_dur / 8});
  d_spec.cluster.replica_faults.push_back(
      {2, faults::ReplicaFaultKind::kSlow, t_dur / 4, 5 * t_dur / 8, 20 * kMs});
  d_spec.cluster.replica_faults.push_back(
      {1, faults::ReplicaFaultKind::kHang, t_dur / 2, 3 * t_dur / 4});
  d_spec.cluster.replica_faults.push_back(
      {0, faults::ReplicaFaultKind::kWeightCorrupt, 5 * t_dur / 8, 2 * t_dur, 0, 64, 5});

  std::printf("\nPhase D trace gate: recording %" PRId64 " x %" PRId64
              " chaos frames, replaying at 1 and 4 threads...\n",
              static_cast<int64_t>(kDStreams), d_spec.frames);
  const auto t_start = std::chrono::steady_clock::now();
  const trace::Trace d_trace = trace::TraceRecorder::record(d_spec, detector, steering);
  failures += check(static_cast<int64_t>(d_trace.frames.size()) == kDStreams * d_spec.frames,
                    "phase D trace: every frame recorded (none lost or shed)");
  failures += check(d_trace.cluster_health.quarantines >= 3,
                    "phase D trace: chaos quarantined all three faulted replicas");
  failures += check(d_trace.cluster_health.restores >= 2,
                    "phase D trace: quarantined replicas restored via probe");
  failures += check(!d_trace.events.empty(), "phase D trace: event log captured");
  double replay_ms[2] = {0.0, 0.0};
  {
    int slot = 0;
    for (const int threads : {1, 4}) {
      parallel::set_num_threads(threads);
      const auto r_start = std::chrono::steady_clock::now();
      const trace::ReplayReport report =
          trace::TraceReplayer::replay(d_trace, detector, steering);
      replay_ms[slot++] = elapsed_ms(r_start);
      if (!report.ok()) {
        std::fprintf(stderr, "SOAK FAILURE: phase D trace replay at %d threads: %s\n", threads,
                     report.format().c_str());
        ++failures;
      }
    }
    parallel::set_num_threads(0);
  }
  const double t_ms = elapsed_ms(t_start);
  std::printf("  %.0f ms total (replays %.0f / %.0f ms), %zu events, quarantines %" PRId64
              ", restores %" PRId64 ", failovers %" PRId64 "\n",
              t_ms, replay_ms[0], replay_ms[1], d_trace.events.size(),
              d_trace.cluster_health.quarantines, d_trace.cluster_health.restores,
              d_trace.cluster_health.failovers);

  std::ofstream json("BENCH_serving.json");
  json << "{\n  \"phase_a\": {\"frames\": " << frames << ", \"elapsed_ms\": " << a_ms
       << ", \"deadline_overruns\": " << a.deadline_overruns
       << ", \"step_downs\": " << a.step_downs << ", \"promotions\": " << a.promotions
       << ", \"breaker_trips\": " << a.breaker_trips
       << ", \"probe_successes\": " << a.probe_successes << ", \"final_mode\": \""
       << serving::serving_mode_name(a.mode) << "\", \"saliency_p99_ns\": "
       << a.stages[static_cast<size_t>(serving::Stage::kSaliency)].p99_ns << "},\n"
       << "  \"phase_b\": {\"frames_submitted\": " << burst
       << ", \"frames_processed\": " << b.frames_total << ", \"shed\": " << b.queue_shed
       << ", \"queue_high_water\": " << b.queue_high_water
       << ", \"queue_capacity\": " << b.queue_capacity << ", \"elapsed_ms\": " << b_ms << "},\n"
       << "  \"phase_c\": {\"streams\": " << kCStreams << ", \"rounds\": " << kCRounds
       << ", \"frames\": " << c_stats.batched_frames << ", \"batches\": " << c_stats.batches
       << ", \"window_seals\": " << c_stats.window_seals
       << ", \"max_batch_seals\": " << c_stats.max_batch_seals
       << ", \"flush_seals\": " << c_stats.flush_seals
       << ", \"max_gather_wait_ns\": " << c_stats.max_gather_wait_ns
       << ", \"elapsed_ms\": " << c_ms << "},\n"
       << "  \"phase_d\": {\"streams\": " << kDStreams << ", \"replicas\": " << kDReplicas
       << ", \"rounds\": " << d_rounds << ", \"frames\": " << d_total
       << ", \"batched_frames\": " << d_stats.batched_frames
       << ", \"fallback_frames\": " << d_stats.fallback_frames
       << ", \"shed_frames\": " << d_stats.shed_frames
       << ", \"quarantines\": " << d_stats.quarantines
       << ", \"probe_attempts\": " << d_stats.probe_attempts
       << ", \"probe_failures\": " << d_stats.probe_failures
       << ", \"restores\": " << d_stats.restores << ", \"failovers\": " << d_stats.failovers
       << ", \"redispatched_frames\": " << d_stats.redispatched_frames
       << ", \"elapsed_ms\": " << d_ms
       << ", \"trace_frames\": " << d_trace.frames.size()
       << ", \"trace_events\": " << d_trace.events.size()
       << ", \"trace_replay_1t_ms\": " << replay_ms[0]
       << ", \"trace_replay_4t_ms\": " << replay_ms[1] << "}\n}\n";
  std::printf("\nwrote BENCH_serving.json\n");

  if (failures > 0) {
    std::fprintf(stderr, "%d soak invariant(s) violated\n", failures);
    return 1;
  }
  std::printf("all soak invariants held\n");
  return 0;
}

}  // namespace salnov::bench

int main(int argc, char** argv) {
  int64_t frames = 10'000;
  if (argc > 1) frames = std::atoll(argv[1]);
  if (frames < 200) {
    std::fprintf(stderr, "bench_serving_soak: frame count must be >= 200 (got %" PRId64 ")\n",
                 frames);
    return 2;
  }
  return salnov::bench::run(frames);
}
