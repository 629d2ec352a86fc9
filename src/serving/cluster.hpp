// ServingCluster: multi-stream serving with cross-frame micro-batching.
//
// One cluster owns N detector replicas (worker threads) sharing a single
// set of read-only pre-packed weights (Dense::packed_weights caches panels
// behind a double-checked atomic, so replicas share one copy). Many
// concurrent streams submit frames; each stream keeps its OWN Supervisor —
// its own mode-ladder position, circuit breaker, NoveltyMonitor, per-rung
// ECDF calibrations, deadline budgets, and HealthSnapshot. The cluster
// never mixes policy across streams.
//
// What IS shared is compute. A BatchAssembler (one per replica) gathers
// frames arriving within a bounded window across streams and runs the pure
// compute stages as batch-B forward passes — one stacked steering forward,
// one stacked VBP forward_collect, one [B, H*W] autoencoder GEMM — instead
// of B per-frame matvecs. The per-frame results are handed to each frame's
// own Supervisor through ProvidedCompute, and the supervisor replays its
// normal staged pipeline consuming them. Because every *decision* (budget,
// ladder, breaker, monitor, calibration) still runs inside the supervisor,
// and every batched kernel is bit-identical per sample to its batch-1
// counterpart (see NoveltyDetector's batched-scoring contract), scores and
// transitions are bit-identical regardless of which batch a frame landed
// in.
//
// Determinism: a frame is stamped with the clock at submit(); a batch seals
// when (a) it reaches max_batch, (b) a frame arrives outside the gather
// window of the batch head, or (c) the clock passes the head's window
// deadline. All three cuts depend only on arrival order and timestamps, so
// under a FakeClock the batch composition is a pure function of the arrival
// sequence — and since scores are batch-invariant anyway, even a different
// composition could not change them.
//
// Failure domain (optional, config.watchdog.enabled): a replica can be
// scheduled to crash, hang, run slow, or serve off corrupted weights via a
// faults::ReplicaFaultSchedule. A ReplicaWatchdog — driven from
// deterministic tick points on the submit/drain thread, never from a free-
// running thread — quarantines symptomatic replicas, migrates their queued
// streams wholesale to survivors (a stream's pending frames live on exactly
// one replica at a time, in arrival order, so per-stream processing order
// is preserved), retries with a bounded re-dispatch budget, and past the
// budget (or with every replica down) serves frames inline on the stream's
// own Supervisor — the batch-1 path, so scores stay bit-identical through
// every recovery route. Quarantined replicas are probed half-open with
// exponential backoff using a canary frame whose known-good steering angle
// is computed from a pristine copy of the weights at construction.
// Admission credits (config.admission_credits) bound each stream's pending
// frames: a frame holds its credit from admission until it is served, so
// the frames of a sealed batch in flight count too. Past the bound the
// stream's oldest still-queued frame is shed; when every pending frame is
// inside a sealed batch there is none, and the new arrival is shed itself.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "faults/replica_faults.hpp"
#include "serving/supervisor.hpp"
#include "serving/watchdog.hpp"

namespace salnov::serving {

struct ClusterConfig {
  int64_t streams = 1;   ///< independent per-stream supervisors
  int64_t replicas = 1;  ///< worker threads (clamped to `streams`)
  /// Frames arriving within this window of a batch head are gathered into
  /// the same batch (<= 0 degenerates to per-frame batches of size 1 unless
  /// frames carry identical timestamps).
  int64_t gather_window_ns = 2'000'000;
  int64_t max_batch = 16;  ///< hard cap on one batched forward
  /// Per-stream supervisor configuration (applied to every stream).
  SupervisorConfig supervisor;
  /// Retain per-frame ClusterResults for take_results(). Disable for soak
  /// runs where only health counters matter.
  bool keep_results = true;

  /// Replica failure detection/recovery; disabled by default (a cluster
  /// without a watchdog routes statically and never fails over; admission
  /// credits still shed).
  WatchdogConfig watchdog;
  /// Max pending (admitted, not yet served) frames per stream, counting
  /// frames of a sealed batch in flight. Past it the stream's oldest
  /// still-queued frame is shed, or the arrival itself when none is queued.
  /// Shedding is therefore oldest-first only while max_batch < credits:
  /// with max_batch >= credits one full batch in flight holds every credit,
  /// and arrivals during it are shed newest-first. 0 disables admission
  /// control. A one-stream cluster with credits is the bounded queue in
  /// front of a single camera's Supervisor.
  int64_t admission_credits = 0;
  /// Scheduled replica faults; may be null. Must outlive the cluster.
  const faults::ReplicaFaultSchedule* replica_faults = nullptr;
  /// Whether a slow-replica fault really sleeps the worker. True for live
  /// clocks; the trace driver sets false because FakeClock::sleep_ns
  /// advances the shared clock and would perturb every stream's arrivals.
  bool sleep_on_slow = true;
};

/// One completed frame, tagged with its routing and batching context.
/// Frames served inline by their stream's Supervisor (re-dispatch budget
/// exhausted or no healthy replica) carry replica = -1, batch_seq = -1,
/// batch_size = 1.
struct ClusterResult {
  int64_t stream_id = 0;
  int64_t arrival_seq = 0;  ///< global submit order (0-based)
  int64_t arrival_ns = 0;   ///< clock at submit()
  int64_t sealed_ns = 0;    ///< clock when the containing batch sealed
  int64_t replica = 0;      ///< worker that served the frame (-1 = inline fallback)
  int64_t batch_seq = 0;    ///< per-replica batch counter
  int64_t batch_size = 0;   ///< frames in the containing batch
  ServeResult result;
  ServingMode mode_after = ServingMode::kVbpSsim;        ///< stream mode after the frame
  BreakerState breaker_after = BreakerState::kClosed;    ///< stream breaker after the frame
};

class ServingCluster {
 public:
  /// `detector` must be fitted and outlive the cluster; `steering_model`
  /// follows the same contract as Supervisor's, whose constructor enforces
  /// it: the batched VBP forward also yields each saliency frame's angle, so
  /// the model must be the detector's attached one. `clock` may be null (a
  /// SteadyClock is created) and is shared by every stream's supervisor.
  /// Worker threads start immediately.
  ServingCluster(const core::NoveltyDetector& detector, nn::Sequential* steering_model,
                 ClusterConfig config, Clock* clock = nullptr);

  /// Drains and joins the workers.
  ~ServingCluster();

  /// Enqueues one frame on `stream_id`'s routed replica queue; never blocks
  /// on batched compute (it may process the frame inline when no replica is
  /// healthy). Runs a watchdog tick first, so quarantine/probe/restore
  /// decisions happen at deterministic points in the arrival sequence.
  /// Throws std::out_of_range on a bad stream id; submissions after stop()
  /// are dropped.
  void submit(int64_t stream_id, Image frame);

  /// Runs one watchdog pass at the current clock without submitting a frame.
  /// Normally the watchdog advances on submit()/drain(); a driver whose
  /// source has gone quiet (or that is deliberately pacing itself) can call
  /// this so quarantine, probe, and restore decisions keep up with the clock
  /// while no frames arrive. No-op after stop() or with the watchdog off.
  void tick();

  /// Holds workers before their next batch seal. Frames submitted while
  /// paused accumulate with their submit-time stamps; resume() processes
  /// them in order. Used by the trace driver to stage a deterministic
  /// arrival schedule under a FakeClock before any compute runs.
  void pause();
  void resume();

  /// Blocks until every submitted frame has been processed (seals partial
  /// batches rather than waiting out their gather windows). Runs a final
  /// watchdog tick first so frames stranded on a faulted replica migrate
  /// instead of being flushed through it, then resumes a paused cluster.
  void drain();

  /// Drains, then stops and joins the workers. Idempotent.
  void stop();

  /// Moves out the accumulated per-frame results, sorted by arrival_seq
  /// (empty when config.keep_results is false).
  std::vector<ClusterResult> take_results();

  /// Moves out the failure-domain event log (quarantines, probes, restores,
  /// failovers, fallbacks, sheds) in decision order.
  std::vector<ClusterEvent> take_events();

  /// One stream's supervisor snapshot plus its admission queue: capacity
  /// (admission_credits), high-water mark of pending frames, and frames
  /// shed. Safe against concurrent processing.
  HealthSnapshot stream_health(int64_t stream_id) const;

  /// Cluster-wide snapshot: counters summed over streams; mode/breaker are
  /// the most-degraded across streams; per-stage percentiles are the
  /// per-stream maxima (a conservative aggregate tail). Embeds stats() as
  /// the snapshot's cluster section.
  HealthSnapshot aggregate_health() const;

  ClusterStats stats() const;

  /// Frames shed from `stream_id` by admission control.
  int64_t shed_for_stream(int64_t stream_id) const;

  /// Watchdog view of one replica (kHealthy when the watchdog is off).
  ReplicaState replica_state(int64_t replica) const;

  int64_t streams() const { return config_.streams; }
  int64_t replicas() const { return static_cast<int64_t>(replicas_.size()); }

  /// Direct access for tests (stream supervisors are only otherwise touched
  /// by their replica worker; do not call process() on these concurrently
  /// with submitted frames).
  Supervisor& stream_supervisor(int64_t stream_id);

 private:
  struct PendingFrame {
    int64_t stream_id = 0;
    int64_t arrival_seq = 0;
    int64_t arrival_ns = 0;
    int64_t redispatches = 0;  ///< failovers survived; bounded by the watchdog budget
    Image frame;
  };

  enum class SealReason { kMaxBatch, kWindow, kFlush };

  struct Replica {
    int64_t index = 0;
    mutable std::mutex mu;  ///< guards queue / flags below
    std::condition_variable cv;
    std::deque<PendingFrame> queue;
    bool flush = false;     ///< seal partial batches immediately (drain)
    bool stopping = false;  ///< worker exits once the queue is empty
    int64_t batches_sealed = 0;
    /// Stamped by the worker each loop turn; silence past the watchdog's
    /// heartbeat timeout (live clock only) is an outage symptom.
    std::atomic<int64_t> last_heartbeat_ns{0};
    std::thread worker;
  };

  int64_t home_replica(int64_t stream_id) const {
    return stream_id % static_cast<int64_t>(replicas_.size());
  }

  /// True when the head of the queue must seal now (max_batch reached, a
  /// frame beyond the head's window arrived, the clock passed the head's
  /// deadline, or a flush/stop is pending). An active crash/hang fault
  /// suppresses sealing — unless a flush/stop is pending AND the watchdog
  /// is off (liveness wins when nothing can migrate the frames). Caller
  /// holds r.mu.
  bool should_seal(const Replica& r) const;

  /// Pops the sealed batch (up to max_batch frames within the head's
  /// window). Caller holds r.mu.
  std::vector<PendingFrame> seal_batch(Replica& r, SealReason& reason);

  void worker_loop(Replica& r);
  void process_batch(Replica& r, std::vector<PendingFrame> batch, SealReason reason,
                     int64_t sealed_ns, int64_t batch_seq);

  /// Stamps every replica's heartbeat with now, so the watchdog's silence
  /// check starts from a resume point rather than from before a pause.
  void restamp_heartbeats();

  // --- failure domain (all require routing_mu_ unless noted) --------------

  /// Watchdog pass: charge symptoms, quarantine, probe, restore, rebalance.
  /// No-op when the watchdog is off.
  void tick_locked(int64_t now_ns);

  /// Recomputes every stream's route (first healthy replica scanning from
  /// home; -1 when none) and migrates queued frames of re-routed streams
  /// wholesale, charging the re-dispatch budget. Frames past the budget —
  /// and every frame when no replica is healthy — are served inline.
  void rebalance_locked(int64_t now_ns);

  void quarantine_locked(int64_t replica, int64_t now_ns, int64_t detail);

  /// Serves one frame on its stream's Supervisor (batch-1 path, identical
  /// bits). `was_pending` says whether the frame was counted in the
  /// pending/outstanding accounting (queued frames yes, direct submissions
  /// are counted by the caller).
  void process_inline_locked(PendingFrame frame, int64_t now_ns, bool was_pending);

  /// One canary evaluation of `replica`: rebuild a clone from the pristine
  /// weight bytes, apply any active weight-corruption fault, compare the
  /// canary frame's steering angle against the known-good value. True when
  /// the replica would serve good bits. Schedule-only verdict (true) when
  /// no steering model is configured.
  bool canary_passes_locked(int64_t replica, int64_t now_ns);

  /// Half-open probe verdict: no outage/degrading-slow fault active and the
  /// canary passes.
  bool probe_passes_locked(int64_t replica, int64_t now_ns);

  void push_event_locked(ClusterEventKind kind, int64_t at_ns, int64_t replica,
                         int64_t stream, int64_t detail);

  const core::NoveltyDetector& detector_;
  nn::Sequential* steering_model_;
  ClusterConfig config_;
  std::unique_ptr<Clock> owned_clock_;
  Clock* clock_;
  const bool saliency_configured_;

  std::vector<std::unique_ptr<Supervisor>> supervisors_;  ///< one per stream
  std::vector<std::unique_ptr<Replica>> replicas_;

  /// Serializes one stream's supervisor access (worker processing, inline
  /// fallback, health snapshots). Lock order: routing_mu_ -> stream_mu_ ->
  /// results_mu_; workers take only the latter two.
  std::unique_ptr<std::mutex[]> stream_mu_;

  /// Failure-domain state: watchdog, per-stream routes, shed accounting,
  /// event log, chaos counters. All mutated at tick points on the
  /// submit/drain thread under routing_mu_.
  mutable std::mutex routing_mu_;
  std::unique_ptr<ReplicaWatchdog> watchdog_;  ///< null when disabled
  std::vector<int64_t> routing_;               ///< stream -> replica (-1 = inline)
  std::vector<int64_t> shed_per_stream_;
  std::vector<int64_t> pending_high_water_;  ///< per-stream max of pending_per_stream_
  std::vector<ClusterEvent> events_;
  ClusterStats chaos_stats_;  ///< only the failure-domain counters are used

  /// Queued-unprocessed frames per stream (admission credits). Atomic so
  /// workers can decrement without routing_mu_.
  std::unique_ptr<std::atomic<int64_t>[]> pending_per_stream_;

  /// Canary probe state: pristine steering weights serialized at
  /// construction, a fixed synthetic frame, and its known-good angle.
  bool has_canary_ = false;
  std::string pristine_steering_bytes_;
  Image canary_frame_;
  double canary_known_good_ = 0.0;

  std::atomic<int64_t> next_seq_{0};
  std::atomic<bool> paused_{false};
  std::atomic<bool> stopped_{false};

  /// Accepted frames not yet processed; every decrement happens under
  /// idle_mu_ and notifies idle_cv_, so drain() cannot miss the last one.
  std::atomic<int64_t> outstanding_{0};
  mutable std::mutex idle_mu_;
  std::condition_variable idle_cv_;

  mutable std::mutex results_mu_;  ///< guards results_ and stats_
  std::vector<ClusterResult> results_;
  ClusterStats stats_;
};

}  // namespace salnov::serving
