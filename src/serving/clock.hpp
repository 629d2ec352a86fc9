// Clock abstraction for the serving runtime.
//
// Every deadline decision in the supervisor goes through this interface so
// tests can drive the watchdog with a FakeClock: injected stalls become
// instantaneous jumps of fake time, and "stage blew its budget" is a
// deterministic fact of the schedule rather than a property of how loaded
// the CI machine happens to be. Production uses SteadyClock, a thin wrapper
// over std::chrono::steady_clock (monotonic — wall-clock adjustments must
// never un-blow a deadline).
#pragma once

#include <atomic>
#include <cstdint>

namespace salnov::serving {

class Clock {
 public:
  virtual ~Clock() = default;

  /// Monotonic nanoseconds since an arbitrary epoch.
  virtual int64_t now_ns() = 0;

  /// Blocks (or pretends to) for `ns`. The serving executor uses this for
  /// injected stalls and breaker backoff, never for pacing real work.
  virtual void sleep_ns(int64_t ns) = 0;
};

/// Real monotonic time via std::chrono::steady_clock.
class SteadyClock final : public Clock {
 public:
  int64_t now_ns() override;
  void sleep_ns(int64_t ns) override;
};

/// Deterministic test clock: time only moves when something sleeps or the
/// test advances it. Atomic so a ServingCluster's replica workers and a test
/// thread can share it under TSan without a data race.
class FakeClock final : public Clock {
 public:
  explicit FakeClock(int64_t start_ns = 0) : now_ns_(start_ns) {}

  int64_t now_ns() override { return now_ns_.load(std::memory_order_relaxed); }
  void sleep_ns(int64_t ns) override { advance_ns(ns); }

  void advance_ns(int64_t ns) {
    if (ns > 0) now_ns_.fetch_add(ns, std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> now_ns_;
};

}  // namespace salnov::serving
