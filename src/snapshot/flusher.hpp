// Periodic in-run snapshot flushing.
//
// A SnapshotFlusher owns a background thread that captures the
// instrumentor's partial profile (Instrumentor::capture_snapshot) every
// `interval` nanoseconds and writes it atomically to one target path —
// each flush rename(2)s over the previous one, so the file on disk is
// always the last *complete* snapshot.  A SIGKILLed run therefore
// leaves at most `interval` of work unaccounted for; nothing survives a
// crash except what was already flushed, which is the whole point.
//
// Flush policy: the first flush happens immediately on start() (a run
// that dies in its first interval still leaves a file), and a capture
// that produced nothing while profilers exist is skipped rather than
// overwriting a data-bearing snapshot with an empty one.  After the run
// completes and Instrumentor::finalize() ran, flush_final() replaces
// the last partial snapshot with the clean full profile.
//
// install_crash_flush() additionally arms best-effort last-gasp
// flushing: SIGINT/SIGTERM handlers and an atexit hook that write one
// final snapshot before the process dies.  "Best effort" is literal —
// the flush allocates, so it is not async-signal-safe in the letter of
// POSIX; it is a salvage path, not the correctness story (that is the
// periodic flush + atomic rename, which needs no cooperation from the
// dying process at all — SIGKILL cannot be caught).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "instrument/instrumentor.hpp"
#include "profile/region.hpp"
#include "snapshot/snapshot.hpp"
#include "telemetry/telemetry.hpp"

namespace taskprof::snapshot {

/// What one periodic flush tick accomplished — the schedule's input.
enum class FlushOutcome : std::uint8_t {
  kWritten,  ///< at least one target got the snapshot
  kSkipped,  ///< benign no-op (empty capture, final already written)
  kFailed,   ///< a target errored; the schedule backs off
};

struct FlushScheduleOptions {
  Ticks interval = 0;            ///< base ns between flushes
  double jitter_fraction = 0.0;  ///< uniform ±fraction of the interval,
                                 ///< de-synchronizing fleet producers
  double backoff_multiplier = 2.0;  ///< per consecutive failure
  int max_backoff_exponent = 6;     ///< cap: interval * mult^max
  std::uint64_t seed = 0x5eedf1a5;  ///< jitter RNG, mixed with the pid
};

/// Pure flush-cadence policy: base interval, seeded jitter, exponential
/// backoff on consecutive failures.  Time-free by construction (it
/// returns delays, it never sleeps), so the unit test drives it against
/// a fake clock.  The jitter RNG is seeded with `seed` mixed with the
/// process id: within one process a seed replays one sequence, and
/// producers built alike in different processes draw different delays.
class FlushSchedule {
 public:
  explicit FlushSchedule(FlushScheduleOptions options);

  /// Feed the outcome of the flush that just ran.  kFailed deepens the
  /// backoff, kWritten resets it, kSkipped (benign) leaves it alone.
  void record(FlushOutcome outcome) noexcept;

  /// Delay until the next flush: interval * backoff, jittered, >= 1ns.
  [[nodiscard]] Ticks next_delay() noexcept;

  [[nodiscard]] int consecutive_failures() const noexcept {
    return consecutive_failures_;
  }

 private:
  FlushScheduleOptions options_;
  int consecutive_failures_ = 0;
  Xoshiro256 rng_;
};

/// Destination for captured snapshots beyond the .tpsnap file — the
/// ingest client implements this to stream deltas to taskprofd (the
/// hook lives here so taskprof_snapshot need not link taskprof_ingest).
class FlushSink {
 public:
  virtual ~FlushSink() = default;

  /// Ship one cumulative capture.  `final` marks the clean post-run
  /// profile (flush_final).  Must not throw.
  virtual bool ship(const AggregateProfile& profile,
                    const RegionRegistry& registry, const SnapshotMeta& meta,
                    const telemetry::Snapshot* telemetry, bool final) noexcept = 0;

  /// Liveness signal for a tick that had nothing new to ship.
  virtual bool heartbeat() noexcept { return true; }
};

/// Flushes stamp getpid() into the snapshot, heartbeat the sink on ticks
/// with nothing to ship, and back off as FlushScheduleOptions' defaults say.
struct FlusherOptions {
  std::string path;          ///< target .tpsnap file ("" with a sink:
                             ///< stream-only, no file writes)
  Ticks interval = 0;        ///< ns between periodic flushes (0: only
                             ///< explicit flush_now/flush_final calls)
  const telemetry::Registry* telemetry = nullptr;  ///< optional section
  FlushSink* sink = nullptr;   ///< optional streaming destination
  double jitter_fraction = 0.0;    ///< see FlushScheduleOptions
};

class SnapshotFlusher {
 public:
  /// `instrumentor` and `registry` must outlive the flusher.  The
  /// instrumentor must have been built with MeasureOptions::
  /// snapshot_every > 0, or every capture will come back empty.
  SnapshotFlusher(const Instrumentor& instrumentor,
                  const RegionRegistry& registry, FlusherOptions options);
  ~SnapshotFlusher();

  SnapshotFlusher(const SnapshotFlusher&) = delete;
  SnapshotFlusher& operator=(const SnapshotFlusher&) = delete;

  /// Start the background thread: one immediate flush, then one per
  /// interval until stop().
  void start();

  /// Stop and join the background thread (idempotent).
  void stop() noexcept;

  /// Capture and write one partial snapshot now.  Returns false when
  /// nothing was written (another flush in progress, empty capture
  /// skipped, final snapshot already written, or an I/O error —
  /// see last_error()).  Never throws: the flusher must be safe to call
  /// from the background thread and the crash hooks.
  bool flush_now() noexcept;

  /// Write the clean full profile (call after Instrumentor::finalize()).
  /// Later flush_now() calls become no-ops so a stale partial capture
  /// can never overwrite the final profile.
  bool flush_final() noexcept;

  /// Completed writes so far.
  [[nodiscard]] std::uint64_t flush_count() const noexcept {
    return flushes_.load(std::memory_order_relaxed);
  }

  /// Message of the most recent failed write ("" if none).
  [[nodiscard]] std::string last_error() const;

 private:
  void run();
  FlushOutcome flush_tick() noexcept;
  bool write_locked(const AggregateProfile& profile, bool final);

  const Instrumentor* instrumentor_;
  const RegionRegistry* registry_;
  FlusherOptions options_;

  std::thread thread_;
  std::mutex cv_mutex_;
  std::condition_variable cv_;
  bool stop_requested_ = false;  ///< guarded by cv_mutex_

  mutable std::mutex flush_mutex_;  ///< serializes capture+write; crash
                                    ///< hooks try_lock instead of blocking
  std::atomic<std::uint64_t> flushes_{0};
  std::atomic<bool> final_written_{false};
  std::string last_error_;  ///< guarded by flush_mutex_
};

/// Arm (or, with nullptr, disarm) the process-wide crash hooks:
/// SIGINT/SIGTERM handlers that flush `flusher` once and re-raise, and
/// an atexit hook that flushes unless flush_final() already ran.  One
/// flusher at a time; the flusher's destructor disarms itself.
void install_crash_flush(SnapshotFlusher* flusher);

}  // namespace taskprof::snapshot
