#include "snapshot/flusher.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdlib>

namespace taskprof::snapshot {

FlushSchedule::FlushSchedule(FlushScheduleOptions options)
    : options_(options),
      rng_(options.seed ^ static_cast<std::uint64_t>(::getpid())) {
  if (options_.backoff_multiplier < 1.0) options_.backoff_multiplier = 1.0;
  if (options_.max_backoff_exponent < 0) options_.max_backoff_exponent = 0;
  options_.jitter_fraction = std::clamp(options_.jitter_fraction, 0.0, 1.0);
}

void FlushSchedule::record(FlushOutcome outcome) noexcept {
  switch (outcome) {
    case FlushOutcome::kWritten:
      consecutive_failures_ = 0;
      return;
    case FlushOutcome::kSkipped:
      // Benign: an empty capture is not a reason to flush less often.
      return;
    case FlushOutcome::kFailed:
      if (consecutive_failures_ < options_.max_backoff_exponent) {
        ++consecutive_failures_;
      }
      return;
  }
}

Ticks FlushSchedule::next_delay() noexcept {
  double delay = static_cast<double>(options_.interval) *
                 std::pow(options_.backoff_multiplier, consecutive_failures_);
  if (options_.jitter_fraction > 0.0) {
    // Uniform in [1 - f, 1 + f): fleet producers started together drift
    // apart instead of flushing in lockstep.
    const double unit = rng_.next_double() * 2.0 - 1.0;
    delay *= 1.0 + options_.jitter_fraction * unit;
  }
  if (delay < 1.0) delay = 1.0;
  return static_cast<Ticks>(delay);
}

namespace {

std::atomic<SnapshotFlusher*> g_crash_flusher{nullptr};
std::atomic<bool> g_hooks_installed{false};

void crash_flush_handler(int sig) {
  // Exchange, not load: a second signal during the flush must not
  // re-enter it.  flush_now itself try_locks, so a signal landing while
  // the background thread writes degrades to "keep what is on disk".
  if (SnapshotFlusher* flusher = g_crash_flusher.exchange(nullptr)) {
    flusher->flush_now();
  }
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

void atexit_flush() {
  if (SnapshotFlusher* flusher =
          g_crash_flusher.load(std::memory_order_acquire)) {
    flusher->flush_now();  // no-op once flush_final has run
  }
}

}  // namespace

SnapshotFlusher::SnapshotFlusher(const Instrumentor& instrumentor,
                                 const RegionRegistry& registry,
                                 FlusherOptions options)
    : instrumentor_(&instrumentor),
      registry_(&registry),
      options_(std::move(options)) {}

SnapshotFlusher::~SnapshotFlusher() {
  stop();
  // Disarm the crash hooks if they still point here: atexit runs after
  // this object's storage is gone.
  SnapshotFlusher* self = this;
  g_crash_flusher.compare_exchange_strong(self, nullptr);
}

void SnapshotFlusher::start() {
  if (thread_.joinable()) return;
  {
    std::scoped_lock lock(cv_mutex_);
    stop_requested_ = false;
  }
  thread_ = std::thread(&SnapshotFlusher::run, this);
}

void SnapshotFlusher::stop() noexcept {
  {
    std::scoped_lock lock(cv_mutex_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void SnapshotFlusher::run() {
  FlushSchedule schedule({.interval = options_.interval,
                          .jitter_fraction = options_.jitter_fraction});
  // A run that dies inside its first interval still leaves a file.
  schedule.record(flush_tick());
  std::unique_lock lock(cv_mutex_);
  for (;;) {
    if (options_.interval > 0) {
      const Ticks delay = schedule.next_delay();
      if (cv_.wait_for(lock, std::chrono::nanoseconds(delay),
                       [this] { return stop_requested_; })) {
        return;
      }
    } else {
      cv_.wait(lock, [this] { return stop_requested_; });
      return;
    }
    lock.unlock();
    schedule.record(flush_tick());
    lock.lock();
  }
}

bool SnapshotFlusher::flush_now() noexcept {
  return flush_tick() == FlushOutcome::kWritten;
}

FlushOutcome SnapshotFlusher::flush_tick() noexcept {
  std::unique_lock lock(flush_mutex_, std::try_to_lock);
  if (!lock.owns_lock()) return FlushOutcome::kSkipped;
  if (final_written_.load(std::memory_order_acquire)) {
    return FlushOutcome::kSkipped;
  }
  try {
    Instrumentor::CaptureResult captured = instrumentor_->capture_snapshot();
    bool skip = false;
    if (captured.profile.implicit_root == nullptr) {
      // Nothing measured yet: an empty profile is worth less than no
      // file, and strictly less than whatever is already on disk.
      skip = true;
    } else if (captured.profilers_captured == 0 &&
               captured.profilers_live > 0 &&
               flushes_.load(std::memory_order_relaxed) > 0) {
      // Every live profiler refused to quiesce: keep the data-bearing
      // snapshot already on disk instead of overwriting it with less.
      skip = true;
    }
    if (skip) {
      if (options_.sink != nullptr) {
        options_.sink->heartbeat();
      }
      return FlushOutcome::kSkipped;
    }
    return write_locked(captured.profile, false) ? FlushOutcome::kWritten
                                                 : FlushOutcome::kFailed;
  } catch (const std::exception& error) {
    last_error_ = error.what();
    return FlushOutcome::kFailed;
  }
}

bool SnapshotFlusher::flush_final() noexcept {
  std::scoped_lock lock(flush_mutex_);
  try {
    const AggregateProfile profile = instrumentor_->aggregate();
    const bool written = write_locked(profile, true);
    if (written) final_written_.store(true, std::memory_order_release);
    return written;
  } catch (const std::exception& error) {
    last_error_ = error.what();
    return false;
  }
}

bool SnapshotFlusher::write_locked(const AggregateProfile& profile,
                                   bool final) {
  SnapshotMeta meta;
  meta.flush_seq = flushes_.load(std::memory_order_relaxed) + 1;
  meta.process_id = static_cast<std::uint64_t>(::getpid());
  telemetry::Snapshot telemetry_snapshot;
  const telemetry::Snapshot* telemetry_ptr = nullptr;
  if (options_.telemetry != nullptr) {
    telemetry_snapshot = options_.telemetry->snapshot();
    telemetry_ptr = &telemetry_snapshot;
  }
  bool ok = true;
  if (!options_.path.empty()) {
    try {
      write_snapshot_file(options_.path, profile, *registry_, meta,
                          telemetry_ptr);
    } catch (const std::exception& error) {
      last_error_ = error.what();
      ok = false;
    }
  }
  if (options_.sink != nullptr) {
    if (!options_.sink->ship(profile, *registry_, meta, telemetry_ptr,
                             final)) {
      last_error_ = "flush sink rejected the snapshot";
      ok = false;
    }
  }
  if (!ok) return false;
  last_error_.clear();
  flushes_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::string SnapshotFlusher::last_error() const {
  std::scoped_lock lock(flush_mutex_);
  return last_error_;
}

void install_crash_flush(SnapshotFlusher* flusher) {
  g_crash_flusher.store(flusher, std::memory_order_release);
  if (flusher != nullptr && !g_hooks_installed.exchange(true)) {
    std::signal(SIGINT, crash_flush_handler);
    std::signal(SIGTERM, crash_flush_handler);
    std::atexit(atexit_flush);
  }
}

}  // namespace taskprof::snapshot
