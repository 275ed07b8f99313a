// Flush-cadence policy: FlushSchedule is a pure function of recorded
// outcomes (time-free, seeded), so every property is tested against a
// simulated clock — exact interval without jitter, exponential backoff
// capped at the configured exponent, reset on success, jitter bounds,
// determinism per seed within a process and different draws in a forked
// child.  Plus the FlushSink plumbing: a counting
// fake sink driven through a real SnapshotFlusher observes ship() for
// data-bearing captures, heartbeat() for empty ones, and final=true
// exactly once from flush_final().
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <string>
#include <vector>

#include "bots/kernel.hpp"
#include "instrument/instrumentor.hpp"
#include "rt/sim_runtime.hpp"
#include "snapshot/flusher.hpp"
#include "snapshot/snapshot.hpp"

namespace taskprof::snapshot {
namespace {

constexpr Ticks kInterval = 1'000'000;  // 1ms base cadence

FlushScheduleOptions schedule_options(double jitter = 0.0) {
  FlushScheduleOptions options;
  options.interval = kInterval;
  options.jitter_fraction = jitter;
  options.backoff_multiplier = 2.0;
  options.max_backoff_exponent = 3;
  options.seed = 42;
  return options;
}

TEST(FlushSchedule, ExactIntervalWithoutJitter) {
  FlushSchedule schedule(schedule_options());
  for (int i = 0; i < 10; ++i) {
    schedule.record(FlushOutcome::kWritten);
    EXPECT_EQ(schedule.next_delay(), kInterval);
  }
}

TEST(FlushSchedule, FailuresBackOffExponentiallyAndCap) {
  FlushSchedule schedule(schedule_options());
  const std::vector<Ticks> expected = {
      kInterval * 2, kInterval * 4, kInterval * 8,  // 2^1, 2^2, 2^3
      kInterval * 8, kInterval * 8,                 // capped at 2^3
  };
  for (const Ticks want : expected) {
    schedule.record(FlushOutcome::kFailed);
    EXPECT_EQ(schedule.next_delay(), want)
        << "after " << schedule.consecutive_failures() << " failures";
  }
  // The counter itself saturates at the cap, so the exponent (and the
  // eventual recovery) stays bounded no matter how long the outage.
  EXPECT_EQ(schedule.consecutive_failures(), 3);
}

TEST(FlushSchedule, SuccessResetsTheBackoff) {
  FlushSchedule schedule(schedule_options());
  schedule.record(FlushOutcome::kFailed);
  schedule.record(FlushOutcome::kFailed);
  EXPECT_EQ(schedule.next_delay(), kInterval * 4);
  schedule.record(FlushOutcome::kWritten);
  EXPECT_EQ(schedule.consecutive_failures(), 0);
  EXPECT_EQ(schedule.next_delay(), kInterval);
}

TEST(FlushSchedule, SkipsAreNeutral) {
  FlushSchedule schedule(schedule_options());
  schedule.record(FlushOutcome::kFailed);
  const Ticks backed_off = schedule.next_delay();
  EXPECT_EQ(backed_off, kInterval * 2);
  // A benign skip (empty capture) neither deepens nor resets backoff.
  schedule.record(FlushOutcome::kSkipped);
  EXPECT_EQ(schedule.consecutive_failures(), 1);
  EXPECT_EQ(schedule.next_delay(), backed_off);
}

TEST(FlushSchedule, JitterStaysInBoundsAndActuallyJitters) {
  FlushSchedule schedule(schedule_options(/*jitter=*/0.25));
  const Ticks lo = kInterval - kInterval / 4;
  const Ticks hi = kInterval + kInterval / 4;
  Ticks min_seen = hi;
  Ticks max_seen = lo;
  for (int i = 0; i < 1000; ++i) {
    schedule.record(FlushOutcome::kWritten);
    const Ticks delay = schedule.next_delay();
    EXPECT_GE(delay, lo);
    EXPECT_LE(delay, hi);
    min_seen = std::min(min_seen, delay);
    max_seen = std::max(max_seen, delay);
  }
  // The fleet de-sync property: delays spread across the band instead
  // of clustering at the base interval.
  EXPECT_LT(min_seen, kInterval - kInterval / 8);
  EXPECT_GT(max_seen, kInterval + kInterval / 8);
}

TEST(FlushSchedule, DeterministicPerSeed) {
  FlushSchedule a(schedule_options(0.25));
  FlushSchedule b(schedule_options(0.25));
  for (int i = 0; i < 100; ++i) {
    a.record(FlushOutcome::kWritten);
    b.record(FlushOutcome::kWritten);
    EXPECT_EQ(a.next_delay(), b.next_delay()) << "step " << i;
  }
  FlushScheduleOptions other = schedule_options(0.25);
  other.seed = 43;
  FlushSchedule c(other);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    FlushSchedule fresh(schedule_options(0.25));
    c.record(FlushOutcome::kWritten);
    fresh.record(FlushOutcome::kWritten);
    if (c.next_delay() != fresh.next_delay()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(FlushSchedule, ProcessesBuiltAlikeDrawDifferentDelays) {
  // Fleet producers share one seed; the process id is mixed into it, so
  // a forked child and its parent must not flush in lockstep.
  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    FlushSchedule schedule(schedule_options(0.25));
    const Ticks delay = schedule.next_delay();
    const bool sent =
        ::write(pipe_fds[1], &delay, sizeof(delay)) == sizeof(delay);
    ::_exit(sent ? 0 : 1);
  }
  ::close(pipe_fds[1]);
  Ticks child_delay = 0;
  const ssize_t got = ::read(pipe_fds[0], &child_delay, sizeof(child_delay));
  ::close(pipe_fds[0]);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_EQ(got, static_cast<ssize_t>(sizeof(child_delay)));
  FlushSchedule schedule(schedule_options(0.25));
  EXPECT_NE(schedule.next_delay(), child_delay);
}

TEST(FlushSchedule, DegenerateOptionsAreClamped) {
  FlushScheduleOptions options;
  options.interval = 0;  // explicit-only flushing still yields a delay
  options.jitter_fraction = 9.0;     // clamped to [0, 1]
  options.backoff_multiplier = 0.1;  // clamped to >= 1 (never speeds up)
  options.max_backoff_exponent = -3; // clamped to >= 0
  FlushSchedule schedule(options);
  schedule.record(FlushOutcome::kFailed);
  EXPECT_GE(schedule.next_delay(), 1);  // never a zero/negative sleep
}

/// Simulated clock consuming a schedule: total virtual time for a
/// failure burst is base + backoff ramp, independent of wall time.
TEST(FlushSchedule, SimulatedClockRunsTheRampDeterministically) {
  FlushSchedule schedule(schedule_options());
  Ticks virtual_now = 0;
  const std::vector<FlushOutcome> script = {
      FlushOutcome::kWritten,  // + 1
      FlushOutcome::kFailed,   // + 2
      FlushOutcome::kFailed,   // + 4
      FlushOutcome::kWritten,  // + 1 (reset)
      FlushOutcome::kSkipped,  // + 1 (neutral)
  };
  for (const FlushOutcome outcome : script) {
    schedule.record(outcome);
    virtual_now += schedule.next_delay();
  }
  EXPECT_EQ(virtual_now, kInterval * (1 + 2 + 4 + 1 + 1));
}

// --- FlushSink plumbing through a real SnapshotFlusher ---------------------

/// Counting fake: records every ship()/heartbeat() and can be told to
/// fail, driving the kFailed path.
class FakeSink final : public FlushSink {
 public:
  bool ship(const AggregateProfile& profile, const RegionRegistry& registry,
            const SnapshotMeta& meta, const telemetry::Snapshot* telemetry,
            bool final) noexcept override {
    (void)registry;
    (void)telemetry;
    ++ships_;
    if (final) ++finals_;
    last_visits_ = profile.implicit_root != nullptr
                       ? profile.implicit_root->visits
                       : 0;
    last_flush_seq_ = meta.flush_seq;
    return !fail_;
  }
  bool heartbeat() noexcept override {
    ++heartbeats_;
    return true;
  }

  std::atomic<int> ships_{0};
  std::atomic<int> finals_{0};
  std::atomic<int> heartbeats_{0};
  std::atomic<bool> fail_{false};
  std::atomic<std::uint64_t> last_visits_{0};
  std::atomic<std::uint64_t> last_flush_seq_{0};
};

struct KernelFixture {
  RegionRegistry registry;
  rt::SimRuntime runtime;  ///< outlives the instrumentor's profilers
  std::unique_ptr<Instrumentor> instr;

  explicit KernelFixture(Ticks snapshot_every) {
    MeasureOptions moptions;
    moptions.snapshot_every = snapshot_every;
    instr = std::make_unique<Instrumentor>(registry, moptions);
    rt::FanoutHooks fanout({instr.get()});
    runtime.set_hooks(&fanout);
    auto kernel = bots::make_kernel("fib");
    bots::KernelConfig config;
    config.threads = 2;
    config.size = bots::SizeClass::kTest;
    const bots::KernelResult result =
        kernel->run(runtime, registry, config);
    EXPECT_TRUE(result.ok);
    runtime.set_hooks(nullptr);
  }
};

TEST(FlusherSink, StreamOnlyFlusherShipsCapturesWithoutAFile) {
  KernelFixture fixture(/*snapshot_every=*/10);
  FakeSink sink;
  FlusherOptions options;
  options.path = "";  // stream-only: no file ever written
  options.sink = &sink;
  SnapshotFlusher flusher(*fixture.instr, fixture.registry, options);
  EXPECT_TRUE(flusher.flush_now());
  EXPECT_EQ(sink.ships_.load(), 1);
  EXPECT_EQ(sink.finals_.load(), 0);
  EXPECT_GT(sink.last_visits_.load(), 0u);
  EXPECT_EQ(flusher.flush_count(), 1u);

  fixture.instr->finalize();
  EXPECT_TRUE(flusher.flush_final());
  EXPECT_EQ(sink.finals_.load(), 1);
  // After the final, periodic ticks are no-ops and never re-ship.
  EXPECT_FALSE(flusher.flush_now());
  EXPECT_EQ(sink.ships_.load(), 2);
}

TEST(FlusherSink, SinkFailureIsAFailedFlush) {
  KernelFixture fixture(10);
  FakeSink sink;
  sink.fail_ = true;
  FlusherOptions options;
  options.sink = &sink;
  SnapshotFlusher flusher(*fixture.instr, fixture.registry, options);
  EXPECT_FALSE(flusher.flush_now());
  EXPECT_EQ(flusher.flush_count(), 0u);
  EXPECT_EQ(sink.ships_.load(), 1);  // it was attempted
  sink.fail_ = false;
  EXPECT_TRUE(flusher.flush_now());
  EXPECT_EQ(flusher.flush_count(), 1u);
}

TEST(FlusherSink, EmptyCapturesHeartbeatInsteadOfShipping) {
  // snapshot_every=0 disables capture entirely: every tick is an empty
  // capture, which must heartbeat the sink, not ship garbage.
  KernelFixture fixture(/*snapshot_every=*/0);
  FakeSink sink;
  FlusherOptions options;
  options.sink = &sink;
  SnapshotFlusher flusher(*fixture.instr, fixture.registry, options);
  EXPECT_FALSE(flusher.flush_now());
  EXPECT_EQ(sink.ships_.load(), 0);
  EXPECT_GE(sink.heartbeats_.load(), 1);
}

TEST(FlusherSink, FileAndSinkTargetsBothReceiveTheCapture) {
  KernelFixture fixture(10);
  FakeSink sink;
  FlusherOptions options;
  options.path = testing::TempDir() + "flusher_sink.scratch.tpsnap";
  options.sink = &sink;
  SnapshotFlusher flusher(*fixture.instr, fixture.registry, options);
  EXPECT_TRUE(flusher.flush_now());
  EXPECT_EQ(sink.ships_.load(), 1);
  const SnapshotData from_file = read_snapshot_file(options.path);
  EXPECT_EQ(from_file.profile.implicit_root->visits,
            sink.last_visits_.load());
  std::remove(options.path.c_str());
}

TEST(FlusherSink, PeriodicThreadDrivesTheSink) {
  KernelFixture fixture(10);
  FakeSink sink;
  FlusherOptions options;
  options.sink = &sink;
  options.interval = 1'000'000;  // 1ms
  options.jitter_fraction = 0.2;
  SnapshotFlusher flusher(*fixture.instr, fixture.registry, options);
  flusher.start();
  // First flush is immediate; then the jittered cadence takes over.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (sink.ships_.load() < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  flusher.stop();
  EXPECT_GE(sink.ships_.load(), 3);
}

}  // namespace
}  // namespace taskprof::snapshot
