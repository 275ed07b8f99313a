// Live mid-run capture (the membarrier pause handshake): a background
// thread snapshots the instrumentor while the real engine races through
// fib, and every capture must be a structurally valid partial profile.
// Runs under the tsan label — the handshake has to be provably
// data-race-free, not just "usually fine".
#include <gtest/gtest.h>

#include <linux/filter.h>
#include <linux/seccomp.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstddef>
#include <span>
#include <string>
#include <system_error>
#include <thread>

#include "bots/kernel.hpp"
#include "check/invariants.hpp"
#include "instrument/instrumentor.hpp"
#include "rt/real_runtime.hpp"
#include "snapshot/flusher.hpp"
#include "snapshot/snapshot.hpp"

namespace taskprof {
namespace {

bots::KernelConfig test_config() {
  bots::KernelConfig config;
  config.threads = 2;
  config.size = bots::SizeClass::kTest;
  return config;
}

TEST(SnapshotCapture, ConcurrentCapturesAreValidPartialProfiles) {
  RegionRegistry registry;
  MeasureOptions options;
  options.snapshot_every = 1;
  Instrumentor instr(registry, options);
  rt::RealRuntime runtime;
  rt::FanoutHooks fanout({&instr});
  runtime.set_hooks(&fanout);

  std::atomic<bool> running{true};
  std::size_t captures = 0;
  std::size_t nonempty = 0;
  std::string first_failure;
  std::thread capturer([&] {
    while (running.load(std::memory_order_acquire)) {
      const Instrumentor::CaptureResult result = instr.capture_snapshot();
      ++captures;
      if (result.profilers_captured == 0 ||
          result.profile.implicit_root == nullptr) {
        continue;
      }
      ++nonempty;
      EXPECT_TRUE(result.profile.partial_capture);
      const check::InvariantReport verdict =
          check::check_profile(result.profile, registry);
      if (!verdict.ok() && first_failure.empty()) {
        first_failure = verdict.to_string();
      }
    }
  });

  auto kernel = bots::make_kernel("fib");
  for (int i = 0; i < 20; ++i) {
    const bots::KernelResult result =
        kernel->run(runtime, registry, test_config());
    ASSERT_TRUE(result.ok);
  }
  running.store(false, std::memory_order_release);
  capturer.join();
  runtime.set_hooks(nullptr);

  EXPECT_TRUE(first_failure.empty()) << first_failure;
  EXPECT_GT(captures, 0u);
  // The workload runs long enough that at least one capture must have
  // caught live profilers.
  EXPECT_GT(nonempty, 0u);

  // The run itself is undamaged by the captures.
  instr.finalize();
  const AggregateProfile profile = instr.aggregate();
  const check::InvariantReport verdict = check::check_profile(
      profile, registry);
  EXPECT_TRUE(verdict.ok()) << verdict.to_string();
}

TEST(SnapshotCapture, DisarmedProfilerRefusesToCapture) {
  RegionRegistry registry;
  Instrumentor instr(registry);  // snapshot_every == 0: handshake off
  rt::RealRuntime runtime;
  rt::FanoutHooks fanout({&instr});
  runtime.set_hooks(&fanout);
  auto kernel = bots::make_kernel("fib");
  ASSERT_TRUE(kernel->run(runtime, registry, test_config()).ok);
  runtime.set_hooks(nullptr);

  const Instrumentor::CaptureResult result = instr.capture_snapshot();
  EXPECT_GT(result.profilers_live, 0u);
  EXPECT_EQ(result.profilers_captured, 0u);
}

TEST(SnapshotCapture, FlusherWritesLoadableFileDuringRun) {
  const std::string path = testing::TempDir() + "capture_flusher.tpsnap";
  std::remove(path.c_str());

  RegionRegistry registry;
  MeasureOptions options;
  options.snapshot_every = 1;
  Instrumentor instr(registry, options);
  rt::RealRuntime runtime;
  rt::FanoutHooks fanout({&instr});
  runtime.set_hooks(&fanout);

  snapshot::FlusherOptions flush_options;
  flush_options.path = path;
  flush_options.interval = 1'000'000;  // 1 ms
  snapshot::SnapshotFlusher flusher(instr, registry, flush_options);
  flusher.start();

  auto kernel = bots::make_kernel("fib");
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(kernel->run(runtime, registry, test_config()).ok);
  }
  runtime.set_hooks(nullptr);
  flusher.stop();
  EXPECT_GE(flusher.flush_count(), 1u) << flusher.last_error();

  instr.finalize();
  ASSERT_TRUE(flusher.flush_final()) << flusher.last_error();

  // The final flush replaced the partial snapshot with the clean full
  // profile; a later flush_now must not overwrite it.
  EXPECT_FALSE(flusher.flush_now());
  const snapshot::SnapshotData data = snapshot::read_snapshot_file(path);
  EXPECT_FALSE(data.profile.partial_capture);
  const check::InvariantReport verdict =
      check::check_profile(data.profile, *data.registry);
  EXPECT_TRUE(verdict.ok()) << verdict.to_string();
  std::remove(path.c_str());
}

/// A clock whose every read spins for about 20 us, so each event body is
/// long and a capture nearly always lands inside one.
class SlowClock final : public Clock {
 public:
  [[nodiscard]] Ticks now() const noexcept override {
    const Ticks start = steady_now();
    Ticks t = start;
    while (t - start < 20'000) t = steady_now();
    return t;
  }
};

/// The partial profile one profiler capture stands for.
AggregateProfile capture_profile(const ThreadTaskProfiler::CaptureView& c) {
  ThreadProfileView view;
  view.thread = c.thread;
  view.implicit_root = c.implicit_root;
  view.task_roots.assign(c.task_roots.begin(), c.task_roots.end());
  view.max_concurrent_instances = c.max_concurrent_instances;
  view.task_switches = c.task_switches;
  view.folded_events = c.folded_events;
  AggregateProfile profile = aggregate_profiles(std::span(&view, 1));
  profile.partial_capture = true;
  return profile;
}

TEST(SnapshotCapture, CapturesLandingInsideEventsQuiesce) {
  // One thread drives a profiler through long events while another
  // captures it hundreds of times: the capturer mostly waits on an odd
  // sequence, and the worker parks at the boundary that follows.
  RegionRegistry registry;
  const RegionHandle implicit =
      registry.register_region("implicit task", RegionType::kImplicitTask);
  const RegionHandle parallel =
      registry.register_region("parallel", RegionType::kParallel);
  const RegionHandle task = registry.register_region("t", RegionType::kTask);
  const RegionHandle create =
      registry.register_region("create t", RegionType::kTaskCreate);
  const RegionHandle taskwait =
      registry.register_region("taskwait", RegionType::kTaskwait);
  const RegionHandle fn = registry.register_region("fn", RegionType::kFunction);
  MeasureOptions options;
  options.snapshot_every = 1;
  SlowClock clock;
  ThreadTaskProfiler prof(0, clock, implicit, options);

  std::atomic<bool> done{false};
  std::atomic<int> rounds{0};
  std::thread driver([&] {
    prof.enter(parallel);
    TaskInstanceId id = 0;
    while (!done.load(std::memory_order_acquire)) {
      prof.enter(create);
      prof.exit(create);
      prof.enter(taskwait);
      prof.task_begin(task, ++id);
      prof.enter(fn);
      prof.exit(fn);
      prof.task_end(id);
      prof.exit(taskwait);
      rounds.fetch_add(1, std::memory_order_release);
    }
    prof.exit(parallel);
  });
  constexpr int kCaptures = 300;
  int quiesced = 0;
  int seen_rounds = 0;
  std::string first_failure;
  for (int i = 0; i < kCaptures; ++i) {
    // Back-to-back captures would keep the worker parked between them;
    // let it finish a round of events before each capture instead.
    while (rounds.load(std::memory_order_acquire) == seen_rounds) {
      std::this_thread::yield();
    }
    seen_rounds = rounds.load(std::memory_order_acquire);
    NodePool pool;
    ThreadTaskProfiler::CaptureView view;
    if (!prof.capture(pool, view)) continue;
    ++quiesced;
    const check::InvariantReport verdict =
        check::check_profile(capture_profile(view), registry);
    if (!verdict.ok() && first_failure.empty()) {
      first_failure = verdict.to_string();
    }
  }
  done.store(true, std::memory_order_release);
  driver.join();

  EXPECT_EQ(quiesced, kCaptures);
  EXPECT_TRUE(first_failure.empty()) << first_failure;
  prof.finalize();
  const ThreadProfileView view = prof.view();
  const AggregateProfile profile = aggregate_profiles(std::span(&view, 1));
  const check::InvariantReport verdict = check::check_profile(profile, registry);
  EXPECT_TRUE(verdict.ok()) << verdict.to_string();
}

TEST(SnapshotCapture, ArmingFailsWhenTheKernelRefusesTheBarrier) {
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Answer membarrier(2) with ENOSYS, as a kernel without it would.
    sock_filter filter[] = {
        BPF_STMT(BPF_LD | BPF_W | BPF_ABS, offsetof(seccomp_data, nr)),
        BPF_JUMP(BPF_JMP | BPF_JEQ | BPF_K, __NR_membarrier, 0, 1),
        BPF_STMT(BPF_RET | BPF_K, SECCOMP_RET_ERRNO | ENOSYS),
        BPF_STMT(BPF_RET | BPF_K, SECCOMP_RET_ALLOW),
    };
    sock_fprog program{static_cast<unsigned short>(std::size(filter)),
                       filter};
    if (prctl(PR_SET_NO_NEW_PRIVS, 1, 0, 0, 0) != 0 ||
        prctl(PR_SET_SECCOMP, SECCOMP_MODE_FILTER, &program) != 0) {
      _exit(3);
    }
    const auto refused = [](auto&& arm) {
      try {
        arm();
      } catch (const std::system_error& error) {
        return error.code().value() == ENOSYS;
      }
      return false;
    };
    MeasureOptions options;
    options.snapshot_every = 1;
    RegionRegistry registry;
    ManualClock clock;
    const bool instrumentor =
        refused([&] { Instrumentor instr(registry, options); });
    const bool profiler =
        refused([&] { ThreadTaskProfiler prof(0, clock, 0, options); });
    _exit(instrumentor && profiler ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  if (WEXITSTATUS(status) == 3) GTEST_SKIP() << "no seccomp filters here";
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace
}  // namespace taskprof
