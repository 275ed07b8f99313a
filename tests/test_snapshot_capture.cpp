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
#include <filesystem>
#include <span>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "bots/kernel.hpp"
#include "check/invariants.hpp"
#include "instrument/instrumentor.hpp"
#include "report/text_report.hpp"
#include "rt/real_runtime.hpp"
#include "rt/sim_runtime.hpp"
#include "snapshot/flusher.hpp"
#include "snapshot/snapshot.hpp"
#include "test_util.hpp"

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

TEST(SnapshotCapture, CapturesOfMigratingUntiedTasksDoNotRace) {
  // On the simulator, untied instances migrate at their taskwait and keep
  // writing the trees of the thread they began on, from the adopting
  // thread's events.  Those writes must hold the first thread's capture
  // off (the tsan preset checks it).  The captures themselves are not
  // checked: they miss the open frames of an instance lent to another
  // thread (DESIGN.md §11), so check_profile may flag those frames' nodes.
  RegionRegistry registry;
  MeasureOptions options;
  options.snapshot_every = 1;
  Instrumentor instr(registry, options);
  rt::SimRuntime runtime;
  rt::FanoutHooks fanout({&instr});
  runtime.set_hooks(&fanout);
  const RegionHandle outer =
      registry.register_region("untied_outer", RegionType::kTask);
  const RegionHandle inner =
      registry.register_region("inner", RegionType::kTask);
  const RegionHandle fn = registry.register_region("fn", RegionType::kFunction);

  std::atomic<bool> running{true};
  std::atomic<std::size_t> captured{0};
  std::thread capturer([&] {
    while (running.load(std::memory_order_acquire)) {
      captured += instr.capture_snapshot().profilers_captured;
    }
  });
  std::uint64_t migrations = 0;
  for (int round = 0; round < 20 || (captured == 0 && round < 2000);
       ++round) {
    const rt::TeamStats stats = runtime.parallel(4, [&](rt::TaskContext& ctx) {
      if (!ctx.single()) return;
      for (int i = 0; i < 16; ++i) {
        rt::TaskAttrs attrs;
        attrs.region = outer;
        attrs.binding = rt::TaskBinding::kUntied;
        ctx.create_task(
            [&](rt::TaskContext& task) {
              task.region_enter(fn);
              rt::TaskAttrs child;
              child.region = inner;
              task.create_task([](rt::TaskContext& c) { c.work(20'000); },
                               child);
              task.taskwait();  // may resume on another worker
              task.work(1'000);
              task.region_exit(fn);
            },
            attrs);
      }
    });
    migrations += stats.migrations;
  }
  running.store(false, std::memory_order_release);
  capturer.join();
  runtime.set_hooks(nullptr);
  ASSERT_GT(migrations, 0u) << "the program must migrate";
  EXPECT_GT(captured.load(), 0u);

  instr.finalize();
  const check::InvariantReport verdict =
      check::check_profile(instr.aggregate(), registry);
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
    AggregateProfile capture;
    if (!prof.capture(capture)) continue;
    ++quiesced;
    capture.partial_capture = true;
    const check::InvariantReport verdict =
        check::check_profile(capture, registry);
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

TEST(SnapshotCapture, DirectDriveCaptureReproducesTheGolden) {
  // Two profilers driven through the instrumentor's hooks with manual
  // clocks: parameterized constructs, finished and in-flight instances,
  // and open implicit frames on both threads when a second OS thread
  // captures.  The capture closes every open frame, so the in-flight c(7)
  // is held up to the capture instant, and its construct tree lists
  // between a(1)'s and a(2)'s because it began between them.
  RegionRegistry registry;
  MeasureOptions options;
  options.snapshot_every = 1;
  Instrumentor instr(registry, options);
  const RegionHandle work =
      registry.register_region("work", RegionType::kFunction);
  const RegionHandle leaf =
      registry.register_region("leaf", RegionType::kFunction);
  const RegionHandle task_a = registry.register_region("a", RegionType::kTask);
  const RegionHandle task_b = registry.register_region("b", RegionType::kTask);
  const RegionHandle task_c = registry.register_region("c", RegionType::kTask);
  ManualClock c0(100);
  ManualClock c1(100);
  const auto create = [&](ThreadId t, ManualClock& clock, TaskInstanceId id,
                          RegionHandle region, std::int64_t parameter) {
    instr.on_task_create_begin(t, region, parameter);
    clock.advance(2);
    instr.on_task_create_end(t, id, region, parameter);
    clock.advance(1);
  };

  instr.on_parallel_begin(2);
  instr.on_implicit_task_begin(0, c0);
  c1.advance(3);
  instr.on_implicit_task_begin(1, c1);
  // Thread 0: a parameterized function creates a(1) and a(2), runs a(1)
  // at a taskwait, then starts c(7), which is still running (inside
  // `leaf`) when the capture lands.
  c0.advance(5);
  instr.on_region_enter(0, work, 3);
  c0.advance(4);
  create(0, c0, 1, task_a, 1);
  create(0, c0, 2, task_a, 2);
  instr.on_taskwait_begin(0);
  c0.advance(2);
  instr.on_task_begin(0, 1, task_a, 1);
  c0.advance(3);
  instr.on_region_enter(0, leaf, kNoParameter);
  c0.advance(6);
  instr.on_region_exit(0, leaf);
  c0.advance(1);
  instr.on_task_end(0, 1);
  c0.advance(2);
  instr.on_taskwait_end(0);
  c0.advance(1);
  create(0, c0, 4, task_c, 7);
  instr.on_taskwait_begin(0);
  c0.advance(1);
  instr.on_task_begin(0, 4, task_c, 7);
  c0.advance(2);
  instr.on_region_enter(0, leaf, 9);
  c0.advance(5);
  // Thread 1: runs a(2) at the implicit barrier; a(2) creates b and
  // waits for it, so a(2) is suspended while b runs, then resumes.
  c1.advance(4);
  instr.on_barrier_begin(1, true);
  c1.advance(2);
  instr.on_task_begin(1, 2, task_a, 2);
  c1.advance(1);
  instr.on_region_enter(1, leaf, kNoParameter);
  c1.advance(2);
  create(1, c1, 3, task_b, kNoParameter);
  instr.on_taskwait_begin(1);
  c1.advance(1);
  instr.on_task_begin(1, 3, task_b, kNoParameter);
  c1.advance(8);
  instr.on_task_end(1, 3);
  c1.advance(1);
  instr.on_task_switch(1, 2);
  c1.advance(2);
  instr.on_taskwait_end(1);
  c1.advance(1);
  instr.on_region_exit(1, leaf);
  c1.advance(3);
  instr.on_task_end(1, 2);
  c1.advance(4);

  Instrumentor::CaptureResult capture;
  std::thread capturer([&] { capture = instr.capture_snapshot(); });
  capturer.join();
  ASSERT_EQ(capture.profilers_live, 2u);
  ASSERT_EQ(capture.profilers_captured, 2u);
  const check::InvariantReport verdict =
      check::check_profile(capture.profile, registry);
  EXPECT_TRUE(verdict.ok()) << verdict.to_string();
  const std::filesystem::path dir = TASKPROF_CAPTURE_CORPUS_DIR;
  testutil::check_golden(dir / "direct_drive.csv",
                         render_csv(capture.profile, registry),
                         "TASKPROF_REGEN_CAPTURE");
  const std::vector<std::uint8_t> bytes =
      snapshot::encode_snapshot(capture.profile, registry, {});
  testutil::check_golden(dir / "direct_drive.tpsnap",
                         std::string(bytes.begin(), bytes.end()),
                         "TASKPROF_REGEN_CAPTURE");

  // The rest of the program runs to a valid complete profile.
  c0.advance(3);
  instr.on_region_exit(0, leaf);
  c0.advance(1);
  instr.on_task_end(0, 4);
  c0.advance(1);
  instr.on_taskwait_end(0);
  c0.advance(2);
  instr.on_region_exit(0, work);
  instr.on_barrier_begin(0, true);
  c0.advance(1);
  instr.on_barrier_end(0, true);
  instr.on_implicit_task_end(0);
  instr.on_barrier_end(1, true);
  instr.on_implicit_task_end(1);
  instr.on_parallel_end();
  instr.finalize();
  const check::InvariantReport full =
      check::check_profile(instr.aggregate(), registry);
  EXPECT_TRUE(full.ok()) << full.to_string();
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
