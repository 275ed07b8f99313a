// Scheduler stress tests of the Chase–Lev core: ~100k fine-grained tasks
// on an oversubscribed team, forced-steal totals, deep fire-and-forget
// chains that cycle the record slabs, sharded single episodes far beyond
// the shard count, and nested taskwait storms.  These are the tests the
// ThreadSanitizer preset (CMakePresets.json, `tsan`) exists for.
//
// Every body additionally runs under seeded schedule perturbation
// (rt::SchedulePolicy): injected yields, steal-before-pop inversions and
// rotated victim scans push the engine into orderings the unperturbed
// run rarely reaches.  A failure names the offending seed in its
// SCOPED_TRACE; re-running the test reproduces it (the seed list is
// fixed), and `fuzz_schedules` sweeps the same policy across many seeds.
#include "rt/real_runtime.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <thread>

#include "profile/region.hpp"
#include "rt/schedule_policy.hpp"

namespace taskprof {
namespace {

class RealStressTest : public ::testing::Test {
 protected:
  rt::TaskAttrs attrs() const {
    rt::TaskAttrs a;
    a.region = task_;
    return a;
  }

  /// Run `body` once unperturbed, then once per schedule seed.  Heavy
  /// bodies pass a single seed to bound ThreadSanitizer runtime.
  template <typename Body>
  void run_variants(std::initializer_list<std::uint64_t> seeds, Body&& body) {
    {
      SCOPED_TRACE("unperturbed schedule");
      rt::RealRuntime runtime;
      body(runtime);
    }
    for (const std::uint64_t seed : seeds) {
      SCOPED_TRACE(::testing::Message()
                   << "schedule seed 0x" << std::hex << seed
                   << " (deterministic seed list; re-run this test to "
                      "reproduce, or sweep more seeds with fuzz_schedules)");
      const rt::SchedulePolicy policy(seed);
      rt::RealConfig cfg;
      cfg.policy = &policy;
      rt::RealRuntime runtime(cfg);
      body(runtime);
    }
  }

  RegionRegistry registry_;
  RegionHandle task_ = registry_.register_region("t", RegionType::kTask);
};

TEST_F(RealStressTest, HundredThousandFineGrainedTasks) {
  constexpr std::uint64_t kTasks = 100000;
  run_variants({0xfee1deadULL}, [&](rt::RealRuntime& runtime) {
    std::atomic<std::uint64_t> sum{0};
    // 8 workers on this host is heavily oversubscribed — exactly the
    // preemption-under-contention regime the lock-free deque targets.
    const auto stats = runtime.parallel(8, [&](rt::TaskContext& ctx) {
      if (!ctx.single()) return;
      for (std::uint64_t i = 1; i <= kTasks; ++i) {
        ctx.create_task(
            [&sum, i](rt::TaskContext&) {
              sum.fetch_add(i, std::memory_order_relaxed);
            },
            attrs());
      }
    });
    EXPECT_EQ(stats.tasks_executed, kTasks);
    EXPECT_EQ(sum.load(), kTasks * (kTasks + 1) / 2);
  });
}

TEST_F(RealStressTest, EveryThreadProducingConcurrently) {
  constexpr std::uint64_t kPerThread = 10000;
  constexpr int kThreads = 8;
  run_variants({0xfee1deadULL, 0x0badf00dULL}, [&](rt::RealRuntime& runtime) {
    std::atomic<std::uint64_t> executed{0};
    const auto stats = runtime.parallel(kThreads, [&](rt::TaskContext& ctx) {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        ctx.create_task(
            [&executed](rt::TaskContext&) {
              executed.fetch_add(1, std::memory_order_relaxed);
            },
            attrs());
      }
    });
    EXPECT_EQ(executed.load(), kPerThread * kThreads);
    EXPECT_EQ(stats.tasks_executed, kPerThread * kThreads);
  });
}

TEST_F(RealStressTest, StealTotalsExactWhenCreatorNeverSchedules) {
  // Thread 0 creates all tasks and busy-waits outside any scheduling
  // point, so every task MUST be executed by a thief: the steal counter
  // is deterministic even on an oversubscribed host — and under any
  // schedule seed, since perturbation biases who steals, never whether.
  constexpr std::uint64_t kTasks = 20000;
  run_variants({0xfee1deadULL, 0x0badf00dULL}, [&](rt::RealRuntime& runtime) {
    std::atomic<std::uint64_t> executed{0};
    const auto stats = runtime.parallel(4, [&](rt::TaskContext& ctx) {
      if (ctx.thread_id() != 0) return;  // thieves drain at the barrier
      for (std::uint64_t i = 0; i < kTasks; ++i) {
        ctx.create_task(
            [&executed](rt::TaskContext&) {
              executed.fetch_add(1, std::memory_order_relaxed);
            },
            attrs());
      }
      while (executed.load(std::memory_order_acquire) < kTasks) {
        std::this_thread::yield();
      }
    });
    EXPECT_EQ(stats.tasks_executed, kTasks);
    EXPECT_EQ(stats.steals, kTasks);
  });
}

TEST_F(RealStressTest, DeepFireAndForgetChainCyclesTheSlab) {
  // Each task spawns the next without waiting: a 50k-deep chain whose
  // records die and get recycled one by one — the slab free lists (local
  // and cross-thread) churn constantly.  No nesting, so thread stacks
  // stay flat.
  constexpr std::uint64_t kDepth = 50000;
  run_variants({0xfee1deadULL}, [&](rt::RealRuntime& runtime) {
    std::atomic<std::uint64_t> links{0};
    std::function<void(rt::TaskContext&)> link = [&](rt::TaskContext& ctx) {
      if (links.fetch_add(1, std::memory_order_relaxed) + 1 < kDepth) {
        ctx.create_task(link, attrs());
      }
    };
    const auto stats = runtime.parallel(4, [&](rt::TaskContext& ctx) {
      if (!ctx.single()) return;
      ctx.create_task(link, attrs());
    });
    EXPECT_EQ(links.load(), kDepth);
    EXPECT_EQ(stats.tasks_executed, kDepth);
  });
}

TEST_F(RealStressTest, RecursiveFibHasDeterministicTaskCount) {
  run_variants({0xfee1deadULL, 0x0badf00dULL}, [&](rt::RealRuntime& runtime) {
    std::function<void(rt::TaskContext&, int, long*)> fib =
        [&](rt::TaskContext& ctx, int n, long* out) {
          if (n < 2) {
            *out = n;
            return;
          }
          long a = 0;
          long b = 0;
          ctx.create_task(
              [&fib, n, &a](rt::TaskContext& c) { fib(c, n - 1, &a); },
              attrs());
          ctx.create_task(
              [&fib, n, &b](rt::TaskContext& c) { fib(c, n - 2, &b); },
              attrs());
          ctx.taskwait();
          *out = a + b;
        };
    long result = 0;
    const auto stats = runtime.parallel(8, [&](rt::TaskContext& ctx) {
      if (ctx.single()) fib(ctx, 18, &result);
    });
    EXPECT_EQ(result, 2584);
    // Task creations of cut-off-free fib(n): 2*fib(n+1) - 2.
    EXPECT_EQ(stats.tasks_executed, 2u * 4181 - 2);
  });
}

TEST_F(RealStressTest, ShardedSinglesClaimExactlyOncePerEpisode) {
  // Way more episodes than shard slots, with no barriers in between, so
  // threads drift across slot reuse boundaries — the scenario the
  // monotonic episode-claim protocol must survive.
  constexpr std::uint64_t kEpisodes = 20000;
  run_variants({0xfee1deadULL, 0x0badf00dULL}, [&](rt::RealRuntime& runtime) {
    std::atomic<std::uint64_t> claims{0};
    runtime.parallel(4, [&](rt::TaskContext& ctx) {
      for (std::uint64_t i = 0; i < kEpisodes; ++i) {
        if (ctx.single()) claims.fetch_add(1, std::memory_order_relaxed);
      }
    });
    EXPECT_EQ(claims.load(), kEpisodes);
  });
}

TEST_F(RealStressTest, BarrierGenerationsStayInLockstep) {
  constexpr int kPhases = 500;
  constexpr int kThreads = 4;
  run_variants({0xfee1deadULL, 0x0badf00dULL}, [&](rt::RealRuntime& runtime) {
    std::atomic<int> phase_arrivals{0};
    std::atomic<bool> ordered{true};
    runtime.parallel(kThreads, [&](rt::TaskContext& ctx) {
      for (int p = 0; p < kPhases; ++p) {
        phase_arrivals.fetch_add(1, std::memory_order_acq_rel);
        ctx.barrier();
        // After barrier p every thread has finished phase p.
        if (phase_arrivals.load(std::memory_order_acquire) <
            (p + 1) * kThreads) {
          ordered.store(false, std::memory_order_relaxed);
        }
      }
    });
    EXPECT_TRUE(ordered.load());
    EXPECT_EQ(phase_arrivals.load(), kPhases * kThreads);
  });
}

TEST_F(RealStressTest, NestedTaskwaitStorm) {
  constexpr int kRounds = 200;
  constexpr int kThreads = 4;
  constexpr int kChildren = 4;
  run_variants({0xfee1deadULL}, [&](rt::RealRuntime& runtime) {
    std::atomic<std::uint64_t> grandchildren{0};
    const auto stats = runtime.parallel(kThreads, [&](rt::TaskContext& ctx) {
      for (int r = 0; r < kRounds; ++r) {
        for (int c = 0; c < kChildren; ++c) {
          ctx.create_task(
              [&](rt::TaskContext& child) {
                for (int g = 0; g < kChildren; ++g) {
                  child.create_task(
                      [&grandchildren](rt::TaskContext&) {
                        grandchildren.fetch_add(1, std::memory_order_relaxed);
                      },
                      attrs());
                }
                child.taskwait();
              },
              attrs());
        }
        ctx.taskwait();
      }
    });
    const std::uint64_t kExpected =
        static_cast<std::uint64_t>(kThreads) * kRounds * kChildren *
        (1 + kChildren);
    EXPECT_EQ(grandchildren.load(),
              static_cast<std::uint64_t>(kThreads) * kRounds * kChildren *
                  kChildren);
    EXPECT_EQ(stats.tasks_executed, kExpected);
  });
}

TEST_F(RealStressTest, SequentialRegionsResetTeamState) {
  run_variants({0xfee1deadULL, 0x0badf00dULL}, [&](rt::RealRuntime& runtime) {
    for (int round = 0; round < 5; ++round) {
      std::atomic<std::uint64_t> executed{0};
      std::atomic<std::uint64_t> claims{0};
      const auto stats = runtime.parallel(3, [&](rt::TaskContext& ctx) {
        for (int i = 0; i < 100; ++i) {
          if (ctx.single()) claims.fetch_add(1, std::memory_order_relaxed);
        }
        ctx.barrier();
        if (!ctx.single()) return;
        for (int i = 0; i < 1000; ++i) {
          ctx.create_task(
              [&executed](rt::TaskContext&) {
                executed.fetch_add(1, std::memory_order_relaxed);
              },
              attrs());
        }
      });
      EXPECT_EQ(claims.load(), 100u) << "round " << round;
      EXPECT_EQ(executed.load(), 1000u) << "round " << round;
      EXPECT_EQ(stats.tasks_executed, 1000u) << "round " << round;
    }
  });
}

}  // namespace
}  // namespace taskprof
