#include "common/clock.hpp"

#include <gtest/gtest.h>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

namespace taskprof {
namespace {

TEST(SteadyClock, Monotonic) {
  SteadyClock clock;
  Ticks last = clock.now();
  for (int i = 0; i < 1000; ++i) {
    const Ticks now = clock.now();
    EXPECT_GE(now, last);
    last = now;
  }
}

TEST(SteadyClock, AdvancesEventually) {
  SteadyClock clock;
  const Ticks start = clock.now();
  Ticks now = start;
  while (now == start) now = clock.now();
  EXPECT_GT(now, start);
}

TEST(ManualClock, StartsAtZeroByDefault) {
  ManualClock clock;
  EXPECT_EQ(clock.now(), 0);
}

TEST(ManualClock, StartsAtGivenTime) {
  ManualClock clock(1234);
  EXPECT_EQ(clock.now(), 1234);
}

TEST(ManualClock, AdvanceAccumulates) {
  ManualClock clock;
  clock.advance(10);
  clock.advance(5);
  EXPECT_EQ(clock.now(), 15);
}

TEST(ManualClock, SetJumps) {
  ManualClock clock;
  clock.set(100);
  EXPECT_EQ(clock.now(), 100);
}

TEST(ManualClock, UsableThroughBaseInterface) {
  ManualClock manual(7);
  const Clock& clock = manual;
  EXPECT_EQ(clock.now(), 7);
  manual.advance(3);
  EXPECT_EQ(clock.now(), 10);
}

// --- TscClock ---------------------------------------------------------------

/// CPUID leaf 0x80000007, EDX bit 8, read independently of the clock.
bool cpu_reports_invariant_tsc() {
#if defined(__x86_64__)
  unsigned eax = 0;
  unsigned ebx = 0;
  unsigned ecx = 0;
  unsigned edx = 0;
  return __get_cpuid(0x80000007u, &eax, &ebx, &ecx, &edx) != 0 &&
         (edx & (1u << 8)) != 0;
#else
  return false;
#endif
}

TEST(TscClock, ReadsTheTscExactlyWhenTheCpuReportsAnInvariantOne) {
  EXPECT_EQ(TscClock().uses_tsc(), cpu_reports_invariant_tsc());
}

/// One TscClock reading and the steady_clock time it was taken at: the
/// midpoint of two steady reads around it, retried until they are close.
struct Paired {
  Ticks tsc = 0;
  Ticks steady = 0;
};

Paired paired_read(const TscClock& clock) {
  for (;;) {
    const Ticks before = steady_now();
    const Ticks tsc = clock.now();
    const Ticks after = steady_now();
    if (after - before < 2 * kTicksPerUs) {
      return Paired{tsc, before + (after - before) / 2};
    }
  }
}

TEST(TscClock, AgreesWithSteadyClockWithinOnePerMille) {
  const TscClock clock;
  const Paired start = paired_read(clock);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  const Paired end = paired_read(clock);
  const Ticks steady = end.steady - start.steady;
  const Ticks tsc = end.tsc - start.tsc;
  ASSERT_GE(steady, 50 * kTicksPerMs);
  EXPECT_LE(std::abs(tsc - steady), steady / 1000)
      << "tsc " << tsc << " ns against steady " << steady << " ns";
}

TEST(TscClock, SharesSteadyClockEpoch) {
  const TscClock clock;
  const Paired now = paired_read(clock);
  // Calibration ran moments ago in this process: any drift since then is
  // far below a millisecond.
  EXPECT_LT(std::abs(now.tsc - now.steady), kTicksPerMs);
}

// --- EventClock -------------------------------------------------------------

/// Scripted source: returns `next` and counts its reads.
struct FakeSource {
  struct Script {
    Ticks next = 0;
    int reads = 0;
  };
  Script* script = nullptr;

  [[nodiscard]] Ticks now() const noexcept {
    ++script->reads;
    return script->next;
  }
};

TEST(EventClock, ReadsTheSourceOncePerEvent) {
  FakeSource::Script script{.next = 100};
  EventClock<FakeSource> clock(FakeSource{&script});
  EXPECT_EQ(script.reads, 0);  // an event nobody times costs no read
  EXPECT_EQ(clock.now(), 100);
  script.next = 150;
  EXPECT_EQ(clock.now(), 100);  // same event, same stamp
  const Clock& base = clock;
  EXPECT_EQ(base.now(), 100);
  EXPECT_EQ(script.reads, 1);

  clock.next_event();
  clock.next_event();  // an event without readers
  EXPECT_EQ(script.reads, 1);
  EXPECT_EQ(clock.now(), 150);
  EXPECT_EQ(script.reads, 2);
}

TEST(EventClock, ClampsABackwardsRead) {
  FakeSource::Script script{.next = 1'000};
  EventClock<FakeSource> clock(FakeSource{&script});
  EXPECT_EQ(clock.now(), 1'000);
  clock.next_event();
  script.next = 990;  // an unfenced read that executed early
  EXPECT_EQ(clock.now(), 1'000);
  EXPECT_EQ(script.reads, 2);
  clock.next_event();
  script.next = 1'010;
  EXPECT_EQ(clock.now(), 1'010);
}

TEST(EventClock, StampsNeverDecreaseOnConcurrentThreads) {
  constexpr int kThreads = 4;
  constexpr int kEvents = 1'000'000;
  std::vector<EventClock<TscClock>> clocks(kThreads);
  std::vector<int> decreases(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&clocks, &decreases, t] {
      EventClock<TscClock>& clock = clocks[t];
      Ticks last = clock.now();
      for (int i = 0; i < kEvents; ++i) {
        clock.next_event();
        const Ticks stamp = clock.now();
        if (stamp < last) ++decreases[t];
        last = stamp;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(decreases[t], 0) << t;
}

}  // namespace
}  // namespace taskprof
