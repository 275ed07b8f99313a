#include "trace/analysis.hpp"
#include "trace/file.hpp"
#include "trace/recorder.hpp"
#include "trace/sampling.hpp"
#include "trace/span.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>

#include "bots/kernel.hpp"
#include "instrument/instrumentor.hpp"
#include "rt/real_runtime.hpp"
#include "rt/schedule_policy.hpp"
#include "rt/sim_runtime.hpp"
#include "snapshot/format.hpp"
#include "test_util.hpp"

namespace taskprof {
namespace {

using trace::EventKind;
using trace::Trace;
using trace::TraceEvent;
using trace::TraceRecorder;

rt::TaskAttrs attrs_for(RegionHandle region,
                        rt::TaskBinding binding = rt::TaskBinding::kTied) {
  rt::TaskAttrs attrs;
  attrs.region = region;
  attrs.binding = binding;
  return attrs;
}

class TraceTest : public ::testing::Test {
 protected:
  RegionRegistry registry_;
  RegionHandle task_ = registry_.register_region("t", RegionType::kTask);

  /// Run `root` once on `threads` sim workers and return the trace.  With
  /// `profile`, the profiler runs alongside and its aggregate lands there.
  Trace record(int threads, const std::function<void(rt::TaskContext&)>& root,
               rt::SimConfig config = {},
               AggregateProfile* profile = nullptr) {
    rt::SimRuntime sim(config);
    TraceRecorder recorder;
    std::optional<Instrumentor> instr;
    rt::FanoutHooks hooks{&recorder};
    if (profile != nullptr) hooks.add(&instr.emplace(registry_));
    sim.set_hooks(&hooks);
    sim.parallel(threads, [&root](rt::TaskContext& ctx) {
      if (ctx.single()) root(ctx);
    });
    sim.set_hooks(nullptr);
    if (instr) {
      instr->finalize();
      *profile = instr->aggregate();
    }
    return recorder.take();
  }
};

TEST_F(TraceTest, RecordsBalancedEventStreams) {
  const Trace trace = record(2, [this](rt::TaskContext& ctx) {
    for (int i = 0; i < 5; ++i) {
      ctx.create_task([](rt::TaskContext& c) { c.work(1'000); },
                      attrs_for(task_));
    }
    ctx.taskwait();
  });
  EXPECT_EQ(trace.thread_count(), 2u);
  std::size_t begins = 0;
  std::size_t ends = 0;
  std::size_t creates = 0;
  for (const TraceEvent& event : trace.merged()) {
    if (event.kind == EventKind::kTaskBegin) ++begins;
    if (event.kind == EventKind::kTaskEnd) ++ends;
    if (event.kind == EventKind::kCreateEnd) ++creates;
  }
  EXPECT_EQ(begins, 5u);
  EXPECT_EQ(ends, 5u);
  EXPECT_EQ(creates, 5u);
}

TEST_F(TraceTest, MergedEventsAreTimeOrdered) {
  const Trace trace = record(4, [this](rt::TaskContext& ctx) {
    for (int i = 0; i < 20; ++i) {
      ctx.create_task([](rt::TaskContext& c) { c.work(2'000); },
                      attrs_for(task_));
    }
  });
  const auto& merged = trace.merged();
  ASSERT_GT(merged.size(), 0u);
  for (std::size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LE(merged[i - 1].time, merged[i].time);
  }
  const auto [begin, end] = trace.time_span();
  EXPECT_EQ(begin, merged.front().time);
  EXPECT_EQ(end, merged.back().time);
}

/// The order merged() promises, by definition: every event, stable-sorted
/// by (time, thread).
std::vector<TraceEvent> sorted_reference(const Trace& trace) {
  std::vector<TraceEvent> all;
  for (ThreadId t = 0; t < trace.thread_count(); ++t) {
    all.insert(all.end(), trace.thread_events(t).begin(),
               trace.thread_events(t).end());
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.time != b.time ? a.time < b.time
                                             : a.thread < b.thread;
                   });
  return all;
}

void expect_same_events(const std::vector<TraceEvent>& actual,
                        const std::vector<TraceEvent>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const TraceEvent& a = actual[i];
    const TraceEvent& b = expected[i];
    ASSERT_TRUE(a.time == b.time && a.thread == b.thread &&
                a.kind == b.kind && a.task == b.task &&
                a.region == b.region && a.parameter == b.parameter &&
                a.peer == b.peer)
        << "events differ at " << i;
  }
}

TEST(TraceMerge, TiesGoToTheLowerThreadAndKeepStreamOrder) {
  testutil::TraceBuilder builder(3);
  builder.add(2, 5, EventKind::kTaskBegin, 1)
      .add(2, 5, EventKind::kTaskEnd, 1)
      .add(0, 5, EventKind::kTaskBegin, 2)
      .add(1, 3, EventKind::kTaskBegin, 3)
      .add(1, 5, EventKind::kTaskEnd, 3)
      .add(0, 6, EventKind::kTaskEnd, 2);
  const Trace trace = builder.build();
  const std::vector<TaskInstanceId> order = {3, 2, 3, 1, 1, 2};
  ASSERT_EQ(trace.merged().size(), order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(trace.merged()[i].task, order[i]) << i;
  }
  expect_same_events(trace.merged(), sorted_reference(trace));
}

TEST(TraceMerge, OneBusyStreamIsItsOwnMergedOrder) {
  testutil::TraceBuilder one(1);
  one.run(0, 1, 4, 1, kInvalidRegion);
  const Trace single = one.build();
  EXPECT_EQ(&single.merged(), &single.thread_events(0));
  // An idle thread's empty stream does not force a merge either.
  testutil::TraceBuilder idle(3);
  idle.run(1, 1, 4, 1, kInvalidRegion);
  const Trace mostly_idle = idle.build();
  EXPECT_EQ(&mostly_idle.merged(), &mostly_idle.thread_events(1));
  EXPECT_TRUE(Trace().merged().empty());
}

TEST(TraceMerge, MatchesAStableSortOnEveryBotsKernel) {
  for (const bool real : {false, true}) {
    for (const auto& kernel : bots::make_all_kernels()) {
      for (int threads = 1; threads <= 4; ++threads) {
        SCOPED_TRACE(std::string(kernel->name()) +
                     (real ? " real x" : " sim x") + std::to_string(threads));
        RegionRegistry registry;
        std::unique_ptr<rt::Runtime> runtime;
        if (real) {
          runtime = std::make_unique<rt::RealRuntime>();
        } else {
          runtime = std::make_unique<rt::SimRuntime>();
        }
        TraceRecorder recorder;
        rt::FanoutHooks hooks{&recorder};
        runtime->set_hooks(&hooks);
        bots::KernelConfig config;
        config.threads = threads;
        config.size = bots::SizeClass::kTest;
        ASSERT_TRUE(kernel->run(*runtime, registry, config).ok);
        runtime->set_hooks(nullptr);
        const Trace trace = recorder.take();
        expect_same_events(trace.merged(), sorted_reference(trace));
      }
    }
  }
}

TEST_F(TraceTest, TakeResetsTheRecorder) {
  rt::SimRuntime sim;
  TraceRecorder recorder;
  sim.set_hooks(&recorder);
  sim.parallel(1, [](rt::TaskContext& ctx) { ctx.work(100); });
  const std::size_t first_count = recorder.event_count();
  EXPECT_GT(first_count, 0u);
  const Trace first = recorder.take();
  EXPECT_EQ(recorder.event_count(), 0u);
  EXPECT_EQ(first.event_count(), first_count);
  sim.parallel(1, [](rt::TaskContext& ctx) { ctx.work(100); });
  sim.set_hooks(nullptr);
  EXPECT_GT(recorder.event_count(), 0u);
}

TEST_F(TraceTest, AnalysisReconstructsTaskLifetimes) {
  const Trace trace = record(2, [this](rt::TaskContext& ctx) {
    for (int i = 0; i < 6; ++i) {
      ctx.create_task([](rt::TaskContext& c) { c.work(10'000); },
                      attrs_for(task_));
    }
    ctx.taskwait();
  });
  const trace::TraceAnalysis analysis = trace::analyze_trace(trace);
  ASSERT_EQ(analysis.tasks.size(), 6u);
  for (const trace::TaskLifetime& life : analysis.tasks) {
    EXPECT_TRUE(life.completed);
    EXPECT_EQ(life.region, task_);
    EXPECT_EQ(life.parent, kImplicitTaskId);
    EXPECT_GE(life.begin, life.created);  // cannot start before creation
    EXPECT_GE(life.end, life.begin);
    EXPECT_GE(life.active, 10'000);
    EXPECT_EQ(life.fragments, 1);  // no suspension in this program
    EXPECT_EQ(life.migrations, 0);
  }
  EXPECT_GE(analysis.total_active, 60'000);
  EXPECT_EQ(analysis.queue_latency.count, 6u);
  EXPECT_GT(analysis.queue_latency.mean(), 0.0);
}

// An undeferred (if-clause) task runs inside its creation construct, so
// its create_end is stamped after its begin.  It never waited in a queue,
// so its latency counts as 0: neither the aggregate minimum nor any
// per-construct mean may go negative.
TEST(TraceAnalysis, IfClauseTasksNeverReportNegativeQueueLatency) {
  for (const char* name : {"nqueens", "health"}) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::string(name) + " x" + std::to_string(threads));
      RegionRegistry registry;
      rt::SimRuntime sim;
      TraceRecorder recorder;
      sim.set_hooks(&recorder);
      bots::KernelConfig config;
      config.threads = threads;
      config.size = bots::SizeClass::kTest;
      config.cutoff = true;
      config.if_clause = true;
      ASSERT_TRUE(bots::make_kernel(name)->run(sim, registry, config).ok);
      sim.set_hooks(nullptr);
      const trace::TraceAnalysis analysis =
          trace::analyze_trace(recorder.take());
      ASSERT_FALSE(analysis.tasks.empty());
      EXPECT_EQ(analysis.queue_latency.count, analysis.tasks.size());
      EXPECT_GE(analysis.queue_latency.min, 0);
      // The per-construct table comes first; no cell in it is negative.
      const std::string report = trace::render_analysis(analysis, registry);
      std::istringstream table(report.substr(0, report.find("\n\n")));
      std::string line;
      std::getline(table, line);  // header
      std::getline(table, line);  // rule
      int rows = 0;
      while (std::getline(table, line)) {
        ++rows;
        std::istringstream cells(line);
        for (std::string cell; cells >> cell;) {
          EXPECT_FALSE(cell.size() > 1 && cell[0] == '-' &&
                       std::isdigit(static_cast<unsigned char>(cell[1])))
              << line;
        }
      }
      EXPECT_GT(rows, 0);
    }
  }
}

TEST_F(TraceTest, SuspendedTasksHaveMultipleFragments) {
  const Trace trace = record(1, [this](rt::TaskContext& ctx) {
    ctx.create_task(
        [this](rt::TaskContext& outer) {
          outer.work(1'000);
          outer.create_task([](rt::TaskContext& c) { c.work(1'000); },
                            attrs_for(task_));
          outer.taskwait();  // suspension: child runs in between
          outer.work(1'000);
        },
        attrs_for(task_));
    ctx.taskwait();
  });
  const trace::TraceAnalysis analysis = trace::analyze_trace(trace);
  ASSERT_EQ(analysis.tasks.size(), 2u);
  int max_fragments = 0;
  for (const auto& life : analysis.tasks) {
    max_fragments = std::max(max_fragments, life.fragments);
  }
  EXPECT_GE(max_fragments, 2);  // the outer task was split by its child
  EXPECT_GT(analysis.instance_fragments.max, 1);
}

TEST_F(TraceTest, ParentChildChainReconstructed) {
  // A chain of 5 nested tasks, each waiting for its child: the creation
  // depth must be 5 and the span at least the summed work.
  std::function<void(rt::TaskContext&, int)> chain =
      [&chain, this](rt::TaskContext& ctx, int depth) {
        ctx.create_task(
            [&chain, depth](rt::TaskContext& c) {
              c.work(10'000);
              if (depth > 1) {
                chain(c, depth - 1);
                c.taskwait();
              }
            },
            attrs_for(task_));
      };
  const Trace trace = record(2, [&](rt::TaskContext& ctx) {
    chain(ctx, 5);
    ctx.taskwait();
  });
  const trace::TraceAnalysis analysis = trace::analyze_trace(trace);
  EXPECT_EQ(analysis.tasks.size(), 5u);
  EXPECT_EQ(analysis.max_creation_depth, 5);
  const trace::WorkSpan& ws = trace.span_model()->measured;
  EXPECT_GE(ws.span, 50'000);
  EXPECT_EQ(ws.span_length, 5);
}

TEST_F(TraceTest, ChainLengthEstimatesConcurrentInstances) {
  // Paper §V-B: "the longest dependency chain (e.g. the recursion depth)
  // of an application may serve as a good estimate for the number of
  // concurrent tasks".  Check the creation depth against the profiler.
  std::function<void(rt::TaskContext&, int)> rec =
      [&rec, this](rt::TaskContext& ctx, int depth) {
        ctx.create_task(
            [&rec, depth](rt::TaskContext& c) {
              c.work(500);
              if (depth > 0) {
                rec(c, depth - 1);
                rec(c, depth - 1);
                c.taskwait();
              }
            },
            attrs_for(task_));
      };
  AggregateProfile profile;
  const trace::TraceAnalysis analysis = trace::analyze_trace(record(
      4,
      [&rec](rt::TaskContext& ctx) {
        rec(ctx, 7);
        ctx.taskwait();
      },
      {}, &profile));
  EXPECT_EQ(analysis.max_creation_depth, 8);  // depth 7 + root
  // The measured max concurrent instances is bounded by the creation
  // depth (strict scheduling keeps the suspended stack on one root-leaf
  // path).
  EXPECT_LE(profile.max_concurrent_any_thread,
            static_cast<std::size_t>(analysis.max_creation_depth));
  EXPECT_GE(profile.max_concurrent_any_thread, 4u);
}

TEST_F(TraceTest, NestedUndeferredTasksCountTowardCreationDepth) {
  // A deferred task creates an undeferred one, which creates another
  // undeferred one.  Each undeferred create ends only after the child ran
  // inline, so the children's creates are recorded before their parent's;
  // the depth must not depend on that order.  All three instances are live
  // on one thread at once, which the depth has to bound.
  rt::TaskAttrs undeferred = attrs_for(task_);
  undeferred.undeferred = true;
  const auto leaf = [](rt::TaskContext& c) { c.work(1'000); };
  const auto middle = [&](rt::TaskContext& b) {
    b.work(1'000);
    b.create_task(leaf, undeferred);
  };
  AggregateProfile profile;
  const Trace trace = record(
      2,
      [&](rt::TaskContext& ctx) {
        ctx.create_task(
            [&](rt::TaskContext& a) {
              a.work(1'000);
              a.create_task(middle, undeferred);
            },
            attrs_for(task_));
        ctx.taskwait();
      },
      {}, &profile);

  const trace::TraceAnalysis analysis = trace::analyze_trace(trace);
  EXPECT_EQ(analysis.tasks.size(), 3u);
  EXPECT_EQ(analysis.max_creation_depth, 3);
  EXPECT_EQ(profile.max_concurrent_any_thread, 3u);
  EXPECT_LE(profile.max_concurrent_any_thread,
            static_cast<std::size_t>(analysis.max_creation_depth));
}

TEST_F(TraceTest, RegionsKeepDistinctTaskIds) {
  // Both engines number task instances from 1 in every parallel region;
  // the recorder shifts each region's ids, so a trace over two regions
  // holds every instance once and its work and chain add up both regions.
  const auto body = [this](rt::TaskContext& ctx) {
    if (!ctx.single()) return;
    for (int i = 0; i < 4; ++i) {
      ctx.create_task([](rt::TaskContext& c) { c.work(20'000); },
                      attrs_for(task_));
    }
    ctx.taskwait();
  };
  rt::SimRuntime sim;
  TraceRecorder recorder;
  sim.set_hooks(&recorder);
  sim.parallel(2, body);
  const Trace once = recorder.take();
  sim.parallel(2, body);
  sim.parallel(2, body);
  sim.set_hooks(nullptr);
  const Trace twice = recorder.take();

  std::set<TaskInstanceId> created;
  for (const TraceEvent& event : twice.merged()) {
    if (event.kind == EventKind::kCreateEnd) created.insert(event.task);
  }
  EXPECT_EQ(created.size(), 8u);
  EXPECT_EQ(*created.begin(), 1u);  // take() restarts the numbering
  const trace::TraceAnalysis analysis = trace::analyze_trace(twice);
  EXPECT_EQ(analysis.tasks.size(), 8u);
  const trace::WorkSpan& one = once.span_model()->measured;
  const trace::WorkSpan& two = twice.span_model()->measured;
  EXPECT_EQ(two.work, 2 * one.work);
  EXPECT_EQ(two.span_length, 2 * one.span_length);
}

TEST_F(TraceTest, BusyTimeMatchesProfilerStubTime) {
  // Cross-validation of trace replay against the profiler: total task
  // fragment time in the trace equals the profiler's stub-node total.
  AggregateProfile profile;
  const trace::TraceAnalysis analysis = trace::analyze_trace(record(
      3,
      [this](rt::TaskContext& ctx) {
        for (int i = 0; i < 12; ++i) {
          ctx.create_task(
              [this](rt::TaskContext& outer) {
                outer.work(3'000);
                outer.create_task(
                    [](rt::TaskContext& c) { c.work(2'000); },
                    attrs_for(task_));
                outer.taskwait();
              },
              attrs_for(task_));
        }
      },
      {}, &profile));
  Ticks stub_total = 0;
  for_each_node(profile.implicit_root, [&](const CallNode& node, int) {
    if (node.is_stub) stub_total += node.inclusive;
  });
  EXPECT_EQ(analysis.total_active, stub_total);

  Ticks busy_total = 0;
  for (const trace::ThreadUsage& usage : analysis.threads) {
    busy_total += usage.busy;
    EXPECT_LE(usage.utilization(), 1.0);
    EXPECT_GE(usage.utilization(), 0.0);
  }
  EXPECT_EQ(busy_total, analysis.total_active);
}

TEST_F(TraceTest, SyncDecompositionSplitsManagementAndWaiting) {
  // One thread executes 50 tiny tasks back to back (short gaps =
  // management); the other threads starve (long gaps = waiting).
  const Trace trace = record(4, [this](rt::TaskContext& ctx) {
    for (int i = 0; i < 50; ++i) {
      ctx.create_task([](rt::TaskContext& c) { c.work(300); },
                      attrs_for(task_));
    }
    ctx.taskwait();
  });
  const trace::TraceAnalysis analysis = trace::analyze_trace(trace);
  EXPECT_GT(analysis.sync_total, 0);
  EXPECT_GT(analysis.sync_management, 0);
  EXPECT_EQ(analysis.sync_total,
            analysis.sync_management + analysis.sync_waiting);
  EXPECT_GT(analysis.management_to_execution_ratio(), 0.0);
}

TEST_F(TraceTest, MigrationsAppearInLifetimes) {
  rt::SimConfig config;  // migration on by default
  const Trace trace = record(
      4,
      [this](rt::TaskContext& ctx) {
        for (int i = 0; i < 24; ++i) {
          ctx.create_task(
              [this](rt::TaskContext& outer) {
                outer.create_task([](rt::TaskContext& c) { c.work(20'000); },
                                  attrs_for(task_));
                outer.taskwait();
                outer.work(2'000);
              },
              attrs_for(task_, rt::TaskBinding::kUntied));
        }
      },
      config);
  const trace::TraceAnalysis analysis = trace::analyze_trace(trace);
  int migrations = 0;
  for (const auto& life : analysis.tasks) migrations += life.migrations;
  EXPECT_GT(migrations, 0);
}

TEST_F(TraceTest, MigratedTasksBeginAtTheirTaskBeginEvent) {
  // The analysis replays one thread's stream after another, so a
  // migrated untied task resumed on a lower-numbered thread replays its
  // resume before its begin.  Begin and first thread must still be those
  // of the TaskBegin event, whatever the interleaving.
  const RegionHandle child =
      registry_.register_region("child", RegionType::kTask);
  int migrated = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const rt::SchedulePolicy policy(seed);
    rt::SimConfig config;
    config.policy = &policy;
    const Trace trace = record(
        4,
        [&](rt::TaskContext& ctx) {
          for (int i = 0; i < 24; ++i) {
            ctx.create_task(
                [&](rt::TaskContext& outer) {
                  outer.work(3'000);
                  outer.create_task(
                      [](rt::TaskContext& c) { c.work(30'000); },
                      attrs_for(child));
                  outer.taskwait();
                  outer.work(2'000);
                },
                attrs_for(task_, rt::TaskBinding::kUntied));
          }
        },
        config);
    std::unordered_map<TaskInstanceId, const TraceEvent*> begins;
    for (ThreadId thread = 0; thread < trace.thread_count(); ++thread) {
      for (const TraceEvent& event : trace.thread_events(thread)) {
        if (event.kind == EventKind::kTaskBegin) begins[event.task] = &event;
      }
    }
    const trace::TraceAnalysis analysis = trace::analyze_trace(trace);
    ASSERT_EQ(analysis.tasks.size(), begins.size());
    for (const trace::TaskLifetime& life : analysis.tasks) {
      const TraceEvent& begin = *begins.at(life.id);
      EXPECT_EQ(life.begin, begin.time) << "seed " << seed << " task "
                                        << life.id;
      EXPECT_EQ(life.first_thread, begin.thread)
          << "seed " << seed << " task " << life.id;
      if (life.migrations > 0) ++migrated;
    }
  }
  EXPECT_GT(migrated, 0) << "the program must migrate tasks";
}

TEST(TraceAnalysis, AnImplicitEndWithoutItsBeginIsRejectedTyped) {
  // Thread 1 never began its implicit task; at a real-engine clock base
  // its span would run from time 0 and read 34,000 s.
  constexpr Ticks kBase = 34'000'000'000'000;
  testutil::TraceBuilder b(2);
  b.add(0, kBase, EventKind::kImplicitBegin)
      .add(0, kBase + 1, EventKind::kCreateEnd, 1)
      .add(0, kBase + 10, EventKind::kImplicitEnd)
      .run(1, kBase + 2, kBase + 6, 1, kInvalidRegion)
      .add(1, kBase + 10, EventKind::kImplicitEnd);
  const Trace trace = b.build();
  for (int call = 0; call < 2; ++call) {
    try {
      (void)trace::analyze_trace(trace);
      FAIL() << "the trace replayed";
    } catch (const snapshot::SnapshotError& error) {
      EXPECT_EQ(error.code(), snapshot::Errc::kMalformed);
      EXPECT_NE(std::string(error.what()).find("thread 1"),
                std::string::npos)
          << error.what();
    }
  }
}

TEST_F(TraceTest, RenderAnalysisAndTimelineProduceText) {
  const Trace trace = record(2, [this](rt::TaskContext& ctx) {
    for (int i = 0; i < 8; ++i) {
      ctx.create_task([](rt::TaskContext& c) { c.work(5'000); },
                      attrs_for(task_));
    }
    ctx.taskwait();
  });
  const trace::TraceAnalysis analysis = trace::analyze_trace(trace);
  const std::string report = trace::render_analysis(analysis, registry_);
  EXPECT_NE(report.find("task construct"), std::string::npos);
  EXPECT_NE(report.find("management"), std::string::npos);
  EXPECT_NE(report.find("longest dependency chain"), std::string::npos);
  // Shares print unsigned ("68.1%"); a sign marks a delta, and none is.
  EXPECT_NE(report.find("%, "), std::string::npos) << report;
  EXPECT_EQ(report.find('+'), std::string::npos) << report;
  EXPECT_EQ(report.find(" %"), std::string::npos) << report;
  const std::string timeline = trace::render_timeline(trace, 40);
  EXPECT_NE(timeline.find("t0 |"), std::string::npos);
  EXPECT_NE(timeline.find("t1 |"), std::string::npos);
  EXPECT_NE(timeline.find('#'), std::string::npos);
}

TEST_F(TraceTest, EmptyTraceHandled) {
  TraceRecorder recorder;
  const Trace trace = recorder.take();
  EXPECT_EQ(trace.event_count(), 0u);
  const trace::TraceAnalysis analysis = trace::analyze_trace(trace);
  EXPECT_TRUE(analysis.tasks.empty());
  EXPECT_EQ(trace::render_timeline(trace), "(empty trace)\n");
}

// ---- Sampling reconstruction (paper §II) -----------------------------------

TEST_F(TraceTest, SamplingConvergesToExactAggregate) {
  const Trace trace = record(2, [this](rt::TaskContext& ctx) {
    for (int i = 0; i < 16; ++i) {
      ctx.create_task([](rt::TaskContext& c) { c.work(50'000); },
                      attrs_for(task_));
    }
    ctx.taskwait();
  });
  const trace::TraceAnalysis analysis = trace::analyze_trace(trace);
  const Ticks exact = analysis.total_active;
  ASSERT_GT(exact, 0);

  const auto coarse = trace::sample_trace(trace, 50'000);
  const auto fine = trace::sample_trace(trace, 200);
  const auto coarse_err = std::abs(coarse.estimated_time(task_) - exact);
  const auto fine_err = std::abs(fine.estimated_time(task_) - exact);
  EXPECT_LE(fine_err, coarse_err);
  // Fine-rate estimate within 2 % of the exact value.
  EXPECT_LE(static_cast<double>(fine_err), 0.02 * static_cast<double>(exact));
}

TEST_F(TraceTest, SamplingCountsAreConsistent) {
  const Trace trace = record(2, [this](rt::TaskContext& ctx) {
    for (int i = 0; i < 4; ++i) {
      ctx.create_task([](rt::TaskContext& c) { c.work(10'000); },
                      attrs_for(task_));
    }
    ctx.taskwait();
  });
  const auto histogram = trace::sample_trace(trace, 1'000);
  std::uint64_t task_total = 0;
  for (const auto& [region, samples] : histogram.task_samples) {
    EXPECT_EQ(region, task_);
    task_total += samples;
  }
  EXPECT_EQ(histogram.total_samples, task_total + histogram.other_samples);
  EXPECT_GT(histogram.total_samples, 0u);
  EXPECT_EQ(histogram.estimated_time(static_cast<RegionHandle>(999)), 0);
}

TEST_F(TraceTest, SamplingHandlesSuspendedFragments) {
  // A suspended task's gap must not be attributed to it.
  const Trace trace = record(1, [this](rt::TaskContext& ctx) {
    ctx.create_task(
        [this](rt::TaskContext& outer) {
          outer.work(5'000);
          outer.create_task([](rt::TaskContext& c) { c.work(50'000); },
                            attrs_for(task_));
          outer.taskwait();
          outer.work(5'000);
        },
        attrs_for(task_));
    ctx.taskwait();
  });
  const trace::TraceAnalysis analysis = trace::analyze_trace(trace);
  const auto histogram = trace::sample_trace(trace, 100);
  const Ticks estimate = histogram.estimated_time(task_);
  // Estimate tracks total *active* time (fragments), not wall span.
  const double error = std::abs(static_cast<double>(estimate) -
                                static_cast<double>(analysis.total_active));
  EXPECT_LE(error, 0.05 * static_cast<double>(analysis.total_active));
}

TEST(TraceSampling, AMigratedTaskKeepsItsConstructOnEveryThread) {
  // Task 5 runs 10-50 on one thread and, after migrating, 60-200 on the
  // other: 4 + 14 samples at period 10, whichever way it moves.
  const RegionHandle region = 3;
  for (const ThreadId first : {ThreadId{0}, ThreadId{1}}) {
    const ThreadId second = first == 0 ? 1 : 0;
    SCOPED_TRACE("begins on thread " + std::to_string(first));
    testutil::TraceBuilder b(2);
    b.add(first, 0, EventKind::kImplicitBegin)
        .add(first, 5, EventKind::kCreateEnd, 5, region)
        .add(first, 10, EventKind::kTaskBegin, 5, region)
        .add(first, 50, EventKind::kTaskSwitch, kImplicitTaskId)
        .add(first, 200, EventKind::kImplicitEnd)
        .add(second, 0, EventKind::kImplicitBegin)
        .add(second, 60, EventKind::kTaskSwitch, 5)
        .add(second, 200, EventKind::kTaskEnd, 5)
        .add(second, 200, EventKind::kImplicitEnd);
    const auto histogram = trace::sample_trace(b.build(), 10);
    EXPECT_EQ(histogram.task_samples.at(region), 18u);
    EXPECT_EQ(histogram.total_samples, 40u);
  }
}

// ---- Trace files -------------------------------------------------------------

class TraceFileTest : public TraceTest {
 protected:
  std::string path_ = ::testing::TempDir() + "/taskprof_test.trace";
};

TEST_F(TraceFileTest, RoundTripPreservesEveryEvent) {
  const Trace original = record(3, [this](rt::TaskContext& ctx) {
    for (int i = 0; i < 10; ++i) {
      ctx.create_task(
          [this](rt::TaskContext& outer) {
            outer.work(2'000);
            outer.create_task([](rt::TaskContext& c) { c.work(1'000); },
                              attrs_for(task_));
            outer.taskwait();
          },
          attrs_for(task_));
    }
  });
  trace::write_trace_file(path_, original);
  const Trace loaded = trace::read_trace_file(path_);

  ASSERT_EQ(loaded.thread_count(), original.thread_count());
  ASSERT_EQ(loaded.event_count(), original.event_count());
  for (ThreadId t = 0; t < original.thread_count(); ++t) {
    const auto& a = original.thread_events(t);
    const auto& b = loaded.thread_events(t);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].time, b[i].time);
      EXPECT_EQ(a[i].thread, b[i].thread);
      EXPECT_EQ(a[i].kind, b[i].kind);
      EXPECT_EQ(a[i].task, b[i].task);
      EXPECT_EQ(a[i].region, b[i].region);
      EXPECT_EQ(a[i].parameter, b[i].parameter);
      EXPECT_EQ(a[i].peer, b[i].peer);
    }
  }
  // Analyses agree on original and loaded traces.
  const auto analysis_a = trace::analyze_trace(original);
  const auto analysis_b = trace::analyze_trace(loaded);
  EXPECT_EQ(analysis_a.total_active, analysis_b.total_active);
  EXPECT_EQ(analysis_a.tasks.size(), analysis_b.tasks.size());
  std::remove(path_.c_str());
}

TEST_F(TraceFileTest, EmptyTraceRoundTrips) {
  TraceRecorder recorder;
  trace::write_trace_file(path_, recorder.take());
  const Trace loaded = trace::read_trace_file(path_);
  EXPECT_EQ(loaded.event_count(), 0u);
  std::remove(path_.c_str());
}

TEST_F(TraceFileTest, MissingFileThrows) {
  EXPECT_THROW(trace::read_trace_file(path_ + ".does_not_exist"),
               std::runtime_error);
}

TEST_F(TraceFileTest, BadMagicThrows) {
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("definitely not a trace file", f);
  std::fclose(f);
  EXPECT_THROW(trace::read_trace_file(path_), std::runtime_error);
  std::remove(path_.c_str());
}

TEST_F(TraceFileTest, TruncatedFileThrows) {
  const Trace original = record(1, [this](rt::TaskContext& ctx) {
    ctx.create_task([](rt::TaskContext& c) { c.work(100); },
                    attrs_for(task_));
  });
  trace::write_trace_file(path_, original);
  // Chop the last 10 bytes off.
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_GT(size, 10);
  ASSERT_EQ(truncate(path_.c_str(), size - 10), 0);
  EXPECT_THROW(trace::read_trace_file(path_), std::runtime_error);
  std::remove(path_.c_str());
}

TEST_F(TraceFileTest, TrailingGarbageThrows) {
  const Trace original = record(1, [this](rt::TaskContext& ctx) {
    ctx.create_task([](rt::TaskContext& c) { c.work(100); },
                    attrs_for(task_));
  });
  trace::write_trace_file(path_, original);
  std::FILE* f = std::fopen(path_.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fputs("junk", f);
  std::fclose(f);
  EXPECT_THROW(trace::read_trace_file(path_), std::runtime_error);
  std::remove(path_.c_str());
}

TEST_F(TraceTest, EventKindNamesCovered) {
  EXPECT_EQ(trace::event_kind_name(EventKind::kTaskBegin), "task_begin");
  EXPECT_EQ(trace::event_kind_name(EventKind::kMigrate), "migrate");
  EXPECT_EQ(trace::event_kind_name(EventKind::kBarrierEnd), "barrier_end");
}

}  // namespace
}  // namespace taskprof
