// End-to-end daemon tests over a real Unix-domain socket: a producer's
// streamed deltas reconstruct its cumulative byte-for-byte, multiple
// producers merge exactly like the offline `snapshot::merge`, reports
// are served over the wire, reconnects rebase into fresh sessions, and
// a memory budget evicts without losing mass.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ingest/client.hpp"
#include "ingest/daemon.hpp"
#include "ingest/delta.hpp"
#include "snapshot/merge.hpp"
#include "snapshot/snapshot.hpp"

namespace taskprof::ingest {
namespace {

using snapshot::SnapshotData;

std::string socket_path(const char* name) {
  return testing::TempDir() + "taskprofd_" + name + ".scratch.sock";
}

/// Two-stage synthetic producer (same shape as the delta tests):
/// stage 1 strictly grows stage 0 and adds a new region/subtree.
/// `root` names the implicit task (another name: another program).
SnapshotData capture(int stage, std::uint64_t process_id,
                     const char* root = "implicit task") {
  SnapshotData data;
  data.registry = std::make_unique<RegionRegistry>();
  const RegionHandle implicit =
      data.registry->register_region(root, RegionType::kImplicitTask);
  const RegionHandle work =
      data.registry->register_region("work", RegionType::kFunction);
  AggregateProfile& p = data.profile;
  p.thread_count = 2;
  p.max_concurrent_per_thread = {1, 1};
  p.max_concurrent_any_thread = stage == 0 ? 1 : 2;
  p.total_task_switches = stage == 0 ? 3 : 9;
  p.implicit_root = p.pool.allocate(implicit, kNoParameter, false, nullptr);
  p.implicit_root->visits = stage == 0 ? 2 : 5;
  p.implicit_root->inclusive = stage == 0 ? 100 : 260;
  p.implicit_root->visit_stats.add(40);
  p.implicit_root->visit_stats.add(60);
  if (stage > 0) {
    p.implicit_root->visit_stats.add(30);
    p.implicit_root->visit_stats.add(60);
    p.implicit_root->visit_stats.add(70);
  }
  // A subtree only stage 0 touches: the later delta omits it entirely,
  // so under a memory budget it goes cold and is evicted.
  const RegionHandle startup =
      data.registry->register_region("startup_phase", RegionType::kFunction);
  CallNode* cold =
      p.pool.allocate(startup, kNoParameter, false, p.implicit_root);
  cold->visits = 2;
  cold->inclusive = 8;
  cold->visit_stats.add(4);
  cold->visit_stats.add(4);
  CallNode* worker =
      p.pool.allocate(work, kNoParameter, false, p.implicit_root);
  worker->visits = 1;
  worker->inclusive = 20;
  worker->visit_stats.add(20);
  if (stage > 0) {
    const RegionHandle late =
        data.registry->register_region("late_phase", RegionType::kFunction);
    CallNode* grand = p.pool.allocate(late, kNoParameter, false, worker);
    grand->visits = 3;
    grand->inclusive = 12;
    for (int i = 0; i < 3; ++i) grand->visit_stats.add(4);
  }
  data.meta.flush_seq = stage + 1;
  data.meta.process_id = process_id;
  return data;
}

/// Spin until `pred` holds (daemon-side events are asynchronous).
template <typename Pred>
bool wait_for(Pred pred, int timeout_ms = 5000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

TEST(IngestDaemon, SingleProducerStreamsToByteIdenticalAggregate) {
  DaemonOptions options;
  options.socket_path = socket_path("single");
  options.shards = 1;
  IngestDaemon daemon(options);
  daemon.start();

  const SnapshotData early = capture(0, 7);
  const SnapshotData late = capture(1, 7);
  {
    ClientOptions copts;
    copts.socket_path = options.socket_path;
    copts.process_id = 7;
    copts.producer_name = "single";
    IngestClient client(copts);
    const SendResult first = client.send_snapshot(early);
    EXPECT_TRUE(first.rebased);  // first flush ships the full cumulative
    const SendResult second = client.send_snapshot(late);
    EXPECT_FALSE(second.rebased);
    EXPECT_GT(second.changed_nodes, 0u);
    client.finish(nullptr);
    EXPECT_EQ(client.total_sends(), 2u);
    EXPECT_EQ(client.total_rebases(), 1u);
  }
  ASSERT_TRUE(wait_for([&] { return daemon.stats().sessions_closed_clean == 1; }));

  // The daemon's merged view IS the producer's final cumulative.
  const SnapshotData exported = daemon.export_aggregate();
  EXPECT_EQ(snapshot::encode_snapshot(exported),
            snapshot::encode_snapshot(late));

  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.sessions_opened, 1u);
  EXPECT_EQ(stats.deltas_applied, 2u);
  EXPECT_EQ(stats.rebases, 1u);
  EXPECT_EQ(stats.visits_ingested, total_visits(late.profile));
  EXPECT_EQ(stats.live_sessions, 0u);
  daemon.stop();
  EXPECT_FALSE(daemon.running());
}

TEST(IngestDaemon, TwoProducersMatchTheOfflineMerge) {
  DaemonOptions options;
  options.socket_path = socket_path("pair");
  options.shards = 1;  // one fold order, comparable to the offline merge
  IngestDaemon daemon(options);
  daemon.start();

  const SnapshotData a = capture(1, 1);
  const SnapshotData b = capture(1, 2);
  for (const SnapshotData* snap : {&a, &b}) {
    ClientOptions copts;
    copts.socket_path = options.socket_path;
    copts.process_id = snap->meta.process_id;
    IngestClient client(copts);
    (void)client.send_snapshot(*snap);
    client.finish(nullptr);
  }
  ASSERT_TRUE(wait_for([&] { return daemon.stats().sessions_closed_clean == 2; }));

  SnapshotData offline = clone_snapshot(a);
  snapshot::merge_snapshot_into(offline, b);
  EXPECT_EQ(snapshot::encode_snapshot(daemon.export_aggregate()),
            snapshot::encode_snapshot(offline));
  daemon.stop();
}

// Two producers whose profiles cannot merge: the second names another
// implicit root, or both declare the format's thread limit so their sum
// would exceed it.  The daemon must keep serving: reports while both
// sessions are live leave the second out, and with one shard its fold
// is refused with an Error frame and counted as dropped.
struct ConflictCase {
  int shards;
  bool over_limit;
};

std::string conflict_name(const ::testing::TestParamInfo<ConflictCase>& param) {
  return std::string(param.param.over_limit ? "thread_limit" : "other_root") +
         "_shards" + std::to_string(param.param.shards);
}

class IngestDaemonConflict : public ::testing::TestWithParam<ConflictCase> {};

TEST_P(IngestDaemonConflict, UnmergeableProducerIsRefusedAndServingGoesOn) {
  const ConflictCase& c = GetParam();
  DaemonOptions options;
  options.socket_path = socket_path(conflict_name({c, 0}).c_str());
  options.shards = c.shards;
  IngestDaemon daemon(options);
  daemon.start();

  SnapshotData a = capture(1, 1);
  SnapshotData b = capture(1, 2, c.over_limit ? "implicit task" : "main");
  if (c.over_limit) {
    a.profile.thread_count = snapshot::kMaxThreads;
    b.profile.thread_count = snapshot::kMaxThreads;
  }
  const auto client_for = [&](const SnapshotData& snap) {
    ClientOptions copts;
    copts.socket_path = options.socket_path;
    copts.process_id = snap.meta.process_id;
    return std::make_unique<IngestClient>(copts);
  };
  const auto first = client_for(a);
  const auto second = client_for(b);
  (void)first->send_snapshot(a);
  (void)second->send_snapshot(b);
  ASSERT_TRUE(wait_for([&] { return daemon.stats().deltas_applied == 2; }));

  // Both sessions live: the export holds the first one only.
  const std::vector<std::uint8_t> live =
      query_report(options.socket_path, ReportKind::kSnapshot);
  EXPECT_EQ(live, snapshot::encode_snapshot(a));

  first->finish(nullptr);
  ASSERT_TRUE(
      wait_for([&] { return daemon.stats().sessions_closed_clean == 1; }));
  second->finish(nullptr);
  ASSERT_TRUE(wait_for([&] {
    const DaemonStats s = daemon.stats();
    return s.sessions_closed_clean + s.sessions_dropped == 2;
  }));
  const DaemonStats stats = daemon.stats();
  if (c.shards == 1) {
    // The second fold is refused; the aggregate is the first producer's.
    EXPECT_EQ(stats.sessions_closed_clean, 1u);
    EXPECT_EQ(stats.sessions_dropped, 1u);
    EXPECT_EQ(stats.errors_sent, 1u);
    EXPECT_EQ(snapshot::encode_snapshot(daemon.export_aggregate()),
              snapshot::encode_snapshot(a));
  } else {
    // Each fold lands in its own shard; the export holds one of them.
    EXPECT_EQ(stats.sessions_closed_clean, 2u);
    const std::vector<std::uint8_t> exported =
        snapshot::encode_snapshot(daemon.export_aggregate());
    EXPECT_TRUE(exported == snapshot::encode_snapshot(a) ||
                exported == snapshot::encode_snapshot(b));
  }
  EXPECT_TRUE(daemon.running());
  const std::vector<std::uint8_t> text =
      query_report(options.socket_path, ReportKind::kText);
  EXPECT_NE(std::string(text.begin(), text.end()).find("main tree"),
            std::string::npos);
  daemon.stop();
}

INSTANTIATE_TEST_SUITE_P(
    ShardsAndConflicts, IngestDaemonConflict,
    ::testing::Values(ConflictCase{1, false}, ConflictCase{2, false},
                      ConflictCase{1, true}, ConflictCase{2, true}),
    conflict_name);

TEST(IngestDaemon, ExportIncludesLiveSessions) {
  DaemonOptions options;
  options.socket_path = socket_path("live");
  options.shards = 2;
  IngestDaemon daemon(options);
  daemon.start();

  const SnapshotData cum = capture(0, 3);
  ClientOptions copts;
  copts.socket_path = options.socket_path;
  copts.process_id = 3;
  IngestClient client(copts);
  (void)client.send_snapshot(cum);  // acked => merged; session still open

  EXPECT_EQ(snapshot::encode_snapshot(daemon.export_aggregate()),
            snapshot::encode_snapshot(cum));
  EXPECT_EQ(daemon.stats().live_sessions, 1u);
  client.finish(nullptr);
  daemon.stop();
}

TEST(IngestDaemon, ReportsAreServedOverTheWire) {
  DaemonOptions options;
  options.socket_path = socket_path("report");
  IngestDaemon daemon(options);
  daemon.start();

  // Before any data: text report says so rather than erroring.
  {
    const auto body = query_report(options.socket_path, ReportKind::kText);
    const std::string text(body.begin(), body.end());
    EXPECT_NE(text.find("no data ingested yet"), std::string::npos);
  }

  const SnapshotData cum = capture(1, 9);
  ClientOptions copts;
  copts.socket_path = options.socket_path;
  copts.process_id = 9;
  IngestClient client(copts);
  (void)client.send_snapshot(cum);
  client.finish(nullptr);
  ASSERT_TRUE(wait_for([&] { return daemon.stats().sessions_closed_clean == 1; }));

  {
    const auto body = query_report(options.socket_path, ReportKind::kText);
    const std::string text(body.begin(), body.end());
    EXPECT_NE(text.find("late_phase"), std::string::npos) << text;
  }
  {
    const auto body = query_report(options.socket_path, ReportKind::kJson);
    const std::string json(body.begin(), body.end());
    EXPECT_EQ(json.front(), '{');
  }
  {
    const auto body = query_report(options.socket_path, ReportKind::kStats);
    const std::string json(body.begin(), body.end());
    EXPECT_NE(json.find("\"deltas_applied\": 1"), std::string::npos) << json;
    EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  }
  {
    // kSnapshot over the wire == the in-process export.
    const auto body = query_report(options.socket_path, ReportKind::kSnapshot);
    EXPECT_EQ(body, snapshot::encode_snapshot(daemon.export_aggregate()));
    const SnapshotData decoded = snapshot::decode_snapshot(body, "wire");
    EXPECT_EQ(total_visits(decoded.profile), total_visits(cum.profile));
  }
  EXPECT_GE(daemon.stats().reports_served, 5u);
  daemon.stop();
}

TEST(IngestDaemon, FreshDaemonServesTheStatsGolden) {
  DaemonOptions options;
  options.socket_path = socket_path("stats");
  IngestDaemon daemon(options);
  daemon.start();
  const auto body = query_report(options.socket_path, ReportKind::kStats);
  EXPECT_EQ(std::string(body.begin(), body.end()), R"({
  "schema_version": 1,
  "sessions_opened": 1,
  "sessions_closed_clean": 0,
  "sessions_dropped": 0,
  "live_sessions": 0,
  "frames_received": 1,
  "frames_rejected": 0,
  "bytes_received": 14,
  "deltas_applied": 0,
  "deltas_duplicate": 0,
  "deltas_rejected": 0,
  "rebases": 0,
  "heartbeats": 0,
  "errors_sent": 0,
  "visits_ingested": 0,
  "nodes_created": 0,
  "evicted_subtrees": 0,
  "evicted_nodes": 0,
  "evicted_visits": 0,
  "reports_served": 0,
  "queue_stalls": 0,
  "live_node_bytes": 0
}
)");
  daemon.stop();
}

TEST(IngestDaemon, ReconnectRebasesIntoAFreshSession) {
  DaemonOptions options;
  options.socket_path = socket_path("reconnect");
  options.shards = 1;
  IngestDaemon daemon(options);
  daemon.start();

  const SnapshotData early = capture(0, 5);
  const SnapshotData late = capture(1, 5);
  ClientOptions copts;
  copts.socket_path = options.socket_path;
  copts.process_id = 5;
  IngestClient client(copts);
  (void)client.send_snapshot(early);
  client.close();  // simulate a producer-side transport loss

  // The dirty disconnect drops session 1's contribution...
  ASSERT_TRUE(wait_for([&] { return daemon.stats().sessions_dropped == 1; }));

  // ...and the next send reconnects and rebases the full cumulative, so
  // nothing is double-counted and nothing is lost.
  const SendResult result = client.send_snapshot(late);
  EXPECT_TRUE(result.rebased);
  EXPECT_TRUE(result.reconnected);
  client.finish(nullptr);
  ASSERT_TRUE(wait_for([&] { return daemon.stats().sessions_closed_clean == 1; }));

  EXPECT_EQ(snapshot::encode_snapshot(daemon.export_aggregate()),
            snapshot::encode_snapshot(late));
  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.sessions_opened, 2u);
  EXPECT_EQ(stats.rebases, 2u);
  daemon.stop();
}

TEST(IngestDaemon, KeepPartialFoldsDirtySessions) {
  DaemonOptions options;
  options.socket_path = socket_path("partial");
  options.shards = 1;
  options.keep_partial_sessions = true;
  IngestDaemon daemon(options);
  daemon.start();

  const SnapshotData cum = capture(0, 6);
  {
    ClientOptions copts;
    copts.socket_path = options.socket_path;
    copts.process_id = 6;
    IngestClient client(copts);
    (void)client.send_snapshot(cum);
  }  // destructor closes without Bye: dirty disconnect
  ASSERT_TRUE(wait_for([&] { return daemon.stats().sessions_dropped == 1; }));

  // Policy says keep: the acked prefix still counts.
  EXPECT_EQ(snapshot::encode_snapshot(daemon.export_aggregate()),
            snapshot::encode_snapshot(cum));
  daemon.stop();
}

TEST(IngestDaemon, MemoryBudgetEvictsWithoutLosingMass) {
  DaemonOptions options;
  options.socket_path = socket_path("evict");
  options.shards = 1;
  options.memory_budget_bytes = 1;  // evict after every applied delta
  IngestDaemon daemon(options);
  daemon.start();

  const SnapshotData early = capture(0, 8);
  const SnapshotData late = capture(1, 8);
  ClientOptions copts;
  copts.socket_path = options.socket_path;
  copts.process_id = 8;
  IngestClient client(copts);
  (void)client.send_snapshot(early);
  (void)client.send_snapshot(late);
  client.finish(nullptr);
  ASSERT_TRUE(wait_for([&] { return daemon.stats().sessions_closed_clean == 1; }));

  const DaemonStats stats = daemon.stats();
  EXPECT_GT(stats.evicted_subtrees, 0u);
  EXPECT_GT(stats.evicted_visits, 0u);

  const SnapshotData exported = daemon.export_aggregate();
  EXPECT_EQ(total_visits(exported.profile), total_visits(late.profile));
  EXPECT_EQ(total_root_inclusive(exported.profile),
            total_root_inclusive(late.profile));
  daemon.stop();
}

TEST(IngestDaemon, StopIsIdempotentAndRestartable) {
  DaemonOptions options;
  options.socket_path = socket_path("restart");
  IngestDaemon daemon(options);
  daemon.start();
  daemon.stop();
  daemon.stop();
  EXPECT_FALSE(daemon.running());

  IngestDaemon second(options);  // stale socket file must not block bind
  second.start();
  EXPECT_TRUE(second.running());
  second.stop();
}

}  // namespace
}  // namespace taskprof::ingest
