// Ingestion-throughput trajectory bench: an in-process taskprofd
// (src/ingest) fed by {1, 8, 32} concurrent producers, each streaming a
// deterministic chain of cumulative captures (one rebase, then real
// deltas) through IngestClient over a Unix-domain socket.
//
// Two kinds of numbers come out:
//
//   snapshots_per_sec / events_per_sec
//     Wall-clock pipeline throughput (capture encode -> wire -> frame
//     parse -> shard merge -> ack).  Machine-dependent; recorded for
//     the trajectory, gated only with --absolute on a same-machine run.
//
//   delta_to_rebase_ratio, totals_exact
//     Same-run, machine-independent quantities.  The synthetic capture
//     chain touches a small hot subset of a mostly-cold call tree, so
//     the wire cost of a delta must stay well below the full rebase —
//     that ratio is deterministic (same builder, same codec, same
//     difference encoder) and is the CI gate.  totals_exact asserts
//     that not one visit was lost or double-counted end to end:
//     total_visits(daemon export) == producers x per-producer total,
//     and the daemon's visits_ingested counter agrees.
//
// Writes BENCH_ingest.json (tracked across PRs; gated in CI by
// tools/check_bench_regression.py --check of the ingest family).
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "ingest/client.hpp"
#include "ingest/daemon.hpp"
#include "ingest/delta.hpp"
#include "snapshot/snapshot.hpp"

namespace taskprof::bench {
namespace {

using snapshot::SnapshotData;

// The producer sweep the ISSUE's experiment matrix asks for.
constexpr int kProducerSweep[] = {1, 8, 32};
constexpr int kShards = 4;

// Call-tree shape per producer: a cold startup subtree (never touched
// after the first capture) plus a small hot working set.  Deltas carry
// only the hot nodes; the rebase carries everything — the gap between
// the two is the delta_to_rebase_ratio the gate watches.
constexpr int kColdLeaves = 200;
constexpr int kHotLeaves = 8;
constexpr std::uint64_t kVisitsPerHotLeafStage = 25;

/// Deterministic cumulative capture for `producer` after `stage`
/// completed flush intervals (1-based).  Counters grow strictly with
/// stage, so the chain is pointwise monotone — exactly what a client
/// difference-encodes.
SnapshotData producer_capture(int producer, int stage) {
  SnapshotData data;
  data.registry = std::make_unique<RegionRegistry>();
  RegionRegistry& reg = *data.registry;
  const RegionHandle implicit =
      reg.register_region("implicit task", RegionType::kImplicitTask);
  const RegionHandle startup =
      reg.register_region("startup_phase", RegionType::kFunction);
  std::vector<RegionHandle> cold;
  cold.reserve(kColdLeaves);
  for (int i = 0; i < kColdLeaves; ++i) {
    cold.push_back(reg.register_region("init_step_" + std::to_string(i),
                                       RegionType::kFunction));
  }
  const RegionHandle steady =
      reg.register_region("steady_phase", RegionType::kFunction);
  std::vector<RegionHandle> hot;
  hot.reserve(kHotLeaves);
  for (int i = 0; i < kHotLeaves; ++i) {
    hot.push_back(reg.register_region("kernel_" + std::to_string(i),
                                      RegionType::kFunction));
  }
  const RegionHandle own = reg.register_region(
      "producer_" + std::to_string(producer), RegionType::kFunction);

  AggregateProfile& p = data.profile;
  p.thread_count = 1;
  p.max_concurrent_per_thread = {1};
  p.max_concurrent_any_thread = 1;
  p.total_task_switches = static_cast<std::uint64_t>(stage) * 4;
  const std::uint64_t s = static_cast<std::uint64_t>(stage);

  p.implicit_root = p.pool.allocate(implicit, kNoParameter, false, nullptr);
  p.implicit_root->visits = 2 * s;
  p.implicit_root->inclusive = static_cast<Ticks>(1000 * s);
  for (std::uint64_t v = 0; v < 2 * s; ++v) {
    p.implicit_root->visit_stats.add(500);
  }

  // Cold mass: written by the first capture, identical ever after, so
  // it never reappears in a delta.
  CallNode* boot =
      p.pool.allocate(startup, kNoParameter, false, p.implicit_root);
  boot->visits = 1;
  boot->inclusive = static_cast<Ticks>(kColdLeaves * 4);
  boot->visit_stats.add(boot->inclusive);
  for (int i = 0; i < kColdLeaves; ++i) {
    CallNode* leaf = p.pool.allocate(cold[static_cast<std::size_t>(i)],
                                     kNoParameter, false, boot);
    leaf->visits = 1;
    leaf->inclusive = static_cast<Ticks>(3 + i % 7);
    leaf->visit_stats.add(leaf->inclusive);
  }

  // Hot mass: every stage adds the same slab of visits per kernel leaf.
  CallNode* work =
      p.pool.allocate(steady, kNoParameter, false, p.implicit_root);
  work->visits = s;
  work->inclusive = static_cast<Ticks>(900 * s);
  for (std::uint64_t v = 0; v < s; ++v) work->visit_stats.add(900);
  for (int i = 0; i < kHotLeaves; ++i) {
    CallNode* leaf = p.pool.allocate(hot[static_cast<std::size_t>(i)],
                                     kNoParameter, false, work);
    leaf->visits = s * kVisitsPerHotLeafStage;
    const Ticks per_visit = static_cast<Ticks>(2 + i);
    leaf->inclusive = static_cast<Ticks>(leaf->visits) * per_visit;
    for (std::uint64_t v = 0; v < leaf->visits; ++v) {
      leaf->visit_stats.add(per_visit);
    }
  }
  CallNode* mine = p.pool.allocate(own, kNoParameter, false, work);
  mine->visits = s;
  mine->inclusive = static_cast<Ticks>(s) * (producer + 1);
  for (std::uint64_t v = 0; v < s; ++v) {
    mine->visit_stats.add(static_cast<Ticks>(producer + 1));
  }

  data.meta.flush_seq = s;
  data.meta.process_id = 1000 + static_cast<std::uint64_t>(producer);
  return data;
}

struct Cell {
  int producers = 0;
  std::uint64_t snapshots = 0;
  std::uint64_t visits = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t rebase_bytes = 0;
  std::uint64_t delta_bytes = 0;
  bool totals_exact = false;
  bool clean_stream = false;  ///< exactly one rebase per producer

  [[nodiscard]] double snapshots_per_sec() const {
    return wall_ns == 0 ? 0.0
                        : static_cast<double>(snapshots) * 1e9 /
                              static_cast<double>(wall_ns);
  }
  [[nodiscard]] double events_per_sec() const {
    return wall_ns == 0 ? 0.0
                        : static_cast<double>(visits) * 1e9 /
                              static_cast<double>(wall_ns);
  }
  /// Mean delta wire bytes over mean rebase wire bytes (deterministic).
  [[nodiscard]] double delta_to_rebase_ratio() const {
    const std::uint64_t deltas = snapshots - static_cast<std::uint64_t>(
                                                 producers);
    if (deltas == 0 || rebase_bytes == 0) return 0.0;
    const double mean_delta = static_cast<double>(delta_bytes) /
                              static_cast<double>(deltas);
    const double mean_rebase = static_cast<double>(rebase_bytes) /
                               static_cast<double>(producers);
    return mean_delta / mean_rebase;
  }
};

Cell run_cell(int producers, int flushes) {
  ingest::DaemonOptions options;
  options.socket_path = "/tmp/taskprofd_bench_" + std::to_string(::getpid()) +
                        "_" + std::to_string(producers) + ".sock";
  options.shards = kShards;
  std::remove(options.socket_path.c_str());
  ingest::IngestDaemon daemon(options);
  daemon.start();

  std::atomic<std::uint64_t> rebase_bytes{0};
  std::atomic<std::uint64_t> delta_bytes{0};
  std::atomic<int> failures{0};

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(producers));
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      try {
        ingest::ClientOptions copts;
        copts.socket_path = options.socket_path;
        copts.process_id = 1000 + static_cast<std::uint64_t>(p);
        copts.producer_name = "bench_" + std::to_string(p);
        ingest::IngestClient client(copts);
        for (int stage = 1; stage <= flushes; ++stage) {
          const ingest::SendResult sent =
              client.send_snapshot(producer_capture(p, stage));
          (sent.rebased ? rebase_bytes : delta_bytes)
              .fetch_add(sent.wire_bytes, std::memory_order_relaxed);
        }
        client.finish(nullptr);
      } catch (...) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const auto t1 = std::chrono::steady_clock::now();

  const SnapshotData exported = daemon.export_aggregate();
  const ingest::DaemonStats stats = daemon.stats();
  daemon.stop();
  std::remove(options.socket_path.c_str());

  // Every producer streams the same counter shape, so the fleet total
  // is producers x any one producer's final cumulative.
  const std::uint64_t per_producer =
      ingest::total_visits(producer_capture(0, flushes).profile);
  const std::uint64_t expected =
      per_producer * static_cast<std::uint64_t>(producers);

  Cell cell;
  cell.producers = producers;
  cell.snapshots = static_cast<std::uint64_t>(producers) *
                   static_cast<std::uint64_t>(flushes);
  cell.visits = ingest::total_visits(exported.profile);
  cell.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  cell.rebase_bytes = rebase_bytes.load();
  cell.delta_bytes = delta_bytes.load();
  cell.totals_exact =
      failures.load() == 0 && cell.visits == expected &&
      stats.visits_ingested == expected &&
      stats.sessions_closed_clean == static_cast<std::uint64_t>(producers);
  cell.clean_stream =
      stats.rebases == static_cast<std::uint64_t>(producers) &&
      stats.deltas_rejected == 0 && stats.sessions_dropped == 0;
  return cell;
}

int flushes_for(bots::SizeClass size) {
  switch (size) {
    case bots::SizeClass::kTest: return 6;
    case bots::SizeClass::kSmall: return 16;
    case bots::SizeClass::kMedium: return 32;
  }
  return 16;
}

}  // namespace
}  // namespace taskprof::bench

int main(int argc, char** argv) {
  using namespace taskprof;
  using namespace taskprof::bench;

  const TrajectoryOptions options =
      parse_trajectory_options(argc, argv, "BENCH_ingest.json");
  const int flushes = flushes_for(options.size);

  std::printf("ingestion throughput: in-process taskprofd, %d flushes per "
              "producer, %d shards\n",
              flushes, kShards);
  std::printf("%-9s %10s %12s %14s %14s %8s %6s\n", "producers", "snapshots",
              "visits", "snap/s", "events/s", "d/r", "exact");

  std::vector<Cell> cells;
  bool all_exact = true;
  double worst_ratio = 0.0;
  for (const int producers : kProducerSweep) {
    // Keep the best-throughput rep; the byte counts and totals are
    // deterministic, so every rep must agree on them.
    Cell best;
    for (int rep = 0; rep < options.reps; ++rep) {
      const Cell cell = run_cell(producers, flushes);
      if (rep == 0 || cell.snapshots_per_sec() > best.snapshots_per_sec()) {
        const std::uint64_t wall = cell.wall_ns;
        const bool deterministic_match =
            rep == 0 || (cell.rebase_bytes == best.rebase_bytes &&
                         cell.delta_bytes == best.delta_bytes &&
                         cell.visits == best.visits);
        best = cell;
        best.wall_ns = wall;
        if (!deterministic_match) best.clean_stream = false;
      }
    }
    all_exact = all_exact && best.totals_exact && best.clean_stream;
    worst_ratio = std::max(worst_ratio, best.delta_to_rebase_ratio());
    std::printf("%-9d %10llu %12llu %14.0f %14.0f %8.3f %6s\n",
                best.producers,
                static_cast<unsigned long long>(best.snapshots),
                static_cast<unsigned long long>(best.visits),
                best.snapshots_per_sec(), best.events_per_sec(),
                best.delta_to_rebase_ratio(),
                best.totals_exact ? "yes" : "NO");
    cells.push_back(best);
  }

  JsonWriter json;
  json.begin_object();
  json.field("bench", "ingest");
  json.field("size", bots::size_name(options.size));
  json.field("seed", options.seed);
  json.field("reps", options.reps);
  json.field("flushes_per_producer", flushes);
  json.field("shards", kShards);
  json.begin_array("results");
  for (const Cell& cell : cells) {
    json.begin_object();
    json.field("producers", cell.producers);
    json.field("snapshots", cell.snapshots);
    json.field("visits_ingested", cell.visits);
    json.field("wall_ns", cell.wall_ns);
    json.field("snapshots_per_sec", cell.snapshots_per_sec());
    json.field("events_per_sec", cell.events_per_sec());
    json.field("rebase_bytes", cell.rebase_bytes);
    json.field("delta_bytes", cell.delta_bytes);
    json.field("delta_to_rebase_ratio", cell.delta_to_rebase_ratio());
    json.field("totals_exact", cell.totals_exact);
    json.field("clean_stream", cell.clean_stream);
    json.end_object();
  }
  json.end_array();
  json.field("delta_to_rebase_worst", worst_ratio);
  json.field("all_totals_exact", all_exact);
  json.end_object();
  if (!bench::write_json(options.out_path, json)) return 1;
  std::printf("\nwrote %s\n", options.out_path.c_str());

  if (!all_exact) {
    std::fprintf(stderr,
                 "FATAL: ingestion lost or double-counted mass (see table)\n");
    return 1;
  }
  return 0;
}
