// taskprofd: fleet-scale continuous profile ingestion daemon.
//
//   taskprofd serve --socket=PATH [--shards=N] [--memory-budget-mb=N] ...
//   taskprofd report --socket=PATH [--kind=text|json|stats]
//   taskprofd export --socket=PATH --out=FILE.tpsnap
//
// serve runs the aggregation service on a Unix-domain socket until
// SIGINT/SIGTERM (or --max-seconds, for scripted runs) and prints the
// ingestion stats on exit.  report/export are one-shot query clients:
// report prints the daemon's current merged view, export writes it as
// ordinary .tpsnap bytes that `taskprof_cli load` (or another merge)
// consumes like any offline snapshot.  The options are one table
// (kOptions; `taskprofd COMMAND --help` lists them); a bad value exits 2.
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/cli_options.hpp"
#include "ingest/client.hpp"
#include "ingest/daemon.hpp"
#include "snapshot/snapshot.hpp"

namespace {

using namespace taskprof;
using cli::Kind;

volatile std::sig_atomic_t g_stop = 0;

void stop_handler(int) { g_stop = 1; }

enum Command : unsigned { kServe, kReport, kExport };

constexpr cli::Command kCommands[] = {
    {.name = "serve",
     .about = "Accept streaming delta snapshots from profiled processes\n"
              "(taskprof_cli --ingest=PATH) and maintain the merged fleet "
              "profile."},
    {.name = "report", .about = "Print a running daemon's merged view."},
    {.name = "export",
     .about = "Write a running daemon's merged view as a .tpsnap file."},
};

constexpr cli::Option kOptions[] = {
    {.name = "--socket", .kind = Kind::kString,
     .help = "the daemon's Unix-domain socket", .values = "PATH",
     .required = true},
    {.name = "--shards", .kind = Kind::kInt,
     .help = "merge workers / aggregate shards", .fallback = "4", .min = 1,
     .max = 1024, .commands = 1u << kServe},
    {.name = "--memory-budget-mb", .kind = Kind::kU64,
     .help = "bound the live call-tree memory by folding cold call paths\n"
             "into [evicted] stubs (totals stay exact); 0 = unbounded",
     .fallback = "0", .min = 0,
     .max = 17592186044415.0,  // 2^44 - 1: the bytes fit in a u64
     .commands = 1u << kServe},
    {.name = "--keep-partial", .help = "fold dirty disconnects too",
     .commands = 1u << kServe},
    {.name = "--max-seconds", .kind = Kind::kInt,
     .help = "stop after this many seconds; 0 = run until SIGINT/SIGTERM",
     .fallback = "0", .min = 0, .commands = 1u << kServe},
    {.name = "--quiet", .help = "print nothing", .commands = 1u << kServe},
    {.name = "--kind", .kind = Kind::kChoice, .help = "report format",
     .fallback = "text", .values = "text|json|stats",
     .commands = 1u << kReport},
    {.name = "--out", .kind = Kind::kString,
     .help = "write the aggregate snapshot to FILE", .values = "FILE",
     .required = true, .commands = 1u << kExport},
};

constexpr cli::Table kTable{kCommands, kOptions};

int run_serve(const cli::Args& args) {
  ingest::DaemonOptions options;
  options.socket_path = args.text("--socket");
  options.shards = args.integer("--shards");
  options.memory_budget_bytes = args.u64("--memory-budget-mb") << 20;
  options.keep_partial_sessions = args.flag("--keep-partial");
  const long max_seconds = args.integer("--max-seconds");
  const bool quiet = args.flag("--quiet");
  std::signal(SIGINT, stop_handler);
  std::signal(SIGTERM, stop_handler);
  try {
    ingest::IngestDaemon daemon(options);
    daemon.start();
    if (!quiet) {
      std::printf("taskprofd: listening on %s (%d shard(s))\n",
                  options.socket_path.c_str(), options.shards);
      std::fflush(stdout);
    }
    long elapsed_ms = 0;
    while (g_stop == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      elapsed_ms += 50;
      if (max_seconds > 0 && elapsed_ms >= max_seconds * 1000) break;
    }
    daemon.stop();
    if (!quiet) {
      const ingest::DaemonStats stats = daemon.stats();
      std::printf(
          "taskprofd: %llu session(s) (%llu clean, %llu dropped), "
          "%llu delta(s) applied, %llu visit(s) ingested, "
          "%llu subtree(s) evicted\n",
          static_cast<unsigned long long>(stats.sessions_opened),
          static_cast<unsigned long long>(stats.sessions_closed_clean),
          static_cast<unsigned long long>(stats.sessions_dropped),
          static_cast<unsigned long long>(stats.deltas_applied),
          static_cast<unsigned long long>(stats.visits_ingested),
          static_cast<unsigned long long>(stats.evicted_subtrees));
    }
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "taskprofd: %s\n", error.what());
    return 1;
  }
}

int run_query(const cli::Args& args) {
  const bool exporting = args.command == kExport;
  const char* mode = exporting ? "export" : "report";
  ingest::ReportKind kind = ingest::ReportKind::kSnapshot;
  if (!exporting) {
    const std::string& name = args.text("--kind");
    kind = name == "json"    ? ingest::ReportKind::kJson
           : name == "stats" ? ingest::ReportKind::kStats
                             : ingest::ReportKind::kText;
  }
  try {
    const std::vector<std::uint8_t> body =
        ingest::query_report(args.text("--socket"), kind);
    if (exporting) {
      const std::string& out_path = args.text("--out");
      snapshot::atomic_write_file(out_path, body);
      std::printf("aggregate snapshot written to %s (%zu bytes)\n",
                  out_path.c_str(), body.size());
    } else {
      std::fwrite(body.data(), 1, body.size(), stdout);
    }
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "taskprofd %s: %s\n", mode, error.what());
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const cli::Args args = cli::parse_or_exit(kTable, argc, argv);
  return args.command == kServe ? run_serve(args) : run_query(args);
}
