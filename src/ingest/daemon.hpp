// taskprofd: the fleet-scale continuous profile ingestion daemon.
//
// One poll(2) IO loop multiplexes every producer connection (the
// RafaGago/ssc group-scheduler shape: many per-session in/out queues
// behind one scheduler).  The IO thread only parses frames; each frame
// is routed to the owning session's *bounded* input queue and drained
// by the shard's merge worker, which runs the session state machine,
// folds deltas into the session's cumulative tree, and hands reply
// frames back to the IO thread through the session outbox.  When a
// session's queue fills, the IO loop simply stops reading that fd —
// kernel socket buffers become the backpressure, and one slow merge
// cannot stall other producers.
//
// Sessions are sharded by id.  A session that ends cleanly (Bye) folds
// its cumulative into the shard aggregate; a dirty disconnect drops the
// session's contribution (default) so the daemon's aggregate equals the
// offline merge of the *survivors'* snapshots — the crash-injection
// soak asserts exactly that.  `keep_partial_sessions` opts into folding
// dirty sessions instead.  A session whose profile cannot join the shard
// aggregate (another program's implicit root, or counts summing past the
// snapshot format's limits) is refused: it gets an Error frame, counts
// as dropped, and the aggregate stays as it was.
//
// Memory budget: when the live call-tree bytes of a shard exceed
// budget/shards, the merge worker evicts cold call paths (least
// recently touched sessions first) by folding them into "[evicted]"
// stubs — totals stay exact, only path detail is lost
// (Session::evict_cold; DESIGN.md §16).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "ingest/protocol.hpp"
#include "ingest/session.hpp"
#include "snapshot/snapshot.hpp"

namespace taskprof::ingest {

struct DaemonOptions {
  std::string socket_path;           ///< Unix-domain socket to listen on
  int shards = 4;                    ///< merge workers / aggregate shards
  std::size_t memory_budget_bytes = 0;  ///< 0 = unbounded (no eviction)
  bool keep_partial_sessions = false;   ///< fold dirty disconnects too
};

/// Point-in-time ingestion statistics (global + folded per-session).
struct DaemonStats {
  std::uint64_t sessions_opened = 0;
  std::uint64_t sessions_closed_clean = 0;
  std::uint64_t sessions_dropped = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t frames_rejected = 0;  ///< framing errors answered by IO
  std::uint64_t bytes_received = 0;
  std::uint64_t deltas_applied = 0;
  std::uint64_t deltas_duplicate = 0;
  std::uint64_t deltas_rejected = 0;
  std::uint64_t rebases = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t errors_sent = 0;
  std::uint64_t visits_ingested = 0;
  std::uint64_t nodes_created = 0;
  std::uint64_t evicted_subtrees = 0;
  std::uint64_t evicted_nodes = 0;
  std::uint64_t evicted_visits = 0;
  std::uint64_t reports_served = 0;
  std::uint64_t queue_stalls = 0;  ///< times a full queue paused a reader
  std::uint64_t live_sessions = 0;
  std::uint64_t live_node_bytes = 0;
};

class IngestDaemon {
 public:
  explicit IngestDaemon(DaemonOptions options);
  ~IngestDaemon();

  IngestDaemon(const IngestDaemon&) = delete;
  IngestDaemon& operator=(const IngestDaemon&) = delete;

  /// Bind, listen, and spawn the IO + merge threads.  Throws
  /// snapshot::SnapshotError(kIo) when the socket cannot be created.
  void start();

  /// Graceful shutdown: stop accepting, drain queues, join threads,
  /// unlink the socket.  Idempotent.
  void stop();

  [[nodiscard]] bool running() const noexcept {
    return io_thread_.joinable();
  }
  [[nodiscard]] const std::string& socket_path() const noexcept {
    return options_.socket_path;
  }

  [[nodiscard]] DaemonStats stats() const;

  /// The merged fleet view: shard aggregates (retired sessions) plus
  /// every live session's cumulative, folded with snapshot::merge
  /// semantics.  A source that cannot join the sources before it is left
  /// out (a live session that its fold will refuse, or the aggregate of
  /// another shard).  An empty daemon exports an empty-but-valid
  /// snapshot.
  [[nodiscard]] snapshot::SnapshotData export_aggregate() const;

  /// Rendered report of the current aggregate (text / analysis JSON /
  /// .tpsnap bytes / stats JSON — what ReportRequest serves).
  [[nodiscard]] std::vector<std::uint8_t> render_report(ReportKind kind) const;

 private:
  /// One producer bound to a connection; the Session inside is owned by
  /// the shard worker once frames start flowing.
  struct SessionRec {
    SessionRec(std::uint64_t id, std::string origin)
        : session(id, std::move(origin)) {}
    Session session;           ///< guarded by the owning shard's mutex
    std::size_t shard = 0;
    bool routed = false;       ///< IO-thread-owned: ever enqueued
    bool in_live = false;      ///< worker-owned: member of shard live set
    bool retired = false;      ///< worker-owned: folded or dropped
    std::atomic<int> pending{0};  ///< queued-but-unprocessed frames
    std::mutex out_mutex;
    std::vector<std::uint8_t> outbox;  ///< worker -> IO reply bytes
  };

  struct WorkItem {
    std::shared_ptr<SessionRec> rec;
    std::optional<Frame> frame;  ///< nullopt = connection disconnected
  };

  struct Shard {
    mutable std::mutex mutex;
    std::condition_variable cv;
    std::deque<WorkItem> queue;           ///< guarded by mutex
    bool stopping = false;                ///< guarded by mutex
    std::vector<std::shared_ptr<SessionRec>> live;  ///< worker-owned
    snapshot::SnapshotData aggregate;     ///< folded retired sessions
    bool has_aggregate = false;
    std::uint64_t epoch = 0;              ///< bumped per applied delta
    SessionCounters retired;              ///< counters of removed sessions
    std::uint64_t retired_clean = 0;
    std::uint64_t retired_dropped = 0;
    std::thread worker;
  };

  struct Conn {
    int fd = -1;
    std::unique_ptr<FrameReader> reader;
    std::shared_ptr<SessionRec> rec;
    std::vector<std::uint8_t> write_buf;
    std::size_t write_off = 0;
    bool stalled = false;   ///< reading paused: session queue full
    bool closing = false;   ///< flush write_buf, then close
  };

  void io_loop();
  void merge_loop(Shard& shard);
  void accept_connections();
  void handle_readable(Conn& conn);
  void handle_writable(Conn& conn);
  void route_frame(Conn& conn, Frame frame);
  void enqueue(const std::shared_ptr<SessionRec>& rec,
               std::optional<Frame> frame);
  void close_conn(int fd);
  void drain_outboxes();
  void wake_io();
  void process_item(Shard& shard, WorkItem& item);
  /// Fold the session's cumulative into the shard aggregate; false when
  /// the session was refused instead.
  bool fold_session(Shard& shard, SessionRec& rec);
  void retire_session(Shard& shard, const std::shared_ptr<SessionRec>& rec,
                      bool clean);
  void maybe_evict(Shard& shard);
  [[nodiscard]] std::size_t shard_live_bytes(const Shard& shard) const;
  [[nodiscard]] std::string render_stats_json() const;

  DaemonOptions options_;
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::atomic<bool> stop_{false};
  std::thread io_thread_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unordered_map<int, Conn> conns_;  ///< IO-thread-owned, by fd
  std::atomic<std::uint64_t> next_session_id_{1};

  std::atomic<std::uint64_t> sessions_opened_{0};
  std::atomic<std::uint64_t> frames_received_{0};
  std::atomic<std::uint64_t> frames_rejected_{0};
  std::atomic<std::uint64_t> bytes_received_{0};
  std::atomic<std::uint64_t> reports_served_{0};
  std::atomic<std::uint64_t> queue_stalls_{0};
};

}  // namespace taskprof::ingest
