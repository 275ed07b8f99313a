// One producer session: protocol state machine + cumulative profile.
//
// A Session owns everything about one producer: the framing parser, the
// hello/delta/bye state machine, the reconstructed cumulative
// SnapshotData, the per-node heat map the shard's LRU eviction reads,
// and the per-session counters.  It is deliberately transport-free —
// consume() eats raw bytes and take_output() yields the reply bytes —
// so the protocol fuzzer and the unit tests drive the exact code the
// daemon runs, minus the sockets.
//
// Error policy (the fuzzer's contract): a framing violation (bad magic,
// bad CRC, unknown type, oversized payload) poisons the byte stream, so
// the session answers with one typed Error frame and closes; a
// *semantic* violation (sequence gap, stale base, malformed snapshot
// payload) answers with a typed Error frame but keeps the session open
// — the producer recovers by rebasing.  Errors of the framing and of the
// frame payloads go on the wire with their own class; an error in a
// delta's embedded .tpsnap, in applying it, or in folding the session
// goes as kLimit when it is a limit and as kMalformed otherwise (see
// refuse()).  Duplicate deltas (reconnect replay) are re-acked
// idempotently, never merged twice.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ingest/delta.hpp"
#include "ingest/protocol.hpp"
#include "snapshot/snapshot.hpp"

namespace taskprof::ingest {

enum class SessionState : std::uint8_t {
  kAwaitHello,  ///< connection open, no Hello yet
  kStreaming,   ///< Hello acked, deltas welcome
  kClosed,      ///< Bye processed or a fatal framing error
};

struct SessionCounters {
  std::uint64_t frames = 0;
  std::uint64_t bytes_consumed = 0;
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
};

class Session {
 public:
  Session(std::uint64_t id, std::string origin);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Parse and handle a chunk of transport bytes.  Never throws: every
  /// failure becomes an Error frame in the output buffer (and, for
  /// framing errors, a closed session).
  void consume(std::span<const std::uint8_t> bytes) noexcept;

  /// State machine on one already-parsed frame (the daemon's IO loop
  /// parses frames itself so it can route them).  Never throws.
  void handle_frame(const Frame& frame) noexcept;

  /// Drain the pending reply bytes (acks / errors / heartbeat echoes).
  [[nodiscard]] std::vector<std::uint8_t> take_output();
  [[nodiscard]] bool has_output() const noexcept { return !output_.empty(); }

  [[nodiscard]] SessionState state() const noexcept { return state_; }
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  [[nodiscard]] std::uint64_t last_seq() const noexcept { return last_seq_; }
  [[nodiscard]] bool bye_received() const noexcept { return bye_received_; }
  [[nodiscard]] std::uint64_t process_id() const noexcept { return process_id_; }
  [[nodiscard]] const std::string& producer_name() const noexcept {
    return producer_name_;
  }
  [[nodiscard]] const SessionCounters& counters() const noexcept {
    return counters_;
  }

  /// The reconstructed cumulative profile; nullptr until the first
  /// delta was applied.
  [[nodiscard]] const snapshot::SnapshotData* cumulative() const noexcept {
    return has_data_ ? &cumulative_ : nullptr;
  }

  /// Move the cumulative out (folding a finished session into the
  /// shard aggregate).  The session keeps running but starts empty.
  [[nodiscard]] snapshot::SnapshotData release_cumulative();

  /// A delta's snapshot could not be decoded or applied, or the daemon
  /// could not fold the released cumulative (`error` from
  /// snapshot::merge_snapshot_into; `fatal`: close the session).  The
  /// Error frame says kLimit for a limit and kMalformed for anything else:
  /// the container-only classes have no wire byte.
  void refuse(const snapshot::SnapshotError& error, bool fatal);

  /// Shard epoch stamped onto every node the next delta touches (the
  /// merge scheduler bumps it per applied delta).
  void set_apply_epoch(std::uint64_t epoch) noexcept { apply_epoch_ = epoch; }
  [[nodiscard]] std::uint64_t last_touch_epoch() const noexcept {
    return last_touch_epoch_;
  }

  /// Bytes held live by this session's call-tree nodes (the shard's
  /// memory-budget accounting).
  [[nodiscard]] std::size_t live_node_bytes() const noexcept;

  struct EvictResult {
    std::uint64_t subtrees = 0;
    std::uint64_t nodes = 0;
    std::uint64_t visits = 0;
  };

  /// Fold every maximal subtree whose nodes were all last touched
  /// before `cutoff_epoch` into an "[evicted]" stub child of its
  /// parent, preserving the subtree's visit mass, root-inclusive time,
  /// and per-visit statistics exactly (the eviction-mode differential
  /// test asserts the conservation).  Tree roots are never evicted.
  EvictResult evict_cold(std::uint64_t cutoff_epoch);

 private:
  void on_hello(const Frame& frame);
  void on_delta(const Frame& frame);
  void on_heartbeat(const Frame& frame);
  void on_bye(const Frame& frame);
  void send(std::vector<std::uint8_t> frame_bytes);
  void send_error(snapshot::Errc code, const std::string& detail,
                  bool fatal);
  EvictResult evict_cold_tree(CallNode* root, std::uint64_t cutoff_epoch);

  std::uint64_t id_;
  std::string origin_;
  SessionState state_ = SessionState::kAwaitHello;
  std::uint64_t process_id_ = 0;
  std::string producer_name_;
  std::uint64_t last_seq_ = 0;
  bool bye_received_ = false;
  bool has_data_ = false;
  snapshot::SnapshotData cumulative_;
  FrameReader reader_;
  std::vector<std::uint8_t> output_;
  SessionCounters counters_;
  HeatMap heat_;
  std::uint64_t apply_epoch_ = 0;
  std::uint64_t last_touch_epoch_ = 0;
  RegionHandle evicted_region_ = kInvalidRegion;
};

}  // namespace taskprof::ingest
