// Producer-side ingestion client: connect, hello, stream deltas.
//
// The client owns the acked-baseline snapshot the next delta is
// subtracted against.  Every failure mode funnels into one recovery
// path — reconnect as a fresh session and send a rebase delta (the full
// cumulative) — which makes the producer stateless-safe: a lost ack, a
// daemon restart, a sequence dispute, or a non-monotone capture all
// resolve the same way, and the daemon's replace-semantics for rebase
// keeps totals exact.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ingest/protocol.hpp"
#include "snapshot/flusher.hpp"
#include "snapshot/snapshot.hpp"

namespace taskprof::ingest {

struct ClientOptions {
  std::string socket_path;
  std::uint64_t process_id = 0;
  std::string producer_name;
  int connect_retries = 20;   ///< attempts before connect() throws
  int retry_delay_ms = 50;    ///< sleep between connect attempts
};

/// What one snapshot send did (for telemetry / tests).
struct SendResult {
  std::uint64_t seq = 0;
  bool rebased = false;         ///< full snapshot, not a difference
  bool reconnected = false;     ///< transport was re-established
  std::uint64_t changed_nodes = 0;
  std::uint64_t carried_nodes = 0;
  std::size_t wire_bytes = 0;   ///< encoded snapshot payload size
};

class IngestClient {
 public:
  explicit IngestClient(ClientOptions options);
  ~IngestClient();

  IngestClient(const IngestClient&) = delete;
  IngestClient& operator=(const IngestClient&) = delete;

  /// Connect (with retries) and complete the Hello handshake.  Throws
  /// snapshot::SnapshotError(kIo) when the daemon stays unreachable.
  void connect();
  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }

  /// Ship `cur` (the producer's current *cumulative* snapshot) as a
  /// delta against the acked baseline, blocking for the ack.  Any
  /// failure — transport error, timeout, sequence dispute, or a
  /// non-monotone capture — reconnects and rebases.  Throws
  /// snapshot::SnapshotError only when even the rebase path fails.
  SendResult send_snapshot(const snapshot::SnapshotData& cur);

  /// Round-trip a Heartbeat echo; false when the transport failed (the
  /// next send_snapshot will reconnect).
  bool heartbeat() noexcept;

  /// Optional final snapshot, then Bye -> ByeAck, then close.  Best
  /// effort: transport failures are swallowed (the daemon retires the
  /// session as dirty on disconnect anyway).
  void finish(const snapshot::SnapshotData* final_snapshot) noexcept;

  void close() noexcept;

  [[nodiscard]] std::uint64_t session_id() const noexcept { return session_id_; }
  [[nodiscard]] std::uint64_t last_acked_seq() const noexcept {
    return last_acked_seq_;
  }
  /// Lifetime totals (across reconnects; close() does not reset them).
  [[nodiscard]] std::uint64_t total_sends() const noexcept {
    return total_sends_;
  }
  [[nodiscard]] std::uint64_t total_rebases() const noexcept {
    return total_rebases_;
  }

 private:
  void connect_once();
  void send_all(std::span<const std::uint8_t> bytes);
  [[nodiscard]] Frame read_frame();
  SendResult send_rebase(const snapshot::SnapshotData& cur, bool reconnected);

  ClientOptions options_;
  int fd_ = -1;
  std::unique_ptr<FrameReader> reader_;
  std::uint64_t session_id_ = 0;
  std::uint64_t last_acked_seq_ = 0;
  std::uint64_t heartbeat_nonce_ = 0;
  std::uint64_t total_sends_ = 0;
  std::uint64_t total_rebases_ = 0;
  bool have_baseline_ = false;
  snapshot::SnapshotData baseline_;  ///< cumulative at the last acked seq
};

/// One-shot query: connect, ReportRequest, return the ReportReply body.
/// Throws snapshot::SnapshotError on transport failure or a typed daemon
/// rejection.
[[nodiscard]] std::vector<std::uint8_t> query_report(
    const std::string& socket_path, ReportKind kind, int timeout_ms = 10000);

/// SnapshotFlusher sink that streams every capture to taskprofd as a
/// delta (taskprof_cli --ingest=SOCKET).  ship(final=true) also sends
/// Bye, closing the session cleanly so the daemon folds it.
class IngestFlushSink final : public snapshot::FlushSink {
 public:
  explicit IngestFlushSink(ClientOptions options) : client_(std::move(options)) {}

  bool ship(const AggregateProfile& profile, const RegionRegistry& registry,
            const snapshot::SnapshotMeta& meta,
            const telemetry::Snapshot* telemetry, bool final) noexcept override;
  bool heartbeat() noexcept override { return client_.heartbeat(); }

  [[nodiscard]] IngestClient& client() noexcept { return client_; }

 private:
  IngestClient client_;
};

}  // namespace taskprof::ingest
