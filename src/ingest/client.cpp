#include "ingest/client.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "ingest/delta.hpp"

namespace taskprof::ingest {

using snapshot::Errc;
using snapshot::SnapshotData;
using snapshot::SnapshotError;

namespace {

/// Poll timeout awaiting any reply frame; past it the connection is kIo.
constexpr int kAckTimeoutMs = 5000;

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

IngestClient::IngestClient(ClientOptions options)
    : options_(std::move(options)) {}

IngestClient::~IngestClient() { close(); }

void IngestClient::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  reader_.reset();
  session_id_ = 0;
  last_acked_seq_ = 0;
  have_baseline_ = false;
  baseline_ = SnapshotData{};
}

void IngestClient::connect() {
  close();
  const int attempts = options_.connect_retries < 1 ? 1 : options_.connect_retries;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.retry_delay_ms));
    }
    fd_ = connect_unix(options_.socket_path);
    if (fd_ >= 0) break;
  }
  if (fd_ < 0) {
    throw SnapshotError(Errc::kIo, options_.socket_path,
                        "connect failed after " + std::to_string(attempts) +
                            " attempts");
  }
  reader_ = std::make_unique<FrameReader>(options_.socket_path);
  try {
    connect_once();
  } catch (...) {
    close();
    throw;
  }
}

void IngestClient::connect_once() {
  HelloFrame hello;
  hello.protocol_version = kProtocolVersion;
  hello.process_id = options_.process_id;
  hello.producer_name = options_.producer_name;
  send_all(encode_hello(hello));
  const Frame reply = read_frame();
  if (reply.type == FrameType::kError) {
    const ErrorFrame error = decode_error(reply, options_.socket_path);
    throw SnapshotError(error.code, options_.socket_path,
                        "hello rejected: " + error.detail);
  }
  const HelloAckFrame ack = decode_hello_ack(reply, options_.socket_path);
  session_id_ = ack.session_id;
  last_acked_seq_ = ack.last_acked_seq;
}

void IngestClient::send_all(std::span<const std::uint8_t> bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    // MSG_NOSIGNAL: a daemon that closed this session must become a
    // typed kIo (which the caller recovers from), never a SIGPIPE.
    const ssize_t n =
        ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw SnapshotError(Errc::kIo, options_.socket_path,
                          std::string("write: ") + std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
}

Frame IngestClient::read_frame() {
  for (;;) {
    std::optional<Frame> frame = reader_->next();
    if (frame.has_value()) return std::move(*frame);
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kAckTimeoutMs);
    if (ready <= 0) {
      throw SnapshotError(Errc::kIo, options_.socket_path,
                          ready == 0 ? "timed out awaiting reply"
                                     : std::string("poll: ") +
                                           std::strerror(errno));
    }
    std::uint8_t chunk[16 * 1024];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n <= 0) {
      throw SnapshotError(
          Errc::kIo, options_.socket_path,
          n == 0 ? "daemon closed the connection"
                 : std::string("read: ") + std::strerror(errno));
    }
    reader_->feed({chunk, static_cast<std::size_t>(n)});
  }
}

SendResult IngestClient::send_rebase(const SnapshotData& cur,
                                     bool reconnected) {
  DeltaFrame frame;
  frame.seq = last_acked_seq_ + 1;
  frame.base_seq = 0;
  frame.rebase = true;
  frame.snapshot = snapshot::encode_snapshot(cur);
  send_all(encode_delta(frame));
  const Frame reply = read_frame();
  if (reply.type == FrameType::kError) {
    const ErrorFrame error = decode_error(reply, options_.socket_path);
    throw SnapshotError(error.code, options_.socket_path,
                        "rebase rejected: " + error.detail);
  }
  const DeltaAckFrame ack = decode_delta_ack(reply, options_.socket_path);
  if (ack.seq != frame.seq) {
    throw SnapshotError(Errc::kBadSeq, options_.socket_path,
                        "rebase acked wrong seq");
  }
  last_acked_seq_ = frame.seq;
  baseline_ = clone_snapshot(cur);
  have_baseline_ = true;
  ++total_sends_;
  ++total_rebases_;
  SendResult result;
  result.seq = frame.seq;
  result.rebased = true;
  result.reconnected = reconnected;
  result.wire_bytes = frame.snapshot.size();
  return result;
}

SendResult IngestClient::send_snapshot(const SnapshotData& cur) {
  bool reconnected = false;
  if (!connected()) {
    connect();
    reconnected = true;
  }
  if (!have_baseline_) {
    // First flush of this session (or a fresh session after reconnect):
    // ship the full cumulative.
    try {
      return send_rebase(cur, reconnected);
    } catch (const SnapshotError&) {
      if (reconnected) throw;  // already on the recovery path
      connect();
      return send_rebase(cur, true);
    }
  }

  // Difference-encode against the acked baseline; a non-monotone
  // capture (profilers that refused to quiesce last time) falls back to
  // a rebase, which replaces rather than sums.
  DeltaFrame frame;
  frame.seq = last_acked_seq_ + 1;
  frame.base_seq = last_acked_seq_;
  frame.rebase = false;
  DeltaResult delta;
  try {
    delta = subtract_snapshot(cur, &baseline_);
  } catch (const SnapshotError&) {
    return send_rebase(cur, reconnected);
  }
  frame.snapshot = snapshot::encode_snapshot(delta.snapshot);

  try {
    send_all(encode_delta(frame));
    const Frame reply = read_frame();
    if (reply.type == FrameType::kError) {
      // Sequence dispute or daemon-side rejection: resync by starting a
      // fresh session and rebasing.
      connect();
      return send_rebase(cur, true);
    }
    const DeltaAckFrame ack = decode_delta_ack(reply, options_.socket_path);
    if (ack.seq != frame.seq) {
      connect();
      return send_rebase(cur, true);
    }
  } catch (const SnapshotError& error) {
    if (error.code() != Errc::kIo && error.code() != Errc::kMalformed) throw;
    connect();
    return send_rebase(cur, true);
  }
  last_acked_seq_ = frame.seq;
  baseline_ = clone_snapshot(cur);
  ++total_sends_;
  SendResult result;
  result.seq = frame.seq;
  result.reconnected = reconnected;
  result.changed_nodes = delta.changed_nodes;
  result.carried_nodes = delta.carried_nodes;
  result.wire_bytes = frame.snapshot.size();
  return result;
}

bool IngestClient::heartbeat() noexcept {
  if (!connected()) return false;
  try {
    HeartbeatFrame beat{++heartbeat_nonce_};
    send_all(encode_heartbeat(beat));
    const Frame reply = read_frame();
    const HeartbeatFrame echo = decode_heartbeat(reply, options_.socket_path);
    return echo.nonce == beat.nonce;
  } catch (...) {
    close();
    return false;
  }
}

void IngestClient::finish(const SnapshotData* final_snapshot) noexcept {
  try {
    if (final_snapshot != nullptr) (void)send_snapshot(*final_snapshot);
    if (!connected()) return;
    send_all(encode_bye({last_acked_seq_}));
    const Frame reply = read_frame();
    (void)decode_bye_ack(reply, options_.socket_path);
  } catch (...) {
    // Dirty close: the daemon drops (or keeps, by policy) the session.
  }
  close();
}

bool IngestFlushSink::ship(const AggregateProfile& profile,
                           const RegionRegistry& registry,
                           const snapshot::SnapshotMeta& meta,
                           const telemetry::Snapshot* telemetry,
                           bool final) noexcept {
  try {
    // Round-trip through the codec: send_snapshot wants an owning
    // SnapshotData, and the flusher only lends us views.
    const std::vector<std::uint8_t> bytes =
        snapshot::encode_snapshot(profile, registry, meta, telemetry);
    const SnapshotData cur = snapshot::decode_snapshot(bytes, "flush sink");
    if (final) {
      client_.finish(&cur);
      return true;
    }
    (void)client_.send_snapshot(cur);
    return true;
  } catch (...) {
    return false;
  }
}

std::vector<std::uint8_t> query_report(const std::string& socket_path,
                                       ReportKind kind, int timeout_ms) {
  const int fd = connect_unix(socket_path);
  if (fd < 0) {
    throw SnapshotError(Errc::kIo, socket_path, "connect failed");
  }
  std::vector<std::uint8_t> body;
  try {
    const auto request = encode_report_request({kind});
    std::size_t off = 0;
    while (off < request.size()) {
      const ssize_t n =
          ::send(fd, request.data() + off, request.size() - off, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw SnapshotError(Errc::kIo, socket_path,
                            std::string("write: ") + std::strerror(errno));
      }
      off += static_cast<std::size_t>(n);
    }
    FrameReader reader(socket_path);
    for (;;) {
      std::optional<Frame> frame = reader.next();
      if (frame.has_value()) {
        if (frame->type == FrameType::kError) {
          const ErrorFrame error = decode_error(*frame, socket_path);
          throw SnapshotError(error.code, socket_path,
                              "report rejected: " + error.detail);
        }
        ReportReplyFrame reply = decode_report_reply(*frame, socket_path);
        body = std::move(reply.body);
        break;
      }
      pollfd pfd{fd, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, timeout_ms);
      if (ready <= 0) {
        throw SnapshotError(Errc::kIo, socket_path,
                            "timed out awaiting report");
      }
      std::uint8_t chunk[64 * 1024];
      const ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n <= 0) {
        throw SnapshotError(Errc::kIo, socket_path,
                            "daemon closed the connection");
      }
      reader.feed({chunk, static_cast<std::size_t>(n)});
    }
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  return body;
}

}  // namespace taskprof::ingest
