// Wire protocol for continuous profile ingestion (taskprofd).
//
// Producers stream *delta* snapshots to the aggregation daemon over a
// Unix-domain socket.  The transport is a sequence of length-prefixed,
// CRC-guarded frames; a Delta frame's payload wraps a complete,
// versioned `.tpsnap` byte string (src/snapshot), so the snapshot
// format itself is unchanged — delta-ness lives entirely in the frame
// envelope (sequence numbers, base sequence, rebase flag):
//
//   magic[4] "TPIF"
//   u8       frame type
//   u32      payload size (little-endian, <= kMaxFramePayload)
//   u32      CRC-32 of the payload
//   payload
//
// A session is: Hello -> HelloAck, then any number of Delta -> DeltaAck
// (strictly increasing seq, each delta's base_seq naming the seq it was
// computed against) interleaved with Heartbeat echoes, ended by
// Bye -> ByeAck.  A producer that reconnects after losing its ack state
// sends a rebase delta (rebase=1, base_seq=0) carrying its full
// cumulative profile.  Report/export queries reuse the same transport:
// ReportRequest -> ReportReply on a connection that never said Hello.
//
// All failures are typed with the container codec's error
// (snapshot::SnapshotError carrying a snapshot::Errc, snapshot/format.hpp):
// the daemon never crashes on hostile bytes, it answers with an Error
// frame whose code byte is the Errc value — the ingest fuzzer drives
// exactly this contract.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "snapshot/format.hpp"

namespace taskprof::ingest {

inline constexpr std::size_t kFrameMagicSize = 4;
inline constexpr char kFrameMagic[kFrameMagicSize] = {'T', 'P', 'I', 'F'};
inline constexpr std::size_t kFrameHeaderSize = kFrameMagicSize + 1 + 4 + 4;
inline constexpr std::uint32_t kProtocolVersion = 1;

/// Upper bound on one frame's payload: generous for real snapshots,
/// tight enough that a hostile size field cannot drive allocation.
inline constexpr std::size_t kMaxFramePayload = 64u << 20;

inline constexpr std::size_t kMaxProducerName = 256;
inline constexpr std::size_t kMaxErrorDetail = 1024;

enum class FrameType : std::uint8_t {
  kHello = 1,          ///< producer -> daemon: open a session
  kHelloAck = 2,       ///< daemon -> producer: session id assigned
  kDelta = 3,          ///< producer -> daemon: one delta snapshot
  kDeltaAck = 4,       ///< daemon -> producer: delta seq durably merged
  kHeartbeat = 5,      ///< either direction: liveness echo
  kBye = 6,            ///< producer -> daemon: clean end of stream
  kByeAck = 7,         ///< daemon -> producer: contribution folded
  kError = 8,          ///< daemon -> producer: typed rejection
  kReportRequest = 9,  ///< query client -> daemon
  kReportReply = 10,   ///< daemon -> query client
};

/// True when `value` names a known frame type.
[[nodiscard]] bool frame_type_valid(std::uint8_t value) noexcept;

/// True when `value` is an Errc an Error frame can carry (kIo through
/// kBadVersion); the container-only classes have no wire byte.
[[nodiscard]] bool errc_valid(std::uint8_t value) noexcept;

/// One parsed frame: type plus its CRC-verified payload bytes.
struct Frame {
  FrameType type = FrameType::kError;
  std::vector<std::uint8_t> payload;
};

/// Wrap a payload in a frame header (magic, type, size, CRC).  Throws
/// snapshot::SnapshotError (kLimit) for a payload over kMaxFramePayload,
/// which every FrameReader would reject.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(
    FrameType type, std::span<const std::uint8_t> payload);

/// Incremental frame parser over a byte stream (nonblocking reads feed
/// it arbitrary chunks).  next() yields complete frames; it throws
/// snapshot::SnapshotError the moment the buffered prefix cannot be a
/// valid frame (bad magic, unknown type, oversized payload, CRC
/// mismatch), because a byte stream with a corrupt header can never
/// resynchronize.
class FrameReader {
 public:
  explicit FrameReader(std::string origin,
                       std::size_t max_payload = kMaxFramePayload);

  void feed(std::span<const std::uint8_t> bytes);

  /// The next complete frame, or nullopt when more bytes are needed.
  [[nodiscard]] std::optional<Frame> next();

  [[nodiscard]] std::size_t buffered() const noexcept {
    return buffer_.size() - offset_;
  }
  [[nodiscard]] const std::string& origin() const noexcept { return origin_; }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t offset_ = 0;
  std::string origin_;
  std::size_t max_payload_;
};

// --- Frame payloads ---------------------------------------------------------

struct HelloFrame {
  std::uint32_t protocol_version = kProtocolVersion;
  std::uint64_t process_id = 0;
  std::string producer_name;  ///< free-form label, <= kMaxProducerName
                              ///< (encode_hello refuses longer: kLimit)
};

struct HelloAckFrame {
  std::uint64_t session_id = 0;
  std::uint64_t last_acked_seq = 0;  ///< 0 for a fresh session
};

struct DeltaFrame {
  std::uint64_t seq = 0;       ///< strictly increasing per session, from 1
  std::uint64_t base_seq = 0;  ///< seq this delta was subtracted against
  bool rebase = false;         ///< full cumulative snapshot, base_seq == 0
  std::vector<std::uint8_t> snapshot;  ///< complete .tpsnap bytes
};

struct DeltaAckFrame {
  std::uint64_t seq = 0;
};

struct HeartbeatFrame {
  std::uint64_t nonce = 0;
};

struct ByeFrame {
  std::uint64_t final_seq = 0;
};

struct ByeAckFrame {
  std::uint64_t final_seq = 0;
};

struct ErrorFrame {
  snapshot::Errc code = snapshot::Errc::kMalformed;  ///< a wire class
  std::string detail;  ///< <= kMaxErrorDetail
};

enum class ReportKind : std::uint8_t {
  kText = 1,      ///< rendered text profile (render_profile)
  kJson = 2,      ///< analysis JSON (render_report_json)
  kSnapshot = 3,  ///< aggregate .tpsnap bytes
  kStats = 4,     ///< daemon ingestion-stats JSON
};

struct ReportRequestFrame {
  ReportKind kind = ReportKind::kText;
};

struct ReportReplyFrame {
  ReportKind kind = ReportKind::kText;
  std::vector<std::uint8_t> body;
};

[[nodiscard]] std::vector<std::uint8_t> encode_hello(const HelloFrame& f);
[[nodiscard]] std::vector<std::uint8_t> encode_hello_ack(const HelloAckFrame& f);
[[nodiscard]] std::vector<std::uint8_t> encode_delta(const DeltaFrame& f);
[[nodiscard]] std::vector<std::uint8_t> encode_delta_ack(const DeltaAckFrame& f);
[[nodiscard]] std::vector<std::uint8_t> encode_heartbeat(const HeartbeatFrame& f);
[[nodiscard]] std::vector<std::uint8_t> encode_bye(const ByeFrame& f);
[[nodiscard]] std::vector<std::uint8_t> encode_bye_ack(const ByeAckFrame& f);
[[nodiscard]] std::vector<std::uint8_t> encode_error(const ErrorFrame& f);
[[nodiscard]] std::vector<std::uint8_t> encode_report_request(
    const ReportRequestFrame& f);
[[nodiscard]] std::vector<std::uint8_t> encode_report_reply(
    const ReportReplyFrame& f);

// Decoders validate the frame's type tag and parse its payload; any
// grammar violation throws snapshot::SnapshotError (kBadType for another
// frame's type, kMalformed, kLimit, or the frame's own protocol class).
[[nodiscard]] HelloFrame decode_hello(const Frame& frame,
                                      const std::string& origin);
[[nodiscard]] HelloAckFrame decode_hello_ack(const Frame& frame,
                                             const std::string& origin);
[[nodiscard]] DeltaFrame decode_delta(const Frame& frame,
                                      const std::string& origin);
[[nodiscard]] DeltaAckFrame decode_delta_ack(const Frame& frame,
                                             const std::string& origin);
[[nodiscard]] HeartbeatFrame decode_heartbeat(const Frame& frame,
                                              const std::string& origin);
[[nodiscard]] ByeFrame decode_bye(const Frame& frame,
                                  const std::string& origin);
[[nodiscard]] ByeAckFrame decode_bye_ack(const Frame& frame,
                                         const std::string& origin);
[[nodiscard]] ErrorFrame decode_error(const Frame& frame,
                                      const std::string& origin);
[[nodiscard]] ReportRequestFrame decode_report_request(
    const Frame& frame, const std::string& origin);
[[nodiscard]] ReportReplyFrame decode_report_reply(const Frame& frame,
                                                   const std::string& origin);

}  // namespace taskprof::ingest
