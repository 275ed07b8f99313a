#include "ingest/protocol.hpp"

#include <cstring>

namespace taskprof::ingest {

using snapshot::Errc;
using snapshot::SnapshotError;

namespace {

/// Check the frame's type, then decode its whole payload with `fn`.  The
/// payload already passed its frame CRC, so an overrun or grammar
/// violation means the sender lied, not the wire (kMalformed).
template <typename Fn>
auto parse_payload(const Frame& frame, FrameType expected,
                   const std::string& origin, Fn&& fn) {
  if (frame.type != expected) {
    throw SnapshotError(Errc::kBadType, origin, "unexpected frame type");
  }
  return snapshot::decode_payload(frame.payload, origin, std::forward<Fn>(fn));
}

std::vector<std::uint8_t> frame_bytes(FrameType type,
                                      const snapshot::Encoder& payload) {
  return encode_frame(type, payload.buffer());
}

ReportKind decode_report_kind(snapshot::Decoder& in,
                              const std::string& origin) {
  const std::uint8_t kind = in.u8();
  if (kind < static_cast<std::uint8_t>(ReportKind::kText) ||
      kind > static_cast<std::uint8_t>(ReportKind::kStats)) {
    throw SnapshotError(Errc::kMalformed, origin, "report kind");
  }
  return static_cast<ReportKind>(kind);
}

/// A varint length that must cover exactly the rest of the payload, then
/// that many bytes (`what` names them in the error).
std::vector<std::uint8_t> decode_tail(snapshot::Decoder& in,
                                      const std::string& origin,
                                      const char* what) {
  const std::uint64_t size = in.varint();
  if (size != in.remaining()) {
    throw SnapshotError(Errc::kMalformed, origin,
                        std::string(what) + " length disagrees with payload");
  }
  const auto bytes = in.bytes(in.remaining());
  return {bytes.begin(), bytes.end()};
}

}  // namespace

bool frame_type_valid(std::uint8_t value) noexcept {
  return value >= static_cast<std::uint8_t>(FrameType::kHello) &&
         value <= static_cast<std::uint8_t>(FrameType::kReportReply);
}

bool errc_valid(std::uint8_t value) noexcept {
  return value >= static_cast<std::uint8_t>(Errc::kIo) &&
         value <= static_cast<std::uint8_t>(Errc::kBadVersion);
}

std::vector<std::uint8_t> encode_frame(FrameType type,
                                       std::span<const std::uint8_t> payload) {
  if (payload.size() > kMaxFramePayload) {
    throw SnapshotError(Errc::kLimit, "frame encoder",
                        "payload size " + std::to_string(payload.size()));
  }
  snapshot::Encoder out;
  out.reserve(kFrameHeaderSize + payload.size());
  out.bytes(kFrameMagic, kFrameMagicSize);
  out.u8(static_cast<std::uint8_t>(type));
  out.u32(static_cast<std::uint32_t>(payload.size()));
  out.u32(snapshot::crc32(payload));
  out.bytes(payload.data(), payload.size());
  return out.take();
}

FrameReader::FrameReader(std::string origin, std::size_t max_payload)
    : origin_(std::move(origin)), max_payload_(max_payload) {}

void FrameReader::feed(std::span<const std::uint8_t> bytes) {
  // Compact lazily: keep the consumed prefix until it dominates the
  // buffer so feeding many small chunks stays amortized O(1).
  if (offset_ > 0 && offset_ >= buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(offset_));
    offset_ = 0;
  }
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

std::optional<Frame> FrameReader::next() {
  const std::size_t avail = buffered();
  if (avail == 0) return std::nullopt;
  const std::uint8_t* head = buffer_.data() + offset_;
  // Validate the header prefix byte-by-byte as it arrives: a corrupt
  // header can never resynchronize, so fail as early as possible.
  const std::size_t magic_have = std::min(avail, kFrameMagicSize);
  if (std::memcmp(head, kFrameMagic, magic_have) != 0) {
    throw SnapshotError(Errc::kBadMagic, origin_, "not an ingest frame");
  }
  if (avail > kFrameMagicSize && !frame_type_valid(head[kFrameMagicSize])) {
    throw SnapshotError(
        Errc::kBadType, origin_,
        "frame type " + std::to_string(int(head[kFrameMagicSize])));
  }
  if (avail < kFrameHeaderSize) return std::nullopt;
  snapshot::Decoder header({head + kFrameMagicSize + 1, 8}, origin_,
                           Errc::kTruncated);
  const std::size_t size = header.u32();
  if (size > max_payload_) {
    throw SnapshotError(Errc::kLimit, origin_,
                        "payload size " + std::to_string(size));
  }
  if (avail < kFrameHeaderSize + size) return std::nullopt;
  const std::uint32_t stored_crc = header.u32();
  const std::span<const std::uint8_t> payload(head + kFrameHeaderSize, size);
  if (snapshot::crc32(payload) != stored_crc) {
    throw SnapshotError(Errc::kBadCrc, origin_, "payload checksum mismatch");
  }
  Frame frame;
  frame.type = static_cast<FrameType>(head[kFrameMagicSize]);
  frame.payload.assign(payload.begin(), payload.end());
  offset_ += kFrameHeaderSize + size;
  return frame;
}

// --- Payload codecs ---------------------------------------------------------

std::vector<std::uint8_t> encode_hello(const HelloFrame& f) {
  if (f.producer_name.size() > kMaxProducerName) {
    throw SnapshotError(Errc::kLimit, "hello encoder",
                        "producer name length exceeds limit");
  }
  snapshot::Encoder out;
  out.varint(f.protocol_version);
  out.varint(f.process_id);
  out.str(f.producer_name);
  return frame_bytes(FrameType::kHello, out);
}

HelloFrame decode_hello(const Frame& frame, const std::string& origin) {
  return parse_payload(frame, FrameType::kHello, origin,
                       [&](snapshot::Decoder& in) {
    HelloFrame f;
    const std::uint64_t version = in.varint();
    if (version == 0 || version > UINT32_MAX) {
      throw SnapshotError(Errc::kBadVersion, origin, "protocol version");
    }
    f.protocol_version = static_cast<std::uint32_t>(version);
    f.process_id = in.varint();
    f.producer_name = in.str(kMaxProducerName);
    return f;
  });
}

std::vector<std::uint8_t> encode_hello_ack(const HelloAckFrame& f) {
  snapshot::Encoder out;
  out.varint(f.session_id);
  out.varint(f.last_acked_seq);
  return frame_bytes(FrameType::kHelloAck, out);
}

HelloAckFrame decode_hello_ack(const Frame& frame, const std::string& origin) {
  return parse_payload(frame, FrameType::kHelloAck, origin,
                       [](snapshot::Decoder& in) {
    HelloAckFrame f;
    f.session_id = in.varint();
    f.last_acked_seq = in.varint();
    return f;
  });
}

std::vector<std::uint8_t> encode_delta(const DeltaFrame& f) {
  snapshot::Encoder out;
  out.varint(f.seq);
  out.varint(f.base_seq);
  out.u8(f.rebase ? 1 : 0);
  out.varint(f.snapshot.size());
  out.bytes(f.snapshot.data(), f.snapshot.size());
  return frame_bytes(FrameType::kDelta, out);
}

DeltaFrame decode_delta(const Frame& frame, const std::string& origin) {
  return parse_payload(frame, FrameType::kDelta, origin,
                       [&](snapshot::Decoder& in) {
    DeltaFrame f;
    f.seq = in.varint();
    f.base_seq = in.varint();
    const std::uint8_t rebase = in.u8();
    if (rebase > 1) {
      throw SnapshotError(Errc::kMalformed, origin, "rebase flag");
    }
    f.rebase = rebase == 1;
    if (f.seq == 0) throw SnapshotError(Errc::kBadSeq, origin, "delta seq 0");
    if (f.rebase && f.base_seq != 0) {
      throw SnapshotError(Errc::kBadSeq, origin, "rebase with nonzero base");
    }
    f.snapshot = decode_tail(in, origin, "snapshot");
    return f;
  });
}

std::vector<std::uint8_t> encode_delta_ack(const DeltaAckFrame& f) {
  snapshot::Encoder out;
  out.varint(f.seq);
  return frame_bytes(FrameType::kDeltaAck, out);
}

DeltaAckFrame decode_delta_ack(const Frame& frame, const std::string& origin) {
  return parse_payload(frame, FrameType::kDeltaAck, origin,
                       [](snapshot::Decoder& in) {
    DeltaAckFrame f;
    f.seq = in.varint();
    return f;
  });
}

std::vector<std::uint8_t> encode_heartbeat(const HeartbeatFrame& f) {
  snapshot::Encoder out;
  out.varint(f.nonce);
  return frame_bytes(FrameType::kHeartbeat, out);
}

HeartbeatFrame decode_heartbeat(const Frame& frame,
                                const std::string& origin) {
  return parse_payload(frame, FrameType::kHeartbeat, origin,
                       [](snapshot::Decoder& in) {
    HeartbeatFrame f;
    f.nonce = in.varint();
    return f;
  });
}

std::vector<std::uint8_t> encode_bye(const ByeFrame& f) {
  snapshot::Encoder out;
  out.varint(f.final_seq);
  return frame_bytes(FrameType::kBye, out);
}

ByeFrame decode_bye(const Frame& frame, const std::string& origin) {
  return parse_payload(frame, FrameType::kBye, origin,
                       [](snapshot::Decoder& in) {
    ByeFrame f;
    f.final_seq = in.varint();
    return f;
  });
}

std::vector<std::uint8_t> encode_bye_ack(const ByeAckFrame& f) {
  snapshot::Encoder out;
  out.varint(f.final_seq);
  return frame_bytes(FrameType::kByeAck, out);
}

ByeAckFrame decode_bye_ack(const Frame& frame, const std::string& origin) {
  return parse_payload(frame, FrameType::kByeAck, origin,
                       [](snapshot::Decoder& in) {
    ByeAckFrame f;
    f.final_seq = in.varint();
    return f;
  });
}

std::vector<std::uint8_t> encode_error(const ErrorFrame& f) {
  snapshot::Encoder out;
  out.u8(static_cast<std::uint8_t>(f.code));
  out.str(f.detail.substr(0, kMaxErrorDetail));
  return frame_bytes(FrameType::kError, out);
}

ErrorFrame decode_error(const Frame& frame, const std::string& origin) {
  return parse_payload(frame, FrameType::kError, origin,
                       [&](snapshot::Decoder& in) {
    ErrorFrame f;
    const std::uint8_t code = in.u8();
    if (!errc_valid(code)) {
      throw SnapshotError(Errc::kMalformed, origin, "error code byte");
    }
    f.code = static_cast<Errc>(code);
    f.detail = in.str(kMaxErrorDetail);
    return f;
  });
}

std::vector<std::uint8_t> encode_report_request(const ReportRequestFrame& f) {
  snapshot::Encoder out;
  out.u8(static_cast<std::uint8_t>(f.kind));
  return frame_bytes(FrameType::kReportRequest, out);
}

ReportRequestFrame decode_report_request(const Frame& frame,
                                         const std::string& origin) {
  return parse_payload(frame, FrameType::kReportRequest, origin,
                       [&](snapshot::Decoder& in) {
    return ReportRequestFrame{decode_report_kind(in, origin)};
  });
}

std::vector<std::uint8_t> encode_report_reply(const ReportReplyFrame& f) {
  snapshot::Encoder out;
  out.u8(static_cast<std::uint8_t>(f.kind));
  out.varint(f.body.size());
  out.bytes(f.body.data(), f.body.size());
  return frame_bytes(FrameType::kReportReply, out);
}

ReportReplyFrame decode_report_reply(const Frame& frame,
                                     const std::string& origin) {
  return parse_payload(frame, FrameType::kReportReply, origin,
                       [&](snapshot::Decoder& in) {
    ReportReplyFrame f;
    f.kind = decode_report_kind(in, origin);
    f.body = decode_tail(in, origin, "body");
    return f;
  });
}

}  // namespace taskprof::ingest
