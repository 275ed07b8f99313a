// Ingestion wire protocol: frame codec round-trips, the incremental
// FrameReader (arbitrary chunking, typed rejection of corrupt headers),
// and the Session state machine's error policy — framing errors close
// the session, semantic errors keep it open, duplicate deltas are
// re-acked idempotently.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "ingest/delta.hpp"
#include "ingest/protocol.hpp"
#include "ingest/session.hpp"
#include "snapshot/snapshot.hpp"

namespace taskprof::ingest {
namespace {

using snapshot::Errc;
using snapshot::SnapshotError;
using Bytes = std::vector<std::uint8_t>;

Bytes concat(std::initializer_list<Bytes> parts) {
  Bytes out;
  for (const Bytes& part : parts) {
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

/// Parse every frame out of a reply byte stream.
std::vector<Frame> parse_all(const Bytes& bytes) {
  FrameReader reader("test");
  reader.feed(bytes);
  std::vector<Frame> frames;
  while (auto frame = reader.next()) frames.push_back(std::move(*frame));
  return frames;
}

/// Minimal one-node snapshot whose visit count is `visits`.
snapshot::SnapshotData tiny_snapshot(std::uint64_t visits) {
  snapshot::SnapshotData data;
  data.registry = std::make_unique<RegionRegistry>();
  const RegionHandle implicit = data.registry->register_region(
      "implicit task", RegionType::kImplicitTask);
  data.profile.thread_count = 1;
  data.profile.max_concurrent_per_thread = {1};
  data.profile.max_concurrent_any_thread = 1;
  data.profile.implicit_root =
      data.profile.pool.allocate(implicit, kNoParameter, false, nullptr);
  data.profile.implicit_root->visits = visits;
  data.profile.implicit_root->inclusive = static_cast<Ticks>(visits * 10);
  for (std::uint64_t i = 0; i < visits; ++i) {
    data.profile.implicit_root->visit_stats.add(10);
  }
  data.meta.flush_seq = 1;
  data.meta.process_id = 7;
  return data;
}

TEST(IngestProtocol, AllPayloadsRoundTrip) {
  {
    HelloFrame in{kProtocolVersion, 42, "producer-a"};
    const auto out = decode_hello(parse_all(encode_hello(in))[0], "t");
    EXPECT_EQ(out.protocol_version, in.protocol_version);
    EXPECT_EQ(out.process_id, 42u);
    EXPECT_EQ(out.producer_name, "producer-a");
  }
  {
    HelloAckFrame in{9, 3};
    const auto out = decode_hello_ack(parse_all(encode_hello_ack(in))[0], "t");
    EXPECT_EQ(out.session_id, 9u);
    EXPECT_EQ(out.last_acked_seq, 3u);
  }
  {
    DeltaFrame in;
    in.seq = 5;
    in.base_seq = 4;
    in.rebase = false;
    in.snapshot = snapshot::encode_snapshot(tiny_snapshot(3));
    const auto out = decode_delta(parse_all(encode_delta(in))[0], "t");
    EXPECT_EQ(out.seq, 5u);
    EXPECT_EQ(out.base_seq, 4u);
    EXPECT_FALSE(out.rebase);
    EXPECT_EQ(out.snapshot, in.snapshot);
  }
  {
    const auto out =
        decode_delta_ack(parse_all(encode_delta_ack({17}))[0], "t");
    EXPECT_EQ(out.seq, 17u);
  }
  {
    const auto out =
        decode_heartbeat(parse_all(encode_heartbeat({0xbeef}))[0], "t");
    EXPECT_EQ(out.nonce, 0xbeefu);
  }
  {
    EXPECT_EQ(decode_bye(parse_all(encode_bye({8}))[0], "t").final_seq, 8u);
    EXPECT_EQ(decode_bye_ack(parse_all(encode_bye_ack({8}))[0], "t").final_seq,
              8u);
  }
  {
    ErrorFrame in{Errc::kBadSeq, "gap"};
    const auto out = decode_error(parse_all(encode_error(in))[0], "t");
    EXPECT_EQ(out.code, Errc::kBadSeq);
    EXPECT_EQ(out.detail, "gap");
  }
  {
    const auto out = decode_report_request(
        parse_all(encode_report_request({ReportKind::kJson}))[0], "t");
    EXPECT_EQ(out.kind, ReportKind::kJson);
    ReportReplyFrame reply{ReportKind::kJson, {1, 2, 3}};
    const auto out2 =
        decode_report_reply(parse_all(encode_report_reply(reply))[0], "t");
    EXPECT_EQ(out2.kind, ReportKind::kJson);
    EXPECT_EQ(out2.body, (Bytes{1, 2, 3}));
  }
}

TEST(IngestProtocol, HelloEncoderRefusesAProducerNameOverTheLimit) {
  HelloFrame at_limit{kProtocolVersion, 1, std::string(kMaxProducerName, 'p')};
  EXPECT_EQ(decode_hello(parse_all(encode_hello(at_limit))[0], "t")
                .producer_name.size(),
            kMaxProducerName);
  HelloFrame over{kProtocolVersion, 1, std::string(300, 'p')};
  try {
    (void)encode_hello(over);
    FAIL() << "wrote a hello its reader rejects";
  } catch (const SnapshotError& error) {
    EXPECT_EQ(error.code(), Errc::kLimit);
  }
}

TEST(IngestProtocol, FrameEncoderRefusesAPayloadOverTheLimit) {
  const Bytes payload(kMaxFramePayload + 1, 0);
  try {
    (void)encode_frame(FrameType::kReportReply, payload);
    FAIL() << "wrote a frame every FrameReader rejects";
  } catch (const SnapshotError& error) {
    EXPECT_EQ(error.code(), Errc::kLimit);
  }
}

TEST(IngestProtocol, PayloadErrorsNameTheirOriginOnce) {
  // A hello whose name is over the limit, built past the encoder.
  snapshot::Encoder payload;
  payload.varint(kProtocolVersion);
  payload.varint(1);
  payload.str(std::string(300, 'p'));
  const Frame frame = parse_all(encode_frame(FrameType::kHello,
                                             payload.buffer()))[0];
  try {
    (void)decode_hello(frame, "probe");
    FAIL() << "over-long producer name accepted";
  } catch (const SnapshotError& error) {
    EXPECT_EQ(error.code(), Errc::kLimit);
    EXPECT_STREQ(error.what(),
                 "probe: limit: string length exceeds limit (at byte 4)");
  }
}

TEST(IngestProtocol, ReaderHandlesArbitraryChunking) {
  const Bytes stream = concat({encode_heartbeat({1}), encode_heartbeat({2}),
                               encode_bye({3})});
  // Byte-at-a-time is the worst case a nonblocking socket can produce.
  FrameReader reader("t");
  std::vector<Frame> frames;
  for (const std::uint8_t byte : stream) {
    reader.feed({&byte, 1});
    while (auto frame = reader.next()) frames.push_back(std::move(*frame));
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(decode_heartbeat(frames[0], "t").nonce, 1u);
  EXPECT_EQ(decode_heartbeat(frames[1], "t").nonce, 2u);
  EXPECT_EQ(decode_bye(frames[2], "t").final_seq, 3u);
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(IngestProtocol, TruncatedFrameStaysPending) {
  const Bytes frame = encode_heartbeat({1});
  FrameReader reader("t");
  reader.feed({frame.data(), frame.size() - 1});
  EXPECT_FALSE(reader.next().has_value());
  reader.feed({frame.data() + frame.size() - 1, 1});
  EXPECT_TRUE(reader.next().has_value());
}

TEST(IngestProtocol, CorruptHeadersThrowTyped) {
  {
    Bytes bad = encode_heartbeat({1});
    bad[0] = 'X';
    FrameReader reader("t");
    reader.feed(bad);
    try {
      (void)reader.next();
      FAIL() << "bad magic accepted";
    } catch (const SnapshotError& error) {
      EXPECT_EQ(error.code(), Errc::kBadMagic);
    }
  }
  {
    Bytes bad = encode_heartbeat({1});
    bad[4] = 0xee;  // unknown type byte
    FrameReader reader("t");
    reader.feed(bad);
    try {
      (void)reader.next();
      FAIL() << "bad type accepted";
    } catch (const SnapshotError& error) {
      EXPECT_EQ(error.code(), Errc::kBadType);
    }
  }
  {
    Bytes bad = encode_heartbeat({1});
    bad[5] = 0xff;  // size low byte: declared payload explodes
    bad[6] = 0xff;
    bad[7] = 0xff;
    bad[8] = 0x7f;
    FrameReader reader("t", /*max_payload=*/1024);
    reader.feed(bad);
    try {
      (void)reader.next();
      FAIL() << "oversized payload accepted";
    } catch (const SnapshotError& error) {
      EXPECT_EQ(error.code(), Errc::kLimit);
    }
  }
  {
    Bytes bad = encode_heartbeat({1});
    bad.back() ^= 0x01;  // payload bit flip
    FrameReader reader("t");
    reader.feed(bad);
    try {
      (void)reader.next();
      FAIL() << "bad CRC accepted";
    } catch (const SnapshotError& error) {
      EXPECT_EQ(error.code(), Errc::kBadCrc);
    }
  }
}

TEST(IngestProtocol, DeltaGrammarIsValidated) {
  DeltaFrame zero_seq;
  zero_seq.seq = 0;
  zero_seq.snapshot = {1};
  try {
    (void)decode_delta(parse_all(encode_delta(zero_seq))[0], "t");
    FAIL() << "seq 0 accepted";
  } catch (const SnapshotError& error) {
    EXPECT_EQ(error.code(), Errc::kBadSeq);
  }
  DeltaFrame bad_rebase;
  bad_rebase.seq = 2;
  bad_rebase.base_seq = 1;
  bad_rebase.rebase = true;  // rebase must carry base_seq 0
  bad_rebase.snapshot = {1};
  try {
    (void)decode_delta(parse_all(encode_delta(bad_rebase))[0], "t");
    FAIL() << "rebase with base accepted";
  } catch (const SnapshotError& error) {
    EXPECT_EQ(error.code(), Errc::kBadSeq);
  }
}

// --- Session state machine --------------------------------------------------

Bytes delta_bytes(std::uint64_t seq, std::uint64_t base_seq, bool rebase,
                  const snapshot::SnapshotData& snap) {
  DeltaFrame frame;
  frame.seq = seq;
  frame.base_seq = base_seq;
  frame.rebase = rebase;
  frame.snapshot = snapshot::encode_snapshot(snap);
  return encode_delta(frame);
}

TEST(IngestSession, HandshakeStreamAndBye) {
  Session session(11, "t");
  session.consume(encode_hello({kProtocolVersion, 99, "p"}));
  ASSERT_EQ(session.state(), SessionState::kStreaming);
  {
    const auto replies = parse_all(session.take_output());
    ASSERT_EQ(replies.size(), 1u);
    const auto ack = decode_hello_ack(replies[0], "t");
    EXPECT_EQ(ack.session_id, 11u);
    EXPECT_EQ(ack.last_acked_seq, 0u);
  }
  session.consume(delta_bytes(1, 0, true, tiny_snapshot(2)));
  session.consume(delta_bytes(2, 1, false, tiny_snapshot(3)));
  {
    const auto replies = parse_all(session.take_output());
    ASSERT_EQ(replies.size(), 2u);
    EXPECT_EQ(decode_delta_ack(replies[0], "t").seq, 1u);
    EXPECT_EQ(decode_delta_ack(replies[1], "t").seq, 2u);
  }
  ASSERT_NE(session.cumulative(), nullptr);
  // Rebase established visits=2; the follow-up delta added 3 more.
  EXPECT_EQ(session.cumulative()->profile.implicit_root->visits, 5u);
  session.consume(encode_bye({2}));
  EXPECT_TRUE(session.bye_received());
  EXPECT_EQ(session.state(), SessionState::kClosed);
  const auto replies = parse_all(session.take_output());
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(decode_bye_ack(replies[0], "t").final_seq, 2u);
}

TEST(IngestSession, DuplicateDeltaIsReackedNotMerged) {
  Session session(1, "t");
  session.consume(encode_hello({kProtocolVersion, 1, "p"}));
  const Bytes delta = delta_bytes(1, 0, true, tiny_snapshot(4));
  session.consume(delta);
  session.consume(delta);  // reconnect replay of an already-acked delta
  (void)session.take_output();
  EXPECT_EQ(session.counters().deltas_applied, 1u);
  EXPECT_EQ(session.counters().deltas_duplicate, 1u);
  EXPECT_EQ(session.cumulative()->profile.implicit_root->visits, 4u);
}

TEST(IngestSession, SemanticErrorsKeepTheSessionOpen) {
  Session session(1, "t");
  session.consume(encode_hello({kProtocolVersion, 1, "p"}));
  (void)session.take_output();
  // Sequence gap: rejected with kBadSeq, session still streaming.
  session.consume(delta_bytes(5, 4, false, tiny_snapshot(1)));
  {
    const auto replies = parse_all(session.take_output());
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(decode_error(replies[0], "t").code, Errc::kBadSeq);
  }
  EXPECT_EQ(session.state(), SessionState::kStreaming);
  // Recovery: the producer rebases and the stream continues.
  session.consume(delta_bytes(1, 0, true, tiny_snapshot(2)));
  const auto replies = parse_all(session.take_output());
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(decode_delta_ack(replies[0], "t").seq, 1u);
}

TEST(IngestSession, FramingErrorsCloseTheSession) {
  Session session(1, "t");
  session.consume(encode_hello({kProtocolVersion, 1, "p"}));
  (void)session.take_output();
  Bytes garbage = encode_heartbeat({1});
  garbage[0] = 'Z';
  session.consume(garbage);
  const auto replies = parse_all(session.take_output());
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].type, FrameType::kError);
  EXPECT_EQ(decode_error(replies[0], "t").code, Errc::kBadMagic);
  EXPECT_EQ(session.state(), SessionState::kClosed);
}

TEST(IngestSession, WrongStateAndVersionAreTyped) {
  {
    Session session(1, "t");
    session.consume(delta_bytes(1, 0, true, tiny_snapshot(1)));
    const auto replies = parse_all(session.take_output());
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(decode_error(replies[0], "t").code, Errc::kBadState);
    EXPECT_EQ(session.state(), SessionState::kAwaitHello);
  }
  {
    Session session(1, "t");
    session.consume(encode_hello({kProtocolVersion + 1, 1, "p"}));
    const auto replies = parse_all(session.take_output());
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(decode_error(replies[0], "t").code, Errc::kBadVersion);
  }
  {
    Session session(1, "t");
    session.consume(encode_hello({kProtocolVersion, 1, "p"}));
    session.consume(encode_hello({kProtocolVersion, 1, "p"}));
    const auto replies = parse_all(session.take_output());
    ASSERT_EQ(replies.size(), 2u);
    EXPECT_EQ(decode_error(replies[1], "t").code, Errc::kBadState);
  }
}

TEST(IngestSession, MalformedSnapshotPayloadIsRejectedNotFatal) {
  Session session(1, "t");
  session.consume(encode_hello({kProtocolVersion, 1, "p"}));
  (void)session.take_output();
  DeltaFrame frame;
  frame.seq = 1;
  frame.rebase = true;
  frame.snapshot = {0xde, 0xad, 0xbe, 0xef};  // not a .tpsnap
  session.consume(encode_delta(frame));
  const auto replies = parse_all(session.take_output());
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(decode_error(replies[0], "t").code, Errc::kMalformed);
  EXPECT_EQ(session.state(), SessionState::kStreaming);
  EXPECT_EQ(session.counters().deltas_rejected, 1u);
  EXPECT_EQ(session.last_seq(), 0u);  // nothing was acked
}

}  // namespace
}  // namespace taskprof::ingest
