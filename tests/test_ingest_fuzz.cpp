// Ingestion protocol fuzzing: the daemon-side Session must survive any
// byte stream — truncations, bit flips, duplicated and reordered
// frames, reconnect replays — always answering hostile input with a
// typed Error frame, never crashing, never corrupting its state.
// Replays the committed corpus under tests/corpus/ingest/: "ok_" files
// must produce zero Error frames, "bad_<errc-name>_" files must
// produce at least one Error frame carrying exactly that code.  Set
// TASKPROF_REGEN_INGEST=1 to rewrite the corpus from the generators.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "ingest/client.hpp"
#include "ingest/delta.hpp"
#include "ingest/daemon.hpp"
#include "ingest/protocol.hpp"
#include "ingest/session.hpp"
#include "snapshot/format.hpp"
#include "snapshot/snapshot.hpp"

namespace taskprof::ingest {
namespace {

using Bytes = std::vector<std::uint8_t>;

Bytes concat(std::initializer_list<Bytes> parts) {
  Bytes out;
  for (const Bytes& part : parts) {
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

/// Deterministic producer snapshot (the corpus must be byte-stable).
snapshot::SnapshotData fuzz_snapshot(int stage) {
  snapshot::SnapshotData data;
  data.registry = std::make_unique<RegionRegistry>();
  const RegionHandle implicit = data.registry->register_region(
      "implicit task", RegionType::kImplicitTask);
  const RegionHandle work =
      data.registry->register_region("work", RegionType::kFunction);
  AggregateProfile& p = data.profile;
  p.thread_count = 1;
  p.max_concurrent_per_thread = {1};
  p.max_concurrent_any_thread = 1;
  p.implicit_root = p.pool.allocate(implicit, kNoParameter, false, nullptr);
  p.implicit_root->visits = static_cast<std::uint64_t>(stage) + 2;
  p.implicit_root->inclusive = static_cast<Ticks>((stage + 2) * 10);
  for (int v = 0; v < stage + 2; ++v) p.implicit_root->visit_stats.add(10);
  CallNode* leaf = p.pool.allocate(work, kNoParameter, false, p.implicit_root);
  leaf->visits = static_cast<std::uint64_t>(stage) + 1;
  leaf->inclusive = static_cast<Ticks>(stage + 1);
  for (int v = 0; v <= stage; ++v) leaf->visit_stats.add(1);
  data.meta.flush_seq = static_cast<std::uint64_t>(stage) + 1;
  data.meta.process_id = 4242;
  return data;
}

Bytes hello_bytes() { return encode_hello({kProtocolVersion, 4242, "fuzz"}); }

Bytes rebase_bytes(std::uint64_t seq, int stage) {
  DeltaFrame frame;
  frame.seq = seq;
  frame.base_seq = 0;
  frame.rebase = true;
  frame.snapshot = snapshot::encode_snapshot(fuzz_snapshot(stage));
  return encode_delta(frame);
}

/// fuzz_snapshot(0) declaring one thread past snapshot::kMaxThreads.  The
/// encoder refuses that count, so this patches the thread-count varint of
/// a kMaxThreads encode (2^20 and 2^20 + 1 are both three bytes) and
/// recomputes the meta section's CRC.
Bytes over_thread_limit_snapshot() {
  snapshot::SnapshotData data = fuzz_snapshot(0);
  data.profile.thread_count = snapshot::kMaxThreads;
  Bytes bytes = snapshot::encode_snapshot(data);
  const snapshot::Container container = snapshot::parse_container(
      bytes, snapshot::kSnapshotFormat, "<patch>");
  const std::span<const std::uint8_t> meta = container.require(
      static_cast<std::uint32_t>(snapshot::SectionId::kMeta));
  const auto start = static_cast<std::size_t>(meta.data() - bytes.data());
  snapshot::Decoder in(meta, "<patch>", snapshot::Errc::kMalformed);
  for (int field = 0; field < 3; ++field) (void)in.varint();  // flags..pid
  const std::size_t threads_at = start + meta.size() - in.remaining();
  EXPECT_EQ(in.varint(), snapshot::kMaxThreads);
  ++bytes[threads_at];  // low 7 bits of 2^20 are zero: now 2^20 + 1
  const std::uint32_t crc =
      snapshot::crc32({bytes.data() + start, meta.size()});
  for (int i = 0; i < 4; ++i) {  // the CRC is the section header's last u32
    bytes[start - 4 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(crc >> (8 * i));
  }
  return bytes;
}

/// The committed seed corpus: name -> byte stream.  "ok_" streams must
/// sail through a Session without a single Error frame; "bad_<errc>_"
/// streams must elicit that exact error code.
std::map<std::string, Bytes> seed_corpus() {
  std::map<std::string, Bytes> corpus;
  corpus["ok_handshake_bye.tpif"] = concat({hello_bytes(), encode_bye({0})});
  corpus["ok_heartbeat.tpif"] =
      concat({hello_bytes(), encode_heartbeat({7}), encode_bye({0})});
  corpus["ok_single_rebase.tpif"] =
      concat({hello_bytes(), rebase_bytes(1, 0), encode_bye({1})});
  {
    // A real delta chain: rebase, then the stage-1 increment.
    const snapshot::SnapshotData early = fuzz_snapshot(0);
    DeltaFrame second;
    second.seq = 2;
    second.base_seq = 1;
    second.rebase = false;
    // The delta payload is itself produced by the shipping subtractor.
    snapshot::SnapshotData late = fuzz_snapshot(1);
    second.snapshot =
        snapshot::encode_snapshot(subtract_snapshot(late, &early).snapshot);
    corpus["ok_delta_chain.tpif"] = concat(
        {hello_bytes(), rebase_bytes(1, 0), encode_delta(second),
         encode_bye({2})});
  }
  // Reconnect replay: the same seq arrives twice and is re-acked, not
  // merged twice — by protocol contract that is NOT an error.
  corpus["ok_duplicate_replay.tpif"] =
      concat({hello_bytes(), rebase_bytes(1, 0), rebase_bytes(1, 0),
              encode_bye({1})});
  {
    Bytes bad = concat({hello_bytes(), encode_heartbeat({1})});
    bad[hello_bytes().size()] = 'X';  // corrupt the second frame's magic
    corpus["bad_bad-magic_second_frame.tpif"] = bad;
  }
  {
    Bytes bad = concat({hello_bytes(), encode_heartbeat({1})});
    bad[hello_bytes().size() + 4] = 0xEE;  // unknown frame type byte
    corpus["bad_bad-type_unknown.tpif"] = bad;
  }
  {
    Bytes bad = concat({hello_bytes(), rebase_bytes(1, 0)});
    bad.back() ^= 0x01;  // flip one payload bit: CRC must catch it
    corpus["bad_bad-crc_bitflip.tpif"] = bad;
  }
  {
    Bytes frame = encode_heartbeat({1});
    frame[5] = 0xFF;  // declared payload size: ~2 GiB
    frame[6] = 0xFF;
    frame[7] = 0xFF;
    frame[8] = 0x7F;
    corpus["bad_limit_oversized.tpif"] = concat({hello_bytes(), frame});
  }
  {
    DeltaFrame gap;
    gap.seq = 5;  // daemon has acked nothing: sequence gap
    gap.base_seq = 4;
    gap.snapshot = snapshot::encode_snapshot(fuzz_snapshot(0));
    corpus["bad_bad-seq_gap.tpif"] =
        concat({hello_bytes(), encode_delta(gap)});
  }
  corpus["bad_bad-state_delta_before_hello.tpif"] = rebase_bytes(1, 0);
  corpus["bad_bad-state_double_hello.tpif"] =
      concat({hello_bytes(), hello_bytes()});
  corpus["bad_bad-version_future_hello.tpif"] =
      encode_hello({kProtocolVersion + 41, 1, "time-traveler"});
  {
    DeltaFrame garbage;
    garbage.seq = 1;
    garbage.rebase = true;
    garbage.snapshot = {0xDE, 0xAD, 0xBE, 0xEF};  // not a .tpsnap
    corpus["bad_malformed_not_a_snapshot.tpif"] =
        concat({hello_bytes(), encode_delta(garbage)});
  }
  {
    // A limit inside a delta's .tpsnap is answered as a limit.
    DeltaFrame over;
    over.seq = 1;
    over.rebase = true;
    over.snapshot = over_thread_limit_snapshot();
    corpus["bad_limit_delta_threads.tpif"] =
        concat({hello_bytes(), encode_delta(over)});
  }
  return corpus;
}

/// Feed a stream to a fresh Session and collect the reply frames.  The
/// core guarantee under fuzz: this never crashes and never throws.
std::vector<Frame> replay(const Bytes& stream) {
  Session session(1, "fuzz");
  session.consume(stream);
  const Bytes output = session.take_output();
  FrameReader reader("fuzz-replies");
  reader.feed(output);
  std::vector<Frame> frames;
  while (auto frame = reader.next()) frames.push_back(std::move(*frame));
  return frames;
}

std::vector<Frame> errors_in(const std::vector<Frame>& frames) {
  std::vector<Frame> errors;
  for (const Frame& frame : frames) {
    if (frame.type == FrameType::kError) errors.push_back(frame);
  }
  return errors;
}

/// "bad_bad-seq_gap.tpif" -> "bad-seq".
std::string expected_errc(const std::string& name) {
  const std::string rest = name.substr(4);  // strip "bad_"
  return rest.substr(0, rest.find('_'));
}

TEST(IngestFuzz, CommittedCorpusReplays) {
  const std::filesystem::path dir = TASKPROF_INGEST_CORPUS_DIR;
  if (std::getenv("TASKPROF_REGEN_INGEST") != nullptr) {
    std::filesystem::create_directories(dir);
    for (const auto& [name, bytes] : seed_corpus()) {
      std::ofstream out(dir / name, std::ios::binary);
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    }
  }
  ASSERT_TRUE(std::filesystem::exists(dir)) << dir;
  std::size_t ok_files = 0;
  std::size_t bad_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".tpif") continue;
    const std::string name = entry.path().filename().string();
    SCOPED_TRACE(name);
    std::ifstream in(entry.path(), std::ios::binary);
    ASSERT_TRUE(in) << name;
    const Bytes bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    const std::vector<Frame> replies = replay(bytes);
    const std::vector<Frame> errors = errors_in(replies);
    if (name.rfind("ok_", 0) == 0) {
      ++ok_files;
      EXPECT_TRUE(errors.empty())
          << name << " produced "
          << (errors.empty()
                  ? ""
                  : std::string(errc_name(
                        decode_error(errors.front(), name).code)));
    } else if (name.rfind("bad_", 0) == 0) {
      ++bad_files;
      ASSERT_FALSE(errors.empty()) << name << " was accepted";
      bool matched = false;
      for (const Frame& error : errors) {
        if (errc_name(decode_error(error, name).code) ==
            expected_errc(name)) {
          matched = true;
        }
      }
      EXPECT_TRUE(matched)
          << name << " expected errc " << expected_errc(name) << ", got "
          << errc_name(decode_error(errors.front(), name).code);
    } else {
      ADD_FAILURE() << "corpus file " << name
                    << " must start with ok_ or bad_";
    }
  }
  EXPECT_GE(ok_files, 5u);
  EXPECT_GE(bad_files, 8u);
}

TEST(IngestFuzz, SeedCorpusGeneratorsMatchTheCommittedFiles) {
  // The generators above are the corpus' source of truth; if an
  // encoding change drifts them away from the committed bytes, fail
  // loudly so the corpus is regenerated deliberately (not silently).
  const std::filesystem::path dir = TASKPROF_INGEST_CORPUS_DIR;
  for (const auto& [name, bytes] : seed_corpus()) {
    SCOPED_TRACE(name);
    std::ifstream in(dir / name, std::ios::binary);
    ASSERT_TRUE(in) << "missing " << name
                    << " (run with TASKPROF_REGEN_INGEST=1)";
    const Bytes committed((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
    EXPECT_EQ(committed, bytes) << name;
  }
}

TEST(IngestFuzz, EveryTruncationSurvives) {
  Bytes stream;
  {
    const auto corpus = seed_corpus();
    stream = corpus.at("ok_delta_chain.tpif");
  }
  for (std::size_t len = 0; len < stream.size(); ++len) {
    const Bytes cut(stream.begin(), stream.begin() + static_cast<long>(len));
    const std::vector<Frame> replies = replay(cut);  // must not crash
    // A truncated tail is just an incomplete frame: whatever parsed
    // before it parsed cleanly, so no Error frame may appear.
    EXPECT_TRUE(errors_in(replies).empty()) << "len " << len;
  }
}

TEST(IngestFuzz, SeededBitFlipsNeverCrashTheSession) {
  Bytes stream;
  {
    const auto corpus = seed_corpus();
    stream = corpus.at("ok_delta_chain.tpif");
  }
  Xoshiro256 rng(0x1B6E57'F1A5ull);
  std::size_t rejected = 0;
  constexpr int kRounds = 2000;
  for (int i = 0; i < kRounds; ++i) {
    Bytes mutated = stream;
    mutated[rng.next_below(mutated.size())] ^=
        static_cast<std::uint8_t>(1u << rng.next_below(8));
    const std::vector<Frame> replies = replay(mutated);
    if (!errors_in(replies).empty()) ++rejected;
  }
  // Headers and CRCs cover every byte; the rare survivor flips inside
  // the producer-name or a still-valid varint of the hello payload.
  EXPECT_GT(rejected, kRounds * 8 / 10);
}

TEST(IngestFuzz, DuplicatedAndReorderedFramesNeverCrash) {
  const auto corpus = seed_corpus();
  const Bytes hello = hello_bytes();
  const Bytes delta1 = rebase_bytes(1, 0);
  const Bytes delta2 = rebase_bytes(2, 1);
  const Bytes bye = encode_bye({2});
  const std::vector<Bytes> frames = {hello, delta1, delta2, bye};
  Xoshiro256 rng(0x5EED'0BDEull);
  for (int round = 0; round < 500; ++round) {
    // Random multiset of the session's frames in random order, with
    // duplicates: the session must stay coherent on all of them.
    Bytes stream;
    const std::size_t count = 1 + rng.next_below(8);
    for (std::size_t f = 0; f < count; ++f) {
      const Bytes& frame = frames[rng.next_below(frames.size())];
      stream.insert(stream.end(), frame.begin(), frame.end());
    }
    const std::vector<Frame> replies = replay(stream);
    for (const Frame& reply : replies) {
      if (reply.type == FrameType::kError) {
        (void)decode_error(reply, "reorder");  // must itself be well-formed
      }
    }
  }
}

TEST(IngestFuzz, RawGarbageCannotKillTheDaemon) {
  DaemonOptions options;
  options.socket_path =
      testing::TempDir() + "taskprofd_fuzz.scratch.sock";
  IngestDaemon daemon(options);
  daemon.start();

  Xoshiro256 rng(0xDEAD'BEEF'0001ull);
  for (int round = 0; round < 32; ++round) {
    ClientOptions copts;
    copts.socket_path = options.socket_path;
    IngestClient probe(copts);
    // Abuse the client's transport: connect, then push garbage by hand.
    probe.connect();
    Bytes garbage(1 + rng.next_below(512));
    for (auto& byte : garbage) {
      byte = static_cast<std::uint8_t>(rng.next_below(256));
    }
    // A fresh Hello went through, so the garbage lands mid-session.
    try {
      (void)probe.send_snapshot(fuzz_snapshot(0));
    } catch (const snapshot::SnapshotError&) {
    }
    probe.close();
    // (The raw bytes path: a separate unframed connection.)
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, options.socket_path.c_str(),
                options.socket_path.size() + 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    (void)::write(fd, garbage.data(), garbage.size());
    ::close(fd);
  }

  // After all that hostility, a well-behaved producer still works.
  ClientOptions copts;
  copts.socket_path = options.socket_path;
  copts.process_id = 1;
  IngestClient client(copts);
  (void)client.send_snapshot(fuzz_snapshot(1));
  client.finish(nullptr);
  const auto body = query_report(options.socket_path, ReportKind::kStats);
  EXPECT_FALSE(body.empty());
  EXPECT_GT(daemon.stats().frames_rejected, 0u);
  daemon.stop();
}

}  // namespace
}  // namespace taskprof::ingest
