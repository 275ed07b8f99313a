// Loader robustness for .tptrc trace files, mirroring test_snapshot_fuzz:
// every truncation and seeded bit flip is rejected with a typed
// SnapshotError (never a crash, never an assert), write -> read -> write
// is byte-identical for every BOTS kernel, and the committed corpus
// under tests/corpus/trace/ replays: "ok_" files decode and re-encode
// byte-identically, "bad_<errc>_..." files are rejected with that errc.
// Files that decode but tell an impossible history (an event dropped,
// duplicated, re-kinded or re-targeted) must make the trace replay in
// analyze_trace, run_diagnosis and WhatIfProfile::build succeed or throw
// SnapshotError; tests/corpus/trace_replay/ holds such files.
// Run with TASKPROF_REGEN_TRACE=1 to rewrite both corpora from the
// generators below.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bots/kernel.hpp"
#include "common/rng.hpp"
#include "diagnose/diagnose.hpp"
#include "rt/sim_runtime.hpp"
#include "snapshot/format.hpp"
#include "trace/analysis.hpp"
#include "trace/file.hpp"
#include "trace/recorder.hpp"
#include "whatif/whatif.hpp"

namespace taskprof {
namespace {

using Bytes = std::vector<std::uint8_t>;

trace::Trace record_sim(const std::string& kernel_name,
                        bots::KernelConfig config) {
  RegionRegistry registry;
  rt::SimRuntime runtime;
  trace::TraceRecorder recorder;
  rt::FanoutHooks fanout({&recorder});
  runtime.set_hooks(&fanout);
  auto kernel = bots::make_kernel(kernel_name);
  config.size = bots::SizeClass::kTest;
  const bots::KernelResult result = kernel->run(runtime, registry, config);
  runtime.set_hooks(nullptr);
  EXPECT_TRUE(result.ok) << kernel_name << ": " << result.check;
  return recorder.take();
}

/// The sim fib trace on two workers.
Bytes valid_trace_bytes() {
  bots::KernelConfig config;
  config.threads = 2;
  return trace::encode_trace(record_sim("fib", config));
}

/// Eight events on two threads that use every optional field: the base
/// of the corrupted corpus files, small enough to read in a hex dump.
Bytes small_trace_bytes() {
  using trace::EventKind;
  std::vector<std::vector<trace::TraceEvent>> streams(2);
  streams[0] = {
      {.time = -4, .kind = EventKind::kImplicitBegin},
      {.time = 5, .task = 1, .parameter = -2, .region = 3,
       .kind = EventKind::kCreateEnd},
      {.time = 6, .task = 1, .peer = 1, .kind = EventKind::kMigrate},
      {.time = 9, .kind = EventKind::kImplicitEnd}};
  streams[1] = {
      {.time = 1, .thread = 1, .kind = EventKind::kImplicitBegin},
      {.time = 7, .task = 1, .parameter = -2, .thread = 1, .region = 3,
       .kind = EventKind::kTaskBegin},
      {.time = 8, .task = 1, .thread = 1, .kind = EventKind::kTaskEnd},
      {.time = 9, .thread = 1, .kind = EventKind::kImplicitEnd}};
  return trace::encode_trace(trace::Trace(std::move(streams)));
}

/// One thread runs task 1, which was recorded without a region: every
/// post-mortem command must name its construct "(unattributed)".
Bytes unattributed_task_bytes() {
  using trace::EventKind;
  std::vector<std::vector<trace::TraceEvent>> streams(1);
  streams[0] = {{.time = 0, .kind = EventKind::kImplicitBegin},
                {.time = 1, .task = 1, .kind = EventKind::kCreateEnd},
                {.time = 2, .task = 1, .kind = EventKind::kTaskBegin},
                {.time = 5, .task = 1, .kind = EventKind::kTaskEnd},
                {.time = 6, .kind = EventKind::kImplicitEnd}};
  return trace::encode_trace(trace::Trace(std::move(streams)));
}

/// A version 2 container around a hand-written events payload, so a
/// test can state what the encoder never writes.
Bytes framed(const snapshot::Encoder& payload) {
  snapshot::Encoder out;
  out.header(trace::kTraceFormat, 1);
  const std::size_t section = out.begin_section(trace::kEventsSection);
  out.bytes(payload.buffer().data(), payload.size());
  out.end_section(section);
  return out.take();
}

/// One stream of one event: flags, time 0, task 1, then `optional`.
Bytes one_event(std::uint64_t threads, trace::EventKind kind,
                std::uint8_t presence, std::uint64_t optional) {
  snapshot::Encoder payload;
  payload.varint(threads);
  payload.varint(1);
  payload.u8(static_cast<std::uint8_t>(static_cast<std::uint8_t>(kind) |
                                       presence));
  payload.svarint(0);
  payload.varint(1);
  payload.varint(optional);
  for (std::uint64_t t = 1; t < threads; ++t) payload.varint(0);
  return framed(payload);
}

/// A version 1 file: the fixed-width layout without a CRC.  Its event
/// names thread 0x40000000 of a one-thread trace; version 1 readers
/// passed that on, and the span model's walk indexed its cursors with
/// it.
Bytes v1_trace_bytes() {
  snapshot::Encoder out;
  const char magic[] = {'T', 'P', 'T', 'R', 'C', '1', '\n', '\0'};
  out.bytes(magic, sizeof magic);
  out.u64(1);  // threads
  out.u64(1);  // events of thread 0
  out.u64(0);  // time
  out.u32(0x40000000);  // thread
  out.u8(static_cast<std::uint8_t>(trace::EventKind::kImplicitBegin));
  out.u64(0);  // task
  out.u32(kInvalidRegion);
  out.u64(static_cast<std::uint64_t>(kNoParameter));
  out.u32(0);  // peer
  return out.take();
}

std::vector<std::pair<std::string, Bytes>> seed_corpus() {
  const Bytes ok = small_trace_bytes();
  std::vector<std::pair<std::string, Bytes>> corpus;
  corpus.emplace_back("ok_fib_sim.tptrc", valid_trace_bytes());
  corpus.emplace_back("ok_fields.tptrc", ok);
  corpus.emplace_back("ok_unattributed_task.tptrc", unattributed_task_bytes());
  corpus.emplace_back("bad_bad-magic_v1.tptrc", v1_trace_bytes());
  corpus.emplace_back("bad_truncated_header.tptrc",
                      Bytes(ok.begin(), ok.begin() + 12));
  corpus.emplace_back("bad_truncated_section.tptrc",
                      Bytes(ok.begin(), ok.end() - 10));
  Bytes flipped = ok;
  flipped[40] ^= 0x10;  // inside the events payload (it starts at 32)
  corpus.emplace_back("bad_bad-crc_payload.tptrc", flipped);
  Bytes trailing = ok;
  trailing.push_back(0);
  corpus.emplace_back("bad_trailing-data_byte.tptrc", trailing);
  corpus.emplace_back("bad_malformed_peer.tptrc",
                      one_event(2, trace::EventKind::kMigrate, 0x80, 2));
  corpus.emplace_back(
      "bad_malformed_region_default.tptrc",
      one_event(1, trace::EventKind::kTaskBegin, 0x20, kInvalidRegion));
  corpus.emplace_back(
      "bad_limit_region.tptrc",
      one_event(1, trace::EventKind::kTaskBegin, 0x20, 0xFFFFFFF0u));
  return corpus;
}

/// Files whose bytes decode but whose events cannot have happened.
std::vector<std::pair<std::string, Bytes>> replay_corpus() {
  using trace::EventKind;
  std::vector<std::pair<std::string, Bytes>> corpus;
  std::vector<std::vector<trace::TraceEvent>> streams(1);
  streams[0] = {{.time = 0, .kind = EventKind::kImplicitBegin},
                {.time = 1, .task = 5, .kind = EventKind::kTaskEnd},
                {.time = 2, .kind = EventKind::kImplicitEnd}};
  corpus.emplace_back("bad_malformed_task_end.tptrc",
                      trace::encode_trace(trace::Trace(std::move(streams))));
  // Thread 1 ends an implicit task it never began, at a real-engine
  // clock base, where a span taken from time 0 would read 34,000 s.
  constexpr Ticks kBase = 34'000'000'000'000;
  streams.assign(2, {});
  streams[0] = {{.time = kBase, .kind = EventKind::kImplicitBegin},
                {.time = kBase + 1, .task = 1,
                 .kind = EventKind::kCreateEnd},
                {.time = kBase + 10, .kind = EventKind::kImplicitEnd}};
  streams[1] = {{.time = kBase + 2, .task = 1, .thread = 1,
                 .kind = EventKind::kTaskBegin},
                {.time = kBase + 6, .task = 1, .thread = 1,
                 .kind = EventKind::kTaskEnd},
                {.time = kBase + 10, .thread = 1,
                 .kind = EventKind::kImplicitEnd}};
  corpus.emplace_back("bad_malformed_implicit_end.tptrc",
                      trace::encode_trace(trace::Trace(std::move(streams))));
  return corpus;
}

void write_corpus(const std::filesystem::path& dir,
                  const std::vector<std::pair<std::string, Bytes>>& files) {
  std::filesystem::create_directories(dir);
  for (const auto& [name, bytes] : files) {
    std::ofstream out(dir / name, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
}

Bytes read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  return Bytes((std::istreambuf_iterator<char>(in)),
               std::istreambuf_iterator<char>());
}

/// "bad_trailing-data_byte.tptrc" -> "trailing-data".
std::string expected_errc(const std::string& name) {
  const std::string rest = name.substr(4);  // strip "bad_"
  return rest.substr(0, rest.find('_'));
}

snapshot::Errc reject_code(const Bytes& bytes) {
  try {
    (void)trace::decode_trace(bytes, "<fuzz>");
  } catch (const snapshot::SnapshotError& error) {
    return error.code();
  }
  ADD_FAILURE() << "decode unexpectedly succeeded";
  return snapshot::Errc::kIo;
}

/// Decode that may legally succeed; anything but success or
/// SnapshotError fails the test.
bool decodes(const Bytes& bytes) {
  try {
    const trace::Trace loaded = trace::decode_trace(bytes, "<fuzz>");
    // A successful decode must still merge and re-encode.
    (void)loaded.merged();
    (void)trace::encode_trace(loaded);
    return true;
  } catch (const snapshot::SnapshotError&) {
    return false;
  }
}

TEST(TraceFuzz, EveryBotsKernelRoundTripsByteIdentically) {
  for (const auto& kernel : bots::make_all_kernels()) {
    for (int threads : {1, 2, 4}) {
      const std::string name(kernel->name());
      SCOPED_TRACE(name + " x" + std::to_string(threads));
      bots::KernelConfig config;
      config.threads = threads;
      const trace::Trace recorded = record_sim(name, config);
      const Bytes bytes = trace::encode_trace(recorded);
      const trace::Trace loaded = trace::decode_trace(bytes, name);
      ASSERT_EQ(loaded.thread_count(), recorded.thread_count());
      EXPECT_EQ(loaded.event_count(), recorded.event_count());
      EXPECT_EQ(trace::encode_trace(loaded), bytes);
    }
  }
}

// Every prefix longer than the headers fails on the section frame before
// any payload byte is parsed, so the small trace covers every case the
// fib trace would, a thousand times faster.
TEST(TraceFuzz, EveryTruncationIsRejectedTyped) {
  const Bytes bytes = small_trace_bytes();
  ASSERT_GT(bytes.size(), 32u);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const Bytes cut(bytes.begin(), bytes.begin() + static_cast<long>(len));
    try {
      (void)trace::decode_trace(cut, "<truncated>");
      FAIL() << "prefix of " << len << " bytes accepted";
    } catch (const snapshot::SnapshotError& error) {
      EXPECT_NE(error.code(), snapshot::Errc::kIo) << "len " << len;
    }
  }
}

TEST(TraceFuzz, SeededBitFlipsAreRejectedTyped) {
  const Bytes bytes = small_trace_bytes();
  Xoshiro256 rng(0x7EAC'E5F1'1B5Full);
  constexpr int kFlips = 4000;
  for (int i = 0; i < kFlips; ++i) {
    Bytes mutated = bytes;
    const std::size_t byte = rng.next_below(mutated.size());
    mutated[byte] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    // One file, one section: every byte is in the magic, the header, the
    // section frame or the CRC-covered payload, so no flip survives.
    EXPECT_FALSE(decodes(mutated)) << "flip in byte " << byte;
  }
}

TEST(TraceFuzz, MultiByteCorruptionNeverCrashesTheLoader) {
  const Bytes bytes = small_trace_bytes();
  Xoshiro256 rng(0xC0DE'7EAC'E000ull);
  for (int i = 0; i < 1000; ++i) {
    Bytes mutated = bytes;
    const std::size_t flips = 2 + rng.next_below(16);
    for (std::size_t f = 0; f < flips; ++f) {
      const std::size_t byte = rng.next_below(mutated.size());
      mutated[byte] ^= static_cast<std::uint8_t>(rng.next_below(256));
    }
    (void)decodes(mutated);  // must not crash either way
  }
}

// The CRC stops the flips above before the payload grammar sees them.
// Here the CRC is recomputed after corrupting the payload, so every
// mutation reaches the event decoder, which must reject it typed or
// yield a trace that merges and re-encodes.
TEST(TraceFuzz, CrcValidPayloadCorruptionNeverCrashesTheDecoder) {
  const Bytes bytes = valid_trace_bytes();
  constexpr std::size_t kPayload = 32;  // after the file and section headers
  constexpr std::size_t kCrc = 28;
  Xoshiro256 rng(0x5EA1'ED00'F1A5ull);
  std::size_t rejected = 0;
  constexpr int kMutations = 300;
  for (int i = 0; i < kMutations; ++i) {
    Bytes mutated = bytes;
    const std::size_t flips = 1 + rng.next_below(4);
    for (std::size_t f = 0; f < flips; ++f) {
      const std::size_t byte =
          kPayload + rng.next_below(mutated.size() - kPayload);
      mutated[byte] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    }
    const std::uint32_t crc = snapshot::crc32(
        std::span<const std::uint8_t>(mutated).subspan(kPayload));
    for (std::size_t b = 0; b < 4; ++b) {
      mutated[kCrc + b] = static_cast<std::uint8_t>(crc >> (8 * b));
    }
    if (!decodes(mutated)) ++rejected;
  }
  // Most corruptions break the grammar somewhere (a kind, a canonical
  // field, a count); some survive as a different valid trace.
  EXPECT_GT(rejected, 0u);
}

TEST(TraceFuzz, PayloadGrammarIsChecked) {
  using trace::EventKind;
  // Kind 31 is not an event kind.
  snapshot::Encoder kind;
  kind.varint(1);
  kind.varint(1);
  kind.u8(0x1F);
  kind.svarint(0);
  kind.varint(0);
  EXPECT_EQ(reject_code(framed(kind)), snapshot::Errc::kMalformed);
  // Presence bits that carry their field's default.
  EXPECT_EQ(reject_code(one_event(1, EventKind::kMigrate, 0x80, 0)),
            snapshot::Errc::kMalformed);
  snapshot::Encoder parameter;
  parameter.varint(1);
  parameter.varint(1);
  parameter.u8(static_cast<std::uint8_t>(EventKind::kWork) | 0x40);
  parameter.svarint(0);
  parameter.varint(0);
  parameter.svarint(kNoParameter);
  EXPECT_EQ(reject_code(framed(parameter)), snapshot::Errc::kMalformed);
  // A delta that carries the time one past the largest tick.
  snapshot::Encoder overflow;
  overflow.varint(1);
  overflow.varint(2);
  overflow.u8(static_cast<std::uint8_t>(EventKind::kWork));
  overflow.svarint(1);
  overflow.varint(0);
  overflow.u8(static_cast<std::uint8_t>(EventKind::kWork));
  overflow.varint(std::numeric_limits<Ticks>::max());
  overflow.varint(0);
  EXPECT_EQ(reject_code(framed(overflow)), snapshot::Errc::kMalformed);
  // Counts the payload cannot hold (three bytes per event at least).
  snapshot::Encoder events;
  events.varint(1);
  events.varint(1000);
  events.u8(0);
  EXPECT_EQ(reject_code(framed(events)), snapshot::Errc::kLimit);
  snapshot::Encoder threads;
  threads.varint(std::uint64_t{1} << 40);
  EXPECT_EQ(reject_code(framed(threads)), snapshot::Errc::kLimit);
  // Bytes after the last stream.
  snapshot::Encoder trailing;
  trailing.varint(1);
  trailing.varint(0);
  trailing.u8(0);
  EXPECT_EQ(reject_code(framed(trailing)), snapshot::Errc::kMalformed);
  // The largest region id below the limit is accepted.
  const trace::Trace loaded = trace::decode_trace(
      one_event(1, EventKind::kTaskBegin, 0x20, (1u << 20) - 1));
  EXPECT_EQ(loaded.thread_events(0).front().region, (1u << 20) - 1);
}

TEST(TraceFuzz, EncoderRefusesWhatTheReaderRejects) {
  std::vector<std::vector<trace::TraceEvent>> streams(1);
  streams[0].push_back(
      {.region = 1u << 20, .kind = trace::EventKind::kTaskBegin});
  const trace::Trace huge_region(std::move(streams));
  try {
    (void)trace::encode_trace(huge_region);
    FAIL() << "region id at the limit encoded";
  } catch (const snapshot::SnapshotError& error) {
    EXPECT_EQ(error.code(), snapshot::Errc::kLimit);
  }
}

TEST(TraceFuzz, CommittedCorpusReplays) {
  const std::filesystem::path dir = TASKPROF_TRACE_CORPUS_DIR;
  if (std::getenv("TASKPROF_REGEN_TRACE") != nullptr) {
    write_corpus(dir, seed_corpus());
  }
  ASSERT_TRUE(std::filesystem::exists(dir)) << dir;
  std::size_t ok_files = 0;
  std::size_t bad_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".tptrc") continue;
    const std::string name = entry.path().filename().string();
    SCOPED_TRACE(name);
    const Bytes bytes = read_file(entry.path());
    if (name.rfind("ok_", 0) == 0) {
      ++ok_files;
      // Format-stability golden: today's encoder must reproduce the
      // committed bytes exactly.
      EXPECT_EQ(trace::encode_trace(trace::decode_trace(bytes, name)), bytes);
    } else if (name.rfind("bad_", 0) == 0) {
      ++bad_files;
      EXPECT_EQ(snapshot::errc_name(reject_code(bytes)), expected_errc(name));
    } else {
      ADD_FAILURE() << "corpus file " << name
                    << " must start with ok_ or bad_";
    }
  }
  EXPECT_GE(ok_files, 3u);
  EXPECT_GE(bad_files, 8u);
}

/// Region names are not in a trace file; like the CLI, name every region
/// the trace mentions.
void name_regions(const trace::Trace& loaded, RegionRegistry* names) {
  RegionHandle max_region = 0;
  for (const trace::TraceEvent& event : loaded.merged()) {
    if (event.region != kInvalidRegion) {
      max_region = std::max(max_region, event.region);
    }
  }
  for (RegionHandle r = 0; r <= max_region; ++r) {
    names->register_region("region " + std::to_string(r), RegionType::kTask);
  }
}

/// Every consumer of a loaded trace, in the order the CLI runs them.
/// Returns false when one rejected the history with a SnapshotError;
/// any other exception, an assert or a crash fails the test.
bool replays(const trace::Trace& loaded) {
  RegionRegistry names;
  name_regions(loaded, &names);
  try {
    const trace::TraceAnalysis analysis = trace::analyze_trace(loaded);
    diag::DiagnosisInput input;
    input.registry = &names;
    input.trace = &loaded;
    (void)diag::run_diagnosis(input);
    whatif::WhatIfProfile profile;
    if (whatif::WhatIfProfile::build(loaded, analysis, names, &profile)
            .ok()) {
      (void)profile.rank_targets(0.5, {});
    }
    return true;
  } catch (const snapshot::SnapshotError& error) {
    EXPECT_EQ(error.code(), snapshot::Errc::kMalformed) << error.what();
    return false;
  }
}

TEST(TraceFuzz, CommittedReplayCorpusIsRejectedTyped) {
  const std::filesystem::path dir = TASKPROF_TRACE_REPLAY_CORPUS_DIR;
  if (std::getenv("TASKPROF_REGEN_TRACE") != nullptr) {
    write_corpus(dir, replay_corpus());
  }
  std::size_t checked = 0;
  for (const auto& [name, bytes] : replay_corpus()) {
    SCOPED_TRACE(name);
    const Bytes committed = read_file(dir / name);
    EXPECT_EQ(committed, bytes);  // still what the generator writes
    // The bytes decode; the history they tell does not replay.
    EXPECT_FALSE(replays(trace::decode_trace(committed, name)));
    ++checked;
  }
  EXPECT_GE(checked, 2u);
}

// Semantic mutations of the sim fib trace: each stays valid bytes (the
// stream times never decrease), so every one reaches the replay.
TEST(TraceFuzz, SemanticMutationsNeverAbortTheReplay) {
  const trace::Trace base = trace::decode_trace(valid_trace_bytes());
  std::vector<TaskInstanceId> tasks;
  for (const trace::TraceEvent& event : base.merged()) {
    if (event.task != kImplicitTaskId) tasks.push_back(event.task);
  }
  ASSERT_FALSE(tasks.empty());
  Xoshiro256 rng(0x5E3A'471C'F022ull);
  constexpr int kMutations = 200;
  constexpr std::uint64_t kKinds =
      static_cast<std::uint64_t>(trace::EventKind::kWork) + 1;
  std::size_t rejected = 0;
  for (int i = 0; i < kMutations; ++i) {
    std::vector<std::vector<trace::TraceEvent>> streams;
    for (ThreadId t = 0; t < base.thread_count(); ++t) {
      streams.push_back(base.thread_events(t));
    }
    const std::size_t edits = 1 + rng.next_below(3);
    for (std::size_t e = 0; e < edits; ++e) {
      auto& stream = streams[rng.next_below(streams.size())];
      if (stream.empty()) continue;
      const std::size_t at = rng.next_below(stream.size());
      const auto pos = stream.begin() + static_cast<long>(at);
      const trace::TraceEvent event = stream[at];
      switch (rng.next_below(4)) {
        case 0:
          stream.erase(pos);
          break;
        case 1:
          stream.insert(pos, event);
          break;
        case 2:
          stream[at].kind =
              static_cast<trace::EventKind>(rng.next_below(kKinds));
          break;
        default:
          stream[at].task = tasks[rng.next_below(tasks.size())];
          break;
      }
    }
    SCOPED_TRACE("mutation " + std::to_string(i));
    Bytes bytes;
    try {
      bytes = trace::encode_trace(trace::Trace(std::move(streams)));
    } catch (const snapshot::SnapshotError&) {
      continue;  // a field the format cannot carry: not a replay case
    }
    if (!replays(trace::decode_trace(bytes, "<mutation>"))) ++rejected;
  }
  // The replay tolerates some impossible histories (a dropped region
  // exit) and rejects the ones it cannot place (a task ending where it
  // is not running); both kinds must occur.
  EXPECT_GT(rejected, 0u);
  EXPECT_LT(rejected, static_cast<std::size_t>(kMutations));
}

}  // namespace
}  // namespace taskprof
