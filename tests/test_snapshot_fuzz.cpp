// Loader robustness: the .tpsnap reader must reject every truncation,
// seeded bit flip, and version bump with a typed SnapshotError — never
// crash, never assert, never return a half-built profile.  Also replays
// the committed corpus under tests/corpus/snapshot/ ("ok_" files must
// decode and re-encode byte-identically, "bad_" files must be rejected),
// so a format change that breaks old files fails loudly.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "bots/kernel.hpp"
#include "common/rng.hpp"
#include "instrument/instrumentor.hpp"
#include "rt/sim_runtime.hpp"
#include "snapshot/format.hpp"
#include "snapshot/snapshot.hpp"
#include "telemetry/telemetry.hpp"

namespace taskprof {
namespace {

/// A valid snapshot exercising all four sections (meta, regions, trees,
/// telemetry).  Its telemetry section declares `telemetry_threads`
/// threads, which decodes only up to the thread limit of 2^20.
std::vector<std::uint8_t> valid_snapshot_bytes(int telemetry_threads = 2) {
  RegionRegistry registry;
  rt::SimRuntime runtime;
  Instrumentor instr(registry);
  rt::FanoutHooks fanout({&instr});
  runtime.set_hooks(&fanout);
  auto kernel = bots::make_kernel("fib");
  bots::KernelConfig config;
  config.threads = 2;
  config.size = bots::SizeClass::kTest;
  (void)kernel->run(runtime, registry, config);
  runtime.set_hooks(nullptr);
  instr.finalize();
  const AggregateProfile profile = instr.aggregate();

  telemetry::Registry telem;
  telem.prepare(2);
  telem.add(0, telemetry::Counter::kTasksCreated, 5);
  telem.gauge_max(1, telemetry::Gauge::kDequeDepth, 3);
  telemetry::Snapshot snap = telem.snapshot();
  snap.threads = telemetry_threads;

  snapshot::SnapshotMeta meta;
  meta.flush_seq = 1;
  meta.process_id = 1234;
  return snapshot::encode_snapshot(profile, registry, meta, &snap);
}

/// `bytes` with the telemetry section's thread count rewritten to `wire`
/// and the section's size and CRC recomputed: the encoder refuses to
/// write an out-of-limit count, so the reader's check is reached through
/// the bytes.
std::vector<std::uint8_t> with_telemetry_threads(
    const std::vector<std::uint8_t>& bytes, std::uint64_t wire) {
  const snapshot::Container container =
      snapshot::parse_container(bytes, snapshot::kSnapshotFormat, "<patch>");
  snapshot::Encoder out;
  out.header(snapshot::kSnapshotFormat,
             static_cast<std::uint32_t>(container.sections.size()));
  for (const snapshot::Section& section : container.sections) {
    std::span<const std::uint8_t> payload = section.payload;
    const std::size_t mark = out.begin_section(section.id);
    if (section.id ==
        static_cast<std::uint32_t>(snapshot::SectionId::kTelemetry)) {
      snapshot::Decoder in(payload, "<patch>", snapshot::Errc::kMalformed);
      (void)in.varint();
      out.varint(wire);
      payload = payload.last(in.remaining());
    }
    out.bytes(payload.data(), payload.size());
    out.end_section(mark);
  }
  return out.take();
}

/// Decode that may legally succeed (a flip can land in a skippable
/// place); anything but success or SnapshotError fails the test.
bool decodes(const std::vector<std::uint8_t>& bytes) {
  try {
    const snapshot::SnapshotData data =
        snapshot::decode_snapshot(bytes, "<fuzz>");
    // A successful decode must still be re-encodable without incident.
    (void)snapshot::encode_snapshot(data);
    return true;
  } catch (const snapshot::SnapshotError&) {
    return false;
  }
}

snapshot::Errc reject_code(const std::vector<std::uint8_t>& bytes) {
  try {
    (void)snapshot::decode_snapshot(bytes, "<fuzz>");
  } catch (const snapshot::SnapshotError& error) {
    return error.code();
  }
  ADD_FAILURE() << "decode unexpectedly succeeded";
  return snapshot::Errc::kIo;
}

TEST(SnapshotFuzz, EveryTruncationIsRejectedTyped) {
  const std::vector<std::uint8_t> bytes = valid_snapshot_bytes();
  ASSERT_GT(bytes.size(), 32u);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::vector<std::uint8_t> cut(bytes.begin(),
                                  bytes.begin() + static_cast<long>(len));
    try {
      (void)snapshot::decode_snapshot(cut, "<truncated>");
      FAIL() << "prefix of " << len << " bytes accepted";
    } catch (const snapshot::SnapshotError& error) {
      // Short prefixes die on the magic or the header; longer ones on a
      // section length.  All are typed; none may be kIo (that class is
      // reserved for the filesystem).
      EXPECT_NE(error.code(), snapshot::Errc::kIo) << "len " << len;
    }
  }
}

TEST(SnapshotFuzz, SeededBitFlipsNeverCrashTheLoader) {
  const std::vector<std::uint8_t> bytes = valid_snapshot_bytes();
  Xoshiro256 rng(0xF1A5'F1A5'F1A5ull);
  std::size_t rejected = 0;
  constexpr int kFlips = 4000;
  for (int i = 0; i < kFlips; ++i) {
    std::vector<std::uint8_t> mutated = bytes;
    const std::size_t byte = rng.next_below(mutated.size());
    mutated[byte] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    if (!decodes(mutated)) ++rejected;
  }
  // Every payload byte is CRC-covered; almost all flips must be caught
  // (the rare survivor flips a skippable section id or the section
  // count's redundant encoding).
  EXPECT_GT(rejected, kFlips * 9 / 10);
}

TEST(SnapshotFuzz, MultiBitFlipsNeverCrashTheLoader) {
  const std::vector<std::uint8_t> bytes = valid_snapshot_bytes();
  Xoshiro256 rng(0xBADC'0FFE'E000ull);
  for (int i = 0; i < 1000; ++i) {
    std::vector<std::uint8_t> mutated = bytes;
    const std::size_t flips = 2 + rng.next_below(16);
    for (std::size_t f = 0; f < flips; ++f) {
      const std::size_t byte = rng.next_below(mutated.size());
      mutated[byte] ^= static_cast<std::uint8_t>(rng.next_below(256));
    }
    (void)decodes(mutated);  // must not crash either way
  }
}

TEST(SnapshotFuzz, VersionBumpIsFutureVersion) {
  std::vector<std::uint8_t> bytes = valid_snapshot_bytes();
  // The u32 version sits right after the 8-byte magic, little-endian.
  bytes[8] = static_cast<std::uint8_t>(snapshot::kFormatVersion + 1);
  EXPECT_EQ(reject_code(bytes), snapshot::Errc::kFutureVersion);
  bytes[8] = 0xFF;
  bytes[9] = 0xFF;
  EXPECT_EQ(reject_code(bytes), snapshot::Errc::kFutureVersion);
  // Version 0 was never issued: grammar violation, not a future file.
  bytes[8] = 0;
  bytes[9] = 0;
  EXPECT_EQ(reject_code(bytes), snapshot::Errc::kMalformed);
}

TEST(SnapshotFuzz, BadMagicIsTyped) {
  std::vector<std::uint8_t> bytes = valid_snapshot_bytes();
  bytes[0] = 'X';
  EXPECT_EQ(reject_code(bytes), snapshot::Errc::kBadMagic);
}

TEST(SnapshotFuzz, PayloadCorruptionIsBadCrc) {
  std::vector<std::uint8_t> bytes = valid_snapshot_bytes();
  // First section payload starts after the 16-byte file header and the
  // 16-byte section header.
  ASSERT_GT(bytes.size(), 40u);
  bytes[33] ^= 0x40;
  EXPECT_EQ(reject_code(bytes), snapshot::Errc::kBadCrc);
}

TEST(SnapshotFuzz, TrailingDataIsTyped) {
  std::vector<std::uint8_t> bytes = valid_snapshot_bytes();
  bytes.push_back(0);
  EXPECT_EQ(reject_code(bytes), snapshot::Errc::kTrailingData);
}

TEST(SnapshotFuzz, TelemetryThreadCountOverTheLimitIsLimit) {
  // A count past the meta section's thread limit would narrow into the
  // telemetry's int (-7 rides the wire as 2^64 - 7) and overflow the sum
  // that merging snapshots takes.
  const std::vector<std::uint8_t> at_limit = valid_snapshot_bytes(1 << 20);
  EXPECT_TRUE(decodes(at_limit));
  EXPECT_EQ(reject_code(with_telemetry_threads(
                at_limit, static_cast<std::uint64_t>(std::int64_t{-7}))),
            snapshot::Errc::kLimit);
  EXPECT_EQ(reject_code(with_telemetry_threads(at_limit, (1 << 20) + 1)),
            snapshot::Errc::kLimit);
  // The encoder refuses both counts with the reader's class.
  for (const int threads : {-7, (1 << 20) + 1}) {
    try {
      (void)valid_snapshot_bytes(threads);
      ADD_FAILURE() << threads << " telemetry threads encoded";
    } catch (const snapshot::SnapshotError& error) {
      EXPECT_EQ(error.code(), snapshot::Errc::kLimit) << threads;
    }
  }
  std::ifstream in(std::filesystem::path(TASKPROF_SNAPSHOT_CORPUS_DIR) /
                       "bad_limit_telemetry_threads.tpsnap",
                   std::ios::binary);
  ASSERT_TRUE(in);
  const std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_EQ(reject_code(bytes), snapshot::Errc::kLimit);
}

TEST(SnapshotFuzz, CommittedCorpusReplays) {
  const std::filesystem::path dir = TASKPROF_SNAPSHOT_CORPUS_DIR;
  ASSERT_TRUE(std::filesystem::exists(dir)) << dir;
  std::size_t ok_files = 0;
  std::size_t bad_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".tpsnap") continue;
    const std::string name = entry.path().filename().string();
    SCOPED_TRACE(name);
    std::ifstream in(entry.path(), std::ios::binary);
    ASSERT_TRUE(in) << name;
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    if (name.rfind("ok_", 0) == 0) {
      ++ok_files;
      const snapshot::SnapshotData data =
          snapshot::decode_snapshot(bytes, name);
      // Format-stability golden: today's encoder must reproduce the
      // committed bytes exactly; an encoding change requires a version
      // bump and fresh goldens.
      EXPECT_EQ(snapshot::encode_snapshot(data), bytes);
    } else if (name.rfind("bad_", 0) == 0) {
      ++bad_files;
      EXPECT_THROW((void)snapshot::decode_snapshot(bytes, name),
                   snapshot::SnapshotError);
    } else {
      ADD_FAILURE() << "corpus file " << name
                    << " must start with ok_ or bad_";
    }
  }
  EXPECT_GE(ok_files, 1u);
  EXPECT_GE(bad_files, 3u);
}

}  // namespace
}  // namespace taskprof
