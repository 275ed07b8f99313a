// Wire-format primitives (src/snapshot/format): varint/zigzag canonical
// round trips, the CRC-32 check vector, the typed error taxonomy at the
// file level, the encoder's refusal of what the reader rejects, and the
// atomicity of the file writer.
#include "snapshot/format.hpp"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "snapshot/snapshot.hpp"

namespace taskprof::snapshot {
namespace {

Decoder decoder_over(const Encoder& enc) {
  return Decoder(enc.buffer(), "<test>", Errc::kMalformed);
}

TEST(SnapshotFormat, VarintRoundTripsCanonically) {
  const std::uint64_t values[] = {0,
                                  1,
                                  127,
                                  128,
                                  16383,
                                  16384,
                                  (1ull << 32) - 1,
                                  1ull << 32,
                                  std::numeric_limits<std::uint64_t>::max()};
  for (std::uint64_t v : values) {
    Encoder enc;
    enc.varint(v);
    Decoder dec = decoder_over(enc);
    EXPECT_EQ(dec.varint(), v);
    EXPECT_EQ(dec.remaining(), 0u);
    // Canonical length: ceil(bits/7), at least one byte.
    std::size_t expect = 1;
    for (std::uint64_t rest = v >> 7; rest != 0; rest >>= 7) ++expect;
    EXPECT_EQ(enc.size(), expect) << v;
  }
}

TEST(SnapshotFormat, SvarintRoundTripsExtremes) {
  const std::int64_t values[] = {0,
                                 -1,
                                 1,
                                 -64,
                                 64,
                                 std::numeric_limits<std::int64_t>::min(),
                                 std::numeric_limits<std::int64_t>::max()};
  for (std::int64_t v : values) {
    Encoder enc;
    enc.svarint(v);
    Decoder dec = decoder_over(enc);
    EXPECT_EQ(dec.svarint(), v);
  }
}

TEST(SnapshotFormat, NonMinimalVarintIsRejected) {
  // 0x80 0x00 decodes to 0 but is not the canonical single-byte form.
  const std::vector<std::uint8_t> padded = {0x80, 0x00};
  Decoder dec(padded, "<test>", Errc::kMalformed);
  try {
    (void)dec.varint();
    FAIL() << "non-minimal varint accepted";
  } catch (const SnapshotError& error) {
    EXPECT_EQ(error.code(), Errc::kMalformed);
  }
}

TEST(SnapshotFormat, OverlongVarintIsRejected) {
  // Eleven continuation bytes: more than 64 bits of payload.
  const std::vector<std::uint8_t> overlong(11, 0xFF);
  Decoder dec(overlong, "<test>", Errc::kMalformed);
  EXPECT_THROW((void)dec.varint(), SnapshotError);
}

TEST(SnapshotFormat, Crc32MatchesCheckVector) {
  const char* vector = "123456789";
  const auto* data = reinterpret_cast<const std::uint8_t*>(vector);
  EXPECT_EQ(crc32(std::span<const std::uint8_t>(data, 9)), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(SnapshotFormat, Crc32MatchesABytewiseReferenceAtAnyLengthAndStart) {
  std::uint32_t table[256];
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  std::vector<std::uint8_t> data(4096 + 8);
  Xoshiro256 rng(0xC3C3'2020ull);
  for (std::uint8_t& byte : data) {
    byte = static_cast<std::uint8_t>(rng.next_below(256));
  }
  for (std::size_t start = 0; start < 8; ++start) {
    // The running bytewise CRC yields the reference for every prefix.
    std::uint32_t reference = 0xFFFFFFFFu;
    for (std::size_t length = 0; length <= 4096; ++length) {
      const std::span<const std::uint8_t> bytes(data.data() + start, length);
      ASSERT_EQ(crc32(bytes), reference ^ 0xFFFFFFFFu)
          << "start " << start << " length " << length;
      reference = table[(reference ^ data[start + length]) & 0xFFu] ^
                  (reference >> 8);
    }
  }
}

TEST(SnapshotFormat, DecoderOverrunUsesConfiguredErrc) {
  const std::vector<std::uint8_t> three = {1, 2, 3};
  Decoder truncated(three, "<test>", Errc::kTruncated);
  try {
    (void)truncated.u32();
    FAIL() << "overrun not detected";
  } catch (const SnapshotError& error) {
    EXPECT_EQ(error.code(), Errc::kTruncated);
  }
  Decoder malformed(three, "<test>", Errc::kMalformed);
  EXPECT_THROW((void)malformed.u64(), SnapshotError);
}

TEST(SnapshotFormat, StringLimitIsTyped) {
  Encoder enc;
  enc.str("hello world");
  Decoder dec = decoder_over(enc);
  try {
    (void)dec.str(/*max_size=*/4);
    FAIL() << "limit not enforced";
  } catch (const SnapshotError& error) {
    EXPECT_EQ(error.code(), Errc::kLimit);
  }
}

TEST(SnapshotFormat, ErrcNamesAreStable) {
  EXPECT_EQ(errc_name(Errc::kBadMagic), "bad-magic");
  EXPECT_EQ(errc_name(Errc::kBadCrc), "bad-crc");
  EXPECT_EQ(errc_name(Errc::kFutureVersion), "future-version");
}

TEST(SnapshotFormat, ErrorMessageCarriesOriginAndClass) {
  const SnapshotError error(Errc::kTruncated, "a.tpsnap", "ends early");
  const std::string what = error.what();
  EXPECT_NE(what.find("a.tpsnap"), std::string::npos);
  EXPECT_NE(what.find("truncated"), std::string::npos);
  EXPECT_NE(what.find("ends early"), std::string::npos);
}

TEST(SnapshotFormat, ErrcValuesAreTheWireBytes) {
  // The ten classes a TPIF Error frame carries are their on-wire byte.
  EXPECT_EQ(static_cast<int>(Errc::kIo), 1);
  EXPECT_EQ(static_cast<int>(Errc::kMalformed), 6);
  EXPECT_EQ(static_cast<int>(Errc::kLimit), 7);
  EXPECT_EQ(static_cast<int>(Errc::kBadVersion), 10);
  EXPECT_EQ(errc_name(Errc::kBadSeq), "bad-seq");
  EXPECT_EQ(errc_name(Errc::kTrailingData), "trailing-data");
}

/// A one-region, one-node snapshot the reader accepts.
SnapshotData one_region_snapshot() {
  SnapshotData data;
  data.registry = std::make_unique<RegionRegistry>();
  const RegionHandle root = data.registry->register_region(
      "implicit task", RegionType::kImplicitTask);
  data.profile.thread_count = 1;
  data.profile.max_concurrent_per_thread = {1};
  data.profile.implicit_root =
      data.profile.pool.allocate(root, kNoParameter, false, nullptr);
  data.profile.implicit_root->visits = 1;
  return data;
}

/// The class encode_snapshot refuses `data` with; a failure when it
/// writes the bytes instead.
Errc encode_refusal(const SnapshotData& data) {
  try {
    const std::vector<std::uint8_t> bytes = encode_snapshot(data);
    try {
      (void)decode_snapshot(bytes);
      ADD_FAILURE() << "encoded and decoded: nothing to refuse";
    } catch (const SnapshotError& error) {
      ADD_FAILURE() << "wrote bytes its reader rejects: " << error.what();
    }
  } catch (const SnapshotError& error) {
    return error.code();
  }
  return Errc::kIo;
}

TEST(SnapshotFormat, EncoderRefusesANegativeRegionLine) {
  SnapshotData data = one_region_snapshot();
  (void)decode_snapshot(encode_snapshot(data));
  data.registry->register_region(
      RegionInfo{"work", RegionType::kFunction, "work.cpp", -1});
  EXPECT_EQ(encode_refusal(data), Errc::kMalformed);
}

TEST(SnapshotFormat, EncoderRefusesARegionNameOverTheStringLimit) {
  SnapshotData data = one_region_snapshot();
  data.registry->register_region(std::string(kMaxStringSize, 'n'),
                                 RegionType::kFunction);
  (void)decode_snapshot(encode_snapshot(data));
  data.registry->register_region(std::string(kMaxStringSize + 1, 'n'),
                                 RegionType::kFunction);
  EXPECT_EQ(encode_refusal(data), Errc::kLimit);
}

TEST(SnapshotFormat, EncoderRefusesAThreadCountOverTheLimit) {
  SnapshotData data = one_region_snapshot();
  data.profile.thread_count = kMaxThreads;
  (void)decode_snapshot(encode_snapshot(data));
  data.profile.thread_count = kMaxThreads + 1;
  EXPECT_EQ(encode_refusal(data), Errc::kLimit);
}

TEST(SnapshotFormat, AtomicWriteLeavesNoTempFile) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "taskprof_format_test";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "out.bin").string();
  const std::vector<std::uint8_t> payload = {0xDE, 0xAD, 0xBE, 0xEF};
  atomic_write_file(path, payload);
  // Overwrite through the same path: the reader can only ever see a
  // complete file.
  const std::vector<std::uint8_t> second = {1, 2, 3};
  atomic_write_file(path, second);
  EXPECT_EQ(std::filesystem::file_size(path), second.size());
  std::size_t entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1u) << "temp file left behind";
  std::filesystem::remove_all(dir);
}

TEST(SnapshotFormat, AtomicWriteFailureIsTypedIo) {
  try {
    atomic_write_file("/nonexistent-dir/x/y.tpsnap", {{1}});
    FAIL() << "write into a missing directory succeeded";
  } catch (const SnapshotError& error) {
    EXPECT_EQ(error.code(), Errc::kIo);
  }
}

TEST(SnapshotFormat, AtomicWriteRefusesANonRegularTarget) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "taskprof_format_fifo";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string fifo = (dir / "out.tpsnap").string();
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  try {
    atomic_write_file(fifo, {{1, 2, 3}});
    ADD_FAILURE() << "renamed a regular file over a FIFO";
  } catch (const SnapshotError& error) {
    EXPECT_EQ(error.code(), Errc::kIo);
  }
  EXPECT_TRUE(std::filesystem::is_fifo(fifo));
  // Nothing was written beside it either.
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir),
                          std::filesystem::directory_iterator()),
            1);
  std::filesystem::remove_all(dir);
}

TEST(SnapshotFormat, ReadMissingFileIsTypedIo) {
  try {
    (void)read_snapshot_file("/nonexistent.tpsnap");
    FAIL() << "missing file read succeeded";
  } catch (const SnapshotError& error) {
    EXPECT_EQ(error.code(), Errc::kIo);
  }
}

}  // namespace
}  // namespace taskprof::snapshot
