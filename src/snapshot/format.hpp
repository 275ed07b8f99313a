// The binary container codec shared by taskprof's file formats: .tpsnap
// profile snapshots (snapshot/snapshot.hpp) and .tptrc event traces
// (trace/file.hpp).  TPIF frames (ingest/protocol.hpp) use its encoder,
// decoder and error type for their payloads.
//
// A container is
//
//   magic[8]  identifies the file kind; each format has its own
//   u32       format version (little-endian)
//   u32       section count
//   repeated { u32 id, u64 payload size, u32 CRC-32 of payload, payload }
//
// Every byte after the 16-byte header is covered by a section CRC, so a
// torn write or a flipped bit is detected before any payload is parsed.
// Payloads use LEB128 varints (zigzag for signed values); encoders emit
// exactly one canonical form and decoders reject everything else, which
// is what makes write -> read -> re-write byte-identical (the round-trip
// golden tests rely on it).
//
// All failures are typed: the reader never asserts, never reads out of
// bounds, and never returns a half-built object — it throws
// SnapshotError carrying an Errc that tests (and the fuzz corpora) match
// on.  SnapshotError is the one error type of all three formats.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace taskprof::snapshot {

inline constexpr std::size_t kMagicSize = 8;

/// Why a .tpsnap, a .tptrc or a TPIF frame was rejected.  A TPIF Error
/// frame carries the first ten, each as its value; 11-14 are
/// container-only and never go on the wire.
enum class Errc : std::uint8_t {
  kIo = 1,                 ///< open/read/write/rename or socket I/O failed
  kBadMagic = 2,           ///< the input does not start with its magic
  kBadType = 3,            ///< unknown or unexpected TPIF frame type
  kTruncated = 4,          ///< the input ends inside a header or a section
  kBadCrc = 5,             ///< a payload does not match its checksum
  kMalformed = 6,          ///< CRC-valid payload violates the grammar
  kLimit = 7,              ///< a declared count exceeds the sanity limits
  kBadState = 8,           ///< frame is illegal in the session's state
  kBadSeq = 9,             ///< delta sequence gap or base mismatch
  kBadVersion = 10,        ///< unsupported protocol version in Hello
  kFutureVersion = 11,     ///< written by a newer format revision
  kDuplicateSection = 12,  ///< the same section id appears twice
  kMissingSection = 13,    ///< a mandatory section is absent
  kTrailingData = 14,      ///< bytes remain after the last declared section
};

/// Stable lowercase name of an error class, e.g. "bad-crc".
[[nodiscard]] std::string_view errc_name(Errc code) noexcept;

/// Typed rejection.  what() is "<origin>: <errc-name>: <detail>".
class SnapshotError : public std::runtime_error {
 public:
  SnapshotError(Errc code, const std::string& origin,
                const std::string& detail);

  [[nodiscard]] Errc code() const noexcept { return code_; }

 private:
  Errc code_;
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `bytes`.
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> bytes) noexcept;

// The container limits, one table: a decoder rejects a larger value with
// kLimit and every writer (merge's sums included) refuses to produce one.
// Generous for real profiles, tight enough that a corrupt count cannot
// drive allocation.
inline constexpr std::size_t kMaxThreads = std::size_t{1} << 20;
inline constexpr std::size_t kMaxSections = 64;
/// Region names and files, telemetry entry names.
inline constexpr std::size_t kMaxStringSize = std::size_t{1} << 20;
/// Counters or gauges in a .tpsnap telemetry section.
inline constexpr std::size_t kMaxTelemetryEntries = 4096;
/// .tptrc region ids stay below it, so the trace-only CLI paths, which
/// name every region id up to the largest, stay quick.
inline constexpr std::uint64_t kMaxRegion = std::uint64_t{1} << 20;

/// What tells one file kind apart inside the shared container.
struct ContainerFormat {
  std::string_view name;  ///< file kind in error messages, e.g. ".tpsnap"
  std::array<char, kMagicSize> magic;
  std::uint32_t min_version;  ///< lower versions were never issued
  std::uint32_t version;  ///< written by this build; newer files are future
};

/// Append-only little-endian encoder.
class Encoder {
 public:
  void u8(std::uint8_t value);
  void u32(std::uint32_t value);
  void u64(std::uint64_t value);
  /// LEB128 (7 bits per byte, high bit = continue).
  void varint(std::uint64_t value);
  /// Zigzag-mapped varint for signed values.
  void svarint(std::int64_t value);
  /// varint length prefix + raw bytes.
  void str(std::string_view value);
  void bytes(const void* data, std::size_t size);
  void reserve(std::size_t size) { buffer_.reserve(size); }

  /// Container framing: `header` starts a file of `format.version`.
  /// `begin_section` writes a section header with a placeholder size and
  /// CRC and returns its offset; `end_section` patches both over the
  /// bytes appended since, so a payload is encoded in place and never
  /// copied.
  void header(const ContainerFormat& format, std::uint32_t section_count);
  [[nodiscard]] std::size_t begin_section(std::uint32_t id);
  void end_section(std::size_t section);

  [[nodiscard]] const std::vector<std::uint8_t>& buffer() const noexcept {
    return buffer_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return buffer_.size(); }
  /// Move the bytes out; the encoder is left empty.
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept {
    return std::move(buffer_);
  }

 private:
  std::vector<std::uint8_t> buffer_;
};

/// Bounds-checked little-endian decoder over a borrowed byte span.
///
/// Every read throws SnapshotError on overrun; `overrun` distinguishes
/// the file-level cursor (overruns mean the file was cut short:
/// kTruncated) from section payloads (the payload passed its CRC, so an
/// overrun means the grammar lied about a length: kMalformed).
class Decoder {
 public:
  Decoder(std::span<const std::uint8_t> bytes, std::string origin,
          Errc overrun);

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  /// Rejects non-minimal encodings and values beyond 64 bits
  /// (kMalformed): the canonical-form guarantee cuts both ways.
  [[nodiscard]] std::uint64_t varint();
  [[nodiscard]] std::int64_t svarint();
  /// Length-prefixed string; `max_size` guards against absurd lengths
  /// (Errc::kLimit).
  [[nodiscard]] std::string str(std::size_t max_size);
  [[nodiscard]] std::span<const std::uint8_t> bytes(std::size_t size);

  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - offset_;
  }
  [[nodiscard]] const std::string& origin() const noexcept { return origin_; }

  /// Throw a SnapshotError at the current position.
  [[noreturn]] void fail(Errc code, const std::string& detail) const;

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t offset_ = 0;
  std::string origin_;
  Errc overrun_;
};

/// One section of a parsed container; the payload borrows from the
/// parsed bytes.
struct Section {
  std::uint32_t id = 0;
  std::span<const std::uint8_t> payload;
};

/// A container whose framing has been verified.
struct Container {
  std::string origin;
  std::uint32_t version = 0;
  std::vector<Section> sections;

  /// The section with `id`, or nullptr.  Readers skip ids they do not
  /// know (their CRC was still checked), so a later version can add
  /// sections without breaking older readers.
  [[nodiscard]] const Section* find(std::uint32_t id) const noexcept;
  /// The payload of section `id`; kMissingSection when there is none.
  [[nodiscard]] std::span<const std::uint8_t> require(std::uint32_t id) const;
};

/// Check the framing of `bytes` as a `format` container: the magic, the
/// version, the section count, each section's size and CRC, duplicate
/// ids and trailing data.  `origin` names the source in error messages.
[[nodiscard]] Container parse_container(std::span<const std::uint8_t> bytes,
                                        const ContainerFormat& format,
                                        const std::string& origin);

/// Decode the whole of a CRC-checked `payload` with `decode(Decoder&)`
/// and return what it returns.  An overrun means a length lied, so it is
/// kMalformed, and so are bytes `decode` leaves unread.
template <typename Decode>
auto decode_payload(std::span<const std::uint8_t> payload, std::string origin,
                    Decode&& decode) {
  Decoder in(payload, std::move(origin), Errc::kMalformed);
  const auto finish = [&in] {
    if (in.remaining() != 0) in.fail(Errc::kMalformed, "trailing bytes");
  };
  if constexpr (std::is_void_v<decltype(decode(in))>) {
    decode(in);
    finish();
  } else {
    auto result = decode(in);
    finish();
    return result;
  }
}

/// The whole of the file at `path`, sized first and read with one read.
/// Throws SnapshotError(kIo) when it cannot be opened, sized or read.
[[nodiscard]] std::vector<std::uint8_t> read_file(const std::string& path);

}  // namespace taskprof::snapshot
