// The binary container codec shared by taskprof's file formats: .tpsnap
// profile snapshots (snapshot/snapshot.hpp) and .tptrc event traces
// (trace/file.hpp).
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
// on.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace taskprof::snapshot {

inline constexpr std::size_t kMagicSize = 8;

/// Why a file was rejected.
enum class Errc {
  kIo,               ///< open/read/write/rename failed
  kBadMagic,         ///< first 8 bytes are not this format's header
  kFutureVersion,    ///< written by a newer format revision
  kTruncated,        ///< file ends inside the header or a section
  kBadCrc,           ///< section payload does not match its checksum
  kMalformed,        ///< CRC-valid payload violates the format grammar
  kDuplicateSection, ///< the same section id appears twice
  kMissingSection,   ///< a mandatory section is absent
  kTrailingData,     ///< bytes remain after the last declared section
  kLimit,            ///< a declared count exceeds the sanity limits
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

/// Most threads a container may describe: the decoders reject larger
/// counts with kLimit, and whatever sums counts (merge) refuses a total
/// above it, so no writer produces a file its reader rejects.
inline constexpr std::size_t kMaxThreads = std::size_t{1} << 20;

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

}  // namespace taskprof::snapshot
