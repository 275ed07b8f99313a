#include "snapshot/format.hpp"

#include <array>
#include <cstdio>
#include <memory>

namespace taskprof::snapshot {

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

// Slicing-by-8: kCrcTables[0] is the classic bytewise table and
// kCrcTables[k][i] the CRC of byte i followed by k zero bytes, so eight
// lookups advance the CRC over eight input bytes at once.
constexpr CrcTables make_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = make_crc_tables();

std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::string_view errc_name(Errc code) noexcept {
  switch (code) {
    case Errc::kIo: return "io";
    case Errc::kBadMagic: return "bad-magic";
    case Errc::kBadType: return "bad-type";
    case Errc::kTruncated: return "truncated";
    case Errc::kBadCrc: return "bad-crc";
    case Errc::kMalformed: return "malformed";
    case Errc::kLimit: return "limit";
    case Errc::kBadState: return "bad-state";
    case Errc::kBadSeq: return "bad-seq";
    case Errc::kBadVersion: return "bad-version";
    case Errc::kFutureVersion: return "future-version";
    case Errc::kDuplicateSection: return "duplicate-section";
    case Errc::kMissingSection: return "missing-section";
    case Errc::kTrailingData: return "trailing-data";
  }
  return "unknown";
}

SnapshotError::SnapshotError(Errc code, const std::string& origin,
                             const std::string& detail)
    : std::runtime_error(origin + ": " + std::string(errc_name(code)) + ": " +
                         detail),
      code_(code) {}

std::uint32_t crc32(std::span<const std::uint8_t> bytes) noexcept {
  const auto& t = kCrcTables;
  std::uint32_t crc = 0xFFFFFFFFu;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le32(p) ^ crc;
    const std::uint32_t hi = load_le32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void Encoder::u8(std::uint8_t value) { buffer_.push_back(value); }

void Encoder::u32(std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    buffer_.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
  }
}

void Encoder::u64(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    buffer_.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
  }
}

void Encoder::varint(std::uint64_t value) {
  while (value >= 0x80) {
    buffer_.push_back(static_cast<std::uint8_t>(value) | 0x80u);
    value >>= 7;
  }
  buffer_.push_back(static_cast<std::uint8_t>(value));
}

void Encoder::svarint(std::int64_t value) {
  const std::uint64_t u = static_cast<std::uint64_t>(value);
  varint((u << 1) ^ static_cast<std::uint64_t>(value >> 63));
}

void Encoder::str(std::string_view value) {
  varint(value.size());
  bytes(value.data(), value.size());
}

void Encoder::bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  buffer_.insert(buffer_.end(), p, p + size);
}

void Encoder::header(const ContainerFormat& format,
                     std::uint32_t section_count) {
  bytes(format.magic.data(), format.magic.size());
  u32(format.version);
  u32(section_count);
}

std::size_t Encoder::begin_section(std::uint32_t id) {
  u32(id);
  const std::size_t section = buffer_.size();
  u64(0);  // payload size, patched by end_section
  u32(0);  // payload CRC, patched by end_section
  return section;
}

void Encoder::end_section(std::size_t section) {
  const std::size_t payload = section + 12;
  const std::uint64_t size = buffer_.size() - payload;
  const std::uint32_t crc =
      crc32(std::span<const std::uint8_t>(buffer_).subspan(payload));
  for (int i = 0; i < 8; ++i) {
    buffer_[section + i] = static_cast<std::uint8_t>(size >> (8 * i));
  }
  for (int i = 0; i < 4; ++i) {
    buffer_[section + 8 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
}

Decoder::Decoder(std::span<const std::uint8_t> bytes, std::string origin,
                 Errc overrun)
    : bytes_(bytes), origin_(std::move(origin)), overrun_(overrun) {}

void Decoder::fail(Errc code, const std::string& detail) const {
  throw SnapshotError(code, origin_,
                      detail + " (at byte " + std::to_string(offset_) + ")");
}

std::uint8_t Decoder::u8() {
  if (remaining() < 1) fail(overrun_, "unexpected end of data");
  return bytes_[offset_++];
}

std::uint32_t Decoder::u32() {
  if (remaining() < 4) fail(overrun_, "unexpected end of data");
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<std::uint32_t>(bytes_[offset_ + i]) << (8 * i);
  }
  offset_ += 4;
  return value;
}

std::uint64_t Decoder::u64() {
  if (remaining() < 8) fail(overrun_, "unexpected end of data");
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(bytes_[offset_ + i]) << (8 * i);
  }
  offset_ += 8;
  return value;
}

std::uint64_t Decoder::varint() {
  std::uint64_t value = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    const std::uint8_t byte = u8();
    const std::uint64_t payload = byte & 0x7Fu;
    if (shift == 63 && payload > 1) fail(Errc::kMalformed, "varint overflow");
    value |= payload << shift;
    if ((byte & 0x80u) == 0) {
      // Canonical form only: a zero continuation byte re-encodes shorter.
      if (payload == 0 && shift != 0) {
        fail(Errc::kMalformed, "non-minimal varint");
      }
      return value;
    }
  }
  fail(Errc::kMalformed, "varint longer than 10 bytes");
}

std::int64_t Decoder::svarint() {
  const std::uint64_t u = varint();
  return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

std::string Decoder::str(std::size_t max_size) {
  const std::uint64_t size = varint();
  if (size > max_size) fail(Errc::kLimit, "string length exceeds limit");
  const auto span = bytes(static_cast<std::size_t>(size));
  return std::string(reinterpret_cast<const char*>(span.data()), span.size());
}

std::span<const std::uint8_t> Decoder::bytes(std::size_t size) {
  if (remaining() < size) fail(overrun_, "unexpected end of data");
  const auto out = bytes_.subspan(offset_, size);
  offset_ += size;
  return out;
}

const Section* Container::find(std::uint32_t id) const noexcept {
  for (const Section& section : sections) {
    if (section.id == id) return &section;
  }
  return nullptr;
}

std::span<const std::uint8_t> Container::require(std::uint32_t id) const {
  const Section* section = find(id);
  if (section == nullptr) {
    throw SnapshotError(Errc::kMissingSection, origin,
                        "no section " + std::to_string(id));
  }
  return section->payload;
}

Container parse_container(std::span<const std::uint8_t> bytes,
                          const ContainerFormat& format,
                          const std::string& origin) {
  Decoder top(bytes, origin, Errc::kTruncated);
  const auto magic = top.bytes(kMagicSize);
  for (std::size_t i = 0; i < kMagicSize; ++i) {
    if (magic[i] != static_cast<std::uint8_t>(format.magic[i])) {
      top.fail(Errc::kBadMagic, "not a " + std::string(format.name) + " file");
    }
  }
  Container out;
  out.origin = origin;
  out.version = top.u32();
  if (out.version < format.min_version) {
    top.fail(Errc::kMalformed,
             "version " + std::to_string(out.version) + " was never issued");
  }
  if (out.version > format.version) {
    top.fail(Errc::kFutureVersion,
             "format version " + std::to_string(out.version) +
                 " is newer than supported " +
                 std::to_string(format.version));
  }
  const std::uint32_t section_count = top.u32();
  if (section_count > kMaxSections) top.fail(Errc::kLimit, "section count");

  for (std::uint32_t i = 0; i < section_count; ++i) {
    const std::uint32_t id = top.u32();
    const std::uint64_t size = top.u64();
    const std::uint32_t stored_crc = top.u32();
    if (size > top.remaining()) {
      top.fail(Errc::kTruncated, "section payload cut short");
    }
    const auto payload = top.bytes(static_cast<std::size_t>(size));
    if (crc32(payload) != stored_crc) {
      top.fail(Errc::kBadCrc,
               "section " + std::to_string(id) + " checksum mismatch");
    }
    if (out.find(id) != nullptr) {
      top.fail(Errc::kDuplicateSection,
               "section " + std::to_string(id) + " appears twice");
    }
    out.sections.push_back({id, payload});
  }
  if (top.remaining() != 0) {
    top.fail(Errc::kTrailingData, "bytes after the last section");
  }
  return out;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  const auto close = [](std::FILE* f) { std::fclose(f); };
  const std::unique_ptr<std::FILE, decltype(close)> file(
      std::fopen(path.c_str(), "rb"), close);
  if (file == nullptr) {
    throw SnapshotError(Errc::kIo, path, "cannot open for reading");
  }
  long size = -1;
  if (std::fseek(file.get(), 0, SEEK_END) == 0) size = std::ftell(file.get());
  if (size < 0 || std::fseek(file.get(), 0, SEEK_SET) != 0) {
    throw SnapshotError(Errc::kIo, path, "cannot size the file");
  }
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  if (std::fread(bytes.data(), 1, bytes.size(), file.get()) != bytes.size()) {
    throw SnapshotError(Errc::kIo, path, "read failed");
  }
  return bytes;
}

}  // namespace taskprof::snapshot
