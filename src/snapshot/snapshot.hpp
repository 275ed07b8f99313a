// Serialization of whole profiles: AggregateProfile + RegionRegistry
// (+ optional telemetry) <-> .tpsnap bytes, plus atomic file I/O.
//
// The on-disk registry preserves handle order, and RegionRegistry
// deduplicates on (name, type) — so re-registering the entries in file
// order into a fresh registry reproduces the exact handles the tree
// section refers to.  Call trees are stored in preorder with per-node
// child counts; the reader validates every region handle, flag bit, and
// length against the section payload before it materializes nodes, and
// rejects anything non-canonical so decode(encode(x)) == x byte for
// byte.
//
// write_snapshot_file() is atomic: the bytes go to a same-directory temp
// file which is fsync'ed and then rename(2)'d over the target, so a
// reader (or a crash) can only ever observe the previous complete
// snapshot or the new complete snapshot, never a torn mix.  A target
// that exists and is not a regular file (a FIFO, a device, a symlink)
// is refused rather than replaced.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "measure/aggregate.hpp"
#include "profile/region.hpp"
#include "snapshot/format.hpp"
#include "telemetry/telemetry.hpp"

namespace taskprof::snapshot {

/// The .tpsnap container: magic "TPSNAP\n\0" (the newline catches
/// ASCII-mode mangling, the NUL catches C-string truncation).  Readers
/// accept any version <= kFormatVersion; newer files are rejected with
/// Errc::kFutureVersion (see DESIGN.md for the compatibility policy).
inline constexpr std::uint32_t kFormatVersion = 1;
inline constexpr ContainerFormat kSnapshotFormat{
    ".tpsnap", {'T', 'P', 'S', 'N', 'A', 'P', '\n', '\0'}, 1, kFormatVersion};

/// Section identifiers.  Unknown ids are skipped (their CRC is still
/// verified), so future versions can add sections without breaking old
/// readers.
enum class SectionId : std::uint32_t {
  kMeta = 1,       ///< profile-wide scalars (thread count, flags, ...)
  kRegions = 2,    ///< region registry (handle order preserved)
  kTrees = 3,      ///< implicit tree + merged task trees, preorder
  kTelemetry = 4,  ///< optional telemetry counters/gauges
};

/// Snapshot-wide scalars that are not part of the profile itself.
struct SnapshotMeta {
  std::uint64_t flush_seq = 0;   ///< ordinal of the flush that wrote this
  std::uint64_t process_id = 0;  ///< writing process (0 after mixed merge)
};

/// A decoded snapshot: the profile, the registry its handles refer to,
/// and whatever optional sections the file carried.
struct SnapshotData {
  SnapshotMeta meta;
  std::unique_ptr<RegionRegistry> registry;
  AggregateProfile profile;
  bool has_telemetry = false;
  telemetry::Snapshot telemetry;

  SnapshotData() = default;
  SnapshotData(SnapshotData&&) = default;
  SnapshotData& operator=(SnapshotData&&) = default;
};

/// Serialize a profile to .tpsnap bytes.  `telemetry` may be nullptr.
/// A value decode_snapshot would reject (a count or string past the
/// limits in format.hpp, a negative region line, a node whose region is
/// not in `registry`) throws SnapshotError with the class the reader
/// would give, kLimit or kMalformed.
[[nodiscard]] std::vector<std::uint8_t> encode_snapshot(
    const AggregateProfile& profile, const RegionRegistry& registry,
    const SnapshotMeta& meta,
    const telemetry::Snapshot* telemetry = nullptr);

/// Canonical re-encode of a decoded snapshot (round-trip identity).
[[nodiscard]] std::vector<std::uint8_t> encode_snapshot(
    const SnapshotData& data);

/// Parse .tpsnap bytes.  Throws SnapshotError on any structural problem;
/// on return every region handle in the trees is valid in the returned
/// registry.  `origin` names the source in error messages.
[[nodiscard]] SnapshotData decode_snapshot(
    std::span<const std::uint8_t> bytes,
    const std::string& origin = "<memory>");

/// Atomically write `bytes` to `path` (same-directory temp file + fsync
/// + rename).  Throws SnapshotError(Errc::kIo) on failure, and before
/// writing anything when `path` exists and is not a regular file.
void atomic_write_file(const std::string& path,
                       std::span<const std::uint8_t> bytes);

void write_snapshot_file(const std::string& path,
                         const AggregateProfile& profile,
                         const RegionRegistry& registry,
                         const SnapshotMeta& meta,
                         const telemetry::Snapshot* telemetry = nullptr);

void write_snapshot_file(const std::string& path, const SnapshotData& data);

[[nodiscard]] SnapshotData read_snapshot_file(const std::string& path);

}  // namespace taskprof::snapshot
