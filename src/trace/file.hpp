// Binary trace files: persist recorded traces for post-mortem analysis
// (the Scalasca/OTF2 workflow: measure once, analyze many times).
//
// A .tptrc file is a container of the shared codec (snapshot/format.hpp:
// magic, version, CRC-checked sections, canonical varints, typed
// SnapshotError) with magic "TPTRCE\n\0", version 2 and one events
// section:
//
//   varint thread_count
//   per thread: varint event_count, then its events, each
//     u8       flags: kind in bits 0-4; bit 5 region, bit 6 parameter,
//              bit 7 peer present
//     time     first event of the stream: svarint; later: varint delta
//              from the previous event (a stream only goes forward)
//     varint   task
//     varint   region     (bit 5; never kInvalidRegion, below kMaxRegion)
//     svarint  parameter  (bit 6; never kNoParameter)
//     varint   peer       (bit 7; never 0, below thread_count)
//
// An event's thread is its stream, so the file cannot name a thread the
// trace does not have.  Absent fields take their defaults, and a present
// field that holds its default is rejected (non-canonical), so
// write -> read -> write is byte-identical.  Version 1 files (fixed-width
// fields, no CRC) are not read: they fail as bad-magic.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "snapshot/format.hpp"
#include "trace/trace.hpp"

namespace taskprof::trace {

inline constexpr std::uint32_t kTraceFormatVersion = 2;
inline constexpr snapshot::ContainerFormat kTraceFormat{
    ".tptrc",
    {'T', 'P', 'T', 'R', 'C', 'E', '\n', '\0'},
    kTraceFormatVersion,
    kTraceFormatVersion};
/// Id of the events section, the only one a version 2 file has.
inline constexpr std::uint32_t kEventsSection = 1;

/// Serialize `trace` to .tptrc bytes.  Throws snapshot::SnapshotError
/// (kLimit) for a thread count or region id the reader would reject.
[[nodiscard]] std::vector<std::uint8_t> encode_trace(const Trace& trace);

/// Parse .tptrc bytes.  Throws snapshot::SnapshotError on any structural
/// problem; `origin` names the source in error messages.
[[nodiscard]] Trace decode_trace(std::span<const std::uint8_t> bytes,
                                 const std::string& origin = "<memory>");

/// Write `trace` to `path` with one write (taskprof::write_file: not
/// synced, not atomic).  Throws snapshot::SnapshotError (kLimit) before
/// writing anything for a trace the reader would reject, and
/// std::system_error on I/O failure.
void write_trace_file(const std::string& path, const Trace& trace);

/// Read a trace written by write_trace_file with one read
/// (snapshot::read_file).  Throws snapshot::SnapshotError: kIo on I/O
/// failure, a typed code for a corrupt or foreign file.
[[nodiscard]] Trace read_trace_file(const std::string& path);

}  // namespace taskprof::trace
