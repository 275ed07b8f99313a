#include "trace/file.hpp"

#include <limits>
#include <string_view>

#include "common/assert.hpp"
#include "common/write_file.hpp"

namespace taskprof::trace {

namespace {

using snapshot::Decoder;
using snapshot::Encoder;
using snapshot::Errc;
using snapshot::kMaxRegion;
using snapshot::kMaxThreads;
using snapshot::SnapshotError;

constexpr std::uint8_t kKindMask = 0x1F;
constexpr std::uint8_t kHasRegion = 0x20;
constexpr std::uint8_t kHasParameter = 0x40;
constexpr std::uint8_t kHasPeer = 0x80;
static_assert(static_cast<std::uint8_t>(EventKind::kWork) <= kKindMask);

// The container header and the events section's header.
constexpr std::size_t kHeaderBytes = 16 + 16;
// Flags, time and task take at least one byte each.
constexpr std::size_t kMinEventBytes = 3;
// Flags 1, time and task 10 each, region 3 (below kMaxRegion), parameter
// 10, peer 3 (below kMaxThreads).
constexpr std::size_t kMaxEventBytes = 37;

void encode_stream(Encoder& out, const std::vector<TraceEvent>& events,
                   ThreadId thread, std::size_t thread_count) {
  out.varint(events.size());
  Ticks last = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& event = events[i];
    TASKPROF_ASSERT(event.thread == thread,
                    "trace event on another thread's stream");
    std::uint8_t flags = static_cast<std::uint8_t>(event.kind);
    if (event.region != kInvalidRegion) {
      if (event.region >= kMaxRegion) {
        throw SnapshotError(Errc::kLimit, "trace encoder",
                            "region id " + std::to_string(event.region));
      }
      flags |= kHasRegion;
    }
    if (event.parameter != kNoParameter) flags |= kHasParameter;
    if (event.peer != 0) {
      TASKPROF_ASSERT(event.peer < thread_count,
                      "migration to a thread the trace does not have");
      flags |= kHasPeer;
    }
    out.u8(flags);
    if (i == 0) {
      out.svarint(event.time);
    } else {
      TASKPROF_ASSERT(event.time >= last, "trace stream goes back in time");
      out.varint(static_cast<std::uint64_t>(event.time) -
                 static_cast<std::uint64_t>(last));
    }
    last = event.time;
    out.varint(event.task);
    if ((flags & kHasRegion) != 0) out.varint(event.region);
    if ((flags & kHasParameter) != 0) out.svarint(event.parameter);
    if ((flags & kHasPeer) != 0) out.varint(event.peer);
  }
}

void decode_stream(Decoder& in, std::vector<TraceEvent>& events,
                   ThreadId thread, std::uint64_t thread_count) {
  const std::uint64_t count = in.varint();
  if (count > in.remaining() / kMinEventBytes) {
    in.fail(Errc::kLimit, "event count exceeds the payload");
  }
  events.reserve(static_cast<std::size_t>(count));
  Ticks time = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    TraceEvent event;
    event.thread = thread;
    const std::uint8_t flags = in.u8();
    const std::uint8_t kind = flags & kKindMask;
    if (kind > static_cast<std::uint8_t>(EventKind::kWork)) {
      in.fail(Errc::kMalformed, "unknown event kind");
    }
    event.kind = static_cast<EventKind>(kind);
    if (i == 0) {
      time = in.svarint();
    } else {
      const std::uint64_t delta = in.varint();
      // Modular arithmetic gives the exact headroom for any int64 time.
      const std::uint64_t headroom =
          static_cast<std::uint64_t>(std::numeric_limits<Ticks>::max()) -
          static_cast<std::uint64_t>(time);
      if (delta > headroom) in.fail(Errc::kMalformed, "time overflows");
      time = static_cast<Ticks>(static_cast<std::uint64_t>(time) + delta);
    }
    event.time = time;
    event.task = in.varint();
    if ((flags & kHasRegion) != 0) {
      const std::uint64_t region = in.varint();
      if (region == kInvalidRegion) {
        in.fail(Errc::kMalformed, "non-canonical region");
      }
      if (region >= kMaxRegion) in.fail(Errc::kLimit, "region id");
      event.region = static_cast<RegionHandle>(region);
    }
    if ((flags & kHasParameter) != 0) {
      event.parameter = in.svarint();
      if (event.parameter == kNoParameter) {
        in.fail(Errc::kMalformed, "non-canonical parameter");
      }
    }
    if ((flags & kHasPeer) != 0) {
      const std::uint64_t peer = in.varint();
      if (peer == 0) in.fail(Errc::kMalformed, "non-canonical peer");
      if (peer >= thread_count) in.fail(Errc::kMalformed, "peer thread");
      event.peer = static_cast<ThreadId>(peer);
    }
    events.push_back(event);
  }
}

}  // namespace

std::vector<std::uint8_t> encode_trace(const Trace& trace) {
  const std::size_t threads = trace.thread_count();
  if (threads > kMaxThreads) {
    throw SnapshotError(Errc::kLimit, "trace encoder", "thread count");
  }
  Encoder out;
  // Reserve the worst case: the bytes are written once, in place, and
  // pages the encoding never reaches are never touched.
  out.reserve(kHeaderBytes + 10 * (threads + 1) +
              kMaxEventBytes * trace.event_count());
  out.header(kTraceFormat, 1);
  const std::size_t section = out.begin_section(kEventsSection);
  out.varint(threads);
  for (ThreadId thread = 0; thread < threads; ++thread) {
    encode_stream(out, trace.thread_events(thread), thread, threads);
  }
  out.end_section(section);
  return out.take();
}

Trace decode_trace(std::span<const std::uint8_t> bytes,
                   const std::string& origin) {
  const snapshot::Container container =
      snapshot::parse_container(bytes, kTraceFormat, origin);
  return snapshot::decode_payload(
      container.require(kEventsSection), origin + " [events]",
      [](Decoder& in) {
        const std::uint64_t threads = in.varint();
        // Each thread takes at least its event count's byte.
        if (threads > kMaxThreads || threads > in.remaining()) {
          in.fail(Errc::kLimit, "thread count");
        }
        std::vector<std::vector<TraceEvent>> per_thread(
            static_cast<std::size_t>(threads));
        for (ThreadId thread = 0; thread < threads; ++thread) {
          decode_stream(in, per_thread[thread], thread, threads);
        }
        return Trace(std::move(per_thread));
      });
}

void write_trace_file(const std::string& path, const Trace& trace) {
  const std::vector<std::uint8_t> bytes = encode_trace(trace);
  write_file(path, std::string_view(reinterpret_cast<const char*>(bytes.data()),
                                    bytes.size()));
}

Trace read_trace_file(const std::string& path) {
  return decode_trace(snapshot::read_file(path), path);
}

}  // namespace taskprof::trace
