#include "snapshot/snapshot.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <utility>

#include "common/assert.hpp"
#include "profile/calltree.hpp"

namespace taskprof::snapshot {

namespace {

constexpr std::uint64_t kMetaFlagPartial = 1;

constexpr std::uint8_t kNodeFlagStub = 1;
constexpr std::uint8_t kNodeFlagParameter = 2;
constexpr std::uint8_t kNodeFlagStats = 4;
constexpr std::uint8_t kNodeFlagMask =
    kNodeFlagStub | kNodeFlagParameter | kNodeFlagStats;

constexpr std::uint8_t kMaxRegionType =
    static_cast<std::uint8_t>(RegionType::kParameter);

static_assert(telemetry::kCounterCount <= kMaxTelemetryEntries &&
              telemetry::kGaugeCount <= kMaxTelemetryEntries);

constexpr char kEncoderOrigin[] = ".tpsnap encoder";

/// Refuse to write what decode_snapshot would reject, with its class.
void refuse_unless(bool ok, Errc code, const char* detail) {
  if (!ok) throw SnapshotError(code, kEncoderOrigin, detail);
}

void encode_meta(Encoder& out, const AggregateProfile& profile,
                 const SnapshotMeta& meta) {
  refuse_unless(profile.thread_count <= kMaxThreads, Errc::kLimit,
                "thread count");
  refuse_unless(profile.max_concurrent_per_thread.size() <= kMaxThreads,
                Errc::kLimit, "per-thread mark count");
  std::uint64_t flags = 0;
  if (profile.partial_capture) flags |= kMetaFlagPartial;
  out.varint(flags);
  out.varint(meta.flush_seq);
  out.varint(meta.process_id);
  out.varint(profile.thread_count);
  out.varint(profile.total_task_switches);
  out.varint(profile.total_folded_events);
  out.varint(profile.max_concurrent_any_thread);
  out.varint(profile.max_concurrent_per_thread.size());
  for (std::size_t mark : profile.max_concurrent_per_thread) {
    out.varint(mark);
  }
}

void decode_meta(Decoder& in, SnapshotData& data) {
  const std::uint64_t flags = in.varint();
  if ((flags & ~kMetaFlagPartial) != 0) {
    in.fail(Errc::kMalformed, "unknown meta flags");
  }
  data.profile.partial_capture = (flags & kMetaFlagPartial) != 0;
  data.meta.flush_seq = in.varint();
  data.meta.process_id = in.varint();
  const std::uint64_t threads = in.varint();
  if (threads > kMaxThreads) in.fail(Errc::kLimit, "thread count");
  data.profile.thread_count = static_cast<std::size_t>(threads);
  data.profile.total_task_switches = in.varint();
  data.profile.total_folded_events = in.varint();
  data.profile.max_concurrent_any_thread =
      static_cast<std::size_t>(in.varint());
  const std::uint64_t marks = in.varint();
  if (marks > kMaxThreads) in.fail(Errc::kLimit, "per-thread mark count");
  data.profile.max_concurrent_per_thread.reserve(
      static_cast<std::size_t>(marks));
  for (std::uint64_t i = 0; i < marks; ++i) {
    data.profile.max_concurrent_per_thread.push_back(
        static_cast<std::size_t>(in.varint()));
  }
}

void encode_regions(Encoder& out, const RegionRegistry& registry) {
  const std::size_t count = registry.size();
  out.varint(count);
  for (RegionHandle h = 0; h < count; ++h) {
    const RegionInfo& info = registry.info(h);
    refuse_unless(info.name.size() <= kMaxStringSize &&
                      info.file.size() <= kMaxStringSize,
                  Errc::kLimit, "string length exceeds limit");
    refuse_unless(info.line >= 0, Errc::kMalformed, "region line");
    out.str(info.name);
    out.u8(static_cast<std::uint8_t>(info.type));
    out.str(info.file);
    out.svarint(info.line);
  }
}

void decode_regions(Decoder& in, SnapshotData& data) {
  const std::uint64_t count = in.varint();
  // Each region record is at least 4 bytes, so a count beyond the
  // payload size is a lie regardless of content.
  if (count > in.remaining()) in.fail(Errc::kLimit, "region count");
  data.registry = std::make_unique<RegionRegistry>();
  for (std::uint64_t i = 0; i < count; ++i) {
    RegionInfo info;
    info.name = in.str(kMaxStringSize);
    const std::uint8_t type = in.u8();
    if (type > kMaxRegionType) in.fail(Errc::kMalformed, "region type");
    info.type = static_cast<RegionType>(type);
    info.file = in.str(kMaxStringSize);
    const std::int64_t line = in.svarint();
    if (line < 0 || line > INT32_MAX) in.fail(Errc::kMalformed, "region line");
    info.line = static_cast<int>(line);
    // The registry deduplicates on (name, type); a duplicate entry would
    // silently renumber every later handle, so reject it.
    const RegionHandle handle = data.registry->register_region(std::move(info));
    if (handle != static_cast<RegionHandle>(i)) {
      in.fail(Errc::kMalformed, "duplicate region entry");
    }
  }
}

void encode_tree(Encoder& out, const CallNode* root,
                 std::size_t region_count) {
  for_each_node(root, [&](const CallNode& node, int) {
    refuse_unless(node.region < region_count, Errc::kMalformed,
                  "region handle");
    out.varint(node.region);
    std::uint8_t flags = 0;
    if (node.is_stub) flags |= kNodeFlagStub;
    if (node.parameter != kNoParameter) flags |= kNodeFlagParameter;
    if (node.visit_stats.count > 0) flags |= kNodeFlagStats;
    out.u8(flags);
    if ((flags & kNodeFlagParameter) != 0) out.svarint(node.parameter);
    out.varint(node.visits);
    out.svarint(node.inclusive);
    if ((flags & kNodeFlagStats) != 0) {
      out.varint(node.visit_stats.count);
      out.svarint(node.visit_stats.sum);
      out.svarint(node.visit_stats.min);
      out.svarint(node.visit_stats.max);
    }
    out.varint(node.n_children);
  });
}

CallNode* decode_node(Decoder& in, NodePool& pool, std::size_t region_count,
                      CallNode* parent, std::uint64_t& n_children) {
  const std::uint64_t region = in.varint();
  if (region >= region_count) in.fail(Errc::kMalformed, "region handle");
  const std::uint8_t flags = in.u8();
  if ((flags & ~kNodeFlagMask) != 0) in.fail(Errc::kMalformed, "node flags");
  std::int64_t parameter = kNoParameter;
  if ((flags & kNodeFlagParameter) != 0) {
    parameter = in.svarint();
    if (parameter == kNoParameter) {
      in.fail(Errc::kMalformed, "non-canonical parameter");
    }
  }
  CallNode* node = pool.allocate(static_cast<RegionHandle>(region), parameter,
                                 (flags & kNodeFlagStub) != 0, parent);
  node->visits = in.varint();
  node->inclusive = in.svarint();
  if ((flags & kNodeFlagStats) != 0) {
    node->visit_stats.count = in.varint();
    if (node->visit_stats.count == 0) {
      in.fail(Errc::kMalformed, "non-canonical stats");
    }
    node->visit_stats.sum = in.svarint();
    node->visit_stats.min = in.svarint();
    node->visit_stats.max = in.svarint();
  }
  n_children = in.varint();
  return node;
}

CallNode* decode_tree(Decoder& in, NodePool& pool, std::size_t region_count) {
  struct Open {
    CallNode* node;
    std::uint64_t pending;  ///< children still to decode
  };
  std::uint64_t pending = 0;
  CallNode* root = decode_node(in, pool, region_count, nullptr, pending);
  std::vector<Open> stack;
  if (pending > 0) stack.push_back({root, pending});
  while (!stack.empty()) {
    Open& top = stack.back();
    if (top.pending == 0) {
      stack.pop_back();
      continue;
    }
    --top.pending;
    CallNode* child =
        decode_node(in, pool, region_count, top.node, pending);
    if (pending > 0) stack.push_back({child, pending});
  }
  return root;
}

void encode_trees(Encoder& out, const AggregateProfile& profile,
                  std::size_t region_count) {
  out.u8(profile.implicit_root != nullptr ? 1 : 0);
  if (profile.implicit_root != nullptr) {
    encode_tree(out, profile.implicit_root, region_count);
  }
  out.varint(profile.task_roots.size());
  for (const CallNode* root : profile.task_roots) {
    encode_tree(out, root, region_count);
  }
}

void decode_trees(Decoder& in, SnapshotData& data) {
  const std::size_t region_count = data.registry->size();
  const std::uint8_t has_implicit = in.u8();
  if (has_implicit > 1) in.fail(Errc::kMalformed, "implicit-root marker");
  if (has_implicit == 1) {
    data.profile.implicit_root =
        decode_tree(in, data.profile.pool, region_count);
  }
  const std::uint64_t roots = in.varint();
  if (roots > in.remaining()) in.fail(Errc::kLimit, "task-root count");
  data.profile.task_roots.reserve(static_cast<std::size_t>(roots));
  for (std::uint64_t i = 0; i < roots; ++i) {
    data.profile.task_roots.push_back(
        decode_tree(in, data.profile.pool, region_count));
  }
}

void encode_telemetry(Encoder& out, const telemetry::Snapshot& snapshot) {
  refuse_unless(snapshot.threads >= 0 &&
                    static_cast<std::size_t>(snapshot.threads) <= kMaxThreads,
                Errc::kLimit, "telemetry thread count");
  refuse_unless(snapshot.per_thread.size() <= kMaxThreads, Errc::kLimit,
                "per-thread row count");
  out.varint(static_cast<std::uint64_t>(snapshot.threads));
  out.varint(telemetry::kCounterCount);
  for (std::size_t i = 0; i < telemetry::kCounterCount; ++i) {
    out.str(telemetry::counter_name(static_cast<telemetry::Counter>(i)));
    out.varint(snapshot.counters[i]);
  }
  out.varint(telemetry::kGaugeCount);
  for (std::size_t i = 0; i < telemetry::kGaugeCount; ++i) {
    out.str(telemetry::gauge_name(static_cast<telemetry::Gauge>(i)));
    out.varint(snapshot.gauges[i]);
  }
  // Per-thread counter matrix; columns follow the counter-name list
  // written above, in order.
  out.varint(snapshot.per_thread.size());
  for (const auto& row : snapshot.per_thread) {
    for (std::size_t i = 0; i < telemetry::kCounterCount; ++i) {
      out.varint(row[i]);
    }
  }
}

void decode_telemetry(Decoder& in, SnapshotData& data) {
  data.has_telemetry = true;
  const std::uint64_t threads = in.varint();
  if (threads > kMaxThreads) in.fail(Errc::kLimit, "telemetry thread count");
  data.telemetry.threads = static_cast<int>(threads);
  // Entries are name-keyed so a reader survives counter renumbering;
  // names it does not know are skipped.
  const std::uint64_t counters = in.varint();
  if (counters > kMaxTelemetryEntries) in.fail(Errc::kLimit, "counter count");
  // column_of[j]: which Counter the j-th on-disk column feeds (-1: an
  // unknown name, its values are read and dropped).
  std::vector<int> column_of(counters, -1);
  for (std::uint64_t i = 0; i < counters; ++i) {
    const std::string name = in.str(kMaxStringSize);
    const std::uint64_t value = in.varint();
    for (std::size_t c = 0; c < telemetry::kCounterCount; ++c) {
      if (name == telemetry::counter_name(static_cast<telemetry::Counter>(c))) {
        data.telemetry.counters[c] = value;
        column_of[i] = static_cast<int>(c);
        break;
      }
    }
  }
  const std::uint64_t gauges = in.varint();
  if (gauges > kMaxTelemetryEntries) in.fail(Errc::kLimit, "gauge count");
  for (std::uint64_t i = 0; i < gauges; ++i) {
    const std::string name = in.str(kMaxStringSize);
    const std::uint64_t value = in.varint();
    for (std::size_t g = 0; g < telemetry::kGaugeCount; ++g) {
      if (name == telemetry::gauge_name(static_cast<telemetry::Gauge>(g))) {
        data.telemetry.gauges[g] = value;
        break;
      }
    }
  }
  const std::uint64_t rows = in.varint();
  if (rows > kMaxThreads) in.fail(Errc::kLimit, "per-thread row count");
  data.telemetry.per_thread.resize(rows);
  for (std::uint64_t r = 0; r < rows; ++r) {
    for (std::uint64_t j = 0; j < counters; ++j) {
      const std::uint64_t value = in.varint();
      if (column_of[j] >= 0) {
        data.telemetry.per_thread[r][static_cast<std::size_t>(
            column_of[j])] = value;
      }
    }
  }
}

}  // namespace

std::vector<std::uint8_t> encode_snapshot(const AggregateProfile& profile,
                                          const RegionRegistry& registry,
                                          const SnapshotMeta& meta,
                                          const telemetry::Snapshot* telemetry) {
  Encoder out;
  out.header(kSnapshotFormat, telemetry != nullptr ? 4 : 3);
  const auto section = [&out](SectionId id, auto&& encode) {
    const std::size_t mark = out.begin_section(static_cast<std::uint32_t>(id));
    encode();
    out.end_section(mark);
  };
  section(SectionId::kMeta, [&] { encode_meta(out, profile, meta); });
  section(SectionId::kRegions, [&] { encode_regions(out, registry); });
  section(SectionId::kTrees,
          [&] { encode_trees(out, profile, registry.size()); });
  if (telemetry != nullptr) {
    section(SectionId::kTelemetry, [&] { encode_telemetry(out, *telemetry); });
  }
  return out.take();
}

std::vector<std::uint8_t> encode_snapshot(const SnapshotData& data) {
  TASKPROF_ASSERT(data.registry != nullptr, "snapshot without a registry");
  return encode_snapshot(data.profile, *data.registry, data.meta,
                         data.has_telemetry ? &data.telemetry : nullptr);
}

SnapshotData decode_snapshot(std::span<const std::uint8_t> bytes,
                             const std::string& origin) {
  const Container container = parse_container(bytes, kSnapshotFormat, origin);
  SnapshotData data;
  const auto section = [&](std::span<const std::uint8_t> payload,
                           const char* name, auto decode) {
    decode_payload(payload, origin + " [" + name + "]",
                   [&](Decoder& in) { decode(in, data); });
  };
  const auto require = [&](SectionId id) {
    return container.require(static_cast<std::uint32_t>(id));
  };
  section(require(SectionId::kMeta), "meta", decode_meta);
  section(require(SectionId::kRegions), "regions", decode_regions);
  section(require(SectionId::kTrees), "trees", decode_trees);
  if (const Section* s = container.find(
          static_cast<std::uint32_t>(SectionId::kTelemetry))) {
    section(s->payload, "telemetry", decode_telemetry);
  }
  return data;
}

void atomic_write_file(const std::string& path,
                       std::span<const std::uint8_t> bytes) {
  // Same directory as the target so the rename cannot cross filesystems;
  // pid-suffixed so concurrent writers of one path cannot clobber each
  // other's temp file.
  // rename(2) replaces whatever the path names: refuse a FIFO, a device
  // or a symlink rather than turn it into a regular file.
  struct stat target{};
  if (::lstat(path.c_str(), &target) == 0 && !S_ISREG(target.st_mode)) {
    throw SnapshotError(Errc::kIo, path, "not a regular file");
  }
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    throw SnapshotError(Errc::kIo, path, "cannot open temp file " + tmp);
  }
  const bool wrote =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size() &&
      std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  if (std::fclose(f) != 0 || !wrote) {
    std::remove(tmp.c_str());
    throw SnapshotError(Errc::kIo, path, "short write to temp file");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw SnapshotError(Errc::kIo, path, "rename over target failed");
  }
}

void write_snapshot_file(const std::string& path,
                         const AggregateProfile& profile,
                         const RegionRegistry& registry,
                         const SnapshotMeta& meta,
                         const telemetry::Snapshot* telemetry) {
  const std::vector<std::uint8_t> bytes =
      encode_snapshot(profile, registry, meta, telemetry);
  atomic_write_file(path, bytes);
}

void write_snapshot_file(const std::string& path, const SnapshotData& data) {
  atomic_write_file(path, encode_snapshot(data));
}

SnapshotData read_snapshot_file(const std::string& path) {
  return decode_snapshot(read_file(path), path);
}

}  // namespace taskprof::snapshot
