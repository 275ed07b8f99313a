// The round-trip property: every producer of .tpsnap, .tptrc and TPIF
// bytes writes only what its reader accepts.  The outputs of a mid-run
// capture, the final aggregate, `merge` on every ordered pair of the
// committed ok_*.tpsnap files (and of mutants at 2^20 - 1 and 2^20
// threads), delta subtract and apply, taskprofd's fold, and the trace
// writer on the golden trace-view runs must each decode (and re-encode
// byte for byte), or their producer must throw a typed SnapshotError.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bots/kernel.hpp"
#include "ingest/client.hpp"
#include "ingest/daemon.hpp"
#include "ingest/delta.hpp"
#include "ingest/protocol.hpp"
#include "instrument/instrumentor.hpp"
#include "rt/real_runtime.hpp"
#include "rt/sim_runtime.hpp"
#include "snapshot/merge.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/file.hpp"
#include "trace/recorder.hpp"

namespace taskprof {
namespace {

#ifndef TASKPROF_SNAPSHOT_CORPUS_DIR
#error "tests/CMakeLists.txt must define TASKPROF_SNAPSHOT_CORPUS_DIR"
#endif

using Bytes = std::vector<std::uint8_t>;
using snapshot::Errc;
using snapshot::SnapshotData;
using snapshot::SnapshotError;

/// Run `encode`.  The bytes must decode and re-encode identically; false
/// when the encoder refused instead (a typed error).
template <typename Encode>
bool encodes_readably_by(Encode encode) {
  Bytes bytes;
  try {
    bytes = encode();
  } catch (const SnapshotError&) {
    return false;
  }
  try {
    EXPECT_EQ(snapshot::encode_snapshot(snapshot::decode_snapshot(bytes)),
              bytes);
  } catch (const SnapshotError& error) {
    ADD_FAILURE() << "wrote bytes its reader rejects: " << error.what();
  }
  return true;
}

bool encodes_readably(const SnapshotData& data) {
  return encodes_readably_by([&] { return snapshot::encode_snapshot(data); });
}

bool encodes_readably(const AggregateProfile& profile,
                      const RegionRegistry& registry) {
  return encodes_readably_by(
      [&] { return snapshot::encode_snapshot(profile, registry, {}); });
}

bots::KernelConfig config(int threads) {
  bots::KernelConfig out;
  out.threads = threads;
  out.size = bots::SizeClass::kTest;
  return out;
}

/// A capture from a thread that drives no profiler's events.
AggregateProfile capture(const Instrumentor& instr) {
  AggregateProfile out;
  std::thread([&] { out = instr.capture_snapshot().profile; }).join();
  return out;
}

TEST(ProducerRoundTrip, CapturesAndTheAggregate) {
  RegionRegistry registry;
  MeasureOptions options;
  options.snapshot_every = 1;
  Instrumentor instr(registry, options);
  rt::RealRuntime runtime;
  rt::FanoutHooks fanout({&instr});
  runtime.set_hooks(&fanout);
  std::atomic<bool> running{true};
  std::size_t captured = 0;
  std::thread capturer([&] {
    while (running.load(std::memory_order_acquire) && captured < 200) {
      const Instrumentor::CaptureResult result = instr.capture_snapshot();
      if (result.profile.implicit_root == nullptr) continue;
      EXPECT_TRUE(encodes_readably(result.profile, registry));
      ++captured;
    }
  });
  auto kernel = bots::make_kernel("fib");
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(kernel->run(runtime, registry, config(2)).ok);
  }
  running.store(false, std::memory_order_release);
  capturer.join();
  runtime.set_hooks(nullptr);
  EXPECT_TRUE(encodes_readably(capture(instr), registry));
  instr.finalize();
  EXPECT_TRUE(encodes_readably(instr.aggregate(), registry));
}

/// The committed ok_ snapshots and, for each, mutants declaring
/// kMaxThreads - 1 and kMaxThreads threads.
std::vector<Bytes> merge_inputs() {
  std::vector<Bytes> out;
  for (const auto& entry : std::filesystem::directory_iterator(
           TASKPROF_SNAPSHOT_CORPUS_DIR)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("ok_", 0) != 0 || entry.path().extension() != ".tpsnap") {
      continue;
    }
    const Bytes bytes = snapshot::read_file(entry.path().string());
    out.push_back(bytes);
    for (const std::size_t threads :
         {snapshot::kMaxThreads - 1, snapshot::kMaxThreads}) {
      SnapshotData mutant = snapshot::decode_snapshot(bytes);
      mutant.profile.thread_count = threads;
      out.push_back(snapshot::encode_snapshot(mutant));
    }
  }
  return out;
}

TEST(ProducerRoundTrip, MergeOfEveryOrderedPair) {
  const std::vector<Bytes> inputs = merge_inputs();
  ASSERT_GE(inputs.size(), 9u);
  std::size_t merged = 0;
  std::size_t over_limit = 0;
  for (std::size_t a = 0; a < inputs.size(); ++a) {
    for (std::size_t b = 0; b < inputs.size(); ++b) {
      SCOPED_TRACE("pair " + std::to_string(a) + ", " + std::to_string(b));
      SnapshotData dst = snapshot::decode_snapshot(inputs[a]);
      const SnapshotData src = snapshot::decode_snapshot(inputs[b]);
      const bool past_limit = dst.profile.thread_count +
                                  src.profile.thread_count >
                              snapshot::kMaxThreads;
      try {
        snapshot::merge_snapshot_into(dst, src);
      } catch (const SnapshotError& error) {
        if (past_limit) {
          EXPECT_EQ(error.code(), Errc::kLimit) << error.what();
          ++over_limit;
        }
        continue;
      }
      EXPECT_FALSE(past_limit) << "merged past the thread limit";
      EXPECT_TRUE(encodes_readably(dst));
      ++merged;
    }
  }
  EXPECT_GT(merged, 0u);
  EXPECT_GT(over_limit, 0u);
}

TEST(ProducerRoundTrip, DeltaSubtractAndApply) {
  RegionRegistry registry;
  MeasureOptions options;
  options.snapshot_every = 1;
  Instrumentor instr(registry, options);
  rt::SimRuntime runtime;
  rt::FanoutHooks fanout({&instr});
  runtime.set_hooks(&fanout);
  std::vector<SnapshotData> stages;
  for (const char* name : {"fib", "nqueens", "fib"}) {
    ASSERT_TRUE(bots::make_kernel(name)->run(runtime, registry, config(2)).ok);
    stages.push_back(snapshot::decode_snapshot(
        snapshot::encode_snapshot(capture(instr), registry, {})));
  }
  runtime.set_hooks(nullptr);
  SnapshotData acc;
  for (std::size_t i = 0; i < stages.size(); ++i) {
    SCOPED_TRACE("stage " + std::to_string(i));
    const SnapshotData* base = i == 0 ? nullptr : &stages[i - 1];
    const ingest::DeltaResult delta =
        ingest::subtract_snapshot(stages[i], base);
    ASSERT_TRUE(encodes_readably(delta.snapshot));
    if (i == 0) {
      acc = ingest::clone_snapshot(delta.snapshot);
    } else {
      (void)ingest::apply_delta(acc, delta.snapshot, i, nullptr);
    }
    ASSERT_TRUE(encodes_readably(acc));
    EXPECT_EQ(snapshot::encode_snapshot(acc),
              snapshot::encode_snapshot(stages[i]));
  }
}

/// fuzz-sized producer profile declaring `threads` threads.
SnapshotData producer(std::size_t threads, std::uint64_t process_id) {
  SnapshotData data;
  data.registry = std::make_unique<RegionRegistry>();
  const RegionHandle root = data.registry->register_region(
      "implicit task", RegionType::kImplicitTask);
  data.profile.thread_count = threads;
  data.profile.max_concurrent_per_thread = {1};
  data.profile.max_concurrent_any_thread = 1;
  data.profile.implicit_root =
      data.profile.pool.allocate(root, kNoParameter, false, nullptr);
  data.profile.implicit_root->visits = 1;
  data.profile.implicit_root->inclusive = 10;
  data.profile.implicit_root->visit_stats.add(10);
  data.meta.process_id = process_id;
  return data;
}

/// Speak TPIF on a raw connection: send `stream`, then collect reply
/// frames until an Error frame arrives or the daemon stays quiet.
std::vector<ingest::Frame> converse(const std::string& socket_path,
                                    const Bytes& stream) {
  std::vector<ingest::Frame> replies;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  EXPECT_GE(fd, 0);
  if (fd < 0) return replies;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::send(fd, stream.data(), stream.size(), MSG_NOSIGNAL) !=
          static_cast<ssize_t>(stream.size())) {
    ADD_FAILURE() << "cannot talk to " << socket_path;
    ::close(fd);
    return replies;
  }
  ingest::FrameReader reader("daemon");
  for (;;) {
    while (std::optional<ingest::Frame> frame = reader.next()) {
      replies.push_back(std::move(*frame));
      if (replies.back().type == ingest::FrameType::kError) {
        ::close(fd);
        return replies;
      }
    }
    pollfd pfd{fd, POLLIN, 0};
    std::uint8_t chunk[4096];
    const ssize_t n =
        ::poll(&pfd, 1, 5000) == 1 ? ::read(fd, chunk, sizeof(chunk)) : 0;
    if (n <= 0) break;
    reader.feed({chunk, static_cast<std::size_t>(n)});
  }
  ::close(fd);
  return replies;
}

TEST(ProducerRoundTrip, DaemonFold) {
  ingest::DaemonOptions options;
  options.socket_path = testing::TempDir() + "taskprofd_roundtrip.scratch.sock";
  options.shards = 1;  // both sessions fold into one aggregate
  ingest::IngestDaemon daemon(options);
  daemon.start();

  // The first producer folds; its thread count plus the second's is one
  // past the limit, so the second fold is refused with a limit.
  const std::size_t half = snapshot::kMaxThreads / 2;
  {
    ingest::ClientOptions copts;
    copts.socket_path = options.socket_path;
    ingest::IngestClient client(copts);
    (void)client.send_snapshot(producer(half + 1, 1));
    client.finish(nullptr);
  }
  ingest::DeltaFrame rebase;
  rebase.seq = 1;
  rebase.rebase = true;
  rebase.snapshot = snapshot::encode_snapshot(producer(half, 2));
  Bytes stream = ingest::encode_hello({ingest::kProtocolVersion, 2, "second"});
  for (const Bytes& frame :
       {ingest::encode_delta(rebase), ingest::encode_bye({1})}) {
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  const std::vector<ingest::Frame> replies =
      converse(options.socket_path, stream);
  ASSERT_EQ(replies.size(), 4u);  // HelloAck, DeltaAck, ByeAck, Error
  EXPECT_EQ(replies[2].type, ingest::FrameType::kByeAck);
  EXPECT_EQ(ingest::decode_error(replies[3], "daemon").code, Errc::kLimit);

  const SnapshotData exported = daemon.export_aggregate();
  EXPECT_EQ(exported.profile.thread_count, half + 1);
  EXPECT_TRUE(encodes_readably(exported));
  const Bytes served = ingest::query_report(options.socket_path,
                                            ingest::ReportKind::kSnapshot);
  EXPECT_EQ(snapshot::encode_snapshot(snapshot::decode_snapshot(served)),
            served);
  daemon.stop();
}

struct TraceRun {
  const char* kernel;
  int threads;
  bool untied;
  bool depth_parameter;
};

TEST(ProducerRoundTrip, TraceWriterOnTheTraceViewRuns) {
  // The five runs of tests/corpus/trace_views/.
  const TraceRun runs[] = {{"health", 2, true, false},
                           {"fib", 4, true, false},
                           {"sort", 4, false, false},
                           {"sparselu", 8, false, false},
                           {"nqueens", 4, false, true}};
  const std::string path =
      testing::TempDir() + "producer_roundtrip.scratch.tptrc";
  for (const TraceRun& run : runs) {
    SCOPED_TRACE(run.kernel);
    RegionRegistry registry;
    rt::SimRuntime runtime;
    Instrumentor instrumentor(registry);
    trace::TraceRecorder recorder;
    rt::FanoutHooks fanout({&instrumentor, &recorder});
    runtime.set_hooks(&fanout);
    bots::KernelConfig cfg = config(run.threads);
    cfg.untied = run.untied;
    cfg.depth_parameter = run.depth_parameter;
    ASSERT_TRUE(bots::make_kernel(run.kernel)->run(runtime, registry, cfg).ok);
    runtime.set_hooks(nullptr);
    const trace::Trace recorded = recorder.take();
    trace::write_trace_file(path, recorded);
    const trace::Trace loaded = trace::read_trace_file(path);
    EXPECT_EQ(loaded.event_count(), recorded.event_count());
    EXPECT_EQ(trace::encode_trace(loaded), trace::encode_trace(recorded));
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace taskprof
