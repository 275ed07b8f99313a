#include "ingest/daemon.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/json.hpp"
#include "ingest/delta.hpp"
#include "profile/calltree.hpp"
#include "report/json_report.hpp"
#include "report/text_report.hpp"
#include "snapshot/merge.hpp"

namespace taskprof::ingest {

using snapshot::Errc;
using snapshot::SnapshotData;
using snapshot::SnapshotError;

namespace {

constexpr int kPollTimeoutMs = 200;
constexpr std::size_t kReadChunk = 64 * 1024;
// Frames a session may have queued before the IO loop stops reading its
// socket; reading resumes once the worker drains half of them.
constexpr int kSessionQueueDepth = 16;
constexpr int kListenBacklog = 64;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

std::size_t pool_live_bytes(const AggregateProfile& profile) {
  return (profile.pool.allocated() - profile.pool.free_count()) *
         sizeof(CallNode);
}

}  // namespace

IngestDaemon::IngestDaemon(DaemonOptions options)
    : options_(std::move(options)) {
  if (options_.shards < 1) options_.shards = 1;
}

IngestDaemon::~IngestDaemon() { stop(); }

void IngestDaemon::start() {
  if (running()) return;
  if (options_.socket_path.empty()) {
    throw SnapshotError(Errc::kIo, "taskprofd", "empty socket path");
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    throw SnapshotError(Errc::kIo, options_.socket_path,
                        "socket path too long for AF_UNIX");
  }
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    throw SnapshotError(Errc::kIo, options_.socket_path,
                        std::string("socket: ") + std::strerror(errno));
  }
  set_nonblocking(listen_fd_);
  ::unlink(options_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, kListenBacklog) != 0) {
    const std::string detail = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw SnapshotError(Errc::kIo, options_.socket_path,
                        "bind/listen: " + detail);
  }
  if (::pipe(wake_pipe_) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw SnapshotError(Errc::kIo, options_.socket_path,
                        std::string("pipe: ") + std::strerror(errno));
  }
  set_nonblocking(wake_pipe_[0]);
  set_nonblocking(wake_pipe_[1]);

  stop_.store(false, std::memory_order_relaxed);
  shards_.clear();
  shards_.reserve(static_cast<std::size_t>(options_.shards));
  for (int i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  for (auto& shard : shards_) {
    shard->worker = std::thread([this, raw = shard.get()] { merge_loop(*raw); });
  }
  io_thread_ = std::thread([this] { io_loop(); });
}

void IngestDaemon::stop() {
  if (!running() && shards_.empty()) return;
  stop_.store(true, std::memory_order_relaxed);
  wake_io();
  if (io_thread_.joinable()) io_thread_.join();
  for (auto& shard : shards_) {
    {
      std::lock_guard<std::mutex> lock(shard->mutex);
      shard->stopping = true;
    }
    shard->cv.notify_all();
    if (shard->worker.joinable()) shard->worker.join();
  }
  for (auto& [fd, conn] : conns_) {
    (void)conn;
    ::close(fd);
  }
  conns_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
  }
  for (int& fd : wake_pipe_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
}

void IngestDaemon::wake_io() {
  if (wake_pipe_[1] < 0) return;
  const std::uint8_t byte = 1;
  [[maybe_unused]] ssize_t rc = ::write(wake_pipe_[1], &byte, 1);
}

// --- IO thread --------------------------------------------------------------

void IngestDaemon::io_loop() {
  std::vector<pollfd> pfds;
  std::vector<int> fd_order;
  while (!stop_.load(std::memory_order_relaxed)) {
    pfds.clear();
    fd_order.clear();
    pfds.push_back({wake_pipe_[0], POLLIN, 0});
    pfds.push_back({listen_fd_, POLLIN, 0});
    for (auto& [fd, conn] : conns_) {
      short events = 0;
      if (!conn.closing && !conn.stalled) events |= POLLIN;
      if (conn.write_off < conn.write_buf.size()) events |= POLLOUT;
      pfds.push_back({fd, events, 0});
      fd_order.push_back(fd);
    }
    const int ready = ::poll(pfds.data(), pfds.size(), kPollTimeoutMs);
    if (stop_.load(std::memory_order_relaxed)) break;
    if (ready < 0 && errno != EINTR) break;

    if (pfds[0].revents & POLLIN) {
      std::uint8_t scratch[256];
      while (::read(wake_pipe_[0], scratch, sizeof(scratch)) > 0) {
      }
    }
    // Workers acked / erred / drained queues: collect reply bytes and
    // lift read stalls.
    drain_outboxes();

    if (pfds[1].revents & POLLIN) accept_connections();

    std::vector<int> dead;
    for (std::size_t i = 0; i < fd_order.size(); ++i) {
      const int fd = fd_order[i];
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      Conn& conn = it->second;
      const short revents = pfds[i + 2].revents;
      if (revents & (POLLERR | POLLNVAL)) {
        dead.push_back(fd);
        continue;
      }
      if (revents & POLLIN) handle_readable(conn);
      if (conn.fd < 0) {  // handle_readable saw EOF
        dead.push_back(fd);
        continue;
      }
      if (conn.write_off < conn.write_buf.size()) handle_writable(conn);
      if (conn.closing && conn.write_off >= conn.write_buf.size()) {
        dead.push_back(fd);
        continue;
      }
      if ((revents & POLLHUP) && !(revents & POLLIN)) dead.push_back(fd);
    }
    for (int fd : dead) close_conn(fd);
  }
}

void IngestDaemon::accept_connections() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    set_nonblocking(fd);
    const std::uint64_t id =
        next_session_id_.fetch_add(1, std::memory_order_relaxed);
    Conn conn;
    conn.fd = fd;
    const std::string origin = "session " + std::to_string(id);
    conn.reader = std::make_unique<FrameReader>(origin);
    conn.rec = std::make_shared<SessionRec>(id, origin);
    conn.rec->shard = static_cast<std::size_t>(
        id % static_cast<std::uint64_t>(options_.shards));
    sessions_opened_.fetch_add(1, std::memory_order_relaxed);
    conns_.emplace(fd, std::move(conn));
  }
}

void IngestDaemon::handle_readable(Conn& conn) {
  std::uint8_t chunk[kReadChunk];
  for (;;) {
    const ssize_t n = ::read(conn.fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      conn.fd = -1;  // close_conn handles the rest
      return;
    }
    if (n == 0) {
      conn.fd = -1;
      return;
    }
    bytes_received_.fetch_add(static_cast<std::uint64_t>(n),
                              std::memory_order_relaxed);
    conn.reader->feed({chunk, static_cast<std::size_t>(n)});
    for (;;) {
      std::optional<Frame> frame;
      try {
        frame = conn.reader->next();
      } catch (const SnapshotError& error) {
        // Corrupt framing cannot resynchronize: answer once, flush,
        // close.  The worker still gets a disconnect so the dirty
        // session is retired.
        frames_rejected_.fetch_add(1, std::memory_order_relaxed);
        const auto reply = encode_error({error.code(), error.what()});
        conn.write_buf.insert(conn.write_buf.end(), reply.begin(), reply.end());
        conn.closing = true;
        if (conn.rec->routed) enqueue(conn.rec, std::nullopt);
        return;
      }
      if (!frame.has_value()) break;
      frames_received_.fetch_add(1, std::memory_order_relaxed);
      route_frame(conn, std::move(*frame));
      if (conn.closing) return;
    }
    if (conn.stalled) return;  // let the worker catch up before reading on
  }
}

void IngestDaemon::handle_writable(Conn& conn) {
  while (conn.write_off < conn.write_buf.size()) {
    // MSG_NOSIGNAL: a producer that died mid-reply must surface as an
    // error return here, not as a process-wide SIGPIPE.
    const ssize_t n =
        ::send(conn.fd, conn.write_buf.data() + conn.write_off,
               conn.write_buf.size() - conn.write_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      conn.fd = -1;
      return;
    }
    conn.write_off += static_cast<std::size_t>(n);
  }
  conn.write_buf.clear();
  conn.write_off = 0;
}

void IngestDaemon::route_frame(Conn& conn, Frame frame) {
  if (frame.type == FrameType::kReportRequest) {
    // Query traffic is served by the IO thread itself — report builds
    // take the shard locks briefly but never wait on a worker.
    try {
      const ReportRequestFrame request =
          decode_report_request(frame, conn.reader->origin());
      std::vector<std::uint8_t> body = render_report(request.kind);
      const auto reply =
          encode_report_reply({request.kind, std::move(body)});
      conn.write_buf.insert(conn.write_buf.end(), reply.begin(), reply.end());
      reports_served_.fetch_add(1, std::memory_order_relaxed);
    } catch (const SnapshotError& error) {
      // A bad request, or a report the codec refuses to encode (one over
      // kMaxFramePayload, say): answer with its class.
      frames_rejected_.fetch_add(1, std::memory_order_relaxed);
      const auto reply = encode_error({error.code(), error.what()});
      conn.write_buf.insert(conn.write_buf.end(), reply.begin(), reply.end());
    }
    return;
  }
  conn.rec->routed = true;
  const int pending = conn.rec->pending.fetch_add(1, std::memory_order_acq_rel);
  if (pending + 1 >= kSessionQueueDepth && !conn.stalled) {
    conn.stalled = true;
    queue_stalls_.fetch_add(1, std::memory_order_relaxed);
  }
  enqueue(conn.rec, std::move(frame));
}

void IngestDaemon::enqueue(const std::shared_ptr<SessionRec>& rec,
                           std::optional<Frame> frame) {
  Shard& shard = *shards_[rec->shard];
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.queue.push_back({rec, std::move(frame)});
  }
  shard.cv.notify_one();
}

void IngestDaemon::close_conn(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  if (conn.rec->routed) enqueue(conn.rec, std::nullopt);
  ::close(fd);
  conns_.erase(it);
}

void IngestDaemon::drain_outboxes() {
  for (auto& [fd, conn] : conns_) {
    (void)fd;
    if (conn.rec == nullptr) continue;
    {
      std::lock_guard<std::mutex> lock(conn.rec->out_mutex);
      if (!conn.rec->outbox.empty()) {
        conn.write_buf.insert(conn.write_buf.end(), conn.rec->outbox.begin(),
                              conn.rec->outbox.end());
        conn.rec->outbox.clear();
      }
    }
    if (conn.stalled &&
        conn.rec->pending.load(std::memory_order_acquire) <=
            kSessionQueueDepth / 2) {
      conn.stalled = false;
    }
  }
}

// --- Merge workers ----------------------------------------------------------

void IngestDaemon::merge_loop(Shard& shard) {
  std::unique_lock<std::mutex> lock(shard.mutex);
  for (;;) {
    shard.cv.wait(lock,
                  [&] { return shard.stopping || !shard.queue.empty(); });
    if (shard.queue.empty()) {
      if (shard.stopping) return;
      continue;
    }
    WorkItem item = std::move(shard.queue.front());
    shard.queue.pop_front();
    process_item(shard, item);
    item.rec->pending.fetch_sub(1, std::memory_order_acq_rel);
    Session& session = item.rec->session;
    if (session.has_output()) {
      std::vector<std::uint8_t> out = session.take_output();
      std::lock_guard<std::mutex> out_lock(item.rec->out_mutex);
      item.rec->outbox.insert(item.rec->outbox.end(), out.begin(), out.end());
    }
    wake_io();
  }
}

void IngestDaemon::process_item(Shard& shard, WorkItem& item) {
  SessionRec& rec = *item.rec;
  if (!item.frame.has_value()) {
    // Disconnect.  A cleanly closed session was folded when its Bye was
    // processed; a dirty one keeps or loses its contribution by policy.
    if (rec.in_live) {
      if (options_.keep_partial_sessions) fold_session(shard, rec);
      retire_session(shard, item.rec, false);
    }
    return;
  }
  if (!rec.in_live && !rec.retired) {
    rec.in_live = true;
    shard.live.push_back(item.rec);
  }
  const bool is_delta = item.frame->type == FrameType::kDelta;
  if (is_delta) {
    ++shard.epoch;
    rec.session.set_apply_epoch(shard.epoch);
  }
  rec.session.handle_frame(*item.frame);
  if (rec.session.bye_received() && rec.in_live) {
    const bool folded = fold_session(shard, rec);
    retire_session(shard, item.rec, folded);
    return;
  }
  if (is_delta) maybe_evict(shard);
}

bool IngestDaemon::fold_session(Shard& shard, SessionRec& rec) {
  if (rec.session.cumulative() == nullptr) return true;
  SnapshotData cum = rec.session.release_cumulative();
  if (!shard.has_aggregate) {
    // First contribution: adopt it wholesale, exactly like
    // merge_snapshot_files treats its first file — a single-producer
    // daemon therefore exports byte-identical snapshots.
    shard.aggregate = std::move(cum);
    shard.has_aggregate = true;
    return true;
  }
  try {
    snapshot::merge_snapshot_into(shard.aggregate, cum);
  } catch (const SnapshotError& error) {
    // The merge refused before changing anything; so does the daemon.
    rec.session.refuse(error, true);
    return false;
  }
  return true;
}

void IngestDaemon::retire_session(Shard& shard,
                                  const std::shared_ptr<SessionRec>& rec,
                                  bool clean) {
  const SessionCounters& c = rec->session.counters();
  SessionCounters& r = shard.retired;
  r.frames += c.frames;
  r.bytes_consumed += c.bytes_consumed;
  r.deltas_applied += c.deltas_applied;
  r.deltas_duplicate += c.deltas_duplicate;
  r.deltas_rejected += c.deltas_rejected;
  r.rebases += c.rebases;
  r.heartbeats += c.heartbeats;
  r.errors_sent += c.errors_sent;
  r.visits_ingested += c.visits_ingested;
  r.nodes_created += c.nodes_created;
  r.evicted_subtrees += c.evicted_subtrees;
  r.evicted_nodes += c.evicted_nodes;
  r.evicted_visits += c.evicted_visits;
  clean ? ++shard.retired_clean : ++shard.retired_dropped;
  shard.live.erase(std::remove(shard.live.begin(), shard.live.end(), rec),
                   shard.live.end());
  rec->in_live = false;
  rec->retired = true;
}

void IngestDaemon::maybe_evict(Shard& shard) {
  if (options_.memory_budget_bytes == 0) return;
  const std::size_t per_shard = std::max<std::size_t>(
      options_.memory_budget_bytes / static_cast<std::size_t>(options_.shards),
      sizeof(CallNode));
  if (shard_live_bytes(shard) <= per_shard) return;

  // Coldest producers first; within one, everything its latest delta
  // did not touch is fair game.
  std::vector<std::shared_ptr<SessionRec>> order = shard.live;
  std::sort(order.begin(), order.end(),
            [](const std::shared_ptr<SessionRec>& a,
               const std::shared_ptr<SessionRec>& b) {
              return a->session.last_touch_epoch() <
                     b->session.last_touch_epoch();
            });
  for (const auto& rec : order) {
    if (rec->session.live_node_bytes() == 0) continue;
    (void)rec->session.evict_cold(rec->session.last_touch_epoch());
    if (shard_live_bytes(shard) <= per_shard) return;
  }
}

std::size_t IngestDaemon::shard_live_bytes(const Shard& shard) const {
  std::size_t bytes =
      shard.has_aggregate ? pool_live_bytes(shard.aggregate.profile) : 0;
  for (const auto& rec : shard.live) bytes += rec->session.live_node_bytes();
  return bytes;
}

// --- Aggregation & reports --------------------------------------------------

snapshot::SnapshotData IngestDaemon::export_aggregate() const {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) {
    locks.emplace_back(shard->mutex);
  }
  std::vector<const SnapshotData*> sources;
  for (const auto& shard : shards_) {
    if (shard->has_aggregate) sources.push_back(&shard->aggregate);
  }
  std::vector<const SessionRec*> live;
  for (const auto& shard : shards_) {
    for (const auto& rec : shard->live) {
      if (rec->session.cumulative() != nullptr) live.push_back(rec.get());
    }
  }
  std::sort(live.begin(), live.end(), [](const SessionRec* a,
                                         const SessionRec* b) {
    return a->session.id() < b->session.id();
  });
  for (const SessionRec* rec : live) {
    sources.push_back(rec->session.cumulative());
  }

  if (sources.empty()) {
    SnapshotData empty;
    empty.registry = std::make_unique<RegionRegistry>();
    return empty;
  }
  SnapshotData out = clone_snapshot(*sources.front());
  for (std::size_t i = 1; i < sources.size(); ++i) {
    try {
      snapshot::merge_snapshot_into(out, *sources[i]);
    } catch (const SnapshotError&) {
      // Left out (see the header); the refused merge changed nothing.
    }
  }
  return out;
}

std::vector<std::uint8_t> IngestDaemon::render_report(ReportKind kind) const {
  const auto to_bytes = [](const std::string& text) {
    return std::vector<std::uint8_t>(text.begin(), text.end());
  };
  switch (kind) {
    case ReportKind::kStats:
      return to_bytes(render_stats_json());
    case ReportKind::kSnapshot: {
      const SnapshotData data = export_aggregate();
      return snapshot::encode_snapshot(data);
    }
    case ReportKind::kJson: {
      const SnapshotData data = export_aggregate();
      return to_bytes(render_report_json(data.profile, *data.registry));
    }
    case ReportKind::kText: {
      const SnapshotData data = export_aggregate();
      if (data.profile.implicit_root == nullptr &&
          data.profile.task_roots.empty()) {
        return to_bytes("taskprofd: no data ingested yet\n");
      }
      return to_bytes(render_profile(data.profile, *data.registry));
    }
  }
  return to_bytes("taskprofd: unknown report kind\n");
}

DaemonStats IngestDaemon::stats() const {
  DaemonStats out;
  out.sessions_opened = sessions_opened_.load(std::memory_order_relaxed);
  out.frames_received = frames_received_.load(std::memory_order_relaxed);
  out.frames_rejected = frames_rejected_.load(std::memory_order_relaxed);
  out.bytes_received = bytes_received_.load(std::memory_order_relaxed);
  out.reports_served = reports_served_.load(std::memory_order_relaxed);
  out.queue_stalls = queue_stalls_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    SessionCounters sum = shard->retired;
    for (const auto& rec : shard->live) {
      const SessionCounters& c = rec->session.counters();
      sum.deltas_applied += c.deltas_applied;
      sum.deltas_duplicate += c.deltas_duplicate;
      sum.deltas_rejected += c.deltas_rejected;
      sum.rebases += c.rebases;
      sum.heartbeats += c.heartbeats;
      sum.errors_sent += c.errors_sent;
      sum.visits_ingested += c.visits_ingested;
      sum.nodes_created += c.nodes_created;
      sum.evicted_subtrees += c.evicted_subtrees;
      sum.evicted_nodes += c.evicted_nodes;
      sum.evicted_visits += c.evicted_visits;
    }
    out.sessions_closed_clean += shard->retired_clean;
    out.sessions_dropped += shard->retired_dropped;
    out.deltas_applied += sum.deltas_applied;
    out.deltas_duplicate += sum.deltas_duplicate;
    out.deltas_rejected += sum.deltas_rejected;
    out.rebases += sum.rebases;
    out.heartbeats += sum.heartbeats;
    out.errors_sent += sum.errors_sent;
    out.visits_ingested += sum.visits_ingested;
    out.nodes_created += sum.nodes_created;
    out.evicted_subtrees += sum.evicted_subtrees;
    out.evicted_nodes += sum.evicted_nodes;
    out.evicted_visits += sum.evicted_visits;
    out.live_sessions += shard->live.size();
    out.live_node_bytes += shard_live_bytes(*shard);
  }
  return out;
}

std::string IngestDaemon::render_stats_json() const {
  const DaemonStats s = stats();
  JsonWriter json;
  json.begin_object();
  json.field("schema_version", 1);
  json.field("sessions_opened", s.sessions_opened);
  json.field("sessions_closed_clean", s.sessions_closed_clean);
  json.field("sessions_dropped", s.sessions_dropped);
  json.field("live_sessions", s.live_sessions);
  json.field("frames_received", s.frames_received);
  json.field("frames_rejected", s.frames_rejected);
  json.field("bytes_received", s.bytes_received);
  json.field("deltas_applied", s.deltas_applied);
  json.field("deltas_duplicate", s.deltas_duplicate);
  json.field("deltas_rejected", s.deltas_rejected);
  json.field("rebases", s.rebases);
  json.field("heartbeats", s.heartbeats);
  json.field("errors_sent", s.errors_sent);
  json.field("visits_ingested", s.visits_ingested);
  json.field("nodes_created", s.nodes_created);
  json.field("evicted_subtrees", s.evicted_subtrees);
  json.field("evicted_nodes", s.evicted_nodes);
  json.field("evicted_visits", s.evicted_visits);
  json.field("reports_served", s.reports_served);
  json.field("queue_stalls", s.queue_stalls);
  json.field("live_node_bytes", s.live_node_bytes);
  json.end_object();
  return json.finish();
}

}  // namespace taskprof::ingest
