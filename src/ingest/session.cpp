#include "ingest/session.hpp"

#include "profile/calltree.hpp"

namespace taskprof::ingest {

using snapshot::Errc;
using snapshot::SnapshotData;
using snapshot::SnapshotError;

namespace {

constexpr char kEvictedRegionName[] = "[evicted]";

}  // namespace

Session::Session(std::uint64_t id, std::string origin)
    : id_(id), origin_(std::move(origin)), reader_(origin_) {}

void Session::consume(std::span<const std::uint8_t> bytes) noexcept {
  counters_.bytes_consumed += bytes.size();
  reader_.feed(bytes);
  for (;;) {
    std::optional<Frame> frame;
    try {
      frame = reader_.next();
    } catch (const SnapshotError& error) {
      // A corrupt frame header can never resynchronize: answer once,
      // then stop listening.
      send_error(error.code(), error.what(), true);
      return;
    }
    if (!frame.has_value()) return;
    handle_frame(*frame);
    if (state_ == SessionState::kClosed && !bye_received_) return;
  }
}

void Session::handle_frame(const Frame& frame) noexcept {
  ++counters_.frames;
  try {
    switch (frame.type) {
      case FrameType::kHello:
        on_hello(frame);
        return;
      case FrameType::kDelta:
        on_delta(frame);
        return;
      case FrameType::kHeartbeat:
        on_heartbeat(frame);
        return;
      case FrameType::kBye:
        on_bye(frame);
        return;
      case FrameType::kHelloAck:
      case FrameType::kDeltaAck:
      case FrameType::kByeAck:
      case FrameType::kError:
      case FrameType::kReportRequest:
      case FrameType::kReportReply:
        send_error(Errc::kBadState, "frame type not valid from a producer",
                   false);
        return;
    }
    send_error(Errc::kBadType, "unhandled frame type", false);
  } catch (const SnapshotError& error) {
    send_error(error.code(), error.what(), false);
  } catch (const std::exception& error) {
    send_error(Errc::kMalformed, error.what(), false);
  }
}

void Session::on_hello(const Frame& frame) {
  if (state_ != SessionState::kAwaitHello) {
    send_error(Errc::kBadState, "hello on an open session", false);
    return;
  }
  const HelloFrame hello = decode_hello(frame, origin_);
  if (hello.protocol_version != kProtocolVersion) {
    send_error(Errc::kBadVersion,
               "protocol version " + std::to_string(hello.protocol_version),
               false);
    return;
  }
  process_id_ = hello.process_id;
  producer_name_ = hello.producer_name;
  state_ = SessionState::kStreaming;
  send(encode_hello_ack({id_, last_seq_}));
}

void Session::on_delta(const Frame& frame) {
  if (state_ != SessionState::kStreaming) {
    send_error(Errc::kBadState, "delta outside a streaming session", false);
    return;
  }
  const DeltaFrame delta = decode_delta(frame, origin_);
  if (delta.seq <= last_seq_) {
    // Reconnect replay: the producer resent a delta whose ack was
    // lost.  The merge is idempotent because it never happens twice —
    // just restate the ack.
    ++counters_.deltas_duplicate;
    send(encode_delta_ack({delta.seq}));
    return;
  }
  if (delta.seq != last_seq_ + 1) {
    ++counters_.deltas_rejected;
    send_error(Errc::kBadSeq,
               "delta seq " + std::to_string(delta.seq) + " after " +
                   std::to_string(last_seq_),
               false);
    return;
  }
  if (delta.rebase) {
    // Full cumulative snapshot: discard the reconstructed state and
    // start over (the producer lost its ack baseline, or its captures
    // went non-monotone).
    cumulative_ = SnapshotData{};
    has_data_ = false;
    heat_.clear();
    evicted_region_ = kInvalidRegion;
    ++counters_.rebases;
  } else if (delta.base_seq != last_seq_) {
    ++counters_.deltas_rejected;
    send_error(Errc::kBadSeq,
               "delta base " + std::to_string(delta.base_seq) +
                   " does not match acked " + std::to_string(last_seq_),
               false);
    return;
  }

  try {
    const SnapshotData decoded =
        snapshot::decode_snapshot(delta.snapshot, origin_ + " [delta]");
    const ApplyStats applied =
        apply_delta(cumulative_, decoded, apply_epoch_, &heat_);
    counters_.visits_ingested += applied.visits_added;
    counters_.nodes_created += applied.nodes_created;
  } catch (const SnapshotError& error) {
    ++counters_.deltas_rejected;
    refuse(error, false);
    return;
  }
  has_data_ = true;
  last_seq_ = delta.seq;
  last_touch_epoch_ = apply_epoch_;
  ++counters_.deltas_applied;
  send(encode_delta_ack({delta.seq}));
}

void Session::on_heartbeat(const Frame& frame) {
  if (state_ == SessionState::kClosed) {
    send_error(Errc::kBadState, "heartbeat on a closed session", false);
    return;
  }
  const HeartbeatFrame beat = decode_heartbeat(frame, origin_);
  ++counters_.heartbeats;
  send(encode_heartbeat(beat));
}

void Session::on_bye(const Frame& frame) {
  if (state_ != SessionState::kStreaming) {
    send_error(Errc::kBadState, "bye outside a streaming session", false);
    return;
  }
  (void)decode_bye(frame, origin_);
  bye_received_ = true;
  state_ = SessionState::kClosed;
  send(encode_bye_ack({last_seq_}));
}

void Session::send(std::vector<std::uint8_t> frame_bytes) {
  output_.insert(output_.end(), frame_bytes.begin(), frame_bytes.end());
}

void Session::send_error(Errc code, const std::string& detail, bool fatal) {
  ++counters_.errors_sent;
  send(encode_error({code, detail}));
  if (fatal) state_ = SessionState::kClosed;
}

void Session::refuse(const SnapshotError& error, bool fatal) {
  send_error(error.code() == Errc::kLimit ? Errc::kLimit : Errc::kMalformed,
             error.what(), fatal);
}

std::vector<std::uint8_t> Session::take_output() {
  std::vector<std::uint8_t> out;
  out.swap(output_);
  return out;
}

snapshot::SnapshotData Session::release_cumulative() {
  SnapshotData out = std::move(cumulative_);
  cumulative_ = SnapshotData{};
  has_data_ = false;
  heat_.clear();
  evicted_region_ = kInvalidRegion;
  return out;
}

std::size_t Session::live_node_bytes() const noexcept {
  if (!has_data_) return 0;
  const NodePool& pool = cumulative_.profile.pool;
  return (pool.allocated() - pool.free_count()) * sizeof(CallNode);
}

Session::EvictResult Session::evict_cold(std::uint64_t cutoff_epoch) {
  EvictResult total;
  if (!has_data_) return total;
  if (cumulative_.profile.implicit_root != nullptr) {
    const EvictResult r =
        evict_cold_tree(cumulative_.profile.implicit_root, cutoff_epoch);
    total.subtrees += r.subtrees;
    total.nodes += r.nodes;
    total.visits += r.visits;
  }
  for (CallNode* root : cumulative_.profile.task_roots) {
    const EvictResult r = evict_cold_tree(root, cutoff_epoch);
    total.subtrees += r.subtrees;
    total.nodes += r.nodes;
    total.visits += r.visits;
  }
  counters_.evicted_subtrees += total.subtrees;
  counters_.evicted_nodes += total.nodes;
  counters_.evicted_visits += total.visits;
  return total;
}

Session::EvictResult Session::evict_cold_tree(CallNode* root,
                                              std::uint64_t cutoff_epoch) {
  EvictResult result;
  const auto recs = collect_preorder(root);
  if (recs.size() <= 1) return result;

  // A subtree is cold when *every* node in it was last touched before
  // the cutoff; bottom-up via one reverse scan over the preorder.
  std::vector<std::uint8_t> subtree_cold(recs.size(), 1);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const auto it = heat_.find(recs[i].node);
    const std::uint64_t epoch = it == heat_.end() ? 0 : it->second;
    if (epoch >= cutoff_epoch) subtree_cold[i] = 0;
  }
  for (std::size_t i = recs.size(); i-- > 1;) {
    if (!subtree_cold[i]) subtree_cold[recs[i].parent] = 0;
  }

  NodePool& pool = cumulative_.profile.pool;
  // Fold maximal cold subtrees (skipping anything under an already
  // folded ancestor, tree roots, and previous eviction stubs).
  std::vector<std::uint8_t> removed(recs.size(), 0);
  for (std::size_t i = 1; i < recs.size(); ++i) {
    removed[i] = removed[recs[i].parent];
    if (removed[i] || !subtree_cold[i]) continue;
    CallNode* victim = recs[i].node;
    if (evicted_region_ != kInvalidRegion &&
        victim->region == evicted_region_) {
      continue;  // a stub from an earlier round; nothing to fold it into
    }
    removed[i] = 1;
    if (evicted_region_ == kInvalidRegion) {
      evicted_region_ = cumulative_.registry->register_region(
          kEvictedRegionName, RegionType::kFunction);
    }
    CallNode* parent = victim->parent;
    // The stub inherits the subtree's whole mass: total visits and
    // per-visit statistics of every folded node, plus the subtree
    // root's inclusive time (which already covers its descendants), so
    // the tree's totals are exactly conserved.
    Ticks victim_inclusive = victim->inclusive;
    std::uint64_t victim_visits = 0;
    std::uint64_t victim_nodes = 0;
    DurationStats victim_stats;
    for_each_node(victim, [&](const CallNode& node, int) {
      victim_visits += node.visits;
      ++victim_nodes;
      victim_stats.merge(node.visit_stats);
      heat_.erase(&node);
    });
    pool.release_subtree(victim);
    CallNode* stub = find_or_create_child(pool, parent, evicted_region_,
                                          kNoParameter, false);
    stub->visits += victim_visits;
    stub->inclusive += victim_inclusive;
    stub->visit_stats.merge(victim_stats);
    heat_[stub] = apply_epoch_;
    ++result.subtrees;
    result.nodes += victim_nodes;
    result.visits += victim_visits;
  }
  return result;
}

}  // namespace taskprof::ingest
