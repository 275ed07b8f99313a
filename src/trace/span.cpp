#include "trace/span.hpp"

namespace taskprof::trace {

namespace {

constexpr std::uint32_t kNoNode = 0xffffffffu;

}  // namespace

SyncForest::Evaluation SyncForest::evaluate(const CostFn& cost,
                                            double task_overhead) const {
  // completion[n] is n's subtree span measured from n's start.  A fold
  // only needs its children's completions; the chain is rebuilt once at
  // the end from the fold winners, so no per-node chain state is kept.
  constexpr std::uint8_t kDone = 1;
  constexpr std::uint8_t kWon = 2;  // won the fold that joined it
  std::vector<double> completion(nodes_.size(), 0.0);
  std::vector<std::uint8_t> flags(nodes_.size(), 0);
  // Children created since the node's last join: (offset, child).
  std::vector<std::pair<double, std::uint32_t>> pending;

  auto eval_node = [&](std::uint32_t index) {
    const Node& node = nodes_[index];
    double clock = 0.0;
    if (!node.implicit) clock += task_overhead;

    auto fold = [&]() {
      // max(clock, offset_i + completion_i); strict > keeps the node's
      // own continuation (then the earliest child) on ties.
      std::uint32_t best = kNoNode;
      double best_time = clock;
      for (const auto& [offset, child] : pending) {
        const double candidate = offset + completion[child];
        if (candidate > best_time) {
          best_time = candidate;
          best = child;
        }
      }
      if (best != kNoNode) {
        flags[best] |= kWon;
        clock = best_time;
      }
      pending.clear();
    };

    for (const Item& item : node.items) {
      switch (item.kind) {
        case Item::Kind::kSegment:
          clock += node.implicit ? static_cast<double>(item.segment.active)
                                 : cost(node.key, item.segment);
          break;
        case Item::Kind::kCreate:
          pending.emplace_back(clock, item.child);
          break;
        case Item::Kind::kJoin:
          fold();
          break;
      }
    }
    fold();  // children never waited on gate the program end
    completion[index] = clock;
    flags[index] |= kDone;
  };

  // Post-order over the forest (each node has at most one creator).
  std::vector<std::pair<std::uint32_t, std::size_t>> stack;
  for (const std::uint32_t root : roots_) {
    if ((flags[root] & kDone) != 0) continue;
    stack.emplace_back(root, 0);
    while (!stack.empty()) {
      auto& [index, item_cursor] = stack.back();
      const Node& node = nodes_[index];
      bool descended = false;
      while (item_cursor < node.items.size()) {
        const Item& item = node.items[item_cursor++];
        if (item.kind == Item::Kind::kCreate &&
            (flags[item.child] & kDone) == 0) {
          stack.emplace_back(item.child, 0);
          descended = true;
          break;
        }
      }
      if (descended) continue;
      eval_node(index);
      stack.pop_back();
    }
  }

  // Parallel regions run one after another: the span adds up each
  // region's longest root (the first one on ties).
  std::vector<std::uint32_t> best_root;
  for (const std::uint32_t root : roots_) {
    const std::uint32_t region = nodes_[root].region;
    if (best_root.size() <= region) best_root.resize(region + 1, kNoNode);
    if (best_root[region] == kNoNode ||
        completion[root] > completion[best_root[region]]) {
      best_root[region] = root;
    }
  }
  Evaluation out;
  std::vector<std::uint32_t> chain;
  for (const std::uint32_t root : best_root) {
    if (root == kNoNode) continue;
    out.span += completion[root];
    chain.push_back(root);
  }

  // Rebuild the chain from the best roots: a node contributes its
  // segments except those between a winning create and the join that
  // folded it (they ran beside the winning child, off the chain).
  while (!chain.empty()) {
    const Node& node = nodes_[chain.back()];
    chain.pop_back();
    ChainShare* share = node.implicit ? nullptr : &out.on_chain[node.key];
    if (share != nullptr) {
      share->tasks += 1;
      out.tasks_on_chain += 1;
    }
    bool beside_winner = false;
    for (const Item& item : node.items) {
      switch (item.kind) {
        case Item::Kind::kSegment:
          if (share != nullptr && !beside_winner) {
            share->active += item.segment.active;
            share->work += item.segment.work;
          }
          break;
        case Item::Kind::kCreate:
          if ((flags[item.child] & kWon) != 0) {
            beside_winner = true;
            chain.push_back(item.child);
          }
          break;
        case Item::Kind::kJoin:
          beside_winner = false;
          break;
      }
    }
  }
  return out;
}

}  // namespace taskprof::trace
