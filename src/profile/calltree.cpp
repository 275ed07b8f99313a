#include "profile/calltree.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace taskprof {

Ticks CallNode::children_inclusive() const noexcept {
  Ticks total = 0;
  for (const CallNode* c = first_child; c != nullptr; c = c->next_sibling) {
    total += c->inclusive;
  }
  return total;
}

// --- ChildIndex -------------------------------------------------------------

std::uint64_t ChildIndex::hash(RegionHandle region, std::int64_t parameter,
                               bool is_stub) noexcept {
  // SplitMix64 finalizer over the packed identity: parameters are often
  // small consecutive integers (recursion depths), so the raw triple
  // clusters badly without mixing.
  std::uint64_t x = (static_cast<std::uint64_t>(region) << 1) |
                    static_cast<std::uint64_t>(is_stub);
  x ^= static_cast<std::uint64_t>(parameter) * 0x9E3779B97F4A7C15ull;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

CallNode* ChildIndex::find(RegionHandle region, std::int64_t parameter,
                           bool is_stub) const noexcept {
  if (slots_.empty()) return nullptr;
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(hash(region, parameter, is_stub)) &
                  mask;
  while (CallNode* node = slots_[i]) {
    if (node->region == region && node->parameter == parameter &&
        node->is_stub == is_stub) {
      return node;
    }
    i = (i + 1) & mask;
  }
  return nullptr;
}

void ChildIndex::insert(CallNode* child) {
  // Grow at 3/4 load to keep probe chains short.
  if (slots_.empty() || (count_ + 1) * 4 > slots_.size() * 3) grow();
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(
                      hash(child->region, child->parameter, child->is_stub)) &
                  mask;
  while (slots_[i] != nullptr) i = (i + 1) & mask;
  slots_[i] = child;
  ++count_;
}

void ChildIndex::clear() noexcept {
  std::fill(slots_.begin(), slots_.end(), nullptr);
  count_ = 0;
}

void ChildIndex::grow() {
  std::vector<CallNode*> old = std::move(slots_);
  slots_.assign(old.empty() ? 2 * kChildIndexFanout : old.size() * 2, nullptr);
  const std::size_t mask = slots_.size() - 1;
  for (CallNode* node : old) {
    if (node == nullptr) continue;
    std::size_t i = static_cast<std::size_t>(
                        hash(node->region, node->parameter, node->is_stub)) &
                    mask;
    while (slots_[i] != nullptr) i = (i + 1) & mask;
    slots_[i] = node;
  }
}

// --- NodePool ---------------------------------------------------------------

CallNode* NodePool::allocate(RegionHandle region, std::int64_t parameter,
                             bool is_stub, CallNode* parent) {
  CallNode* node = nullptr;
  if (free_list_ != nullptr) {
    node = free_list_;
    free_list_ = node->next_sibling;
    --free_count_;
  } else {
    if (next_in_chunk_ == kChunkSize) {
      chunks_.push_back(std::make_unique<CallNode[]>(kChunkSize));
      next_in_chunk_ = 0;
    }
    node = &chunks_.back()[next_in_chunk_++];
    ++allocated_;
  }
  *node = CallNode{};
  node->region = region;
  node->parameter = parameter;
  node->is_stub = is_stub;
  node->parent = parent;
  if (parent != nullptr) {
    if (parent->first_child == nullptr) {
      parent->first_child = node;
    } else {
      parent->last_child->next_sibling = node;
    }
    parent->last_child = node;
    ++parent->n_children;
    // A promoted parent's index must stay complete regardless of which
    // code path adds the child.
    if (parent->child_index != nullptr) parent->child_index->insert(node);
  }
  return node;
}

void NodePool::release_subtree(CallNode* root) {
  if (root == nullptr) return;
  // Unlink from the parent's child list.
  if (CallNode* parent = root->parent; parent != nullptr) {
    if (parent->first_child == root) {
      parent->first_child = root->next_sibling;
      if (parent->last_child == root) parent->last_child = nullptr;
    } else {
      CallNode* prev = parent->first_child;
      while (prev != nullptr && prev->next_sibling != root) {
        prev = prev->next_sibling;
      }
      TASKPROF_ASSERT(prev != nullptr, "node not found in parent's children");
      prev->next_sibling = root->next_sibling;
      if (parent->last_child == root) parent->last_child = prev;
    }
    --parent->n_children;
    if (parent->hot_child == root) parent->hot_child = nullptr;
    if (parent->child_index != nullptr) {
      // The open-addressed index has no erase (tombstones would pollute
      // the hot probe chains for the benefit of this cold path); rebuild
      // it from the surviving siblings, or drop it below the promotion
      // threshold.
      if (parent->n_children >= kChildIndexFanout) {
        build_child_index(parent);
      } else {
        recycle_index(parent->child_index);
        parent->child_index = nullptr;
      }
    }
    root->parent = nullptr;
  }
  root->next_sibling = nullptr;
  // Iterative postorder-free walk in O(1) space: treat next_sibling as
  // the work-list link and splice each node's child list in via its tail
  // pointer.  No recursion, no heap-allocated stack (the previous
  // std::vector stack contradicted the rationale documented on
  // for_each_node and could still overflow the heap on huge trees).
  CallNode* work = root;
  while (work != nullptr) {
    CallNode* node = work;
    work = work->next_sibling;
    if (node->first_child != nullptr) {
      node->last_child->next_sibling = work;
      work = node->first_child;
      node->first_child = nullptr;
    }
    if (node->child_index != nullptr) {
      recycle_index(node->child_index);
      node->child_index = nullptr;
    }
    node->next_sibling = free_list_;
    free_list_ = node;
    ++free_count_;
  }
}

void NodePool::build_child_index(CallNode* parent) {
  ChildIndex* index =
      parent->child_index != nullptr ? parent->child_index : acquire_index();
  index->clear();
  for (CallNode* c = parent->first_child; c != nullptr; c = c->next_sibling) {
    index->insert(c);
  }
  parent->child_index = index;
}

ChildIndex* NodePool::acquire_index() {
  if (!index_free_.empty()) {
    ChildIndex* index = index_free_.back();
    index_free_.pop_back();
    return index;
  }
  index_storage_.push_back(std::make_unique<ChildIndex>());
  return index_storage_.back().get();
}

void NodePool::recycle_index(ChildIndex* index) {
  index->clear();
  index_free_.push_back(index);
}

// --- Lookup -----------------------------------------------------------------

CallNode* find_child(const CallNode* parent, RegionHandle region,
                     std::int64_t parameter, bool is_stub) noexcept {
  if (parent == nullptr) return nullptr;
  if (parent->child_index != nullptr) {
    return parent->child_index->find(region, parameter, is_stub);
  }
  for (CallNode* c = parent->first_child; c != nullptr; c = c->next_sibling) {
    if (c->region == region && c->parameter == parameter &&
        c->is_stub == is_stub) {
      return c;
    }
  }
  return nullptr;
}

CallNode* find_or_create_child(NodePool& pool, CallNode* parent,
                               RegionHandle region, std::int64_t parameter,
                               bool is_stub) {
  TASKPROF_ASSERT(parent != nullptr, "parent required");
  // Last-hit cache: loops re-entering the same callee and the stub
  // enter/exit ping-pong hit here without touching the sibling list.
  CallNode* hot = parent->hot_child;
  if (hot != nullptr && hot->region == region &&
      hot->parameter == parameter && hot->is_stub == is_stub) {
    return hot;
  }
  if (CallNode* existing = find_child(parent, region, parameter, is_stub)) {
    parent->hot_child = existing;
    return existing;
  }
  CallNode* node = pool.allocate(region, parameter, is_stub, parent);
  parent->hot_child = node;
  if (parent->child_index == nullptr &&
      parent->n_children >= kChildIndexFanout) {
    pool.build_child_index(parent);
  }
  return node;
}

void merge_subtree(NodePool& pool, CallNode* dst, const CallNode* src,
                   std::span<const RegionHandle> remap, const MergeHook& hook) {
  // A parallel preorder cursor over the intrusive links, `d` always
  // mirroring `s` in the destination tree.  O(1) space — a recursive walk
  // overflowed the C++ stack on the cut-off-free recursion depths this
  // profiler exists to measure.
  TASKPROF_ASSERT(dst != nullptr && src != nullptr, "merge needs both trees");
  const CallNode* s = src;
  CallNode* d = dst;
  for (;;) {
    d->visits += s->visits;
    d->inclusive += s->inclusive;
    d->visit_stats.merge(s->visit_stats);
    if (hook) hook(*d, *s);
    const CallNode* next = s->first_child;
    if (next == nullptr) {
      while (s != src && s->next_sibling == nullptr) {
        s = s->parent;
        d = d->parent;
      }
      if (s == src) return;
      next = s->next_sibling;
      d = d->parent;
    }
    s = next;
    d = find_or_create_child(pool, d,
                             remap.empty() ? s->region : remap[s->region],
                             s->parameter, s->is_stub);
  }
}

std::size_t subtree_size(const CallNode* root) noexcept {
  std::size_t n = 0;
  for_each_node(root, [&n](const CallNode&, int) { ++n; });
  return n;
}

CallNode* find_path(CallNode* root, std::initializer_list<RegionHandle> path,
                    bool stub_leaf) noexcept {
  CallNode* node = root;
  std::size_t index = 0;
  const std::size_t last = path.size() == 0 ? 0 : path.size() - 1;
  for (RegionHandle region : path) {
    const bool want_stub = stub_leaf && index == last;
    node = find_child(node, region, kNoParameter, want_stub);
    if (node == nullptr) return nullptr;
    ++index;
  }
  return node;
}

}  // namespace taskprof
