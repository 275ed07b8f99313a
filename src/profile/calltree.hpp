// Call-tree nodes, the node pool, and tree operations.
//
// A call tree is built from intrusive nodes (parent / first-child /
// next-sibling links) allocated from a NodePool.  Pools are per-thread:
// as in Score-P, "every thread operates on a separate section of
// preallocated memory and constructs a separate call tree", avoiding
// locking on the hot path (paper §IV-A).  A profiler's trees only grow:
// task instances write straight into their construct's tree
// (measure/task_profiler.hpp), so nodes are released only by the ingest
// daemon's eviction (release_subtree).
//
// Child lookup is accelerated two ways (the per-enter cost used to be an
// O(siblings) scan, which dominates for parameter-profiled nodes with
// hundreds of siblings — e.g. per-depth nqueens, paper Table IV):
//
//  * every node carries a `hot_child` pointer to the child most recently
//    found under it — loops that re-enter the same callee hit in O(1);
//  * once a node's fan-out reaches kChildIndexFanout, find-or-create
//    promotes it to an open-addressed ChildIndex mapping (region,
//    parameter, is_stub) identity to the child node.  The sibling list
//    stays the source of truth (first-visit order is preserved); the
//    index is a pure accelerator and is recycled with the node.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "profile/metrics.hpp"
#include "profile/region.hpp"

namespace taskprof {

class ChildIndex;

/// Fan-out at which find_or_create_child promotes a node's child list to
/// an open-addressed ChildIndex (below it, the linear scan is cheaper
/// than hashing).  Exposed for tests.
inline constexpr std::size_t kChildIndexFanout = 8;

/// One node of a call tree.  Identity within its parent is the triple
/// (region, parameter, is_stub); metrics accumulate over all visits of the
/// call path ending at this node.
///
/// Field order is deliberate: everything an enter/exit event touches —
/// the identity triple read while scanning a sibling list, the child
/// links followed to find the callee, and the visit/inclusive
/// accumulators — shares the first cache line.  Cold bookkeeping
/// (per-visit min/mean/max, parent backlink, list tail, child index)
/// lives behind it.
struct CallNode {
  // --- hot: read/written by every enter/exit ------------------------------
  RegionHandle region = kInvalidRegion;
  std::uint32_t n_children = 0;  ///< maintained child count (O(1) fan-out)
  std::int64_t parameter = kNoParameter;  ///< kNoParameter unless under a parameter region
  CallNode* next_sibling = nullptr;
  CallNode* first_child = nullptr;
  CallNode* hot_child = nullptr;  ///< child most recently found under this node
  std::uint64_t visits = 0;       ///< number of enter events
  Ticks inclusive = 0;            ///< total inclusive time over all visits
  bool is_stub = false;  ///< task-execution stub under a scheduling point

  // --- cold: traversal/merge bookkeeping and per-visit statistics ---------
  DurationStats visit_stats;  ///< per-visit inclusive durations (min/mean/max)
  CallNode* parent = nullptr;
  CallNode* last_child = nullptr;   ///< tail of the child list (O(1) append)
  ChildIndex* child_index = nullptr;  ///< non-null once fan-out was promoted

  /// Sum of the children's inclusive times.
  [[nodiscard]] Ticks children_inclusive() const noexcept;

  /// Exclusive time: inclusive minus children's inclusive.  With
  /// execution-site attribution this is always >= 0 (paper Fig. 3 shows the
  /// negative values that creation-site attribution would produce).
  [[nodiscard]] Ticks exclusive() const noexcept {
    return inclusive - children_inclusive();
  }

  /// Number of direct children (maintained counter, O(1)).
  [[nodiscard]] std::size_t child_count() const noexcept { return n_children; }
};

static_assert(offsetof(CallNode, is_stub) < 64 &&
                  offsetof(CallNode, inclusive) < 64 &&
                  offsetof(CallNode, hot_child) < 64,
              "enter/exit-touched fields must share the first cache line");

/// Open-addressed (linear-probe) map from child identity to the child
/// node.  Slots hold bare CallNode pointers; the identity triple is read
/// from the node itself, so the table is one pointer per slot and needs
/// no separate key storage.  No erase: a promoted node's index is
/// rebuilt from the sibling list on the (cold) unlink path and recycled
/// wholesale with the subtree.
class ChildIndex {
 public:
  [[nodiscard]] CallNode* find(RegionHandle region, std::int64_t parameter,
                               bool is_stub) const noexcept;

  /// Insert a child; the caller guarantees the identity is not present.
  void insert(CallNode* child);

  /// Drop all entries, keeping the slot capacity for reuse.
  void clear() noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return count_; }

 private:
  void grow();
  [[nodiscard]] static std::uint64_t hash(RegionHandle region,
                                          std::int64_t parameter,
                                          bool is_stub) noexcept;

  std::vector<CallNode*> slots_;  ///< power-of-two capacity, nullptr = empty
  std::size_t count_ = 0;
};

/// Chunked allocator with a free list for CallNode.
///
/// Not thread-safe by design (one pool per thread).  release_subtree()
/// recycles a whole tree in one walk; nodes come back from the free list in
/// subsequent allocate() calls.  The pool also owns the ChildIndex objects
/// promoted onto its nodes, recycling them alongside the nodes.
class NodePool {
 public:
  NodePool() = default;
  NodePool(const NodePool&) = delete;
  NodePool& operator=(const NodePool&) = delete;
  // Movable: node addresses live inside the chunks and stay valid.
  NodePool(NodePool&&) = default;
  NodePool& operator=(NodePool&&) = default;

  /// Allocate a zeroed node and link it as the last child of `parent`
  /// (pass nullptr for a root).  O(1): the parent keeps a tail pointer.
  CallNode* allocate(RegionHandle region, std::int64_t parameter, bool is_stub,
                     CallNode* parent);

  /// Return `root` and its whole subtree to the free list.  `root` is
  /// unlinked from its parent first (if any).  The walk is iterative over
  /// the intrusive links in O(1) space — each node's child list is
  /// spliced onto the work list through its tail pointer — so releasing
  /// the arbitrarily deep trees of cut-off-free task recursion cannot
  /// overflow the stack (and allocates nothing).
  void release_subtree(CallNode* root);

  /// Build (or rebuild) `parent`'s child index from its sibling list.
  void build_child_index(CallNode* parent);

  /// Total nodes ever carved from chunks (high-water mark of live nodes).
  [[nodiscard]] std::size_t allocated() const noexcept { return allocated_; }

  /// Nodes currently parked on the free list.
  [[nodiscard]] std::size_t free_count() const noexcept { return free_count_; }

 private:
  static constexpr std::size_t kChunkSize = 256;

  ChildIndex* acquire_index();
  void recycle_index(ChildIndex* index);

  std::vector<std::unique_ptr<CallNode[]>> chunks_;
  std::size_t next_in_chunk_ = kChunkSize;  // forces first chunk allocation
  CallNode* free_list_ = nullptr;           // linked through next_sibling
  std::size_t allocated_ = 0;
  std::size_t free_count_ = 0;

  std::vector<std::unique_ptr<ChildIndex>> index_storage_;
  std::vector<ChildIndex*> index_free_;
};

/// Find the direct child of `parent` with the given identity, or nullptr.
/// Uses the promoted child index when present, else scans the sibling
/// list; never allocates and never mutates the tree.
[[nodiscard]] CallNode* find_child(const CallNode* parent, RegionHandle region,
                                   std::int64_t parameter = kNoParameter,
                                   bool is_stub = false) noexcept;

/// Find-or-create the child with the given identity (allocating from
/// `pool`), preserving first-visit order among siblings.  This is the
/// per-enter hot path: it consults `parent`'s hot_child cache first,
/// then the child index (when promoted), and promotes the index once the
/// fan-out reaches kChildIndexFanout.
CallNode* find_or_create_child(NodePool& pool, CallNode* parent,
                               RegionHandle region,
                               std::int64_t parameter = kNoParameter,
                               bool is_stub = false);

/// Called on every node pair a merge visits, after the source node's
/// metrics were summed into the destination node.
using MergeHook = std::function<void(CallNode& dst, const CallNode& src)>;

/// Merge `src`'s metrics and subtree into `dst` (same identity assumed for
/// the roots).  Missing nodes are created in `pool`; `src` is left intact.
/// Every source handle is translated through `remap` (empty: both trees
/// use one registry), and `hook` (may be empty) runs on every node pair.
/// Iterative over the intrusive links (O(1) space): deep trees from
/// cut-off-free recursion must not overflow the C++ stack.
void merge_subtree(NodePool& pool, CallNode* dst, const CallNode* src,
                   std::span<const RegionHandle> remap, const MergeHook& hook);

/// Preorder traversal.  `fn` is called as fn(node, depth); `Node` is
/// CallNode or const CallNode.
///
/// Iterative via the intrusive links (first_child to descend,
/// next_sibling / parent to backtrack): O(1) space and no call recursion,
/// so report generation over the arbitrarily deep trees of cut-off-free
/// task recursion (nqueens, fib) cannot overflow the stack.
template <typename Node, typename Fn>
void for_each_node(Node* root, Fn&& fn, int depth = 0) {
  if (root == nullptr) return;
  Node* node = root;
  for (;;) {
    fn(*node, depth);
    if (node->first_child != nullptr) {
      node = node->first_child;
      ++depth;
      continue;
    }
    while (node != root && node->next_sibling == nullptr) {
      node = node->parent;
      --depth;
    }
    if (node == root) return;
    node = node->next_sibling;
  }
}

/// Parent index of a preorder listing's root.
inline constexpr std::size_t kNoParent =
    std::numeric_limits<std::size_t>::max();

/// One entry of collect_preorder's listing.
template <typename Node>
struct PreorderNode {
  Node* node;
  std::size_t parent;  ///< index of the parent's entry, kNoParent for the root
};

/// `root`'s subtree in preorder (siblings in list order), each node with
/// its parent's index, so passes over a tree can run bottom-up by
/// scanning the listing backwards.
template <typename Node>
[[nodiscard]] std::vector<PreorderNode<Node>> collect_preorder(Node* root) {
  std::vector<PreorderNode<Node>> out;
  std::vector<std::size_t> path;  // entry index of the open node per depth
  for_each_node(root, [&](Node& node, int depth) {
    path.resize(static_cast<std::size_t>(depth));
    out.push_back({&node, depth == 0 ? kNoParent : path.back()});
    path.push_back(out.size() - 1);
  });
  return out;
}

/// Count the nodes of a subtree.
[[nodiscard]] std::size_t subtree_size(const CallNode* root) noexcept;

/// Locate a node by the path of region handles from (and excluding) `root`.
/// Returns nullptr when the path does not exist.  Test/report convenience.
[[nodiscard]] CallNode* find_path(CallNode* root,
                                  std::initializer_list<RegionHandle> path,
                                  bool stub_leaf = false) noexcept;

}  // namespace taskprof
