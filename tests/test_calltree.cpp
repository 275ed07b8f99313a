#include "profile/calltree.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace taskprof {
namespace {

class CallTreeTest : public ::testing::Test {
 protected:
  NodePool pool_;
};

TEST_F(CallTreeTest, AllocateRoot) {
  CallNode* root = pool_.allocate(1, kNoParameter, false, nullptr);
  EXPECT_EQ(root->region, 1u);
  EXPECT_EQ(root->parent, nullptr);
  EXPECT_EQ(root->first_child, nullptr);
  EXPECT_EQ(root->visits, 0u);
  EXPECT_EQ(pool_.allocated(), 1u);
}

TEST_F(CallTreeTest, ChildrenPreserveInsertionOrder) {
  CallNode* root = pool_.allocate(0, kNoParameter, false, nullptr);
  CallNode* a = pool_.allocate(1, kNoParameter, false, root);
  CallNode* b = pool_.allocate(2, kNoParameter, false, root);
  CallNode* c = pool_.allocate(3, kNoParameter, false, root);
  EXPECT_EQ(root->first_child, a);
  EXPECT_EQ(a->next_sibling, b);
  EXPECT_EQ(b->next_sibling, c);
  EXPECT_EQ(c->next_sibling, nullptr);
  EXPECT_EQ(root->child_count(), 3u);
}

TEST_F(CallTreeTest, FindChildMatchesFullIdentity) {
  CallNode* root = pool_.allocate(0, kNoParameter, false, nullptr);
  CallNode* plain = pool_.allocate(1, kNoParameter, false, root);
  CallNode* stub = pool_.allocate(1, kNoParameter, true, root);
  CallNode* param = pool_.allocate(1, 7, false, root);
  EXPECT_EQ(find_child(root, 1), plain);
  EXPECT_EQ(find_child(root, 1, kNoParameter, true), stub);
  EXPECT_EQ(find_child(root, 1, 7), param);
  EXPECT_EQ(find_child(root, 2), nullptr);
}

TEST_F(CallTreeTest, FindOrCreateReusesExisting) {
  CallNode* root = pool_.allocate(0, kNoParameter, false, nullptr);
  CallNode* a = find_or_create_child(pool_, root, 5);
  CallNode* b = find_or_create_child(pool_, root, 5);
  EXPECT_EQ(a, b);
  EXPECT_EQ(pool_.allocated(), 2u);
}

TEST_F(CallTreeTest, ExclusiveSubtractsChildren) {
  CallNode* root = pool_.allocate(0, kNoParameter, false, nullptr);
  root->inclusive = 100;
  CallNode* a = pool_.allocate(1, kNoParameter, false, root);
  a->inclusive = 30;
  CallNode* b = pool_.allocate(2, kNoParameter, false, root);
  b->inclusive = 50;
  EXPECT_EQ(root->children_inclusive(), 80);
  EXPECT_EQ(root->exclusive(), 20);
}

TEST_F(CallTreeTest, ReleaseSubtreeRecyclesNodes) {
  CallNode* root = pool_.allocate(0, kNoParameter, false, nullptr);
  CallNode* child = pool_.allocate(1, kNoParameter, false, root);
  pool_.allocate(2, kNoParameter, false, child);
  pool_.allocate(3, kNoParameter, false, child);
  EXPECT_EQ(pool_.allocated(), 4u);

  pool_.release_subtree(child);
  EXPECT_EQ(pool_.free_count(), 3u);
  EXPECT_EQ(root->first_child, nullptr);

  // New allocations come from the free list, not fresh memory.
  pool_.allocate(7, kNoParameter, false, root);
  pool_.allocate(8, kNoParameter, false, root);
  EXPECT_EQ(pool_.allocated(), 4u);
  EXPECT_EQ(pool_.free_count(), 1u);
}

TEST_F(CallTreeTest, ReleaseMiddleSiblingKeepsListIntact) {
  CallNode* root = pool_.allocate(0, kNoParameter, false, nullptr);
  CallNode* a = pool_.allocate(1, kNoParameter, false, root);
  CallNode* b = pool_.allocate(2, kNoParameter, false, root);
  CallNode* c = pool_.allocate(3, kNoParameter, false, root);
  pool_.release_subtree(b);
  EXPECT_EQ(root->first_child, a);
  EXPECT_EQ(a->next_sibling, c);
  EXPECT_EQ(root->child_count(), 2u);
}

TEST_F(CallTreeTest, RecycledNodesAreZeroed) {
  CallNode* root = pool_.allocate(0, kNoParameter, false, nullptr);
  root->inclusive = 999;
  root->visits = 5;
  pool_.release_subtree(root);
  CallNode* fresh = pool_.allocate(4, kNoParameter, false, nullptr);
  EXPECT_EQ(fresh->inclusive, 0);
  EXPECT_EQ(fresh->visits, 0u);
  EXPECT_EQ(fresh->first_child, nullptr);
}

TEST_F(CallTreeTest, MergeAggregatesMetricsAndStructure) {
  // dst:  root(10) -> a(5)
  CallNode* dst = pool_.allocate(0, kNoParameter, false, nullptr);
  dst->visits = 1;
  dst->inclusive = 10;
  dst->visit_stats.add(10);
  CallNode* dst_a = pool_.allocate(1, kNoParameter, false, dst);
  dst_a->visits = 1;
  dst_a->inclusive = 5;
  dst_a->visit_stats.add(5);

  // src:  root(20) -> a(8), b(2)
  NodePool src_pool;
  CallNode* src = src_pool.allocate(0, kNoParameter, false, nullptr);
  src->visits = 1;
  src->inclusive = 20;
  src->visit_stats.add(20);
  CallNode* src_a = src_pool.allocate(1, kNoParameter, false, src);
  src_a->visits = 2;
  src_a->inclusive = 8;
  src_a->visit_stats.add(3);
  src_a->visit_stats.add(5);
  CallNode* src_b = src_pool.allocate(2, kNoParameter, false, src);
  src_b->visits = 1;
  src_b->inclusive = 2;
  src_b->visit_stats.add(2);

  merge_subtree(pool_, dst, src, {}, {});

  EXPECT_EQ(dst->visits, 2u);
  EXPECT_EQ(dst->inclusive, 30);
  EXPECT_EQ(dst->visit_stats.min, 10);
  EXPECT_EQ(dst->visit_stats.max, 20);
  CallNode* merged_a = find_child(dst, 1);
  ASSERT_NE(merged_a, nullptr);
  EXPECT_EQ(merged_a->visits, 3u);
  EXPECT_EQ(merged_a->inclusive, 13);
  EXPECT_EQ(merged_a->visit_stats.min, 3);
  CallNode* merged_b = find_child(dst, 2);
  ASSERT_NE(merged_b, nullptr);
  EXPECT_EQ(merged_b->inclusive, 2);

  // Source is untouched.
  EXPECT_EQ(src->inclusive, 20);
  EXPECT_EQ(src_a->visits, 2u);
}

TEST_F(CallTreeTest, MergeDistinguishesStubsAndParameters) {
  CallNode* dst = pool_.allocate(0, kNoParameter, false, nullptr);
  NodePool src_pool;
  CallNode* src = src_pool.allocate(0, kNoParameter, false, nullptr);
  src_pool.allocate(1, kNoParameter, false, src)->inclusive = 1;
  src_pool.allocate(1, kNoParameter, true, src)->inclusive = 2;
  src_pool.allocate(1, 9, false, src)->inclusive = 3;
  merge_subtree(pool_, dst, src, {}, {});
  EXPECT_EQ(dst->child_count(), 3u);
  EXPECT_EQ(find_child(dst, 1)->inclusive, 1);
  EXPECT_EQ(find_child(dst, 1, kNoParameter, true)->inclusive, 2);
  EXPECT_EQ(find_child(dst, 1, 9)->inclusive, 3);
}

TEST_F(CallTreeTest, RemappedMergeTranslatesHandlesAndRunsTheHookPerPair) {
  NodePool src_pool;
  CallNode* src = src_pool.allocate(0, kNoParameter, false, nullptr);
  src->visits = 1;
  CallNode* src_a = src_pool.allocate(1, 4, false, src);
  src_a->visits = 2;
  src_pool.allocate(2, kNoParameter, true, src_a)->visits = 3;
  const std::vector<RegionHandle> remap = {10, 11, 12};
  CallNode* dst = pool_.allocate(10, kNoParameter, false, nullptr);
  std::vector<std::pair<RegionHandle, RegionHandle>> pairs;
  merge_subtree(pool_, dst, src, remap,
                [&](CallNode& d, const CallNode& s) {
                  EXPECT_EQ(d.visits, s.visits);  // summed before the hook
                  pairs.emplace_back(d.region, s.region);
                });
  const std::vector<std::pair<RegionHandle, RegionHandle>> expected = {
      {10, 0}, {11, 1}, {12, 2}};
  EXPECT_EQ(pairs, expected);
  const CallNode* a = find_child(dst, 11, 4);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(find_child(a, 12, kNoParameter, true), nullptr);

  // An empty map keeps the handles and an empty hook is skipped.
  CallNode* same = pool_.allocate(0, kNoParameter, false, nullptr);
  merge_subtree(pool_, same, src, {}, {});
  EXPECT_EQ(subtree_size(same), 3u);
  ASSERT_NE(find_child(same, 1, 4), nullptr);
}

TEST_F(CallTreeTest, CollectPreorderIndexesEachParent) {
  CallNode* root = pool_.allocate(0, kNoParameter, false, nullptr);
  CallNode* a = pool_.allocate(1, kNoParameter, false, root);
  CallNode* a1 = pool_.allocate(2, kNoParameter, false, a);
  CallNode* b = pool_.allocate(3, kNoParameter, false, root);
  CallNode* b1 = pool_.allocate(4, kNoParameter, false, b);
  const auto listing = collect_preorder(root);
  const std::vector<CallNode*> nodes = {root, a, a1, b, b1};
  const std::vector<std::size_t> parents = {kNoParent, 0, 1, 0, 3};
  ASSERT_EQ(listing.size(), nodes.size());
  for (std::size_t i = 0; i < listing.size(); ++i) {
    EXPECT_EQ(listing[i].node, nodes[i]) << i;
    EXPECT_EQ(listing[i].parent, parents[i]) << i;
  }
  const CallNode* const_root = root;
  EXPECT_EQ(collect_preorder(const_root).size(), 5u);
}

TEST_F(CallTreeTest, ForEachNodeVisitsPreorderWithDepth) {
  CallNode* root = pool_.allocate(0, kNoParameter, false, nullptr);
  CallNode* a = pool_.allocate(1, kNoParameter, false, root);
  pool_.allocate(2, kNoParameter, false, a);
  pool_.allocate(3, kNoParameter, false, root);
  std::vector<std::pair<RegionHandle, int>> visited;
  for_each_node(root, [&](const CallNode& node, int depth) {
    visited.emplace_back(node.region, depth);
  });
  const std::vector<std::pair<RegionHandle, int>> expected = {
      {0, 0}, {1, 1}, {2, 2}, {3, 1}};
  EXPECT_EQ(visited, expected);
}

TEST_F(CallTreeTest, SubtreeSizeCounts) {
  CallNode* root = pool_.allocate(0, kNoParameter, false, nullptr);
  CallNode* a = pool_.allocate(1, kNoParameter, false, root);
  pool_.allocate(2, kNoParameter, false, a);
  EXPECT_EQ(subtree_size(root), 3u);
  EXPECT_EQ(subtree_size(nullptr), 0u);
}

TEST_F(CallTreeTest, FindPathWalksRegions) {
  CallNode* root = pool_.allocate(0, kNoParameter, false, nullptr);
  CallNode* a = pool_.allocate(1, kNoParameter, false, root);
  CallNode* b = pool_.allocate(2, kNoParameter, false, a);
  CallNode* stub = pool_.allocate(3, kNoParameter, true, b);
  EXPECT_EQ(find_path(root, {1, 2}), b);
  EXPECT_EQ(find_path(root, {1, 2, 3}, /*stub_leaf=*/true), stub);
  EXPECT_EQ(find_path(root, {1, 9}), nullptr);
  EXPECT_EQ(find_path(root, {}), root);
}

TEST_F(CallTreeTest, PoolSurvivesManyChunks) {
  CallNode* root = pool_.allocate(0, kNoParameter, false, nullptr);
  std::vector<CallNode*> nodes;
  for (int i = 0; i < 10'000; ++i) {
    nodes.push_back(
        pool_.allocate(static_cast<RegionHandle>(i + 1), i, false, root));
  }
  EXPECT_EQ(pool_.allocated(), 10'001u);
  // Spot-check that early nodes were not invalidated by chunk growth.
  EXPECT_EQ(nodes[0]->region, 1u);
  EXPECT_EQ(nodes[0]->parameter, 0);
  EXPECT_EQ(nodes[9'999]->region, 10'000u);
  EXPECT_EQ(root->child_count(), 10'000u);
}

}  // namespace
}  // namespace taskprof
