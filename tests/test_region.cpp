#include "profile/region.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace taskprof {
namespace {

TEST(RegionRegistry, RegistersAndLooksUp) {
  RegionRegistry registry;
  const RegionHandle h =
      registry.register_region("nqueens_task", RegionType::kTask);
  const RegionInfo& info = registry.info(h);
  EXPECT_EQ(info.name, "nqueens_task");
  EXPECT_EQ(info.type, RegionType::kTask);
}

TEST(RegionRegistry, DeduplicatesSameNameAndType) {
  RegionRegistry registry;
  const RegionHandle a = registry.register_region("foo", RegionType::kTask);
  const RegionHandle b = registry.register_region("foo", RegionType::kTask);
  EXPECT_EQ(a, b);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(RegionRegistry, SameNameDifferentTypeIsDistinct) {
  RegionRegistry registry;
  const RegionHandle a = registry.register_region("foo", RegionType::kTask);
  const RegionHandle b =
      registry.register_region("foo", RegionType::kFunction);
  EXPECT_NE(a, b);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(RegionRegistry, FullInfoPreserved) {
  RegionRegistry registry;
  RegionInfo info;
  info.name = "bar";
  info.type = RegionType::kFunction;
  info.file = "bar.cpp";
  info.line = 42;
  const RegionHandle h = registry.register_region(info);
  EXPECT_EQ(registry.info(h).file, "bar.cpp");
  EXPECT_EQ(registry.info(h).line, 42);
}

TEST(RegionRegistry, HandlesAreDense) {
  RegionRegistry registry;
  const RegionHandle a = registry.register_region("a", RegionType::kTask);
  const RegionHandle b = registry.register_region("b", RegionType::kTask);
  const RegionHandle c = registry.register_region("c", RegionType::kTask);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(c, 2u);
}

TEST(RegionRegistry, AdoptMapsEveryHandleOfTheOtherRegistry) {
  RegionRegistry dst;
  dst.register_region("main", RegionType::kFunction);
  const RegionHandle shared = dst.register_region("work", RegionType::kTask);
  RegionRegistry src;
  src.register_region("work", RegionType::kTask);
  src.register_region(RegionInfo{"leaf", RegionType::kFunction, "leaf.c", 7});
  const std::vector<RegionHandle> map = dst.adopt(src);
  ASSERT_EQ(map.size(), 2u);
  EXPECT_EQ(map[0], shared);
  EXPECT_EQ(map[1], 2u);
  EXPECT_EQ(dst.size(), 3u);
  EXPECT_EQ(dst.info(map[1]).file, "leaf.c");
  EXPECT_EQ(dst.info(map[1]).line, 7);
}

TEST(RegionType, SchedulingPointClassification) {
  EXPECT_TRUE(is_scheduling_point(RegionType::kTaskwait));
  EXPECT_TRUE(is_scheduling_point(RegionType::kBarrier));
  EXPECT_TRUE(is_scheduling_point(RegionType::kImplicitBarrier));
  EXPECT_TRUE(is_scheduling_point(RegionType::kTaskCreate));
  EXPECT_FALSE(is_scheduling_point(RegionType::kFunction));
  EXPECT_FALSE(is_scheduling_point(RegionType::kTask));
  EXPECT_FALSE(is_scheduling_point(RegionType::kImplicitTask));
  EXPECT_FALSE(is_scheduling_point(RegionType::kParallel));
}

TEST(RegionType, NamesAreHumanReadable) {
  EXPECT_EQ(region_type_name(RegionType::kTaskwait), "taskwait");
  EXPECT_EQ(region_type_name(RegionType::kTaskCreate), "create task");
  EXPECT_EQ(region_type_name(RegionType::kImplicitBarrier),
            "implicit barrier");
}

}  // namespace
}  // namespace taskprof
