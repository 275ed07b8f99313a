#include "profile/region.hpp"

#include <memory>

#include "common/assert.hpp"

namespace taskprof {

std::string_view region_type_name(RegionType type) noexcept {
  switch (type) {
    case RegionType::kFunction: return "function";
    case RegionType::kParallel: return "parallel";
    case RegionType::kImplicitBarrier: return "implicit barrier";
    case RegionType::kBarrier: return "barrier";
    case RegionType::kTaskwait: return "taskwait";
    case RegionType::kTaskCreate: return "create task";
    case RegionType::kTask: return "task";
    case RegionType::kImplicitTask: return "implicit task";
    case RegionType::kParameter: return "parameter";
  }
  return "unknown";
}

RegionHandle RegionRegistry::register_region(RegionInfo info) {
  std::scoped_lock lock(mutex_);
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    if (regions_[i]->type == info.type && regions_[i]->name == info.name) {
      return static_cast<RegionHandle>(i);
    }
  }
  regions_.push_back(std::make_unique<RegionInfo>(std::move(info)));
  return static_cast<RegionHandle>(regions_.size() - 1);
}

std::vector<RegionHandle> RegionRegistry::adopt(const RegionRegistry& other) {
  std::vector<RegionHandle> handles(other.size());
  for (RegionHandle h = 0; h < handles.size(); ++h) {
    handles[h] = register_region(RegionInfo(other.info(h)));
  }
  return handles;
}

const RegionInfo& RegionRegistry::info(RegionHandle handle) const {
  std::scoped_lock lock(mutex_);
  TASKPROF_ASSERT(handle < regions_.size(), "invalid region handle");
  return *regions_[handle];
}

std::size_t RegionRegistry::size() const {
  std::scoped_lock lock(mutex_);
  return regions_.size();
}

}  // namespace taskprof
