#include "callpath.hpp"

#include <array>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "rt/runtime.hpp"

namespace perfbench {

using namespace taskprof;

namespace {

constexpr int kFanout = 4;
constexpr int kDepth = 7;
constexpr int kMaxChildren = 5;
constexpr int kFunctions = 256;
constexpr int kMaxChain = 8;
/// xorshift steps per task body: about 2-5 us on a 2-3 GHz core.
constexpr std::uint32_t kMinSpins = 1200;
constexpr std::uint32_t kSpinRange = 2400;

std::uint64_t mix(std::uint64_t x) noexcept { return SplitMix64(x).next(); }

std::uint64_t root_key(std::uint64_t seed) noexcept {
  return mix(seed ^ 0xca11'9a7bULL);
}

std::uint64_t child_key(std::uint64_t parent, int index) noexcept {
  return mix(parent + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(
                                                   index + 1));
}

/// What one task does, fixed by its key and depth alone.
struct Plan {
  int chain = 1;
  std::array<std::uint16_t, kMaxChain> functions{};
  std::uint32_t spins = 0;
  int children = 0;
};

Plan plan_for(std::uint64_t key, int depth) noexcept {
  Xoshiro256 rng(key);
  Plan plan;
  plan.chain = 1 + static_cast<int>(rng.next_below(kMaxChain));
  for (int i = 0; i < plan.chain; ++i) {
    // Cubing a uniform variate skews popularity towards low indices: half
    // of all calls go to the 32 most popular functions.
    const double u = rng.next_double();
    plan.functions[static_cast<std::size_t>(i)] =
        static_cast<std::uint16_t>(kFunctions * u * u * u);
  }
  plan.spins =
      kMinSpins + static_cast<std::uint32_t>(rng.next_below(kSpinRange));
  if (depth < kDepth - 1) {
    plan.children = kFanout;
  } else if (depth == kDepth - 1) {
    plan.children = 3 + static_cast<int>(rng.next_below(3));
  }
  return plan;
}

/// Register-bound compute: a dependent xorshift chain the compiler can
/// neither vectorize nor fold, with no memory traffic at all.
std::uint64_t spin(std::uint64_t x, std::uint32_t steps) noexcept {
  x |= 1;
  for (std::uint32_t i = 0; i < steps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

CallpathReference reference_subtree(std::uint64_t key, int depth) {
  const Plan plan = plan_for(key, depth);
  CallpathReference ref{1, spin(key, plan.spins)};
  for (int i = 0; i < plan.children; ++i) {
    const CallpathReference child =
        reference_subtree(child_key(key, i), depth + 1);
    ref.tasks += child.tasks;
    ref.checksum += child.checksum;
  }
  return ref;
}

struct Regions {
  RegionHandle task = kInvalidRegion;
  std::array<RegionHandle, kFunctions> functions{};
};

std::uint64_t body(rt::TaskContext& ctx, const Regions& regions,
                   std::uint64_t key, int depth);

void spawn(rt::TaskContext& ctx, const Regions& regions, std::uint64_t key,
           int depth, std::uint64_t* out) {
  rt::TaskAttrs attrs;
  attrs.region = regions.task;
  ctx.create_task(
      [&regions, key, depth, out](rt::TaskContext& c) {
        *out = body(c, regions, key, depth);
      },
      attrs);
}

std::uint64_t body(rt::TaskContext& ctx, const Regions& regions,
                   std::uint64_t key, int depth) {
  const Plan plan = plan_for(key, depth);
  auto function = [&](int i) {
    return regions.functions[plan.functions[static_cast<std::size_t>(i)]];
  };
  for (int i = 0; i < plan.chain; ++i) ctx.region_enter(function(i));
  std::uint64_t result = spin(key, plan.spins);
  std::array<std::uint64_t, kMaxChildren> results{};
  for (int i = 0; i < plan.children; ++i) {
    spawn(ctx, regions, child_key(key, i), depth + 1,
          &results[static_cast<std::size_t>(i)]);
  }
  if (plan.children > 0) ctx.taskwait();
  for (int i = 0; i < plan.children; ++i) {
    result += results[static_cast<std::size_t>(i)];
  }
  for (int i = plan.chain - 1; i >= 0; --i) ctx.region_exit(function(i));
  return result;
}

class CallpathKernel final : public bots::Kernel {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "callpath_wide";
  }
  [[nodiscard]] bool has_cutoff_version() const override { return false; }

  bots::KernelResult run(rt::Runtime& runtime, RegionRegistry& registry,
                         const bots::KernelConfig& config) override {
    const Regions& regions = regions_for(registry);
    const std::uint64_t key = root_key(config.seed);
    std::array<std::uint64_t, kFanout> results{};
    bots::KernelResult out;
    out.stats = runtime.parallel(config.threads, [&](rt::TaskContext& ctx) {
      if (!ctx.single()) return;
      for (int i = 0; i < kFanout; ++i) {
        spawn(ctx, regions, child_key(key, i), 1,
              &results[static_cast<std::size_t>(i)]);
      }
      ctx.taskwait();
    });
    for (const std::uint64_t r : results) out.checksum += r;
    const CallpathReference& ref = reference_for(config.seed);
    out.ok = out.checksum == ref.checksum &&
             out.stats.tasks_executed == ref.tasks;
    out.check = "checksum and task count match the serial reference";
    return out;
  }

 private:
  const Regions& regions_for(RegionRegistry& registry) {
    if (registered_in_ != &registry) {
      regions_.task =
          registry.register_region("callpath_task", RegionType::kTask);
      for (int i = 0; i < kFunctions; ++i) {
        char name[16];
        std::snprintf(name, sizeof name, "cp_fn_%03d", i);
        regions_.functions[static_cast<std::size_t>(i)] =
            registry.register_region(name, RegionType::kFunction);
      }
      registered_in_ = &registry;
    }
    return regions_;
  }

  const CallpathReference& reference_for(std::uint64_t seed) {
    auto it = references_.find(seed);
    if (it == references_.end()) {
      it = references_.emplace(seed, callpath_reference(seed)).first;
    }
    return it->second;
  }

  const RegionRegistry* registered_in_ = nullptr;
  Regions regions_;
  std::map<std::uint64_t, CallpathReference> references_;
};

}  // namespace

CallpathReference callpath_reference(std::uint64_t seed) {
  const std::uint64_t key = root_key(seed);
  CallpathReference total;
  for (int i = 0; i < kFanout; ++i) {
    const CallpathReference sub = reference_subtree(child_key(key, i), 1);
    total.tasks += sub.tasks;
    total.checksum += sub.checksum;
  }
  return total;
}

std::unique_ptr<bots::Kernel> make_callpath_kernel() {
  return std::make_unique<CallpathKernel>();
}

}  // namespace perfbench
