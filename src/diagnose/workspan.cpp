#include "diagnose/workspan.hpp"

#include <algorithm>
#include <map>

#include "trace/analysis.hpp"

namespace taskprof::diag {

WorkSpanSummary compute_workspan(const trace::Trace& trace,
                                 const RegionRegistry& registry) {
  WorkSpanSummary out{trace.span_model()->measured, {}};

  // Attribute chain time per construct, over all its parameters.
  std::map<RegionHandle, ConstructSpanShare> shares;
  for (const auto& [key, chain] : out.on_chain) {
    ConstructSpanShare& share = shares[key.first];
    share.region = key.first;
    share.on_span += chain.active;
    share.instances += chain.tasks;
  }
  for (auto& [region, share] : shares) {
    share.name = trace::construct_display_name(region, registry);
    out.shares.push_back(std::move(share));
  }
  std::stable_sort(out.shares.begin(), out.shares.end(),
                   [](const ConstructSpanShare& a,
                      const ConstructSpanShare& b) {
                     return a.on_span > b.on_span;
                   });
  return out;
}

}  // namespace taskprof::diag
