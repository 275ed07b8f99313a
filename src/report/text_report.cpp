#include "report/text_report.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "common/format.hpp"

namespace taskprof {

namespace {

std::string node_label(const CallNode& node, const RegionRegistry& registry) {
  const RegionInfo& info = registry.info(node.region);
  std::string label = info.name;
  if (node.parameter != kNoParameter) {
    label += " [" + std::to_string(node.parameter) + "]";
  }
  if (node.is_stub) label += " *";
  return label;
}

void render_node(std::ostringstream& os, const CallNode& node,
                 const RegionRegistry& registry, const ReportOptions& options,
                 int depth) {
  if (options.max_depth >= 0 && depth > options.max_depth) return;
  os << std::string(static_cast<std::size_t>(depth) * 2, ' ')
     << node_label(node, registry) << "  visits=" << node.visits
     << "  incl=" << format_ticks(node.inclusive)
     << "  excl=" << format_ticks(node.exclusive());
  if (options.visit_stats && node.visit_stats.count > 0) {
    os << "  min=" << format_ticks(node.visit_stats.min)
       << "  mean=" << format_ticks(static_cast<Ticks>(node.visit_stats.mean()))
       << "  max=" << format_ticks(node.visit_stats.max);
  }
  os << '\n';
}

void csv_escape_into(std::string& out, const std::string& field) {
  const bool needs_quoting =
      field.find_first_of(",\"\n") != std::string::npos;
  if (!needs_quoting) {
    out += field;
    return;
  }
  out += '"';
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
}

void render_csv_row(std::string& out, const CallNode& node,
                    const std::string& tree, const std::string& path) {
  csv_escape_into(out, tree);
  out += ',';
  csv_escape_into(out, path);
  out += ',';
  out += node.is_stub ? '1' : '0';
  out += ',';
  out += node.parameter == kNoParameter ? std::string()
                                        : std::to_string(node.parameter);
  out += ',';
  out += std::to_string(node.visits);
  out += ',';
  out += std::to_string(node.inclusive);
  out += ',';
  out += std::to_string(node.exclusive());
  out += ',';
  out += std::to_string(node.visit_stats.count == 0 ? 0 : node.visit_stats.min);
  out += ',';
  out += std::to_string(static_cast<Ticks>(node.visit_stats.mean()));
  out += ',';
  out += std::to_string(node.visit_stats.count == 0 ? 0 : node.visit_stats.max);
  out += '\n';
}

/// Iterative CSV rendering of a whole tree: one reused path buffer plus a
/// per-depth length stack (recursing per node kept a std::string frame per
/// level and overflowed the C++ stack on deep cut-off-free recursion trees).
void render_csv_tree(std::string& out, const CallNode& root,
                     const RegionRegistry& registry, const std::string& tree) {
  std::string path;
  std::vector<std::size_t> full_len;  // full_len[d] = path length at depth d
  for_each_node(&root, [&](const CallNode& node, int depth) {
    const auto d = static_cast<std::size_t>(depth);
    if (full_len.size() <= d) full_len.resize(d + 1);
    path.resize(d == 0 ? 0 : full_len[d - 1]);
    if (d > 0) path += '/';
    path += registry.info(node.region).name;
    full_len[d] = path.size();
    render_csv_row(out, node, tree, path);
  });
}

}  // namespace

std::string render_tree(const CallNode* root, const RegionRegistry& registry,
                        const ReportOptions& options) {
  if (root == nullptr) return "(empty tree)\n";
  std::ostringstream os;
  // Iterative via for_each_node: rendering is one place deep trees from
  // cut-off-free recursion used to re-introduce unbounded call recursion.
  for_each_node(root, [&](const CallNode& node, int depth) {
    render_node(os, node, registry, options, depth);
  });
  return os.str();
}

std::string render_profile(const AggregateProfile& profile,
                           const RegionRegistry& registry,
                           const ReportOptions& options) {
  std::ostringstream os;
  if (profile.partial_capture) {
    os << "=== PARTIAL CAPTURE: mid-run snapshot; in-flight tasks are "
          "included up to the capture ===\n";
  }
  os << "=== main tree (implicit tasks, " << profile.thread_count
     << " threads merged; '*' marks task-execution stub nodes) ===\n";
  os << render_tree(profile.implicit_root, registry, options);
  for (const CallNode* root : profile.task_roots) {
    os << "=== task tree: " << registry.info(root->region).name;
    if (root->parameter != kNoParameter) {
      os << " [" << root->parameter << "]";
    }
    os << " ===\n";
    os << render_tree(root, registry, options);
  }
  os << "=== summary ===\n";
  os << "threads: " << profile.thread_count << '\n';
  os << "task switches: " << format_count(profile.total_task_switches)
     << '\n';
  os << "max concurrent task instances per thread: "
     << profile.max_concurrent_any_thread << '\n';
  return os.str();
}

std::string render_telemetry(const telemetry::Snapshot& snapshot) {
  using telemetry::Counter;
  using telemetry::Gauge;
  std::ostringstream os;
  os << "=== scheduler telemetry (" << snapshot.threads << " threads) ===\n";

  const std::uint64_t attempts = snapshot.counter(Counter::kStealAttempts);
  if (attempts > 0) {
    os << "steal success rate: "
       << format_fixed(snapshot.steal_success_rate() * 100.0, 1) << " % ("
       << format_count(snapshot.counter(Counter::kStealSuccesses)) << " of "
       << format_count(attempts) << " probes, "
       << format_count(snapshot.counter(Counter::kStealAborts))
       << " empty rounds)\n";
  }
  const std::uint64_t hook_events = snapshot.counter(Counter::kHookEvents);
  if (hook_events > 0) {
    os << "hook overhead: "
       << format_ticks(snapshot.counter(Counter::kHookTicks)) << " over "
       << format_count(hook_events) << " events ("
       << format_ticks(static_cast<Ticks>(snapshot.hook_mean_ticks()))
       << "/event; total estimated from sampled callbacks)\n";
  }

  TextTable counters({"counter", "total", "per-thread max"});
  for (std::size_t i = 0; i < telemetry::kCounterCount; ++i) {
    const auto c = static_cast<Counter>(i);
    if (snapshot.counter(c) == 0) continue;
    std::uint64_t thread_max = 0;
    for (const auto& row : snapshot.per_thread) {
      thread_max = std::max(thread_max, row[i]);
    }
    counters.add_row({std::string(telemetry::counter_name(c)),
                      format_count(snapshot.counter(c)),
                      format_count(thread_max)});
  }
  if (counters.row_count() > 0) os << counters.str();

  TextTable gauges({"gauge (high water)", "max"});
  for (std::size_t i = 0; i < telemetry::kGaugeCount; ++i) {
    const auto g = static_cast<Gauge>(i);
    if (snapshot.gauge(g) == 0) continue;
    gauges.add_row({std::string(telemetry::gauge_name(g)),
                    format_count(snapshot.gauge(g))});
  }
  if (gauges.row_count() > 0) os << gauges.str();
  return os.str();
}

std::string render_csv(const AggregateProfile& profile,
                       const RegionRegistry& registry) {
  std::string out =
      "tree,path,stub,parameter,visits,inclusive_ns,exclusive_ns,min_ns,"
      "mean_ns,max_ns\n";
  if (profile.implicit_root != nullptr) {
    render_csv_tree(out, *profile.implicit_root, registry, "main");
  }
  for (const CallNode* root : profile.task_roots) {
    std::string tree = "task:" + registry.info(root->region).name;
    if (root->parameter != kNoParameter) {
      tree += '[';
      tree += std::to_string(root->parameter);
      tree += ']';
    }
    render_csv_tree(out, *root, registry, tree);
  }
  return out;
}

}  // namespace taskprof
