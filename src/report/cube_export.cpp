#include "report/cube_export.hpp"

#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace taskprof {

namespace {

void xml_escape_into(std::string& out, const std::string& text) {
  for (char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
}

std::string xml_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  xml_escape_into(out, text);
  return out;
}

/// Stable integer id per call node, assigned in definition order.
struct CnodeIndex {
  std::vector<const CallNode*> nodes;  // by id

  int add(const CallNode* node) {
    nodes.push_back(node);
    return static_cast<int>(nodes.size()) - 1;
  }
};

/// Define `root`'s subtree as nested cnodes, each level indented two
/// spaces more than its parent.  Preorder without recursion: the tags of
/// the levels the walk leaves are closed before the next node opens, so
/// a tree as deep as cut-off-free recursion makes it renders in constant
/// stack space.
void define_cnodes(std::ostringstream& os, CnodeIndex& index,
                   const CallNode* root) {
  constexpr int kIndent = 2;  // levels above a call tree's root
  auto pad = [](int depth) {
    return std::string(static_cast<std::size_t>(kIndent + depth) * 2, ' ');
  };
  int open = 0;  // cnodes whose closing tag is still due
  auto close_to = [&](int depth) {
    for (; open > depth; --open) os << pad(open - 1) << "</cnode>\n";
  };
  for_each_node(root, [&](const CallNode& node, int depth) {
    close_to(depth);
    os << pad(depth) << "<cnode id=\"" << index.add(&node)
       << "\" calleeId=\"" << node.region << "\"";
    if (node.parameter != kNoParameter) {
      os << " parameter=\"" << node.parameter << "\"";
    }
    if (node.is_stub) os << " stub=\"1\"";
    os << ">\n";
    ++open;
  });
  close_to(0);
}

template <typename ValueFn>
void severity_matrix(std::ostringstream& os, const CnodeIndex& index,
                     const char* metric_id, ValueFn&& value) {
  os << "    <matrix metricId=\"" << metric_id << "\">\n";
  for (std::size_t id = 0; id < index.nodes.size(); ++id) {
    os << "      <row cnodeId=\"" << id << "\">"
       << value(*index.nodes[id]) << "</row>\n";
  }
  os << "    </matrix>\n";
}

}  // namespace

std::string render_cube_xml(const AggregateProfile& profile,
                            const RegionRegistry& registry) {
  std::ostringstream os;
  os << "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  os << "<cube version=\"4.0\" generator=\"taskprof\">\n";

  // -- metric definitions ---------------------------------------------------
  os << "  <metrics>\n";
  const struct {
    const char* id;
    const char* name;
    const char* uom;
  } metrics[] = {
      {"visits", "Visits", "occ"},
      {"time", "Time (inclusive)", "nsec"},
      {"time_min", "Min time per visit", "nsec"},
      {"time_mean", "Mean time per visit", "nsec"},
      {"time_max", "Max time per visit", "nsec"},
  };
  for (const auto& metric : metrics) {
    os << "    <metric id=\"" << metric.id << "\">\n"
       << "      <disp_name>" << metric.name << "</disp_name>\n"
       << "      <uom>" << metric.uom << "</uom>\n"
       << "    </metric>\n";
  }
  os << "  </metrics>\n";

  // -- region table -----------------------------------------------------------
  // Only regions actually referenced by the profile are emitted.
  std::map<RegionHandle, bool> used;
  auto collect = [&used](const CallNode* root) {
    for_each_node(root, [&used](const CallNode& node, int) {
      used[node.region] = true;
    });
  };
  collect(profile.implicit_root);
  for (const CallNode* root : profile.task_roots) collect(root);

  os << "  <program>\n";
  for (const auto& [handle, _] : used) {
    const RegionInfo& info = registry.info(handle);
    os << "    <region id=\"" << handle << "\" mod=\""
       << xml_escape(info.file) << "\" begin=\"" << info.line << "\">\n"
       << "      <name>" << xml_escape(info.name) << "</name>\n"
       << "      <paradigm>tasking</paradigm>\n"
       << "      <role>" << region_type_name(info.type) << "</role>\n"
       << "    </region>\n";
  }

  // -- call tree(s): main tree first, task trees beside it --------------------
  CnodeIndex index;
  define_cnodes(os, index, profile.implicit_root);
  for (const CallNode* root : profile.task_roots) {
    define_cnodes(os, index, root);
  }
  os << "  </program>\n";

  // -- system tree -------------------------------------------------------------
  os << "  <system>\n";
  for (std::size_t t = 0; t < profile.thread_count; ++t) {
    os << "    <thread id=\"" << t << "\"/>\n";
  }
  os << "  </system>\n";

  // -- severity values -----------------------------------------------------------
  os << "  <severity>\n";
  severity_matrix(os, index, "visits",
                  [](const CallNode& node) { return node.visits; });
  severity_matrix(os, index, "time",
                  [](const CallNode& node) { return node.inclusive; });
  severity_matrix(os, index, "time_min", [](const CallNode& node) {
    return node.visit_stats.count == 0 ? 0 : node.visit_stats.min;
  });
  severity_matrix(os, index, "time_mean", [](const CallNode& node) {
    return static_cast<Ticks>(node.visit_stats.mean());
  });
  severity_matrix(os, index, "time_max", [](const CallNode& node) {
    return node.visit_stats.count == 0 ? 0 : node.visit_stats.max;
  });
  os << "  </severity>\n";
  os << "</cube>\n";
  return os.str();
}

}  // namespace taskprof
