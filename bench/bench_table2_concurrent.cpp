// Paper Table II: maximum number of concurrently executing (active) task
// instances per thread, for all 14 BOTS code versions (with and without
// cut-off where provided).
//
// Paper shapes to hold: alignment = 1 (independent leaf tasks), sparselu
// tiny, recursive codes bounded by their recursion depth, and the cut-off
// versions far below their full counterparts (paper max was 20, 8 of 14
// cases below 5).
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace taskprof;
  const bench::Options options = bench::parse_options(argc, argv);
  bench::print_header(
      "=== Table II: max concurrently executing task instances per thread ===",
      "Lorenz et al. 2012, Table II", options);

  // Paper values for the medium inputs, for side-by-side comparison.
  const std::vector<std::tuple<std::string, bool, std::string>> versions = {
      {"alignment", false, "1"},  {"fft", false, "19"},
      {"fib", true, "4"},         {"floorplan", false, "20"},
      {"floorplan", true, "5"},   {"health", false, "4"},
      {"health", true, "3"},      {"nqueens", false, "14"},
      {"nqueens", true, "3"},     {"sort", false, "18"},
      {"sparselu", false, "2"},   {"strassen", false, "8"},
      {"strassen", true, "3"},    {"fib", false, "(not in paper)"},
  };

  TextTable table({"code", "max tasks", "paper (medium)", "profiler nodes",
                   "profiler memory"});
  for (const auto& [name, cutoff, paper_value] : versions) {
    auto kernel = bots::make_kernel(name);
    bots::KernelConfig config;
    config.threads = 8;
    config.size = options.size;
    config.seed = options.seed;
    config.cutoff = cutoff;
    const auto run = bench::run_sim(*kernel, config, true);
    std::string label = name;
    if (cutoff) label += " (cut-off)";
    char memory[32];
    std::snprintf(memory, sizeof(memory), "%.1f KiB",
                  static_cast<double>(run.memory.bytes) / 1024.0);
    table.add_row({label,
                   std::to_string(run.profile->max_concurrent_any_thread),
                   paper_value, format_count(run.memory.nodes), memory});
  }
  std::fputs(table.str().c_str(), stdout);
  std::puts(
      "\npaper reference: never above 20; alignment exactly 1; recursive "
      "codes track their recursion (or cut-off) depth.  Deviation from "
      "paper SV-B: instances write straight into their construct's tree, so "
      "the profiler's nodes and memory count distinct call paths, not live "
      "instance trees.");
  return 0;
}
