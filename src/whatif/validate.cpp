#include "whatif/validate.hpp"

#include <cmath>
#include <cstdio>
#include <memory>

#include "check/differential.hpp"
#include "common/json.hpp"
#include "instrument/instrumentor.hpp"
#include "rt/duration_scale.hpp"
#include "rt/sim_runtime.hpp"
#include "trace/recorder.hpp"

namespace taskprof::whatif {

namespace {

constexpr int kSchemaVersion = 1;

/// One instrumented sim run of `kernel` at `threads`, optionally with a
/// duration-scaling hypothesis applied.
struct SimRun {
  rt::TeamStats stats;
  trace::Trace trace;
  check::ProfileProjection projection;
  bool ok = false;
};

SimRun run_kernel_sim(bots::Kernel& kernel, RegionRegistry& registry,
                      int threads, bots::SizeClass size,
                      const rt::DurationScale* scale) {
  rt::SimConfig config;
  config.duration_scale = scale;
  rt::SimRuntime runtime(config);

  Instrumentor instr(registry);
  trace::TraceRecorder recorder;
  rt::FanoutHooks fanout({&instr, &recorder});
  runtime.set_hooks(&fanout);

  bots::KernelConfig kc;
  kc.threads = threads;
  kc.size = size;
  const bots::KernelResult result = kernel.run(runtime, registry, kc);

  runtime.set_hooks(nullptr);
  instr.finalize();

  SimRun out;
  out.stats = result.stats;
  out.trace = recorder.take();
  out.projection =
      check::project_profile(instr.aggregate(), registry, result.stats);
  out.projection.engine = scale == nullptr ? "baseline" : "scaled";
  out.projection.checksum = result.checksum;
  out.projection.self_check_ok = result.ok;
  out.ok = result.ok;
  return out;
}

}  // namespace

std::map<std::string, KernelGate> default_kernel_gates() {
  // Measured worst cases at test size (2/4/8 threads, N in {25,50,90}),
  // with headroom; causes documented in DESIGN.md §14:
  //  * alignment — flat farm; at N=90% the bodies shrink below the
  //    per-task dispatch cost and idle-worker polling throttles the
  //    spawner (observed 40% at P=4);
  //  * sparselu / fft — same management-floor effect, milder (29%/18%);
  //  * floorplan — branch-and-bound pruning is schedule-dependent, so a
  //    duration hypothesis legitimately changes the task count; structure
  //    equality is recorded but not gated (observed 20% at P=4).
  return {
      {"alignment", {0.50, true}},
      {"fft", {0.25, true}},
      {"sparselu", {0.40, true}},
      {"floorplan", {0.30, false}},
  };
}

bool ValidateReport::all_within() const noexcept { return failures() == 0; }

std::size_t ValidateReport::failures() const noexcept {
  std::size_t n = 0;
  for (const ValidateCase& c : cases) {
    if (!c.within_tolerance ||
        (c.structure_required && !c.structure_diff.empty())) {
      ++n;
    }
  }
  return n;
}

ValidateReport run_validation(const ValidateOptions& options, Error* error) {
  ValidateReport report;
  report.tolerance = options.tolerance;

  std::vector<std::string> kernels = options.kernels;
  if (kernels.empty()) {
    for (const auto& kernel : bots::make_all_kernels()) {
      kernels.emplace_back(kernel->name());
    }
  }

  for (const std::string& name : kernels) {
    std::unique_ptr<bots::Kernel> kernel = bots::make_kernel(name);
    if (kernel == nullptr) {
      if (error != nullptr) {
        *error = {ErrorCode::kUnknownPath, "unknown kernel '" + name + "'"};
      }
      continue;
    }
    // One registry per kernel: BOTS kernels re-register their regions on
    // every run and the registry dedups, so baseline and scaled runs see
    // identical handles — the precondition for DurationScale targeting.
    RegionRegistry registry;
    const auto gate_it = options.gates.find(name);
    const KernelGate gate = gate_it != options.gates.end()
                                ? gate_it->second
                                : KernelGate{options.tolerance, true};

    for (const int threads : options.threads) {
      const SimRun baseline = run_kernel_sim(*kernel, registry, threads,
                                             options.size, nullptr);
      WhatIfProfile profile;
      const Error build_error = WhatIfProfile::build(
          baseline.trace, *baseline.trace.analysis(), registry, &profile);
      if (!build_error.ok()) {
        if (error != nullptr) *error = build_error;
        continue;
      }
      // Scale the heaviest-scalable-time construct, aggregated across
      // parameters (DurationScale keys on the region handle).
      const CallPathStats& target_path = profile.paths().front();
      std::vector<std::size_t> targets;
      const Error resolve_error = profile.resolve(target_path.name, &targets);
      if (!resolve_error.ok()) {
        if (error != nullptr) *error = resolve_error;
        continue;
      }

      for (const double fraction : options.fractions) {
        rt::DurationScale scale;
        scale.set_factor(target_path.region, 1.0 - fraction);
        const SimRun scaled = run_kernel_sim(*kernel, registry, threads,
                                             options.size, &scale);

        const Projection projection =
            profile.project(targets, fraction, {threads});
        double analytic_before = 0.0;
        double analytic_after = 0.0;
        for (const ThreadProjection& tp : projection.at_threads) {
          if (tp.threads == threads) {
            analytic_before = tp.time_before;
            analytic_after = tp.time_after;
          }
        }

        ValidateCase vc;
        vc.kernel = name;
        vc.threads = threads;
        vc.fraction = fraction;
        vc.target = target_path.name;
        vc.measured_before = baseline.stats.parallel_ticks;
        vc.measured_after = scaled.stats.parallel_ticks;
        vc.analytic_before = analytic_before;
        vc.analytic_after = analytic_after;
        // Ratio-on-baseline: Graham's estimator is an upper bound with a
        // scheduler-dependent multiplicative bias that is nearly the same
        // for the baseline and the hypothesis at the same thread count, so
        // dividing it out cancels the bias (a delta would subtract it).
        vc.projected_time =
            analytic_before > 0.0
                ? static_cast<double>(vc.measured_before) *
                      (analytic_after / analytic_before)
                : static_cast<double>(vc.measured_before);
        vc.simulated_speedup =
            vc.measured_after > 0
                ? static_cast<double>(vc.measured_before) /
                      static_cast<double>(vc.measured_after)
                : 0.0;
        vc.projected_speedup =
            vc.projected_time > 0.0
                ? static_cast<double>(vc.measured_before) / vc.projected_time
                : 0.0;
        vc.relative_error =
            vc.measured_after > 0
                ? std::abs(vc.projected_time -
                           static_cast<double>(vc.measured_after)) /
                      static_cast<double>(vc.measured_after)
                : 1.0;
        vc.tolerance = gate.tolerance;
        vc.structure_required = gate.require_identical_structure;
        vc.within_tolerance = vc.relative_error <= gate.tolerance;
        // A duration-only hypothesis must not change program structure:
        // same constructs, same counts, same checksum (PR 3 machinery).
        vc.structure_diff =
            check::diff_projections(baseline.projection, scaled.projection);
        report.cases.push_back(std::move(vc));
      }
    }
  }
  return report;
}

void render_validate_text(const ValidateReport& report, std::ostream& os) {
  os << "What-if validation: analytical projection vs sim replay ("
     << report.cases.size() << " cases, tolerance "
     << static_cast<int>(report.tolerance * 100.0) << "%)\n";
  for (const ValidateCase& c : report.cases) {
    const bool pass = c.within_tolerance &&
                      (!c.structure_required || c.structure_diff.empty());
    char line[256];
    std::snprintf(line, sizeof line,
                  "  %-10s P=%d N=%2.0f%%  sim %.3fx  projected %.3fx  "
                  "err %5.1f%%  %s",
                  c.kernel.c_str(), c.threads, c.fraction * 100.0,
                  c.simulated_speedup, c.projected_speedup,
                  c.relative_error * 100.0, pass ? "ok" : "FAIL");
    os << line;
    if (c.tolerance != report.tolerance) {
      char gate[32];
      std::snprintf(gate, sizeof gate, "  (gate %.0f%%)",
                    c.tolerance * 100.0);
      os << gate;
    }
    os << "\n";
    for (const std::string& diff : c.structure_diff) {
      os << "      structure: " << diff << "\n";
    }
  }
  os << (report.all_within() ? "PASS" : "FAIL") << ": "
     << (report.cases.size() - report.failures()) << "/"
     << report.cases.size() << " within tolerance\n";
}

std::string render_validate_json(const ValidateReport& report) {
  JsonWriter json;
  json.begin_object();
  json.field("schema_version", kSchemaVersion);
  json.field("tolerance", report.tolerance);
  json.field("pass", report.all_within());
  json.begin_array("cases");
  for (const ValidateCase& c : report.cases) {
    json.begin_object();
    json.field("kernel", c.kernel);
    json.field("threads", c.threads);
    json.field("speedup_percent", c.fraction * 100.0);
    json.field("target", c.target);
    json.field("measured_before_ns", c.measured_before);
    json.field("measured_after_ns", c.measured_after);
    json.field("analytic_before_ns", c.analytic_before);
    json.field("analytic_after_ns", c.analytic_after);
    json.field("projected_time_ns", c.projected_time);
    json.field("simulated_speedup", c.simulated_speedup);
    json.field("projected_speedup", c.projected_speedup);
    json.field("relative_error", c.relative_error);
    json.field("tolerance", c.tolerance);
    json.field("structure_required", c.structure_required);
    json.field("within_tolerance", c.within_tolerance);
    json.field("structure_ok", c.structure_diff.empty());
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.finish();
}

}  // namespace taskprof::whatif
