#include "whatif/whatif.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <set>

#include "common/assert.hpp"

namespace taskprof::whatif {

const char* error_code_name(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kNone: return "none";
    case ErrorCode::kUnknownPath: return "unknown_path";
    case ErrorCode::kBadFraction: return "bad_fraction";
    case ErrorCode::kBadSpec: return "bad_spec";
    case ErrorCode::kNoTrace: return "no_trace";
    case ErrorCode::kEmptyProfile: return "empty_profile";
  }
  return "?";
}

std::string CallPathStats::label() const {
  if (parameter == kNoParameter) return name;
  return name + "[" + std::to_string(parameter) + "]";
}

Error parse_target_spec(const std::string& text, TargetSpec* out) {
  const std::size_t eq = text.rfind('=');
  if (eq == std::string::npos || eq == 0) {
    return {ErrorCode::kBadSpec,
            "expected PATH=N (N percent in (0,100]), got '" + text + "'"};
  }
  const std::string number = text.substr(eq + 1);
  char* end = nullptr;
  const double percent = std::strtod(number.c_str(), &end);
  if (end == number.c_str() || *end != '\0') {
    return {ErrorCode::kBadSpec,
            "'" + number + "' is not a number in '" + text + "'"};
  }
  if (!(percent > 0.0) || percent > 100.0) {
    return {ErrorCode::kBadFraction,
            "speedup percent must be in (0,100], got " + number +
                " in '" + text + "'"};
  }
  out->path = text.substr(0, eq);
  out->fraction = percent / 100.0;
  return {};
}

namespace {

/// Graham estimator T_est(P) = (work - span)/P + span, in ns.
double estimate_time(double work, double span, int threads) {
  if (threads < 1) threads = 1;
  return (work - span) / static_cast<double>(threads) + span;
}

}  // namespace

Ticks WhatIfProfile::scalable_of(const trace::TaskLifetime& life) const {
  return work_basis_ ? life.work : life.active;
}

Error WhatIfProfile::build(const trace::Trace& trace,
                           const trace::TraceAnalysis& analysis,
                           const RegionRegistry& registry,
                           WhatIfProfile* out) {
  const std::shared_ptr<const trace::TraceAnalysis>& replayed =
      trace.analysis();
  TASKPROF_ASSERT(analysis.tasks.size() == replayed->tasks.size() &&
                      analysis.threads.size() == replayed->threads.size(),
                  "what-if analysis does not describe its trace");
  if (replayed->tasks.empty()) {
    return {ErrorCode::kEmptyProfile,
            "trace contains no completed explicit tasks to project over"};
  }
  out->analysis_ = replayed;
  out->span_ = trace.span_model();
  out->measured_threads_ =
      std::max<int>(1, static_cast<int>(replayed->threads.size()));
  out->work_basis_ = std::any_of(
      replayed->tasks.begin(), replayed->tasks.end(),
      [](const trace::TaskLifetime& life) { return life.work > 0; });

  // Aggregate per (region, parameter), deterministically ordered.
  std::map<std::pair<RegionHandle, std::int64_t>, CallPathStats> by_path;
  for (const trace::TaskLifetime& life : replayed->tasks) {
    CallPathStats& stats = by_path[{life.region, life.parameter}];
    stats.region = life.region;
    stats.parameter = life.parameter;
    stats.instances += 1;
    stats.active += life.active;
    stats.work += life.work;
    stats.scalable += out->scalable_of(life);
  }
  for (const auto& [key, chain] : out->measured().on_chain) {
    if (auto it = by_path.find(key); it != by_path.end()) {
      it->second.on_span += out->work_basis_ ? chain.work : chain.active;
    }
  }

  out->paths_.clear();
  out->paths_.reserve(by_path.size());
  for (auto& [key, stats] : by_path) {
    stats.name = trace::construct_display_name(stats.region, registry);
    out->paths_.push_back(std::move(stats));
  }
  std::sort(out->paths_.begin(), out->paths_.end(),
            [](const CallPathStats& a, const CallPathStats& b) {
              if (a.scalable != b.scalable) return a.scalable > b.scalable;
              if (a.active != b.active) return a.active > b.active;
              return a.label() < b.label();
            });
  return {};
}

Error WhatIfProfile::resolve(const std::string& path,
                             std::vector<std::size_t>* out) const {
  // "name" matches every parameter of the construct; "name[param]" one.
  std::string name = path;
  bool has_parameter = false;
  std::int64_t parameter = kNoParameter;
  if (!path.empty() && path.back() == ']') {
    const std::size_t open = path.rfind('[');
    if (open != std::string::npos) {
      const std::string number = path.substr(open + 1,
                                             path.size() - open - 2);
      char* end = nullptr;
      const long long value = std::strtoll(number.c_str(), &end, 10);
      if (end != number.c_str() && *end == '\0') {
        name = path.substr(0, open);
        has_parameter = true;
        parameter = value;
      }
    }
  }

  out->clear();
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    if (paths_[i].name != name) continue;
    if (has_parameter && paths_[i].parameter != parameter) continue;
    out->push_back(i);
  }
  if (!out->empty()) return {};

  std::string known;
  std::set<std::string> labels;
  for (const CallPathStats& stats : paths_) labels.insert(stats.label());
  for (const std::string& label : labels) {
    if (!known.empty()) known += ", ";
    known += label;
  }
  return {ErrorCode::kUnknownPath,
          "unknown call path '" + path + "'; profiled paths: " + known};
}

Projection WhatIfProfile::project(
    const std::vector<std::size_t>& targets, double fraction,
    const std::vector<int>& thread_counts) const {
  Projection out;
  out.fraction = fraction;

  // Every task belongs to exactly one (region, parameter) path, so
  // target membership is exact key lookup.
  std::set<std::pair<RegionHandle, std::int64_t>> target_keys;
  for (const std::size_t index : targets) {
    const CallPathStats& stats = paths_[index];
    if (!out.target.empty()) out.target += "+";
    out.target += stats.label();
    out.scalable += stats.scalable;
    out.scalable_on_span += stats.on_span;
    target_keys.emplace(stats.region, stats.parameter);
  }

  const auto is_target = [&](const trace::TaskLifetime& life) {
    return target_keys.count({life.region, life.parameter}) != 0;
  };

  // T1' subtracts the saving from total work; T∞' is re-evaluated over
  // the series-parallel structure with scaled segment durations.
  double saved_work = 0.0;
  for (const trace::TaskLifetime& life : analysis_->tasks) {
    if (is_target(life)) {
      saved_work += fraction * static_cast<double>(scalable_of(life));
    }
  }
  out.work_after = work() - static_cast<Ticks>(saved_work + 0.5);

  const trace::SyncForest::Evaluation scaled = span_->forest.evaluate(
      [&](const trace::SyncForest::PathKey& key,
          const trace::SyncForest::Segment& segment) {
        double duration = static_cast<double>(segment.active);
        if (target_keys.count(key) != 0) {
          duration -= fraction * static_cast<double>(work_basis_
                                                         ? segment.work
                                                         : segment.active);
        }
        return duration;
      },
      measured().task_overhead);
  out.span_after = static_cast<Ticks>(std::llround(scaled.span));
  out.span_length_after = scaled.tasks_on_chain;
  out.parallelism_after =
      out.span_after == 0
          ? 0.0
          : static_cast<double>(out.work_after) /
                static_cast<double>(out.span_after);

  // Overhead-augmented T1: management is never scaled by a hypothesis,
  // so it enters T1 whole.  The spans already carry it per chain task
  // (evaluate()'s task_overhead).
  const double work_before =
      static_cast<double>(work()) + static_cast<double>(overhead());
  const double span_before = static_cast<double>(span());
  const double work_after =
      static_cast<double>(out.work_after) + static_cast<double>(overhead());
  const double span_after = static_cast<double>(out.span_after);

  const double work_share =
      work_before <= 0.0
          ? 0.0
          : static_cast<double>(out.scalable) / work_before;
  const double span_share =
      span_before <= 0.0
          ? 0.0
          : static_cast<double>(out.scalable_on_span) / span_before;
  out.share = std::max(work_share, span_share);
  const double denom = 1.0 - out.share * fraction;
  out.bound = denom > 1e-12 ? 1.0 / denom : 0.0;  // 0 = unbounded

  std::vector<int> counts = thread_counts;
  counts.push_back(measured_threads_);
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  for (const int threads : counts) {
    if (threads < 1) continue;
    ThreadProjection tp;
    tp.threads = threads;
    tp.time_before = estimate_time(work_before, span_before, threads);
    tp.time_after = estimate_time(work_after, span_after, threads);
    tp.speedup = tp.time_after > 0.0 ? tp.time_before / tp.time_after : 0.0;
    out.at_threads.push_back(tp);
  }
  return out;
}

std::vector<Projection> WhatIfProfile::rank_targets(
    double fraction, const std::vector<int>& thread_counts) const {
  std::vector<Projection> out;
  out.reserve(paths_.size());
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    out.push_back(project({i}, fraction, thread_counts));
  }
  const auto speedup_at_measured = [this](const Projection& p) {
    for (const ThreadProjection& tp : p.at_threads) {
      if (tp.threads == measured_threads_) return tp.speedup;
    }
    return p.at_threads.empty() ? 1.0 : p.at_threads.back().speedup;
  };
  std::sort(out.begin(), out.end(),
            [&](const Projection& a, const Projection& b) {
              const double sa = speedup_at_measured(a);
              const double sb = speedup_at_measured(b);
              if (sa != sb) return sa > sb;
              if (a.scalable != b.scalable) return a.scalable > b.scalable;
              return a.target < b.target;
            });
  return out;
}

}  // namespace taskprof::whatif
