#include "measure/task_profiler.hpp"

#include <linux/membarrier.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <functional>
#include <system_error>
#include <thread>
#include <utility>

#include "common/assert.hpp"
#include "measure/aggregate.hpp"

namespace taskprof {

// Worker side of the crash-safe capture handshake.  Guards the body of
// every mutating event method with no lock and no locked instruction.
// Only the owning thread writes event_seq_, so opening an event is a
// plain store of the next odd value; the signal fence keeps the compiler
// from sinking that store below the pause-flag load, and the hardware
// may still let the load overtake it.  The capturer closes that window:
// it stores the flag and then runs a process-wide barrier (capture()),
// which puts a full fence into this thread's instruction stream at some
// point P.  If P precedes our flag load, the load sees the flag and we
// retract and park; otherwise P follows our odd store, which the
// capturer therefore sees, and it waits for the release store that ends
// the event.  Either way no event body overlaps the capture's fold.  The
// flag load is acquire so that an event admitted after a capture cleared
// the flag (release) is ordered after that capture's reads.  A null
// profiler guards nothing.
class ThreadTaskProfiler::EventScope {
 public:
  explicit EventScope(const ThreadTaskProfiler* profiler) noexcept
      : profiler_(profiler != nullptr && profiler->capture_enabled_
                      ? profiler
                      : nullptr) {
    if (profiler_ == nullptr) return;
    seq_ = profiler_->event_seq_.load(std::memory_order_relaxed);
    for (;;) {
      profiler_->event_seq_.store(++seq_, std::memory_order_relaxed);
      std::atomic_signal_fence(std::memory_order_seq_cst);
      if (!profiler_->capture_pause_.load(std::memory_order_acquire)) return;
      profiler_->event_seq_.store(++seq_, std::memory_order_release);
      while (profiler_->capture_pause_.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    }
  }
  ~EventScope() {
    if (profiler_ == nullptr) return;
    profiler_->event_seq_.store(seq_ + 1, std::memory_order_release);
  }
  EventScope(const EventScope&) = delete;
  EventScope& operator=(const EventScope&) = delete;

 private:
  const ThreadTaskProfiler* profiler_;
  std::uint64_t seq_ = 0;  ///< odd value published while the body runs
};

namespace {

/// The profiler whose trees an instance's frames write, when that is not
/// `self`: an untied instance adopted from another thread (simulator
/// only, where one OS thread drives every profiler).  Its events then
/// also hold that profiler's capture off.
const ThreadTaskProfiler* foreign_home(const TaskInstanceState& instance,
                                       const ThreadTaskProfiler* self) {
  return instance.home != self ? instance.home : nullptr;
}

long membarrier(int command) {
  return syscall(__NR_membarrier, command, 0U, 0);
}

}  // namespace

ThreadTaskProfiler::ThreadTaskProfiler(ThreadId thread, const Clock& clock,
                                       RegionHandle implicit_region,
                                       MeasureOptions options)
    : thread_(thread), clock_(&clock), options_(options) {
  capture_enabled_ = options_.snapshot_every > 0;
  if (capture_enabled_) register_capture_barrier();
  implicit_root_ =
      pool_.allocate(implicit_region, kNoParameter, false, nullptr);
  implicit_root_->visits = 1;
  last_event_ticks_ = clock_->now();
  implicit_stack_.push_back(ImplicitFrame{implicit_root_, last_event_ticks_});
}

ThreadTaskProfiler::~ThreadTaskProfiler() = default;

void ThreadTaskProfiler::enter(RegionHandle region, std::int64_t parameter) {
  EventScope guard(this);
  const Ticks now = clock_->now();
  last_event_ticks_ = now;
  const std::size_t limit = options_.max_tree_depth;
  if (current_ == nullptr) {
    if (limit != 0 &&
        (implicit_folded_ > 0 || implicit_stack_.size() >= limit)) {
      ++implicit_folded_;
      ++total_folds_;
      return;
    }
    CallNode* parent = implicit_stack_.back().node;
    CallNode* node =
        find_or_create_child(pool_, parent, region, parameter, false);
    ++node->visits;
    implicit_stack_.push_back(ImplicitFrame{node, now});
  } else {
    TaskInstanceState& inst = *current_;
    TASKPROF_ASSERT(!inst.stack.empty(), "task instance has no open root");
    if (limit != 0 && (inst.folded > 0 || inst.stack.size() >= limit)) {
      ++inst.folded;
      ++total_folds_;
      return;
    }
    const EventScope home_guard(foreign_home(inst, this));
    CallNode* node = find_or_create_child(
        inst.home->pool_, inst.stack.back().node, region, parameter, false);
    ++node->visits;
    inst.stack.push_back(
        TaskInstanceState::Frame{node, now, inst.suspended_total});
  }
}

void ThreadTaskProfiler::exit(RegionHandle region) {
  EventScope guard(this);
  const Ticks now = clock_->now();
  last_event_ticks_ = now;
  if (current_ == nullptr) {
    if (implicit_folded_ > 0) {
      --implicit_folded_;
      return;
    }
    TASKPROF_ASSERT(implicit_stack_.size() > 1,
                    "exit would pop the implicit root; use finalize()");
    ImplicitFrame frame = implicit_stack_.back();
    TASKPROF_ASSERT(frame.node->region == region && !frame.node->is_stub,
                    "exit region does not match innermost open region");
    const Ticks duration = now - frame.enter_time;
    frame.node->inclusive += duration;
    frame.node->visit_stats.add(duration);
    implicit_stack_.pop_back();
  } else {
    TaskInstanceState& inst = *current_;
    if (inst.folded > 0) {
      --inst.folded;
      return;
    }
    TASKPROF_ASSERT(inst.stack.size() > 1,
                    "exit would pop the task root; task_end does that");
    TASKPROF_ASSERT(inst.stack.back().node->region == region,
                    "exit region does not match innermost open region");
    const EventScope home_guard(foreign_home(inst, this));
    close_frame(inst, inst.stack.back(), now);
    inst.stack.pop_back();
  }
}

void ThreadTaskProfiler::task_begin(RegionHandle task_region,
                                    TaskInstanceId id,
                                    std::int64_t parameter) {
  EventScope guard(this);
  TASKPROF_ASSERT(id != kImplicitTaskId, "instance id 0 is the implicit task");
  TASKPROF_ASSERT(find_instance(id) == nullptr, "instance id already active");
  const Ticks now = clock_->now();
  last_event_ticks_ = now;

  // "Create task instance specific data" (Fig. 12, TaskBegin).
  std::unique_ptr<TaskInstanceState> state;
  if (!instance_freelist_.empty()) {
    state = std::move(instance_freelist_.back());
    instance_freelist_.pop_back();
  } else {
    state = std::make_unique<TaskInstanceState>();
  }
  state->id = id;
  state->task_region = task_region;
  state->parameter = parameter;
  state->home = this;
  // The root frame: the construct's tree root, or under the creation-site
  // ablation the construct's child of the node that created the task.
  CallNode* root = nullptr;
  if (options_.creation_site_attribution && creation_sites_ != nullptr) {
    if (auto it = creation_sites_->find(id); it != creation_sites_->end()) {
      root = find_or_create_child(pool_, it->second, task_region, parameter,
                                  false);
      creation_sites_->erase(it);
    }
  }
  if (root == nullptr) root = task_root_for(task_region, parameter);
  ++root->visits;

  instances_.push_back(std::move(state));
  TaskInstanceState* inst = instances_.back().get();
  max_active_ = std::max(max_active_, instances_.size());

  // TaskSwitch(task instance) then Enter(task instance, task region).
  switch_to(inst, now);
  inst->stack.push_back(TaskInstanceState::Frame{root, now, 0});
}

void ThreadTaskProfiler::task_end(TaskInstanceId id) {
  EventScope guard(this);
  const Ticks now = clock_->now();
  last_event_ticks_ = now;
  TASKPROF_ASSERT(current_ != nullptr && current_->id == id,
                  "task_end requires the ending task to be current");
  TaskInstanceState& inst = *current_;
  TASKPROF_ASSERT(inst.folded == 0, "folded frames open at task end");
  TASKPROF_ASSERT(inst.stack.size() == 1,
                  "unbalanced enter/exit inside task instance");

  // Exit(task instance, task region).  Every frame wrote its node at its
  // own exit, so this completes the instance's share of the construct
  // tree: Fig. 12's "merge task tree into global profile of thread" has
  // nothing left to do.
  {
    const EventScope home_guard(foreign_home(inst, this));
    close_frame(inst, inst.stack.back(), now);
  }
  inst.stack.pop_back();

  // TaskSwitch(implicit task).
  switch_to(nullptr, now);

  std::unique_ptr<TaskInstanceState> done = take_instance(id);
  done->reset();
  instance_freelist_.push_back(std::move(done));
}

void ThreadTaskProfiler::task_switch(TaskInstanceId id) {
  EventScope guard(this);
  const Ticks now = clock_->now();
  last_event_ticks_ = now;
  if (id == kImplicitTaskId) {
    switch_to(nullptr, now);
    return;
  }
  TaskInstanceState* inst = find_instance(id);
  TASKPROF_ASSERT(inst != nullptr, "task_switch to unknown instance");
  switch_to(inst, now);
}

void ThreadTaskProfiler::note_task_created(TaskInstanceId id) {
  EventScope guard(this);
  if (!options_.creation_site_attribution) return;
  // Only implicit-task creation sites, as in Fig. 3: an instance created
  // by another task keeps execution-site placement.
  if (current_ != nullptr) return;
  if (creation_sites_ == nullptr) {
    creation_sites_ =
        std::make_unique<std::unordered_map<TaskInstanceId, CallNode*>>();
  }
  (*creation_sites_)[id] = implicit_stack_.back().node;
}

std::unique_ptr<TaskInstanceState> ThreadTaskProfiler::detach_instance(
    TaskInstanceId id) {
  EventScope guard(this);
  TASKPROF_ASSERT(current_ == nullptr || current_->id != id,
                  "cannot detach the running instance");
  auto state = take_instance(id);
  TASKPROF_ASSERT(state != nullptr, "detach of unknown instance");
  return state;
}

void ThreadTaskProfiler::adopt_instance(
    std::unique_ptr<TaskInstanceState> state) {
  EventScope guard(this);
  TASKPROF_ASSERT(state != nullptr, "adopt requires an instance");
  TASKPROF_ASSERT(find_instance(state->id) == nullptr,
                  "instance id already active on this thread");
  instances_.push_back(std::move(state));
  max_active_ = std::max(max_active_, instances_.size());
}

void ThreadTaskProfiler::finalize() {
  EventScope guard(this);
  TASKPROF_ASSERT(current_ == nullptr,
                  "finalize while an explicit task is current");
  TASKPROF_ASSERT(instances_.empty(), "finalize with active task instances");
  const Ticks now = clock_->now();
  last_event_ticks_ = now;
  while (!implicit_stack_.empty()) {
    ImplicitFrame frame = implicit_stack_.back();
    const Ticks duration = now - frame.enter_time;
    frame.node->inclusive += duration;
    frame.node->visit_stats.add(duration);
    implicit_stack_.pop_back();
  }
}

ThreadProfileView ThreadTaskProfiler::view() const {
  ThreadProfileView out;
  out.thread = thread_;
  out.implicit_root = implicit_root_;
  out.task_roots.assign(task_roots_.begin(), task_roots_.end());
  out.max_concurrent_instances = max_active_;
  out.task_switches = task_switches_;
  out.folded_events = total_folds_;
  return out;
}

TaskInstanceId ThreadTaskProfiler::current_task() const noexcept {
  return current_ == nullptr ? kImplicitTaskId : current_->id;
}

void ThreadTaskProfiler::register_capture_barrier() {
  if (membarrier(MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED) != 0) {
    const int error = errno;
    throw std::system_error(
        error, std::generic_category(),
        "snapshot capture needs membarrier(2) private expedited "
        "(Linux >= 4.14)");
  }
}

bool ThreadTaskProfiler::capture(AggregateProfile& into) const {
  if (!capture_enabled_) return false;
  // The barrier orders this store before everything the worker does
  // after its fence point, so the store itself can be relaxed.
  capture_pause_.store(true, std::memory_order_relaxed);
  if (membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED) != 0) {
    capture_pause_.store(false, std::memory_order_release);
    return false;
  }
  // Wait for the worker to leave its current event body (even sequence
  // number).  After the barrier, an event the worker opened before its
  // fence point shows here as odd, and any event it opens after that
  // point sees the pause flag and parks (EventScope): once we observe an
  // even value, the fold below runs in mutual exclusion.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(100);
  for (;;) {
    if ((event_seq_.load(std::memory_order_acquire) & 1) == 0) break;
    if (std::chrono::steady_clock::now() >= deadline) {
      // Worker wedged inside an event (should not happen; events are
      // bounded) — skip this flush rather than stall the flusher.
      capture_pause_.store(false, std::memory_order_release);
      return false;
    }
    std::this_thread::yield();
  }

  // Fold while paused: the instant the flag drops, workers resume
  // mutating the trees and scalars.  The hook closes each open frame in
  // `into` as one visit (see the header); the live frames stay open.
  // Frames of different instances can share a node, so they are matched
  // by node address.  An instance adopted from another thread writes
  // that thread's trees; one lent to another thread is not in this table.
  struct OpenFrame {
    const CallNode* node;
    Ticks elapsed;
  };
  std::vector<OpenFrame> open;
  for (const ImplicitFrame& frame : implicit_stack_) {
    open.push_back({frame.node, last_event_ticks_ - frame.enter_time});
  }
  for (const auto& inst : instances_) {
    if (inst->home != this) continue;
    const Ticks end = inst->suspended ? inst->suspend_start : last_event_ticks_;
    for (const TaskInstanceState::Frame& frame : inst->stack) {
      open.push_back({frame.node, frame_duration(*inst, frame, end)});
    }
  }
  const auto by_node = [](const OpenFrame& a, const OpenFrame& b) {
    return std::less<const CallNode*>()(a.node, b.node);
  };
  std::sort(open.begin(), open.end(), by_node);
  std::size_t closed = 0;
  fold_thread(into, view(), [&](CallNode& dst, const CallNode& src) {
    const auto [first, last] =
        std::equal_range(open.begin(), open.end(), OpenFrame{&src, 0}, by_node);
    for (auto it = first; it != last; ++it) {
      dst.inclusive += it->elapsed;
      dst.visit_stats.add(it->elapsed);
      ++closed;
    }
  });
  TASKPROF_ASSERT(closed == open.size(), "capture missed an open frame");
  capture_pause_.store(false, std::memory_order_release);
  return true;
}

void ThreadTaskProfiler::enter_stub(const TaskInstanceState& instance,
                                    Ticks now) {
  CallNode* parent = implicit_stack_.back().node;
  CallNode* node = find_or_create_child(pool_, parent, instance.task_region,
                                        instance.parameter, /*is_stub=*/true);
  ++node->visits;
  implicit_stack_.push_back(ImplicitFrame{node, now});
}

void ThreadTaskProfiler::exit_stub(Ticks now) {
  TASKPROF_ASSERT(implicit_stack_.size() > 1, "no stub frame open");
  ImplicitFrame frame = implicit_stack_.back();
  TASKPROF_ASSERT(frame.node->is_stub, "innermost implicit frame is no stub");
  const Ticks duration = now - frame.enter_time;
  frame.node->inclusive += duration;
  frame.node->visit_stats.add(duration);
  implicit_stack_.pop_back();
}

void ThreadTaskProfiler::switch_to(TaskInstanceState* target, Ticks now) {
  if (target == current_) return;
  ++task_switches_;
  if (current_ != nullptr) {
    // "Exit(implicit task, root region of current task); stop time
    // measurement on all open regions of current task" (Fig. 12).
    if (options_.stub_nodes) exit_stub(now);
    current_->suspended = true;
    current_->suspend_start = now;
  }
  current_ = target;
  if (target != nullptr) {
    if (target->suspended) {
      if (options_.pause_on_suspend) {
        target->suspended_total += now - target->suspend_start;
      }
      target->suspended = false;
    }
    // "Enter(implicit task, root region of task instance)" (Fig. 12).
    if (options_.stub_nodes) enter_stub(*target, now);
  }
}

Ticks ThreadTaskProfiler::frame_duration(
    const TaskInstanceState& instance, const TaskInstanceState::Frame& frame,
    Ticks now) const noexcept {
  Ticks duration = now - frame.enter_time;
  if (options_.pause_on_suspend) {
    duration -= instance.suspended_total - frame.suspended_at_enter;
  }
  return duration;
}

void ThreadTaskProfiler::close_frame(const TaskInstanceState& instance,
                                     const TaskInstanceState::Frame& frame,
                                     Ticks now) {
  const Ticks duration = frame_duration(instance, frame, now);
  frame.node->inclusive += duration;
  frame.node->visit_stats.add(duration);
}

TaskInstanceState* ThreadTaskProfiler::find_instance(
    TaskInstanceId id) noexcept {
  // The running instance first: task_switch events overwhelmingly target
  // either the current task or the one just touched.  On the taskgraph
  // replay static path (run-to-completion in run-list order) this plus
  // the last-hit slot below answer every lookup without scanning, which
  // keeps the profiler O(1) per event while replaying.
  if (current_ != nullptr && current_->id == id) {
    return current_;
  }
  if (last_hit_ < instances_.size() && instances_[last_hit_]->id == id) {
    return instances_[last_hit_].get();
  }
  // Backward scan: with LIFO scheduling the sought instance is almost
  // always the most recently added one.
  for (std::size_t i = instances_.size(); i-- > 0;) {
    if (instances_[i]->id == id) {
      last_hit_ = i;
      return instances_[i].get();
    }
  }
  return nullptr;
}

std::unique_ptr<TaskInstanceState> ThreadTaskProfiler::take_instance(
    TaskInstanceId id) {
  if (find_instance(id) == nullptr) return nullptr;
  if (last_hit_ >= instances_.size() || instances_[last_hit_]->id != id) {
    // find_instance answered from the current_ fast path (callers assert
    // they never take the running instance, but stay robust): locate the
    // slot so the swap below removes the right entry.
    for (std::size_t i = instances_.size(); i-- > 0;) {
      if (instances_[i]->id == id) {
        last_hit_ = i;
        break;
      }
    }
  }
  // Swap-and-pop: instance order carries no meaning (lookups only), and
  // the heap addresses current_ and callers hold stay valid.
  std::swap(instances_[last_hit_], instances_.back());
  std::unique_ptr<TaskInstanceState> out = std::move(instances_.back());
  instances_.pop_back();
  last_hit_ = 0;
  return out;
}

CallNode* ThreadTaskProfiler::task_root_for(RegionHandle region,
                                            std::int64_t parameter) {
  // Last-hit first: instances of the same construct begin in runs
  // (LIFO scheduling drains one recursion's tasks together).
  if (CallNode* last = last_task_root_;
      last != nullptr && last->region == region &&
      last->parameter == parameter) {
    return last;
  }
  CallNode* root = nullptr;
  if (task_root_index_active_) {
    root = task_root_index_.find(region, parameter, false);
  } else {
    for (CallNode* existing : task_roots_) {
      if (existing->region == region && existing->parameter == parameter) {
        root = existing;
        break;
      }
    }
  }
  if (root == nullptr) {
    root = pool_.allocate(region, parameter, false, nullptr);
    task_roots_.push_back(root);
    if (task_root_index_active_) {
      task_root_index_.insert(root);
    } else if (task_roots_.size() >= kChildIndexFanout) {
      for (CallNode* existing : task_roots_) {
        task_root_index_.insert(existing);
      }
      task_root_index_active_ = true;
    }
  }
  last_task_root_ = root;
  return root;
}

}  // namespace taskprof
