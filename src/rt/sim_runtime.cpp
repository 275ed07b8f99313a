#include "rt/sim_runtime.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/assert.hpp"
#include "common/clock.hpp"
#include "fiber/fiber.hpp"
#include "rt/duration_scale.hpp"
#include "rt/schedule_policy.hpp"
#include "telemetry/telemetry.hpp"

namespace taskprof::rt {

namespace {

/// One simulated task instance (implicit or explicit).
struct SimTask {
  TaskFn fn;
  TaskAttrs attrs;
  TaskInstanceId id = kImplicitTaskId;
  SimTask* parent = nullptr;
  std::uint32_t pending_children = 0;
  /// Lifetime references: 1 for the task itself (dropped at completion)
  /// plus 1 per incomplete child (children decrement their parent's count
  /// at completion; a fire-and-forget parent record must outlive its
  /// children).  The record is deleted when this reaches zero.
  std::uint32_t refs = 1;
  std::unique_ptr<Fiber> fiber;
  bool implicit = false;
  bool deferred = false;  ///< enqueued (counts towards outstanding)
  bool in_queue = false;  ///< currently sitting in the central queue
  /// Children currently enqueued (newest last); entries may be stale
  /// (taken from the central queue already) — filtered via in_queue.
  std::vector<SimTask*> queued_children;
  ThreadId creator = 0;
  ThreadId home = 0;  ///< worker that (last) executes the task

  enum class Wait : std::uint8_t {
    kNone,      ///< running or ready to run
    kTaskwait,  ///< waiting for pending_children == 0
    kBarrier,   ///< implicit task waiting at a barrier episode
    kInline,    ///< parent of a running undeferred child
    kReady,     ///< block resolved externally, resumable
  };
  Wait wait = Wait::kNone;
  SimTask* inline_child = nullptr;
  std::size_t barrier_episode = 0;
};

/// What a task fiber asks the engine to do when it yields.
enum class Request : std::uint8_t {
  kNone,
  kEnqueue,        ///< enqueue request_task (management-lock op)
  kTaskwaitBlock,  ///< suspend current task until children complete
  kBarrierBlock,   ///< implicit task arrives at a barrier
  kInlineRun,      ///< run request_task (undeferred) inside the creation
};

struct Worker {
  ThreadId id = 0;
  Ticks time = 0;

  enum class Action : std::uint8_t {
    kStart,         ///< begin the implicit task
    kRunFiber,      ///< resume `running`'s fiber
    kServeEnqueue,  ///< serve the pending enqueue lock op, then resume
    kComplete,      ///< serve completion bookkeeping for `completed`
    kSchedule,      ///< pick the next thing to run
    kDone,          ///< implicit task finished
  };
  Action action = Action::kStart;

  SimTask* running = nullptr;
  SimTask* completed = nullptr;
  SimTask* enqueue_task = nullptr;
  Ticks last_lock_request = std::numeric_limits<Ticks>::min();
  /// Which management-lock shard that last request went to.
  std::uint32_t last_lock_shard = 0;
  /// Consecutive constrained scheduling attempts that found nothing;
  /// triggers the full descendant scan (see schedule()).
  int constraint_failures = 0;
  std::vector<SimTask*> tied_stack;  ///< suspended tied tasks (LIFO)
  std::size_t barrier_counter = 0;
  std::size_t single_counter = 0;
  std::uint64_t executed = 0;
  std::uint64_t created = 0;
  std::uint64_t steals = 0;
  std::uint64_t migrations = 0;
  /// Locality domain (SimConfig::topology; 0 on a flat machine).
  std::uint32_t domain = 0;
  /// Batched-transfer lease (hierarchical policy): the last cross-domain
  /// take claimed a batch from `lease_domain`, and the next
  /// `lease_remaining` takes from that domain drain it locally — no lock
  /// op, no interconnect latency (the sim's central-queue analogue of
  /// steal-half from a remote deque).
  std::uint32_t lease_domain = 0;
  std::uint32_t lease_remaining = 0;
  /// Seeded perturbation stream (detached no-op without a policy).
  ScheduleStream sched;
};

/// Clock view onto one worker's virtual time.
class WorkerClock final : public Clock {
 public:
  explicit WorkerClock(const Worker* worker) : worker_(worker) {}
  [[nodiscard]] Ticks now() const noexcept override { return worker_->time; }

 private:
  const Worker* worker_;
};

/// FIFO resource with a single service timeline: the simulated runtime
/// management lock.
struct MgmtLock {
  Ticks free_at = 0;

  /// Serve a request issued at `request_time`; returns the completion
  /// time (wait + hold).
  Ticks serve(Ticks request_time, Ticks service) noexcept {
    const Ticks start = std::max(free_at, request_time);
    free_at = start + service;
    return free_at;
  }
};

class SimContext;

}  // namespace

struct SimRuntime::Impl {
  explicit Impl(SimConfig cfg) : config(cfg) {}

  SimConfig config;
  SchedulerHooks* hooks = nullptr;
  telemetry::Registry* telemetry = nullptr;
  StackPool stack_pool;
  Ticks base_time = 0;

  // Team state, valid during one parallel region.  Per-worker state lives
  // in indexed slabs (flat vectors sized once at region entry): with 256+
  // virtual workers, pointer-chasing per event is what thrashes.
  int nthreads = 0;
  std::vector<Worker> workers;
  std::vector<WorkerClock> clocks;
  /// True when the topology splits this team across more than one
  /// populated locality domain; false keeps every cost bit-identical to
  /// the flat pre-topology model.
  bool topo_active = false;
  std::deque<SimTask*> queue;
  std::vector<SimTask*> untied_suspended;
  std::uint64_t outstanding = 0;
  TaskInstanceId next_id = 1;
  std::vector<int> barrier_arrived;
  std::vector<bool> single_claimed;
  /// Management-lock shards.  One global server on a flat machine and
  /// under the flat victim policy; one per locality domain under the
  /// hierarchical policy.  Sharding the management structures — a
  /// per-domain queue with a per-domain lock instead of one global lock
  /// every worker fights over — is where a hierarchical scheduler's
  /// management *throughput* comes from; local-first victim selection
  /// alone only shortens individual probes.
  std::vector<MgmtLock> locks;
  bool lock_sharded = false;
  int done_count = 0;
  TaskFn body;
  std::unique_ptr<TaskContext> context;

  // Fiber -> engine request channel (single OS thread, one at a time).
  Request request = Request::kNone;
  SimTask* request_task = nullptr;
  Worker* current = nullptr;

  /// Discrete-event dispatch index: a binary min-heap of worker ids keyed
  /// on (time, id) with an id -> position slab, replacing the O(P) linear
  /// scan per event.  An event only advances the dispatched worker's
  /// clock, so each step is one O(log P) re-key — the other half of what
  /// keeps P=256 virtual workers from thrashing.  The (time, id) order
  /// reproduces the scan's pick (earliest time, lowest id on ties)
  /// exactly, so event order — and therefore every profile — is
  /// unchanged.
  std::vector<int> heap;
  std::vector<int> heap_pos;  ///< worker id -> heap index; -1 once done

  [[nodiscard]] bool earlier(int a, int b) const noexcept {
    const Ticks ta = workers[static_cast<std::size_t>(a)].time;
    const Ticks tb = workers[static_cast<std::size_t>(b)].time;
    return ta < tb || (ta == tb && a < b);
  }

  void heap_place(std::size_t at, int worker) noexcept {
    heap[at] = worker;
    heap_pos[static_cast<std::size_t>(worker)] = static_cast<int>(at);
  }

  void heap_sift_up(std::size_t at) noexcept {
    const int moving = heap[at];
    while (at > 0) {
      const std::size_t parent = (at - 1) / 2;
      if (!earlier(moving, heap[parent])) break;
      heap_place(at, heap[parent]);
      at = parent;
    }
    heap_place(at, moving);
  }

  void heap_sift_down(std::size_t at) noexcept {
    const int moving = heap[at];
    const std::size_t size = heap.size();
    for (;;) {
      std::size_t child = 2 * at + 1;
      if (child >= size) break;
      if (child + 1 < size && earlier(heap[child + 1], heap[child])) {
        ++child;
      }
      if (!earlier(heap[child], moving)) break;
      heap_place(at, heap[child]);
      at = child;
    }
    heap_place(at, moving);
  }

  /// Re-key `worker` after its clock advanced.
  void heap_update(int worker) noexcept {
    const auto at =
        static_cast<std::size_t>(heap_pos[static_cast<std::size_t>(worker)]);
    heap_sift_down(at);
    heap_sift_up(
        static_cast<std::size_t>(heap_pos[static_cast<std::size_t>(worker)]));
  }

  /// Remove `worker` from the dispatch index (its implicit task is done).
  void heap_remove(int worker) noexcept {
    const auto at =
        static_cast<std::size_t>(heap_pos[static_cast<std::size_t>(worker)]);
    heap_pos[static_cast<std::size_t>(worker)] = -1;
    const int last = heap.back();
    heap.pop_back();
    if (last != worker) {
      heap_place(at, last);
      heap_update(last);
    }
  }

  /// Per measurement event, instrumented runs pay a virtual cost.
  void charge(Worker& w) const noexcept {
    if (hooks != nullptr) w.time += config.costs.instr_event;
  }

  /// Telemetry shorthands (no-ops without a sink).
  void count(const Worker& w, telemetry::Counter c) const noexcept {
    if (telemetry != nullptr) telemetry->add(w.id, c);
  }

  /// A dequeue that took a task created by another worker is the
  /// simulator's steal; attempts == successes here (the central queue
  /// cannot probe empty victims).  On a multi-domain machine the steal is
  /// additionally classified by whether it crossed a domain boundary.
  void count_dequeue(Worker& w, const SimTask& task) const noexcept {
    if (task.creator == w.id) return;
    ++w.steals;
    if (telemetry != nullptr) {
      telemetry->add(w.id, telemetry::Counter::kStealAttempts);
      telemetry->add(w.id, telemetry::Counter::kStealSuccesses);
      if (topo_active) {
        const bool local =
            config.topology.domain_of(task.creator) == w.domain;
        telemetry->add(w.id, local ? telemetry::Counter::kStealsInDomain
                                   : telemetry::Counter::kStealsCrossDomain);
      }
    }
  }

  /// Serve a management-lock operation for `w` against the shard that
  /// owns `home_domain`'s management structures: FIFO queueing plus
  /// contention-dependent service inflation (see SimCosts), counting
  /// only competitors on the *same* shard.  Advances w.time to the
  /// operation's completion.  On a multi-domain machine a *remote*
  /// competitor inflates the service more than a local one
  /// (Topology::remote_contention_weight): the lock's cache line bounces
  /// across the interconnect instead of within one socket.  Flat
  /// machines (and the flat victim policy) run a single shard and weight
  /// every competitor 1.0, which reproduces the original integer count
  /// bit-identically.
  void serve_lock(Worker& w, Ticks service,
                  std::uint32_t home_domain) noexcept {
    const std::uint32_t shard =
        lock_sharded ? home_domain : 0;
    double competitors = 0.0;
    for (const Worker& other : workers) {
      if (other.id != w.id && other.last_lock_shard == shard &&
          other.last_lock_request + config.costs.contention_window >=
              w.time) {
        competitors += (!topo_active || other.domain == w.domain)
                           ? 1.0
                           : config.topology.remote_contention_weight;
      }
    }
    w.last_lock_request = w.time;
    w.last_lock_shard = shard;
    const auto effective = static_cast<Ticks>(
        static_cast<double>(service) *
        (1.0 + config.costs.contention_penalty * competitors));
    w.time = locks[shard].serve(w.time, effective);
  }

  /// Cost of taking `task` from the central queue.  Flat machine: one
  /// management-lock op (the original model, unchanged).  Multi-domain:
  /// a same-domain take is the same lock op, but a cross-domain take
  /// additionally pays the interconnect round trip
  /// (Topology::remote_steal_latency) — and under the hierarchical
  /// policy it claims a *batch*: the lease waives the lock and the
  /// latency for the next steal_batch_max - 1 takes from that domain,
  /// which drain locally (switch_local) like tasks from the worker's own
  /// deque.  This is the central-queue analogue of steal-half from a
  /// remote victim's deque top.  Every cross-domain task also pays the
  /// cold-cache refill (cache_affinity_cost) regardless of policy — the
  /// task's data crosses the interconnect no matter how it got here.
  void charge_dequeue(Worker& w, const SimTask& task) noexcept {
    if (!topo_active) {
      serve_lock(w, config.costs.dequeue_service, w.domain);
      return;
    }
    const Topology& topo = config.topology;
    const std::uint32_t creator_dom = topo.domain_of(task.creator);
    if (topo.hierarchical && w.lease_remaining > 0 &&
        w.lease_domain == creator_dom) {
      // Lease hit: the task is part of a batch this worker already
      // claimed under one lock acquisition, so taking it is a local pop.
      --w.lease_remaining;
      w.time += config.costs.switch_local;
      if (telemetry != nullptr) {
        telemetry->add(w.id, telemetry::Counter::kStealBatchTasks);
      }
    } else {
      serve_lock(w, config.costs.dequeue_service, creator_dom);
      if (creator_dom != w.domain) {
        w.time += topo.remote_steal_latency;
      }
      if (topo.hierarchical && topo.steal_batch_max > 1) {
        // Open a lease on the creator's domain — own domain included:
        // batch claiming amortizes the management lock no matter where
        // the batch lives; only the interconnect round trip above is
        // specific to a remote batch.
        w.lease_domain = creator_dom;
        w.lease_remaining = topo.steal_batch_max - 1;
        if (telemetry != nullptr) {
          telemetry->add(w.id, telemetry::Counter::kStealBatchTasks);
        }
      }
    }
    if (creator_dom != w.domain) {
      w.time += topo.cache_affinity_cost;
    }
  }

  /// Drop one lifetime reference; delete the record when none remain.
  /// Deletion releases the references the record's queued_children list
  /// still holds (all completed by then — an incomplete child keeps its
  /// parent alive through its own parent reference).
  static void release_ref(SimTask* task) noexcept {
    TASKPROF_ASSERT(task->refs > 0, "task refcount underflow");
    if (--task->refs == 0) {
      TASKPROF_ASSERT(!task->implicit, "implicit task record refcounted away");
      std::vector<SimTask*> children = std::move(task->queued_children);
      delete task;
      for (SimTask* child : children) release_ref(child);
    }
  }

  /// True when `task`'s ancestor chain contains `ancestor`.
  static bool is_descendant_of(const SimTask* task,
                               const SimTask* ancestor) noexcept {
    for (const SimTask* node = task->parent; node != nullptr;
         node = node->parent) {
      if (node == ancestor) return true;
    }
    return false;
  }

  /// Newest still-queued direct child of `parent`, or nullptr.  Pops stale
  /// entries (tasks already taken from the central queue), dropping the
  /// list's reference on every popped record.
  static SimTask* take_direct_child(SimTask* parent) noexcept {
    auto& kids = parent->queued_children;
    while (!kids.empty() && !kids.back()->in_queue) {
      SimTask* stale = kids.back();
      kids.pop_back();
      release_ref(stale);
    }
    if (kids.empty()) return nullptr;
    SimTask* child = kids.back();
    kids.pop_back();
    child->in_queue = false;
    release_ref(child);  // the child's own reference still holds it
    return child;
  }

  [[nodiscard]] bool eligible(const SimTask& task) const noexcept {
    switch (task.wait) {
      case SimTask::Wait::kTaskwait:
        return task.pending_children == 0;
      case SimTask::Wait::kBarrier:
        return barrier_arrived[task.barrier_episode] == nthreads &&
               outstanding == 0;
      case SimTask::Wait::kReady:
        return true;
      case SimTask::Wait::kNone:
      case SimTask::Wait::kInline:
        return false;
    }
    return false;
  }

  void start_task(Worker& w, SimTask* task) {
    w.constraint_failures = 0;
    task->home = w.id;
    charge(w);
    if (hooks != nullptr) {
      hooks->on_task_begin(w.id, task->id, task->attrs.region,
                           task->attrs.parameter);
    }
    task->fiber = std::make_unique<Fiber>(
        [this, task] { task->fn(*context); }, &stack_pool);
    w.running = task;
    w.action = Worker::Action::kRunFiber;
  }

  void dispatch(Worker& w);
  void start_implicit(Worker& w);
  void run_fiber(Worker& w);
  void serve_enqueue(Worker& w);
  void serve_complete(Worker& w);
  void schedule(Worker& w);
  void resume_untied(Worker& w, std::vector<SimTask*>::iterator it);
};

namespace {

/// TaskContext implementation for the simulator.  One instance serves the
/// whole engine: "the executing thread" is always rt_.current (the engine
/// runs fibers one at a time).  Methods re-read rt_.current after every
/// yield because untied tasks may resume on a different worker.
class SimContext final : public TaskContext {
 public:
  explicit SimContext(SimRuntime::Impl& rt) : rt_(rt) {}

  void create_task(TaskFn fn, TaskAttrs attrs) override {
    Worker* w = rt_.current;
    rt_.charge(*w);
    if (rt_.hooks != nullptr) {
      rt_.hooks->on_task_create_begin(w->id, attrs.region, attrs.parameter);
    }
    w->time += rt_.config.costs.create_local;

    auto* rec = new SimTask();
    rec->fn = std::move(fn);
    rec->attrs = attrs;
    rec->id = rt_.next_id++;
    rec->parent = w->running;
    rec->creator = w->id;
    rec->parent->refs += 1;  // the child keeps its parent record alive
    ++w->created;
    rt_.count(*w, telemetry::Counter::kTasksCreated);
    rt_.count(*w, attrs.undeferred ? telemetry::Counter::kTasksUndeferred
                                   : telemetry::Counter::kTasksDeferred);

    // The child may run to completion and have its record released before
    // this fiber resumes (always possible for an undeferred child; for a
    // deferred one a thief can finish it between the enqueue being served
    // and the creator running again), so capture everything the create-end
    // event needs while `rec` is still certainly alive.
    const TaskInstanceId child_id = rec->id;
    const RegionHandle child_region = rec->attrs.region;
    const std::int64_t child_parameter = rec->attrs.parameter;

    if (attrs.undeferred) {
      rt_.request = Request::kInlineRun;
      rt_.request_task = rec;
      Fiber::yield();  // resumes after the child completed
    } else {
      rec->deferred = true;
      rec->parent->pending_children += 1;
      rt_.request = Request::kEnqueue;
      rt_.request_task = rec;
      Fiber::yield();  // resumes after the enqueue lock op was served
    }
    w = rt_.current;
    rt_.charge(*w);
    if (rt_.hooks != nullptr) {
      rt_.hooks->on_task_create_end(w->id, child_id, child_region,
                                    child_parameter);
    }
  }

  void taskwait() override {
    Worker* w = rt_.current;
    rt_.charge(*w);
    if (rt_.hooks != nullptr) rt_.hooks->on_taskwait_begin(w->id);
    rt_.count(*w, telemetry::Counter::kTaskwaitEntries);
    w->time += rt_.config.costs.taskwait_check;
    SimTask* cur = w->running;
    if (cur->pending_children > 0) {
      rt_.request = Request::kTaskwaitBlock;
      Fiber::yield();
      w = rt_.current;  // untied tasks may have migrated
    }
    rt_.charge(*w);
    if (rt_.hooks != nullptr) rt_.hooks->on_taskwait_end(w->id);
  }

  void barrier() override { barrier_impl(/*implicit=*/false); }

  void barrier_impl(bool implicit) {
    Worker* w = rt_.current;
    TASKPROF_ASSERT(w->running != nullptr && w->running->implicit,
                    "barrier must be called from the implicit task");
    rt_.charge(*w);
    if (rt_.hooks != nullptr) rt_.hooks->on_barrier_begin(w->id, implicit);
    rt_.count(*w, telemetry::Counter::kBarrierEntries);
    rt_.request = Request::kBarrierBlock;
    Fiber::yield();
    w = rt_.current;
    rt_.charge(*w);
    if (rt_.hooks != nullptr) rt_.hooks->on_barrier_end(w->id, implicit);
  }

  bool single() override {
    Worker* w = rt_.current;
    TASKPROF_ASSERT(w->running != nullptr && w->running->implicit,
                    "single must be called from the implicit task");
    w->time += rt_.config.costs.taskwait_check;
    const std::size_t index = w->single_counter++;
    if (rt_.single_claimed.size() <= index) {
      rt_.single_claimed.resize(index + 1, false);
    }
    if (!rt_.single_claimed[index]) {
      rt_.single_claimed[index] = true;
      rt_.count(*w, telemetry::Counter::kSingleWins);
      return true;
    }
    return false;
  }

  void work(Ticks cost) override {
    TASKPROF_ASSERT(cost >= 0, "negative work cost");
    Worker* w = rt_.current;
    const SimTask* running = w->running;
    if (rt_.config.duration_scale != nullptr && !running->implicit) {
      cost = rt_.config.duration_scale->scale(running->attrs.region, cost);
    }
    // Observers see the effective (scaled) cost; no charge() here — the
    // declaration itself is free, only the declared time advances.
    if (rt_.hooks != nullptr) rt_.hooks->on_task_work(w->id, cost);
    w->time += cost;
  }

  void region_enter(RegionHandle region, std::int64_t parameter) override {
    Worker* w = rt_.current;
    rt_.charge(*w);
    if (rt_.hooks != nullptr) {
      rt_.hooks->on_region_enter(w->id, region, parameter);
    }
  }

  void region_exit(RegionHandle region) override {
    Worker* w = rt_.current;
    rt_.charge(*w);
    if (rt_.hooks != nullptr) rt_.hooks->on_region_exit(w->id, region);
  }

  [[nodiscard]] ThreadId thread_id() const override {
    return rt_.current->id;
  }
  [[nodiscard]] int num_threads() const override { return rt_.nthreads; }

 private:
  SimRuntime::Impl& rt_;
};

}  // namespace

void SimRuntime::Impl::start_implicit(Worker& w) {
  if (hooks != nullptr) {
    hooks->on_implicit_task_begin(w.id, clocks[w.id]);
    charge(w);
  }
  auto* imp = new SimTask();
  imp->implicit = true;
  imp->id = kImplicitTaskId;
  imp->home = w.id;
  imp->creator = w.id;
  imp->fiber = std::make_unique<Fiber>(
      [this] {
        body(*context);
        static_cast<SimContext*>(context.get())->barrier_impl(true);
      },
      &stack_pool);
  w.running = imp;
  w.action = Worker::Action::kRunFiber;
}

void SimRuntime::Impl::run_fiber(Worker& w) {
  current = &w;
  request = Request::kNone;
  SimTask* task = w.running;
  task->fiber->resume();

  if (task->fiber->finished()) {
    w.running = nullptr;
    if (task->implicit) {
      charge(w);
      if (hooks != nullptr) hooks->on_implicit_task_end(w.id);
      delete task;
      w.action = Worker::Action::kDone;
      ++done_count;
    } else {
      charge(w);
      if (hooks != nullptr) hooks->on_task_end(w.id, task->id);
      w.completed = task;
      w.action = Worker::Action::kComplete;
    }
    return;
  }

  switch (request) {
    case Request::kEnqueue:
      w.enqueue_task = request_task;
      w.action = Worker::Action::kServeEnqueue;
      break;

    case Request::kTaskwaitBlock: {
      w.running = nullptr;
      task->wait = SimTask::Wait::kTaskwait;
      w.time += config.costs.switch_local;
      const bool migratable = !task->implicit &&
                              task->attrs.binding == TaskBinding::kUntied &&
                              config.untied_migration;
      if (migratable) {
        // Untied tasks suspend to the implicit task right away so the
        // profiling state can migrate with the task (§IV-D).
        charge(w);
        if (hooks != nullptr) hooks->on_task_switch(w.id, kImplicitTaskId);
        untied_suspended.push_back(task);
      } else {
        w.tied_stack.push_back(task);
      }
      w.action = Worker::Action::kSchedule;
      break;
    }

    case Request::kBarrierBlock: {
      w.running = nullptr;
      task->wait = SimTask::Wait::kBarrier;
      const std::size_t episode = w.barrier_counter++;
      if (barrier_arrived.size() <= episode) {
        barrier_arrived.resize(episode + 1, 0);
      }
      ++barrier_arrived[episode];
      task->barrier_episode = episode;
      w.tied_stack.push_back(task);
      w.action = Worker::Action::kSchedule;
      break;
    }

    case Request::kInlineRun: {
      SimTask* child = request_task;
      task->wait = SimTask::Wait::kInline;
      task->inline_child = child;
      w.running = nullptr;
      w.tied_stack.push_back(task);
      start_task(w, child);
      break;
    }

    case Request::kNone:
      TASKPROF_ASSERT(false, "fiber yielded without a request");
  }
}

void SimRuntime::Impl::serve_enqueue(Worker& w) {
  // Seeded jitter before the lock request perturbs enqueue/enqueue and
  // enqueue/dequeue ordering between workers (zero without a policy).
  w.time += w.sched.jitter(config.costs.create_service);
  serve_lock(w, config.costs.create_service, w.domain);
  SimTask* rec = w.enqueue_task;
  w.enqueue_task = nullptr;
  // Both containers that will hold the pointer take a reference: the
  // central queue and the parent's queued-children index.
  queue.push_back(rec);
  rec->in_queue = true;
  rec->refs += 1;
  rec->parent->queued_children.push_back(rec);
  rec->refs += 1;
  ++outstanding;
  if (telemetry != nullptr) {
    telemetry->gauge_max(w.id, telemetry::Gauge::kRunQueueDepth,
                         queue.size());
  }
  w.action = Worker::Action::kRunFiber;  // resume the creator's fiber
}

void SimRuntime::Impl::serve_complete(Worker& w) {
  serve_lock(w, config.costs.complete_service, w.domain);
  SimTask* task = w.completed;
  w.completed = nullptr;
  SimTask* parent = task->parent;
  TASKPROF_ASSERT(parent != nullptr, "explicit task without parent");
  if (task->deferred) {
    TASKPROF_ASSERT(parent->pending_children > 0,
                    "child completion underflow");
    parent->pending_children -= 1;
    TASKPROF_ASSERT(outstanding > 0, "outstanding underflow");
    --outstanding;
  } else if (parent->wait == SimTask::Wait::kInline &&
             parent->inline_child == task) {
    parent->wait = SimTask::Wait::kReady;
    parent->inline_child = nullptr;
  }
  ++w.executed;
  count(w, telemetry::Counter::kTasksExecuted);
  // Return the fiber stack now; the record itself may outlive this point
  // (fire-and-forget children still reference their parent).
  task->fiber.reset();
  release_ref(task);
  release_ref(parent);  // implicit parents never hit zero (their own ref)
  w.action = Worker::Action::kSchedule;
}

void SimRuntime::Impl::resume_untied(Worker& w,
                                     std::vector<SimTask*>::iterator it) {
  SimTask* task = *it;
  untied_suspended.erase(it);
  task->wait = SimTask::Wait::kNone;
  w.time += config.costs.switch_local;
  if (task->home != w.id) {
    if (hooks != nullptr) hooks->on_task_migrate(task->home, w.id, task->id);
    task->home = w.id;
    ++w.migrations;
    count(w, telemetry::Counter::kMigrations);
  }
  charge(w);
  if (hooks != nullptr) hooks->on_task_switch(w.id, task->id);
  w.running = task;
  w.action = Worker::Action::kRunFiber;
}

void SimRuntime::Impl::schedule(Worker& w) {
  // Seeded virtual-time jitter: shifts which worker the discrete-event
  // loop serves next, shuffling lock-service and dequeue order without
  // breaking determinism (zero without a schedule policy).
  w.time += w.sched.jitter(config.costs.poll_interval);

  // 1. Resume the top suspended tied task if its block resolved (this is
  //    the nested-execution discipline of tied tasks).
  if (!w.tied_stack.empty() && eligible(*w.tied_stack.back())) {
    SimTask* task = w.tied_stack.back();
    w.tied_stack.pop_back();
    task->wait = SimTask::Wait::kNone;
    w.time += config.costs.switch_local;
    if (!task->implicit) {
      charge(w);
      if (hooks != nullptr) hooks->on_task_switch(w.id, task->id);
    }
    w.running = task;
    w.action = Worker::Action::kRunFiber;
    return;
  }

  // OpenMP tied-task scheduling constraint (and GCC-libgomp taskwait
  // behaviour): while an explicit tied task is suspended on this worker,
  // only its descendants may run here.  This bounds the suspended chain —
  // and thus the profiler's active-instance count, paper Table II — by
  // the task-tree depth.
  SimTask* constraint = nullptr;
  if (config.strict_taskwait_scheduling && !w.tied_stack.empty() &&
      !w.tied_stack.back()->implicit) {
    constraint = w.tied_stack.back();
  }

  if (constraint != nullptr) {
    // 2a. Newest queued direct child of the waiting task.
    if (SimTask* child = take_direct_child(constraint)) {
      charge_dequeue(w, *child);
      count_dequeue(w, *child);
      start_task(w, child);
      return;
    }
    // 2b. An eligible untied descendant may resume here.
    for (auto it = untied_suspended.begin(); it != untied_suspended.end();
         ++it) {
      if (eligible(**it) && is_descendant_of(*it, constraint)) {
        resume_untied(w, it);
        return;
      }
    }
    // 2c. Deeper descendants (e.g. children of a blocked untied child)
    //     may be buried in the global queue where only this worker is
    //     allowed to take them.  The full scan is expensive, so it only
    //     runs after several fruitless polls — it is what guarantees
    //     progress when every worker is constrained.
    if (++w.constraint_failures >= 8) {
      w.constraint_failures = 0;
      for (std::size_t back_offset = 0; back_offset < queue.size();
           ++back_offset) {
        const std::size_t index = queue.size() - 1 - back_offset;
        SimTask* candidate = queue[index];
        if (!candidate->in_queue ||
            !is_descendant_of(candidate, constraint)) {
          continue;
        }
        charge_dequeue(w, *candidate);
        queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(index));
        candidate->in_queue = false;
        release_ref(candidate);  // the queue's reference
        count_dequeue(w, *candidate);
        start_task(w, candidate);
        return;
      }
    }
    // Nothing runnable under the constraint: wait for the children (they
    // are running or suspended elsewhere).
    w.time += config.costs.poll_interval;
    return;
  }

  // 3. Unconstrained: resume any eligible untied task (may migrate here).
  //    A schedule policy picks uniformly among the eligible suspensions
  //    instead of always taking the oldest.
  {
    std::size_t eligible_count = 0;
    if (w.sched.attached()) {
      for (const SimTask* task : untied_suspended) {
        if (eligible(*task)) ++eligible_count;
      }
    }
    std::uint64_t skip =
        eligible_count > 0 ? w.sched.pick(eligible_count) : 0;
    for (auto it = untied_suspended.begin(); it != untied_suspended.end();
         ++it) {
      if (!eligible(**it)) continue;
      if (skip > 0) {
        --skip;
        continue;
      }
      resume_untied(w, it);
      return;
    }
  }

  // 4. Dequeue new work from the central queue (management-lock op; we
  //    are the globally earliest worker right now, so serving in dispatch
  //    order is time order).  Entries already taken through a parent's
  //    queued_children list are stale and skipped.
  auto pop_stale = [this](bool from_back) {
    while (!queue.empty()) {
      SimTask* end_task = from_back ? queue.back() : queue.front();
      if (end_task->in_queue) break;
      if (from_back) {
        queue.pop_back();
      } else {
        queue.pop_front();
      }
      release_ref(end_task);  // the queue's reference
    }
  };
  pop_stale(config.lifo_dequeue);
  if (!queue.empty()) {
    // The take is picked first and charged after (charge_dequeue):
    // selection reads only queue state, never the clock, so the
    // reordering is bit-identical on a flat machine — and a multi-domain
    // machine must know the task's creator before it can price the take.
    SimTask* task = nullptr;
    if (config.lifo_dequeue) {
      if (w.sched.attached()) {
        // Seeded perturbation: pick uniformly among the newest few live
        // entries — the legal reorderings a racy deque-top would exhibit.
        constexpr std::size_t kPerturbWindow = 8;
        std::size_t candidates[kPerturbWindow];
        std::size_t found = 0;
        for (std::size_t back_offset = 0;
             back_offset < queue.size() && found < kPerturbWindow;
             ++back_offset) {
          const std::size_t index = queue.size() - 1 - back_offset;
          if (queue[index]->in_queue) candidates[found++] = index;
        }
        TASKPROF_ASSERT(found > 0, "dequeue from stale-only queue");
        const std::size_t index = candidates[w.sched.pick(found)];
        task = queue[index];
        queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(index));
      }
      // Prefer the newest task this worker created (bounded scan from the
      // back): models the own-deque-first policy of real runtimes, which
      // keeps execution depth-first along the worker's own branch.
      constexpr std::size_t kAffinityScan = 32;
      const std::size_t limit = std::min(queue.size(), kAffinityScan);
      for (std::size_t back_offset = 0;
           task == nullptr && back_offset < limit; ++back_offset) {
        const std::size_t index = queue.size() - 1 - back_offset;
        if (queue[index]->in_queue && queue[index]->creator == w.id) {
          task = queue[index];
          queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(index));
        }
      }
      // Hierarchical victim selection: before crossing a domain
      // boundary, prefer the newest task created *in this worker's
      // domain* within the same scan window — the sim-side "probe your
      // own domain first" of the hierarchical policy.
      if (task == nullptr && topo_active && config.topology.hierarchical) {
        // Drain an open transfer lease before anything else: the lease
        // IS the claimed batch, so its remaining tasks are taken first.
        // Without this, creator-domain alternation at the queue top
        // would break every lease after one task and the batched
        // transfer would never amortize anything.  These two scans are
        // unbounded (unlike the racy-top windows above) because the
        // hierarchical policy keeps per-domain structure — finding the
        // newest task of a given domain is an O(1) sublist head in the
        // runtime this models, not a linear probe.
        if (w.lease_remaining > 0) {
          for (std::size_t back_offset = 0;
               task == nullptr && back_offset < queue.size(); ++back_offset) {
            const std::size_t index = queue.size() - 1 - back_offset;
            if (queue[index]->in_queue &&
                config.topology.domain_of(queue[index]->creator) ==
                    w.lease_domain) {
              task = queue[index];
              queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(index));
            }
          }
        }
        // Then prefer the newest task created *in this worker's domain*
        // — the sim-side "probe your own domain first".
        for (std::size_t back_offset = 0;
             task == nullptr && back_offset < queue.size(); ++back_offset) {
          const std::size_t index = queue.size() - 1 - back_offset;
          if (queue[index]->in_queue &&
              config.topology.domain_of(queue[index]->creator) == w.domain) {
            task = queue[index];
            queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(index));
          }
        }
      }
      if (task == nullptr) {
        task = queue.back();
        queue.pop_back();
      }
    } else {
      task = queue.front();
      queue.pop_front();
    }
    task->in_queue = false;
    release_ref(task);  // the queue's reference
    charge_dequeue(w, *task);
    count_dequeue(w, *task);
    start_task(w, task);
    return;
  }

  // 5. Idle: poll again later.
  w.time += config.costs.poll_interval;
}

void SimRuntime::Impl::dispatch(Worker& w) {
  switch (w.action) {
    case Worker::Action::kStart:
      start_implicit(w);
      return;
    case Worker::Action::kRunFiber:
      run_fiber(w);
      return;
    case Worker::Action::kServeEnqueue:
      serve_enqueue(w);
      return;
    case Worker::Action::kComplete:
      serve_complete(w);
      return;
    case Worker::Action::kSchedule:
      schedule(w);
      return;
    case Worker::Action::kDone:
      TASKPROF_ASSERT(false, "dispatch of a finished worker");
  }
}

SimRuntime::SimRuntime(SimConfig config)
    : impl_(std::make_unique<Impl>(config)) {}

SimRuntime::~SimRuntime() = default;

void SimRuntime::set_hooks(SchedulerHooks* hooks) { impl_->hooks = hooks; }

void SimRuntime::set_telemetry(telemetry::Registry* registry) {
  impl_->telemetry = registry;
}

Ticks SimRuntime::now() const { return impl_->base_time; }

const SimConfig& SimRuntime::config() const { return impl_->config; }

TeamStats SimRuntime::parallel(int num_threads, TaskFn body) {
  if (num_threads < 1) {
    throw std::invalid_argument("parallel: num_threads must be >= 1");
  }
  Impl& rt = *impl_;
  rt.nthreads = num_threads;
  rt.workers.clear();
  rt.workers.resize(static_cast<std::size_t>(num_threads));
  rt.clocks.clear();
  rt.clocks.reserve(static_cast<std::size_t>(num_threads));
  rt.topo_active = false;
  for (int i = 0; i < num_threads; ++i) {
    Worker& w = rt.workers[static_cast<std::size_t>(i)];
    w.id = static_cast<ThreadId>(i);
    w.time = rt.base_time;
    if (rt.config.policy != nullptr) {
      w.sched = rt.config.policy->stream(static_cast<ThreadId>(i));
    }
    w.domain = rt.config.topology.domain_of(static_cast<std::uint32_t>(i));
    if (w.domain != rt.workers[0].domain) rt.topo_active = true;
    rt.clocks.emplace_back(&w);
  }
  // Dispatch heap: all clocks start equal, so ascending ids already
  // satisfy the (time, id) heap order.
  rt.heap.assign(static_cast<std::size_t>(num_threads), 0);
  rt.heap_pos.assign(static_cast<std::size_t>(num_threads), -1);
  for (int i = 0; i < num_threads; ++i) {
    rt.heap_place(static_cast<std::size_t>(i), i);
  }
  rt.queue.clear();
  rt.untied_suspended.clear();
  rt.outstanding = 0;
  rt.next_id = 1;
  rt.barrier_arrived.clear();
  rt.single_claimed.clear();
  rt.lock_sharded =
      rt.topo_active && rt.config.topology.hierarchical;
  rt.locks.assign(rt.lock_sharded ? rt.config.topology.domains : 1,
                  MgmtLock{});
  for (MgmtLock& lock : rt.locks) lock.free_at = rt.base_time;
  rt.done_count = 0;
  rt.body = std::move(body);
  rt.context = std::make_unique<SimContext>(rt);
  if (rt.telemetry != nullptr) rt.telemetry->prepare(num_threads);

  if (rt.hooks != nullptr) rt.hooks->on_parallel_begin(num_threads);
  const Ticks t0 = rt.base_time;

  while (rt.done_count < num_threads) {
    // Dispatch the earliest non-finished worker (ties break on lowest id
    // for determinism): the heap root, re-keyed after every event.
    TASKPROF_ASSERT(!rt.heap.empty(), "no runnable worker");
    Worker& next = rt.workers[static_cast<std::size_t>(rt.heap.front())];
    rt.dispatch(next);
    if (next.action == Worker::Action::kDone) {
      rt.heap_remove(static_cast<int>(next.id));
    } else {
      rt.heap_update(static_cast<int>(next.id));
    }
  }

  Ticks end = t0;
  for (const Worker& w : rt.workers) end = std::max(end, w.time);
  rt.base_time = end;
  if (rt.hooks != nullptr) rt.hooks->on_parallel_end();

  TeamStats stats;
  stats.parallel_ticks = end - t0;
  for (const Worker& w : rt.workers) {
    stats.tasks_executed += w.executed;
    stats.tasks_created += w.created;
    stats.steals += w.steals;
    stats.migrations += w.migrations;
  }
  // Central-queue scheduling cannot probe an empty victim, so every
  // cross-worker dequeue is both the attempt and the success.
  stats.steal_attempts = stats.steals;
  TASKPROF_ASSERT(rt.outstanding == 0, "tasks outstanding after region");
  // Stale queue entries (tasks taken through a parent's queued-children
  // index) may remain; live ones may not.  Drop the queue's references.
  for (SimTask* leftover : rt.queue) {
    TASKPROF_ASSERT(!leftover->in_queue, "live task in queue after region");
    Impl::release_ref(leftover);
  }
  rt.queue.clear();
  return stats;
}

}  // namespace taskprof::rt
