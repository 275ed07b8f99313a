#include "rt/real_runtime.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/assert.hpp"
#include "common/clock.hpp"
#include "rt/schedule_policy.hpp"
#include "rt/steal_deque.hpp"
#include "rt/taskgraph.hpp"
#include "telemetry/telemetry.hpp"

namespace taskprof::rt {

namespace {

// ---------------------------------------------------------------------------
// Memory-ordering audit (the lock-free scheduler's correctness argument).
//
// The only publication edges are the Chase–Lev deque's own
// release(bottom)/acquire(steal) pair and the explicit orderings below:
//
//  * pending_children / outstanding increments stay RELAXED: they are
//    performed by the creating thread *before* the deque push, and the
//    push's release-store of `bottom` happens-before any thief's
//    acquire-load that obtains the task.  Hence the increment precedes
//    the executing thread's decrement in each counter's modification
//    order — the counters can never be observed "decrement first".
//    Taskwait additionally only reads pending_children of the task the
//    *current thread* is executing, so the increments are same-thread.
//  * pending_children / outstanding decrements are RELEASE and the
//    taskwait / barrier re-check loads are ACQUIRE: observing the final
//    decrement synchronizes with everything the child task wrote.
//  * the barrier arrival counter is an ACQ_REL fetch_add, and the exit
//    condition loads it with ACQUIRE: a thread leaving the barrier has a
//    happens-before edge to every arrived thread's pre-barrier writes
//    (including their relaxed `outstanding` increments, so the
//    "arrived == all && outstanding == 0" conjunction cannot miss a
//    queued task of the closing phase).
//  * TaskRecord::refs uses the shared_ptr discipline: relaxed increments
//    (the incrementing thread already holds a reference) and an acq_rel
//    decrement, so the thread that drops the last reference owns all
//    prior writes before the record is recycled.
//  * slab recycling publishes with a release-CAS onto the remote free
//    list and the owner drains it with an acquire-exchange, extending
//    the refs chain to the next allocation.
// ---------------------------------------------------------------------------

class RecordSlab;

/// One explicit (or implicit) task instance known to the scheduler.
struct TaskRecord {
  TaskFn fn;
  TaskAttrs attrs;
  TaskInstanceId id = kImplicitTaskId;
  TaskRecord* parent = nullptr;
  std::atomic<std::uint32_t> pending_children{0};
  /// Lifetime references: 1 for the task itself plus 1 per incomplete
  /// child (a fire-and-forget parent's record must outlive its children,
  /// which decrement pending_children through this pointer).
  std::atomic<std::uint32_t> refs{1};
  ThreadId creator = 0;
  bool deferred = false;  ///< counted in queue/outstanding bookkeeping
  /// Slab the record was carved from; nullptr for implicit-task records,
  /// which live inside ThreadState and are never recycled.
  RecordSlab* slab = nullptr;
  std::atomic<TaskRecord*> next_free{nullptr};  ///< free-list link
  // --- taskgraph record/replay (SchedulerKind::kTaskGraph only) --------
  /// Recorded node for this instance: a node index while recording or on
  /// the static replay path, kGraphRoot for implicit-task records, and
  /// kGraphNone for anything scheduled dynamically.
  std::uint32_t graph_node = kGraphNone;
  /// Next deferred-child spawn ordinal during replay.  Plain field: a
  /// task's spawns are sequential on its executing thread (root spawns
  /// use the shared atomic in ReplayState instead).
  std::uint32_t replay_ordinal = 0;
  /// Recorded child count of graph_node, copied out of the CSR at epoch
  /// init so the per-task short-spawn check stays inside the record's
  /// cache line instead of touching the row index.
  std::uint32_t graph_children = 0;
  /// Set once this task's spawns stop matching the recording: its later
  /// spawns skip matching and go straight to the dynamic deques.
  bool replay_diverged = false;
};

/// Static replay records never recycle: a huge reference count keeps
/// release_ref() off the slab path without a per-call branch.
constexpr std::uint32_t kStaticRecordRefs = 1u << 30;

/// Per-thread TaskRecord allocator: chunked slabs plus a free list,
/// mirroring the NodePool of src/profile/calltree.hpp.  Allocation is
/// owner-thread only; recycling can happen on any thread (a stolen
/// task's record dies on the thief), so dead records from other threads
/// land on a lock-free MPSC stack that the owner drains wholesale.
class RecordSlab {
 public:
  RecordSlab() = default;
  RecordSlab(const RecordSlab&) = delete;
  RecordSlab& operator=(const RecordSlab&) = delete;

  /// Owner thread only.
  TaskRecord* allocate() {
    TaskRecord* rec = local_free_;
    if (rec == nullptr) {
      // Claim the whole remote chain in one exchange; the owner is the
      // only consumer, so there is no ABA window.
      rec = remote_free_.exchange(nullptr, std::memory_order_acquire);
    }
    if (rec != nullptr) {
      local_free_ = rec->next_free.load(std::memory_order_relaxed);
      TASKPROF_ASSERT(
          rec->pending_children.load(std::memory_order_relaxed) == 0,
          "recycled record has pending children");
      rec->refs.store(1, std::memory_order_relaxed);
      return rec;
    }
    if (next_in_chunk_ == kChunkSize) {
      chunks_.push_back(std::make_unique<TaskRecord[]>(kChunkSize));
      next_in_chunk_ = 0;
    }
    rec = &chunks_.back()[next_in_chunk_++];
    rec->slab = this;
    return rec;
  }

  /// Any thread.  `local` must be true iff the caller *is* the owner
  /// thread (then the push needs no atomics at all).
  void recycle(TaskRecord* rec, bool local) {
    rec->fn = nullptr;  // drop captured state as eagerly as delete did
    if (local) {
      rec->next_free.store(local_free_, std::memory_order_relaxed);
      local_free_ = rec;
      return;
    }
    TaskRecord* head = remote_free_.load(std::memory_order_relaxed);
    do {
      rec->next_free.store(head, std::memory_order_relaxed);
    } while (!remote_free_.compare_exchange_weak(
        head, rec, std::memory_order_release, std::memory_order_relaxed));
  }

  /// Records ever carved from chunks (owner-read).  Free lists only
  /// recycle, so this is the slab-occupancy high-water mark: the most
  /// records this thread ever had live at once (± the remote-free-list
  /// drain lag), at zero hot-path cost.
  [[nodiscard]] std::uint64_t carved() const noexcept {
    if (chunks_.empty()) return 0;
    return static_cast<std::uint64_t>(chunks_.size()) * kChunkSize -
           static_cast<std::uint64_t>(kChunkSize - next_in_chunk_);
  }

 private:
  static constexpr std::size_t kChunkSize = 128;

  std::vector<std::unique_ptr<TaskRecord[]>> chunks_;
  std::size_t next_in_chunk_ = kChunkSize;  // forces first chunk allocation
  TaskRecord* local_free_ = nullptr;        // owner-only LIFO
  alignas(64) std::atomic<TaskRecord*> remote_free_{nullptr};
};

/// Failed acquisition attempts before the spin loops call
/// std::this_thread::yield() (essential on oversubscribed hosts).
constexpr int kSpinsBeforeYield = 16;

/// Number of single-construct episode slots.  Claims use monotonically
/// increasing episode numbers, so slots are reused modulo the shard count
/// without ever being reset — no bound on how far threads may drift apart.
constexpr std::size_t kSingleShards = 64;

struct SingleShard {
  alignas(64) std::atomic<std::uint64_t> claimed{0};
};

/// Team barrier: the generation-counting form of a sense-reversing
/// barrier.  Instead of flipping one sense bit (which supports only two
/// in-flight episodes), each thread's private episode counter *is* its
/// sense, and `arrived` accumulates across episodes: episode g is fully
/// arrived once arrived >= g * nthreads.  One word, no reset, no mutex,
/// and no per-episode allocation.
struct TeamBarrier {
  alignas(64) std::atomic<std::uint64_t> arrived{0};
  /// Replay-exhausted workers park here instead of polling: their run
  /// list is drained and no divergence is in flight, so nothing can ever
  /// arrive for them again this region — a fact only a static schedule
  /// can know.  Everything below is cold: dynamic schedulers never park,
  /// and wakers skip the mutex entirely while `parked == 0`.
  alignas(64) std::atomic<int> parked{0};
  std::mutex park_mu;
  std::condition_variable park_cv;
};

}  // namespace

struct RealRuntime::Impl {
  explicit Impl(RealConfig cfg) : config(cfg) {}

  // --- configuration / global state ------------------------------------
  RealConfig config;
  SchedulerHooks* hooks = nullptr;
  telemetry::Registry* telemetry = nullptr;
  /// Region spans, RealRuntime::now() and taskgraph body durations.
  TscClock clock;
  /// One event clock per thread slot: grown to the largest team, never
  /// shrunk, so a listener's clock pointer stays valid until the runtime
  /// dies, even for a slot that sat out later regions.  (Not in
  /// ThreadState, which parallel() recreates every region.)
  std::vector<std::unique_ptr<EventClock<TscClock>>> event_clocks;

  // --- team state (valid during one parallel region) --------------------
  int nthreads = 0;
  /// Each worker's task queue (owner LIFO, thieves FIFO).
  std::vector<std::unique_ptr<StealDeque>> queues;
  /// Hierarchical stealing (RealConfig::topology): true when the topology
  /// splits this team across more than one populated locality domain.
  /// False keeps steal_round() on the flat sweep, bit-identical to the
  /// pre-topology engine.
  bool hier_steal = false;
  /// Worker ids of each locality domain (ascending), rebuilt per region.
  std::vector<std::vector<ThreadId>> domain_members;
  std::atomic<std::uint64_t> outstanding{0};
  std::atomic<TaskInstanceId> next_id{1};

  std::unique_ptr<SingleShard[]> single_shards;
  TeamBarrier barrier;

  // --- taskgraph record/replay state (SchedulerKind::kTaskGraph) ---------
  /// What the current region does with the task graph.  kOff for the
  /// other scheduler kinds; kFallback when a recorded graph went stale.
  enum class GraphMode : std::uint8_t { kOff, kRecord, kReplay, kFallback };
  GraphMode graph_mode = GraphMode::kOff;
  std::unique_ptr<TaskGraphRecorder> recorder;  ///< live while recording
  std::unique_ptr<TaskGraph> graph;             ///< frozen recording
  StaticSchedule schedule;      ///< rebuilt when nthreads changes
  ReplayState replay;           ///< slots + root ordinal, reset per region
  /// Preallocated records, one per graph node (array: TaskRecord holds
  /// atomics and cannot live in a vector).  Reused across replay regions.
  std::unique_ptr<TaskRecord[]> replay_records;
  std::size_t replay_record_count = 0;
  /// Records need their epoch-constant fields (graph_node, deferred,
  /// refs, ...) rewritten before the next replay: set when a new graph is
  /// frozen or the array is (re)allocated, consumed at region setup.  The
  /// per-spawn publish then writes only what actually varies.
  bool replay_records_dirty = false;
  bool graph_stale = false;  ///< a replay diverged; run dynamic from now on
  /// Dynamically scheduled tasks in flight during replay.  Zero lets the
  /// replay acquire path skip the deque pop and the steal sweep entirely
  /// (one relaxed load); divergence makes it nonzero and re-enables them.
  std::atomic<std::uint64_t> dynamic_outstanding{0};
  std::atomic<std::uint64_t> region_divergences{0};  ///< this region
  /// First divergence/fallback cause, sticky until reset_taskgraph():
  /// tells humans and the diagnosis engine *why* replay gave up, not just
  /// that it did.  Stored as the SchedulerNote code (0 = none).
  std::atomic<std::uint8_t> fallback_reason{0};
  /// Implicit tasks whose body returned: the last one knows no further
  /// root spawns can come and cancels unclaimed recorded root subtrees
  /// (otherwise a short-spawning replay would leave slots empty forever
  /// and strand every run list queued behind them).
  std::atomic<int> bodies_done{0};

  // --- per-thread state --------------------------------------------------
  struct ThreadState {
    ThreadId tid = 0;
    TaskRecord implicit_record;
    RecordSlab slab;
    std::vector<TaskRecord*> task_stack;  // bottom = &implicit_record
    std::uint64_t single_counter = 0;
    std::uint64_t barrier_counter = 0;
    /// Position in this worker's static run list (replay regions only).
    std::size_t replay_cursor = 0;
    /// Replay-mode root-ordinal block [root_next, root_end): claimed
    /// from the shared counter kRootOrdinalBlock at a time when the
    /// recording had a single root producer.  Unused tail ordinals are
    /// cancelled at end of body (the hole sweep in parallel()).
    std::uint32_t root_next = 0;
    std::uint32_t root_end = 0;
    /// Net static-replay contribution to `outstanding` not yet flushed:
    /// +1 when this thread publishes a static task, -1 when it finishes
    /// executing one.  Batching turns two shared RMWs per task into one
    /// per poll miss / barrier entry; see the replay accounting notes on
    /// flush_static_delta().
    std::int64_t static_delta = 0;
    /// Replay-mode instance-id block: [id_next, id_end) was claimed from
    /// the shared counter in one RMW (kIdBlock ids at a time), so the
    /// static spawn path allocates ids with a plain increment.
    TaskInstanceId id_next = 0;
    TaskInstanceId id_end = 0;
    std::uint64_t executed = 0;
    std::uint64_t created = 0;
    std::uint64_t steals = 0;
    std::uint64_t steal_attempts = 0;
    /// Hierarchical stealing: this worker's domain, its index inside
    /// Impl::domain_members[domain], and the consecutive empty local
    /// sweeps accumulated towards the escalation threshold
    /// (Topology::local_miss_limit).
    std::uint32_t domain = 0;
    std::uint32_t domain_slot = 0;
    std::uint32_t local_misses = 0;
    /// Cached telemetry handle (detached no-op unless a sink is set).
    telemetry::Registry::ThreadSlots telem;
    /// Seeded perturbation stream (detached no-op without a policy).
    ScheduleStream sched;
  };
  std::vector<std::unique_ptr<ThreadState>> threads;

  /// The listener for one event on thread `tid`, or nullptr.  Every
  /// thread-bound dispatch goes through here: it starts a new event on
  /// the thread's clock, so the event's first now() reads the time and
  /// every later listener of the same event gets the same stamp.
  SchedulerHooks* event_hooks(ThreadId tid) noexcept {
    if (hooks != nullptr) event_clocks[tid]->next_event();
    return hooks;
  }

  // --- scheduling --------------------------------------------------------

  /// Fuzzing-only yield injection: widens the race window at a scheduling
  /// point so seeded runs explore interleavings a quiet host rarely hits.
  void perturb(ThreadState& st, SchedulePoint point) {
    if (st.sched.yield_before(point)) {
      st.telem.add(telemetry::Counter::kSchedYields);
      std::this_thread::yield();
    }
  }

  static telemetry::Counter divergence_counter(SchedulerNote note) noexcept {
    switch (note) {
      case SchedulerNote::kTaskgraphDivergeStructure:
        return telemetry::Counter::kTaskgraphDivergeStructure;
      case SchedulerNote::kTaskgraphDivergeShortSpawn:
        return telemetry::Counter::kTaskgraphDivergeShortSpawn;
      default:
        return telemetry::Counter::kTaskgraphDivergeResidue;
    }
  }

  /// Keep only the *first* cause: later divergences are usually knock-on
  /// effects of the first one and would bury it.
  void remember_fallback_reason(SchedulerNote note) noexcept {
    std::uint8_t expected = 0;
    fallback_reason.compare_exchange_strong(
        expected, static_cast<std::uint8_t>(note), std::memory_order_relaxed);
  }

  /// One replay divergence: bumps the aggregate and per-reason counters,
  /// records the sticky first cause, and surfaces a trace instant.
  void diverge(ThreadState& st, SchedulerNote note, std::int64_t detail) {
    region_divergences.fetch_add(1, std::memory_order_relaxed);
    st.telem.add(telemetry::Counter::kTaskgraphDivergences);
    st.telem.add(divergence_counter(note));
    remember_fallback_reason(note);
    if (SchedulerHooks* h = event_hooks(st.tid)) {
      h->on_scheduler_note(st.tid, note, detail);
    }
  }

  void enqueue(ThreadState& st, TaskRecord* rec) {
    perturb(st, SchedulePoint::kTaskCreate);
    StealDeque& own = *queues[st.tid];
    own.push(rec);
    if (st.telem.attached()) {
      st.telem.gauge_max(telemetry::Gauge::kDequeDepth, own.size());
    }
  }

  /// One stolen-task acquisition: bumps the always-on attempt counter and,
  /// when a sink is attached, the telemetry steal counters.
  void count_steal(ThreadState& st, bool success) noexcept {
    ++st.steal_attempts;
    st.telem.add(telemetry::Counter::kStealAttempts);
    if (success) st.telem.add(telemetry::Counter::kStealSuccesses);
  }

  /// LIFO pop from the worker's own queue.
  TaskRecord* pop_own(ThreadState& st) {
    return static_cast<TaskRecord*>(queues[st.tid]->pop());
  }

  /// One FIFO steal from `victim_tid`'s queue.
  TaskRecord* steal_one(ThreadId victim_tid) {
    return static_cast<TaskRecord*>(queues[victim_tid]->steal());
  }

  /// Stack bound for one batched steal; Topology::steal_batch_max is
  /// clamped to it.
  static constexpr std::size_t kStealBatchCap = 32;

  /// Cross-domain batch steal: take up to steal_batch_max tasks from
  /// `victim_tid` (never more than half of what the victim appears to
  /// hold — steal-half), return the oldest to run now and re-push the
  /// rest onto the thief's own deque, where same-domain neighbours can
  /// find them without crossing the boundary again.  Returns nullptr when
  /// the victim yielded nothing.
  TaskRecord* steal_batch_from(ThreadState& st, ThreadId victim_tid) {
    const std::size_t cap = std::min<std::size_t>(
        std::max<std::uint32_t>(config.topology.steal_batch_max, 1),
        kStealBatchCap);
    StealDeque& victim = *queues[victim_tid];
    void* items[kStealBatchCap];
    const std::size_t want =
        std::max<std::size_t>(1, std::min(cap, (victim.size() + 1) / 2));
    const std::size_t got = victim.steal_batch(items, want);
    count_steal(st, got > 0);
    if (got == 0) return nullptr;
    st.steals += got;
    st.telem.add(telemetry::Counter::kStealsCrossDomain, got);
    st.telem.add(telemetry::Counter::kStealBatchTasks, got);
    if (got > 1) {
      StealDeque& own = *queues[st.tid];
      // Push deepest-age first so the next own pop() resumes with the
      // batch's next-oldest task — the same continuation order a FIFO
      // victim drain would produce.
      for (std::size_t i = got; i-- > 1;) own.push(items[i]);
      if (st.telem.attached()) {
        st.telem.gauge_max(telemetry::Gauge::kDequeDepth, own.size());
      }
    }
    return static_cast<TaskRecord*>(items[0]);
  }

  /// Hierarchical victim selection (RealConfig::topology, DESIGN.md §15):
  /// probe the thief's own locality domain first with a seeded
  /// within-domain rotation; only after Topology::local_miss_limit
  /// consecutive empty local sweeps escalate to the remote domains
  /// (seeded domain rotation), where the first victim with work loses a
  /// whole batch.  All rotations draw from the worker's ScheduleStream,
  /// so a given policy seed reproduces the exact victim sequence.
  TaskRecord* steal_round_hierarchical(ThreadState& st) {
    const std::vector<ThreadId>& local = domain_members[st.domain];
    const auto lsize = static_cast<std::uint32_t>(local.size());
    if (lsize > 1) {
      const std::uint32_t lring = lsize - 1;
      const std::uint32_t rotation = st.sched.victim_rotation(lsize);
      for (std::uint32_t i = 0; i < lring; ++i) {
        const std::uint32_t slot =
            (st.domain_slot + 1 + (rotation + i) % lring) % lsize;
        TaskRecord* t = steal_one(local[slot]);
        count_steal(st, t != nullptr);
        if (t != nullptr) {
          ++st.steals;
          st.local_misses = 0;
          st.telem.add(telemetry::Counter::kStealsInDomain);
          return t;
        }
      }
    }
    // A worker alone in its domain has no local victims and escalates on
    // every sweep; everyone else accumulates misses first.
    if (lsize > 1 && ++st.local_misses < config.topology.local_miss_limit) {
      st.telem.add(telemetry::Counter::kStealAborts);
      return nullptr;
    }
    st.local_misses = 0;
    st.telem.add(telemetry::Counter::kStealEscalations);
    const auto ndomains = static_cast<std::uint32_t>(domain_members.size());
    const std::uint32_t dring = ndomains - 1;
    const std::uint32_t drotation = st.sched.victim_rotation(ndomains);
    for (std::uint32_t i = 0; i < dring; ++i) {
      const std::uint32_t dom =
          (st.domain + 1 + (drotation + i) % dring) % ndomains;
      for (const ThreadId victim : domain_members[dom]) {
        if (TaskRecord* t = steal_batch_from(st, victim)) return t;
      }
    }
    st.telem.add(telemetry::Counter::kStealAborts);
    return nullptr;
  }

  /// One full FIFO-steal sweep over the other workers' queues.  The scan
  /// starts at neighbour offset 1 + rotation — rotation is 0 without a
  /// schedule policy, preserving the historical clockwise order.  With a
  /// multi-domain topology the sweep is hierarchical instead (local
  /// domain first, batched escalation); see steal_round_hierarchical.
  TaskRecord* steal_round(ThreadState& st) {
    if (nthreads <= 1) return nullptr;
    if (hier_steal) return steal_round_hierarchical(st);
    const auto ring = static_cast<std::uint32_t>(nthreads - 1);
    const std::uint32_t rotation =
        st.sched.victim_rotation(static_cast<std::uint32_t>(nthreads));
    for (std::uint32_t i = 0; i < ring; ++i) {
      const ThreadId offset = 1 + (rotation + i) % ring;
      TaskRecord* t = steal_one(
          static_cast<ThreadId>((st.tid + offset) %
                                static_cast<ThreadId>(nthreads)));
      count_steal(st, t != nullptr);
      if (t != nullptr) {
        ++st.steals;
        return t;
      }
    }
    st.telem.add(telemetry::Counter::kStealAborts);
    return nullptr;
  }

  /// Ids per claim of the shared instance-id counter in replay mode.
  static constexpr TaskInstanceId kIdBlock = 256;

  /// Root ordinals per claim when the recording had a single root
  /// producer.  Small enough that the end-of-body hole sweep stays
  /// trivial, large enough to amortize the shared RMW away.
  static constexpr std::uint32_t kRootOrdinalBlock = 32;

  /// Fresh task instance id.  Replay regions claim ids in per-thread
  /// blocks so the spawn hot path skips the shared-counter RMW; ids stay
  /// unique (which is all the profiler needs) but are no longer dense.
  TaskInstanceId next_instance_id(ThreadState& st) {
    if (graph_mode != GraphMode::kReplay) {
      return next_id.fetch_add(1, std::memory_order_relaxed);
    }
    if (st.id_next == st.id_end) {
      st.id_next = next_id.fetch_add(kIdBlock, std::memory_order_relaxed);
      st.id_end = st.id_next + kIdBlock;
    }
    return st.id_next++;
  }

  /// True when this worker can never acquire work again in the current
  /// replay region: its static run list is finished and no divergence
  /// has put tasks on the dynamic deques.  A dynamic scheduler can never
  /// conclude this (work might be stolen at any time); the static
  /// schedule makes quiescence a local fact, and the barrier loop uses
  /// it to sleep instead of contributing to a yield storm that starves
  /// the owners still draining their lists on an oversubscribed host.
  [[nodiscard]] bool replay_exhausted(const ThreadState& st) const {
    return graph_mode == GraphMode::kReplay &&
           st.replay_cursor >= schedule.run_lists[st.tid].size() &&
           dynamic_outstanding.load(std::memory_order_relaxed) == 0;
  }

  /// Divergence fallback work in flight: a parked worker should resume
  /// scanning the deques instead of (re-)parking.
  [[nodiscard]] bool replay_divergence_pending() const {
    return dynamic_outstanding.load(std::memory_order_relaxed) > 0;
  }

  /// Replay accounting: static spawns and completions batch into the
  /// per-thread signed `static_delta` (+1 publish, -1 settle) and reach
  /// the shared `outstanding` word only here — on a poll miss and at
  /// barrier entry, as one release fetch_add.  That leaves the static
  /// hot path with zero shared-counter RMWs per task.
  ///
  /// Why a barrier can still trust `outstanding == 0`: a thread's delta
  /// accumulates publishes *before* the settle of the task whose body
  /// made them (program order), and a flush is all-or-nothing, so
  /// `outstanding` can only miss a task's settle together with every
  /// publish from inside that task's body.  Walk any published-unsettled
  /// task up its spawn chain: either some ancestor's publish is already
  /// flushed (outstanding > 0 — no exit), or the chain ends in an
  /// implicit body that has not yet arrived at the barrier (arrived <
  /// needed — no exit; entry flushes before arriving, below).  Either
  /// way a barrier cannot exit while real work remains; a *negative*
  /// transient (settle flushed before its publish) only parks the exit
  /// until the publisher's flush, which its barrier entry guarantees.
  void flush_static_delta(ThreadState& st) {
    if (st.static_delta != 0) {
      outstanding.fetch_add(static_cast<std::uint64_t>(st.static_delta),
                            std::memory_order_release);
      st.static_delta = 0;
      // A flush that empties `outstanding` may be the last event a
      // parked worker waits on.
      if (outstanding.load(std::memory_order_relaxed) == 0) wake_parked();
    }
  }

  /// Nudge parked replay workers to re-check their exit predicate.  The
  /// empty lock/unlock closes the classic lost-wakeup window (a parker
  /// between its predicate check and its wait); the parked()==0 fast
  /// path keeps every non-parking configuration mutex-free.  Parkers
  /// additionally cap their wait, so even a wake lost to memory-order
  /// weirdness only costs one timeout period.
  void wake_parked() {
    if (barrier.parked.load(std::memory_order_seq_cst) == 0) return;
    { std::lock_guard<std::mutex> lk(barrier.park_mu); }
    barrier.park_cv.notify_all();
  }

  TaskRecord* try_acquire(ThreadState& st) {
    perturb(st, SchedulePoint::kAcquire);
    if (graph_mode == GraphMode::kReplay) {
      // Static fast path: one acquire load on the head-of-line slot of
      // this worker's own run list.  No pop, no steal sweep, no CAS —
      // this is where the replay's contention win comes from.
      const std::uint32_t node = replay.poll(st.tid, st.replay_cursor);
      if (node != kGraphNone) return &replay_records[node];
      flush_static_delta(st);
      // The deques only carry work after a divergence; skip them (and
      // their steal probes) while no dynamic task is in flight.
      if (dynamic_outstanding.load(std::memory_order_relaxed) > 0) {
        if (TaskRecord* t = pop_own(st)) return t;
        return steal_round(st);
      }
      return nullptr;
    }
    // Under a schedule policy a worker occasionally inverts the LIFO-local
    // bias and raids other queues before its own — the inversion OpenMP
    // permits at any task scheduling point but a fair scheduler never
    // exercises.
    if (st.sched.attached() && nthreads > 1 &&
        st.sched.steal_first()) {
      if (TaskRecord* t = steal_round(st)) return t;
      return pop_own(st);
    }
    if (TaskRecord* t = pop_own(st)) return t;
    return steal_round(st);
  }

  /// Drop one lifetime reference; recycle into the creator's slab when
  /// none remain.  Implicit-task records (ThreadState members,
  /// slab == nullptr) keep their own reference forever and never get here
  /// with refs == 1.
  void release_ref(ThreadState& st, TaskRecord* rec) {
    if (rec->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      TASKPROF_ASSERT(rec->slab != nullptr,
                      "implicit-task record dropped its last reference");
      const bool local = rec->creator == st.tid;
      rec->slab->recycle(rec, local);
      st.telem.add(telemetry::Counter::kSlabRecycles);
      if (!local) st.telem.add(telemetry::Counter::kSlabRemoteRecycles);
    }
  }

  void execute(ThreadState& st, TaskContext& ctx, TaskRecord* rec) {
    if (SchedulerHooks* h = event_hooks(st.tid)) {
      h->on_task_begin(st.tid, rec->id, rec->attrs.region,
                       rec->attrs.parameter);
    }
    st.telem.add(telemetry::Counter::kTasksExecuted);
    if (st.telem.attached()) {
      st.telem.gauge_max(telemetry::Gauge::kTaskStackDepth,
                         st.task_stack.size() + 1);
    }
    st.task_stack.push_back(rec);
    const bool record_timing =
        graph_mode == GraphMode::kRecord && rec->graph_node != kGraphNone &&
        rec->graph_node != kGraphRoot;
    const Ticks body_t0 = record_timing ? clock.now() : 0;
    rec->fn(ctx);
    if (record_timing) {
      // Duration estimate for the partitioner.  Nested tasks executed at
      // this task's scheduling points inflate it; that is acceptable for
      // a load-balancing weight and costs nothing to the replay path.
      // Clamped: two unfenced TSC reads may step backwards.
      recorder->record_duration(rec->graph_node,
                                std::max<Ticks>(clock.now() - body_t0, 0));
    }
    st.task_stack.pop_back();
    if (graph_mode == GraphMode::kReplay && rec->graph_node != kGraphNone &&
        rec->graph_node != kGraphRoot && !rec->replay_diverged &&
        rec->replay_ordinal < rec->graph_children) {
      // Short spawn: the recording promised more children than the task
      // produced.  Cancel their subtrees before this task's counters
      // drop, so no run list stays queued behind a slot that can no
      // longer be filled.
      diverge(st, SchedulerNote::kTaskgraphDivergeShortSpawn,
              rec->graph_node);
      replay.cancel_children_from(rec->graph_node, rec->replay_ordinal);
    }
    if (SchedulerHooks* h = event_hooks(st.tid)) {
      h->on_task_end(st.tid, rec->id);
    }
    // parent == nullptr only for detached root replay spawns (see
    // replay_spawn): no child accounting to settle.
    TaskRecord* parent = rec->parent;
    if (rec->deferred) {
      if (parent != nullptr) {
        parent->pending_children.fetch_sub(1, std::memory_order_release);
      }
      if (graph_mode == GraphMode::kReplay && rec->graph_node != kGraphNone) {
        // Static replay task: settles against `outstanding` in batch at
        // the next poll miss or barrier entry (flush_static_delta).
        --st.static_delta;
      } else {
        if (graph_mode == GraphMode::kReplay) {
          dynamic_outstanding.fetch_sub(1, std::memory_order_release);
        }
        outstanding.fetch_sub(1, std::memory_order_release);
      }
    }
    ++st.executed;
    // Reference traffic exists to keep recyclable slab records alive;
    // implicit-task records and static replay records never recycle, so
    // they skip the RMWs entirely.
    if (rec->slab != nullptr) release_ref(st, rec);
    if (parent != nullptr && parent->slab != nullptr) {
      release_ref(st, parent);
    }
    // Resuming an enclosing *explicit* task is a task switch (Fig. 12);
    // returning to the implicit task is implied by on_task_end.
    TaskRecord* enclosing = st.task_stack.back();
    if (enclosing != &st.implicit_record) {
      if (SchedulerHooks* h = event_hooks(st.tid)) {
        h->on_task_switch(st.tid, enclosing->id);
      }
    }
  }
};

namespace {

/// TaskContext implementation bound to one worker thread.
class RealContext final : public TaskContext {
 public:
  RealContext(RealRuntime::Impl& rt, RealRuntime::Impl::ThreadState& st)
      : rt_(rt), st_(st) {}

  void create_task(TaskFn fn, TaskAttrs attrs) override {
    if (SchedulerHooks* h = rt_.event_hooks(st_.tid)) {
      h->on_task_create_begin(st_.tid, attrs.region, attrs.parameter);
    }
    const TaskInstanceId id = rt_.next_instance_id(st_);
    ++st_.created;
    if (st_.telem.attached()) {
      st_.telem.add(telemetry::Counter::kTasksCreated);
      st_.telem.add(attrs.undeferred
                        ? telemetry::Counter::kTasksUndeferred
                        : telemetry::Counter::kTasksDeferred);
    }
    // Replay: try to serve the spawn from its preallocated static slot.
    if (!attrs.undeferred &&
        rt_.graph_mode == RealRuntime::Impl::GraphMode::kReplay &&
        replay_spawn(fn, attrs, id)) {
      create_end(id, attrs);
      return;
    }
    st_.telem.add(telemetry::Counter::kSlabAllocs);
    TaskRecord* rec = st_.slab.allocate();
    rec->fn = std::move(fn);
    rec->attrs = attrs;
    rec->id = id;
    rec->parent = st_.task_stack.back();
    rec->creator = st_.tid;
    rec->graph_node = kGraphNone;
    rec->replay_ordinal = 0;
    rec->replay_diverged = false;
    // The child's back-reference pins recyclable parents only; implicit
    // and static replay records outlive the region anyway (see the
    // matching guard in execute()).
    if (rec->parent->slab != nullptr) {
      rec->parent->refs.fetch_add(1, std::memory_order_relaxed);
    }
    if (attrs.undeferred) {
      // Runs inside the creation construct: the task's stub node lands
      // under the "create task" node of the encountering task.  Never
      // recorded: its ordinal-free position cannot be matched on replay,
      // so its deferred descendants stay dynamic in both phases.
      rec->deferred = false;
      rt_.execute(st_, *this, rec);
      create_end(id, attrs);
      return;
    }
    rec->deferred = true;
    if (rt_.graph_mode == RealRuntime::Impl::GraphMode::kRecord &&
        rec->parent->graph_node != kGraphNone) {
      rec->graph_node = rt_.recorder->record_spawn(
          rec->parent->graph_node, attrs.region, attrs.parameter, st_.tid);
    } else if (rt_.graph_mode == RealRuntime::Impl::GraphMode::kReplay) {
      rt_.dynamic_outstanding.fetch_add(1, std::memory_order_relaxed);
      st_.telem.add(telemetry::Counter::kTaskgraphDynamicSpawns);
      rt_.wake_parked();  // parked workers can help steal fallback work
    }
    // Relaxed is sufficient: both counters are published to other threads
    // through the enqueue below (see the memory-ordering audit above).
    rec->parent->pending_children.fetch_add(1, std::memory_order_relaxed);
    rt_.outstanding.fetch_add(1, std::memory_order_relaxed);
    rt_.enqueue(st_, rec);
    create_end(id, attrs);
  }

  void taskwait() override {
    if (SchedulerHooks* h = rt_.event_hooks(st_.tid)) {
      h->on_taskwait_begin(st_.tid);
    }
    st_.telem.add(telemetry::Counter::kTaskwaitEntries);
    rt_.perturb(st_, SchedulePoint::kTaskwait);
    TaskRecord* current = st_.task_stack.back();
    if (rt_.graph_mode == RealRuntime::Impl::GraphMode::kRecord &&
        current->graph_node == kGraphRoot) {
      // Replay must keep implicit-task child accounting exact for this
      // graph (the detached-root-spawn optimization is off the table).
      rt_.recorder->note_root_taskwait();
    }
    int spins = 0;
    while (current->pending_children.load(std::memory_order_acquire) > 0) {
      if (TaskRecord* t = rt_.try_acquire(st_)) {
        rt_.execute(st_, *this, t);
        spins = 0;
      } else if (++spins >= kSpinsBeforeYield) {
        spins = 0;
        count_yield();
        std::this_thread::yield();
      }
    }
    if (SchedulerHooks* h = rt_.event_hooks(st_.tid)) {
      h->on_taskwait_end(st_.tid);
    }
  }

  void barrier() override { barrier_impl(/*implicit=*/false); }

  void barrier_impl(bool implicit) {
    TASKPROF_ASSERT(st_.task_stack.back() == &st_.implicit_record,
                    "barrier must be called from the implicit task");
    if (SchedulerHooks* h = rt_.event_hooks(st_.tid)) {
      h->on_barrier_begin(st_.tid, implicit);
    }
    st_.telem.add(telemetry::Counter::kBarrierEntries);
    rt_.perturb(st_, SchedulePoint::kBarrier);
    const std::uint64_t generation = ++st_.barrier_counter;
    const std::uint64_t needed =
        generation * static_cast<std::uint64_t>(rt_.nthreads);
    // Flush before arriving: once this body counts as arrived, any
    // publish it performed must be visible in `outstanding` or the
    // barrier-exit condition could observe a false quiescence (the
    // soundness argument in flush_static_delta leans on this ordering).
    rt_.flush_static_delta(st_);
    rt_.barrier.arrived.fetch_add(1, std::memory_order_acq_rel);
    rt_.wake_parked();  // this arrival may complete a parked generation
    int spins = 0;
    while (true) {
      if (TaskRecord* t = rt_.try_acquire(st_)) {
        rt_.execute(st_, *this, t);
        spins = 0;
        continue;
      }
      // Stable exit condition: every thread has reached this barrier
      // generation and no explicit task is queued or running anywhere
      // ("outstanding" stays > 0 while a popped task executes).  A fast
      // thread may already be in a later generation and have queued new
      // tasks; draining those here is legal (a barrier is a task
      // scheduling point) and the exit only requires that *this*
      // generation's work is gone.
      if (rt_.barrier.arrived.load(std::memory_order_acquire) >= needed &&
          rt_.outstanding.load(std::memory_order_acquire) == 0) {
        break;
      }
      if (++spins >= kSpinsBeforeYield) {
        spins = 0;
        count_yield();
        if (rt_.replay_exhausted(st_)) {
          // Nothing can ever arrive for this worker again; park off the
          // run queue instead of yield-storming the owners still
          // working.  Explicit wakes come from barrier arrivals, from
          // the flush that empties `outstanding`, and from a divergence
          // putting dynamic work in flight; the timeout is only a net
          // against a lost wake.
          std::unique_lock<std::mutex> lk(rt_.barrier.park_mu);
          rt_.barrier.parked.fetch_add(1, std::memory_order_seq_cst);
          const bool done =
              rt_.barrier.arrived.load(std::memory_order_acquire) >=
                  needed &&
              rt_.outstanding.load(std::memory_order_acquire) == 0;
          if (!done && !rt_.replay_divergence_pending()) {
            rt_.barrier.park_cv.wait_for(lk, std::chrono::milliseconds(1));
          }
          rt_.barrier.parked.fetch_sub(1, std::memory_order_relaxed);
        } else {
          std::this_thread::yield();
        }
      }
    }
    if (SchedulerHooks* h = rt_.event_hooks(st_.tid)) {
      h->on_barrier_end(st_.tid, implicit);
    }
  }

  bool single() override {
    TASKPROF_ASSERT(st_.task_stack.back() == &st_.implicit_record,
                    "single must be called from the implicit task");
    // Episode numbers are monotonic per thread and all threads encounter
    // singles in the same sequence, so the first thread to attempt
    // episode e always finds the slot's last claim <= e - kSingleShards
    // and wins; every later attempt of e observes a claim >= e.  Exactly
    // one winner per episode, without resets or an episode registry.
    const std::uint64_t episode = ++st_.single_counter;
    std::atomic<std::uint64_t>& slot =
        rt_.single_shards[(episode - 1) % kSingleShards].claimed;
    std::uint64_t seen = slot.load(std::memory_order_acquire);
    while (seen < episode) {
      if (slot.compare_exchange_weak(seen, episode,
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
        st_.telem.add(telemetry::Counter::kSingleWins);
        return true;
      }
    }
    return false;
  }

  void work(Ticks cost) override {
    // Real computation is its own cost; virtual cost is ignored.
    (void)cost;
  }

  void region_enter(RegionHandle region, std::int64_t parameter) override {
    if (SchedulerHooks* h = rt_.event_hooks(st_.tid)) {
      h->on_region_enter(st_.tid, region, parameter);
    }
  }

  void region_exit(RegionHandle region) override {
    if (SchedulerHooks* h = rt_.event_hooks(st_.tid)) {
      h->on_region_exit(st_.tid, region);
    }
  }

  [[nodiscard]] ThreadId thread_id() const override { return st_.tid; }
  [[nodiscard]] int num_threads() const override { return rt_.nthreads; }

 private:
  /// Match a deferred spawn against the recorded graph and, on success,
  /// publish it into its preallocated slot (no allocation, no enqueue).
  /// Returns false on divergence: the recorded subtrees that can no
  /// longer be claimed are cancelled and the caller spawns dynamically.
  /// `fn` is moved from only on success.
  bool replay_spawn(TaskFn& fn, const TaskAttrs& attrs, TaskInstanceId id) {
    TaskRecord* parent = st_.task_stack.back();
    const std::uint32_t parent_key = parent->graph_node;
    if (parent_key == kGraphNone || parent->replay_diverged) {
      return false;  // dynamic subtree: nothing to match against
    }
    std::uint32_t ordinal;
    if (parent_key == kGraphRoot) {
      if (rt_.graph->single_root_producer()) {
        // Batched claim: the recorded spawn order came from one thread,
        // so the replay producer claims ordinals a block at a time and
        // hands them out with a plain increment.
        if (st_.root_next == st_.root_end) {
          st_.root_next = rt_.replay.claim_root_ordinals(
              RealRuntime::Impl::kRootOrdinalBlock);
          st_.root_end = st_.root_next + RealRuntime::Impl::kRootOrdinalBlock;
        }
        ordinal = st_.root_next++;
      } else {
        ordinal = rt_.replay.next_root_ordinal();
      }
    } else {
      ordinal = parent->replay_ordinal++;
    }
    std::uint32_t node = kGraphNone;
    if (!rt_.graph->match_spawn(parent_key, ordinal, attrs.region,
                                attrs.parameter, &node)) {
      rt_.diverge(st_, SchedulerNote::kTaskgraphDivergeStructure,
                  parent_key == kGraphRoot ? ordinal : parent_key);
      if (parent_key == kGraphRoot) {
        // Root spawns share one ordinal counter across workers, so only
        // this ordinal's recorded subtree is orphaned — later root
        // ordinals may still match on any worker.
        const std::uint32_t orphan =
            rt_.graph->child_at(kGraphRoot, ordinal);
        if (orphan != kGraphNone) rt_.replay.cancel_subtree(orphan);
      } else {
        // An explicit parent spawns sequentially: once one spawn is off
        // script the rest of its recorded children are unreachable.
        parent->replay_diverged = true;
        rt_.replay.cancel_children_from(parent_key, ordinal);
      }
      return false;
    }
    TaskRecord* rec = &rt_.replay_records[node];
    // Detached root spawn: when the recording saw no taskwait from an
    // implicit task, nothing ever reads an implicit record's
    // pending_children, so root-spawned static tasks skip the parent
    // RMW pair entirely (parent == nullptr; the region barrier tracks
    // them through the batched outstanding delta instead).
    const bool detached =
        parent_key == kGraphRoot && !rt_.graph->root_taskwait();
    // Only the per-instance fields are written here; everything constant
    // for the recording epoch (graph_node, deferred, refs, ...) was
    // initialized once at region setup (see replay_records_dirty).
    // Region boundaries quiesce the record (workers joined), so plain
    // stores are safe; the release publish below makes them visible to
    // the owner worker together.
    rec->fn = std::move(fn);
    rec->attrs = attrs;
    rec->id = id;
    rec->parent = detached ? nullptr : parent;
    rec->replay_ordinal = 0;
    if (!detached) {
      if (parent->slab != nullptr) {
        parent->refs.fetch_add(1, std::memory_order_relaxed);
      }
      // Relaxed increment rides the publish's release store, mirroring
      // how the dynamic path rides the deque push (memory-ordering
      // audit).
      parent->pending_children.fetch_add(1, std::memory_order_relaxed);
    }
    // `outstanding` is batched: +1 here, -1 when the owner finishes the
    // task, flushed at poll misses and barrier entries
    // (flush_static_delta) — the static hot path never RMWs the shared
    // word.
    ++st_.static_delta;
    st_.telem.add(telemetry::Counter::kTaskgraphStaticSpawns);
    rt_.replay.publish(node);
    return true;
  }

  void create_end(TaskInstanceId id, const TaskAttrs& attrs) {
    if (SchedulerHooks* h = rt_.event_hooks(st_.tid)) {
      h->on_task_create_end(st_.tid, id, attrs.region, attrs.parameter);
    }
  }

  void count_yield() noexcept {
    st_.telem.add(telemetry::Counter::kSchedYields);
  }

  RealRuntime::Impl& rt_;
  RealRuntime::Impl::ThreadState& st_;
};

}  // namespace

RealRuntime::RealRuntime(RealConfig config)
    : impl_(std::make_unique<Impl>(config)) {}

RealRuntime::~RealRuntime() = default;

void RealRuntime::set_hooks(SchedulerHooks* hooks) { impl_->hooks = hooks; }

void RealRuntime::set_telemetry(telemetry::Registry* registry) {
  impl_->telemetry = registry;
}

Ticks RealRuntime::now() const { return impl_->clock.now(); }

TeamStats RealRuntime::parallel(int num_threads, TaskFn body) {
  if (num_threads < 1) {
    throw std::invalid_argument("parallel: num_threads must be >= 1");
  }
  Impl& rt = *impl_;
  rt.nthreads = num_threads;
  while (rt.event_clocks.size() < static_cast<std::size_t>(num_threads)) {
    rt.event_clocks.push_back(std::make_unique<EventClock<TscClock>>());
  }
  rt.queues.clear();
  rt.threads.clear();
  rt.single_shards = std::make_unique<SingleShard[]>(kSingleShards);
  rt.barrier.arrived.store(0);
  rt.outstanding.store(0);
  rt.next_id.store(1);
  rt.dynamic_outstanding.store(0);
  rt.region_divergences.store(0);
  rt.bodies_done.store(0);
  rt.graph_mode = Impl::GraphMode::kOff;
  if (rt.config.scheduler == SchedulerKind::kTaskGraph) {
    if (rt.graph_stale) {
      rt.graph_mode = Impl::GraphMode::kFallback;
    } else if (rt.graph == nullptr) {
      rt.graph_mode = Impl::GraphMode::kRecord;
      rt.recorder = std::make_unique<TaskGraphRecorder>(num_threads);
    } else {
      rt.graph_mode = Impl::GraphMode::kReplay;
      if (rt.schedule.threads != num_threads) {
        rt.schedule = StaticSchedule::build(*rt.graph, num_threads);
      }
      rt.replay.bind(rt.graph.get(), &rt.schedule);
      if (rt.replay_record_count < rt.graph->size()) {
        rt.replay_records = std::make_unique<TaskRecord[]>(rt.graph->size());
        rt.replay_record_count = rt.graph->size();
        rt.replay_records_dirty = true;
      }
      if (rt.replay_records_dirty) {
        // Epoch init: fields that stay constant for the lifetime of this
        // recording are written once here, not on every publish.  The
        // invariants that keep them valid across replay regions:
        // graph_node == index by construction; deferred is always true
        // for a recorded (deferred) spawn; refs is never decremented
        // (slab == nullptr keeps release_ref away); pending_children
        // returns to zero at every region barrier (each increment has a
        // matching pre-barrier decrement); replay_ordinal is re-zeroed
        // per publish (it mutates during the region); replay_diverged
        // can only become true in a region that also marks the graph
        // stale, so a live replay epoch never sees a stale value.
        for (std::size_t i = 0; i < rt.graph->size(); ++i) {
          TaskRecord& rec = rt.replay_records[i];
          rec.graph_node = static_cast<std::uint32_t>(i);
          rec.graph_children =
              rt.graph->child_count(static_cast<std::uint32_t>(i));
          rec.deferred = true;
          rec.slab = nullptr;
          rec.creator = 0;
          rec.replay_diverged = false;
          rec.pending_children.store(0, std::memory_order_relaxed);
          rec.refs.store(kStaticRecordRefs, std::memory_order_relaxed);
        }
        rt.replay_records_dirty = false;
      }
    }
  }
  // Hierarchical stealing only engages when the topology actually splits
  // this team: with every worker in one populated domain the flat sweep
  // is the correct (and bit-identical historical) behaviour.
  rt.domain_members.clear();
  rt.hier_steal = false;
  if (rt.config.topology.multi_domain() && num_threads > 1) {
    rt.domain_members.assign(rt.config.topology.domains, {});
    for (int i = 0; i < num_threads; ++i) {
      const auto dom = rt.config.topology.domain_of(
          static_cast<std::uint32_t>(i));
      rt.domain_members[dom].push_back(static_cast<ThreadId>(i));
    }
    std::size_t populated = 0;
    for (const auto& members : rt.domain_members) {
      if (!members.empty()) ++populated;
    }
    rt.hier_steal = populated > 1;
  }
  for (int i = 0; i < num_threads; ++i) {
    rt.queues.push_back(std::make_unique<StealDeque>());
    auto st = std::make_unique<Impl::ThreadState>();
    st->tid = static_cast<ThreadId>(i);
    st->implicit_record.id = kImplicitTaskId;
    st->implicit_record.graph_node = kGraphRoot;
    if (rt.config.policy != nullptr) {
      st->sched = rt.config.policy->stream(st->tid);
    }
    if (rt.hier_steal) {
      st->domain =
          rt.config.topology.domain_of(static_cast<std::uint32_t>(i));
      const auto& members = rt.domain_members[st->domain];
      for (std::size_t slot = 0; slot < members.size(); ++slot) {
        if (members[slot] == st->tid) {
          st->domain_slot = static_cast<std::uint32_t>(slot);
          break;
        }
      }
    }
    rt.threads.push_back(std::move(st));
  }
  if (rt.telemetry != nullptr) {
    rt.telemetry->prepare(num_threads);
    // Hand each worker a direct handle to its counter block so the
    // per-event path skips the registry's block-table indirection.
    for (const auto& st : rt.threads) st->telem = rt.telemetry->slots(st->tid);
    switch (rt.graph_mode) {
      case Impl::GraphMode::kRecord:
        rt.threads[0]->telem.add(telemetry::Counter::kTaskgraphRecords);
        break;
      case Impl::GraphMode::kReplay:
        rt.threads[0]->telem.add(telemetry::Counter::kTaskgraphReplays);
        break;
      case Impl::GraphMode::kFallback:
        rt.threads[0]->telem.add(telemetry::Counter::kTaskgraphFallbacks);
        break;
      case Impl::GraphMode::kOff:
        break;
    }
  }

  if (rt.hooks != nullptr) rt.hooks->on_parallel_begin(num_threads);
  const Ticks t0 = rt.clock.now();

  auto worker = [&rt, &body, num_threads](ThreadId tid) {
    Impl::ThreadState& st = *rt.threads[tid];
    st.task_stack.push_back(&st.implicit_record);
    RealContext ctx(rt, st);
    if (SchedulerHooks* h = rt.event_hooks(tid)) {
      h->on_implicit_task_begin(tid, *rt.event_clocks[tid]);
    }
    if (tid == 0 && rt.graph_mode == Impl::GraphMode::kFallback) {
      // Announce *why* this region runs dynamically on a recorded graph:
      // detail carries the original divergence cause.
      if (SchedulerHooks* h = rt.event_hooks(0)) {
        h->on_scheduler_note(
            0, SchedulerNote::kTaskgraphFallbackStale,
            rt.fallback_reason.load(std::memory_order_relaxed));
      }
    }
    body(ctx);
    if (rt.graph_mode == Impl::GraphMode::kReplay &&
        st.root_next < st.root_end) {
      // Hole sweep: this thread's unused root-ordinal tail can never be
      // claimed by anyone else, so any recorded subtree at one of those
      // ordinals was short-spawned — cancel it before the final barrier
      // strands a run list behind its empty slot.  Ordinals past the
      // recorded root row are just block-claim rounding, not holes.
      bool hole = false;
      for (std::uint32_t o = st.root_next; o < st.root_end; ++o) {
        const std::uint32_t n = rt.graph->child_at(kGraphRoot, o);
        if (n == kGraphNone) continue;
        hole = true;
        rt.replay.cancel_subtree(n);
      }
      if (hole) {
        rt.diverge(st, SchedulerNote::kTaskgraphDivergeShortSpawn,
                   st.root_next);
      }
    }
    if (rt.graph_mode == Impl::GraphMode::kReplay &&
        rt.bodies_done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            num_threads) {
      // Every implicit task's body has returned: no further root spawns
      // can claim ordinals.  The acquire above sees all claims, so any
      // recorded root child beyond the claimed count was short-spawned —
      // cancel those subtrees before the final barrier or their empty
      // slots would strand every run list queued behind them.
      const std::uint32_t claimed = rt.replay.root_ordinals_claimed();
      if (claimed < rt.graph->child_count(kGraphRoot)) {
        rt.diverge(st, SchedulerNote::kTaskgraphDivergeShortSpawn, claimed);
        rt.replay.cancel_children_from(kGraphRoot, claimed);
      }
    }
    ctx.barrier_impl(/*implicit=*/true);
    if (SchedulerHooks* h = rt.event_hooks(tid)) h->on_implicit_task_end(tid);
  };

  std::vector<std::thread> extra;
  extra.reserve(static_cast<std::size_t>(num_threads) - 1);
  for (int i = 1; i < num_threads; ++i) {
    extra.emplace_back(worker, static_cast<ThreadId>(i));
  }
  worker(0);
  for (auto& t : extra) t.join();

  const Ticks t1 = rt.clock.now();
  if (rt.hooks != nullptr) rt.hooks->on_parallel_end();

  TeamStats stats;
  stats.parallel_ticks = t1 - t0;
  for (const auto& st : rt.threads) {
    stats.tasks_executed += st->executed;
    stats.tasks_created += st->created;
    stats.steals += st->steals;
    stats.steal_attempts += st->steal_attempts;
    if (rt.telemetry != nullptr) {
      // Quiescent point: the workers joined, so the owner-only carved()
      // reads and the single-writer gauge stores are race-free here.
      rt.telemetry->gauge_max(st->tid, telemetry::Gauge::kSlabRecords,
                              st->slab.carved());
    }
  }
  TASKPROF_ASSERT(rt.outstanding.load() == 0,
                  "tasks outstanding after parallel region");
  if (rt.graph_mode == Impl::GraphMode::kRecord) {
    rt.graph = rt.recorder->freeze();
    rt.recorder.reset();
    rt.schedule.threads = 0;  // force a partition for the first replay
    rt.replay_records_dirty = true;  // new epoch: re-init constant fields
  } else if (rt.graph_mode == Impl::GraphMode::kReplay) {
    // Quiescent sweep: slots still empty mean spawns the engine could
    // not observe going missing (all detectable cases were cancelled).
    if (rt.replay.unspawned_count() > 0) {
      rt.region_divergences.fetch_add(1, std::memory_order_relaxed);
      if (rt.telemetry != nullptr) {
        rt.telemetry->add(0, telemetry::Counter::kTaskgraphDivergences);
        rt.telemetry->add(0, telemetry::Counter::kTaskgraphDivergeResidue);
      }
      rt.remember_fallback_reason(SchedulerNote::kTaskgraphDivergeResidue);
      // Post-join, so this fires on the master thread, which is worker
      // 0: its event clock is the one to stamp.
      if (SchedulerHooks* h = rt.event_hooks(0)) {
        h->on_scheduler_note(
            0, SchedulerNote::kTaskgraphDivergeResidue,
            static_cast<std::int64_t>(rt.replay.unspawned_count()));
      }
    }
    if (rt.region_divergences.load(std::memory_order_relaxed) > 0) {
      // The program no longer matches the recording; later regions run
      // fully dynamic (GraphMode::kFallback) until reset_taskgraph().
      rt.graph_stale = true;
    }
  }
  return stats;
}

bool RealRuntime::taskgraph_recorded() const noexcept {
  return impl_->graph != nullptr;
}

bool RealRuntime::taskgraph_stale() const noexcept {
  return impl_->graph_stale;
}

SchedulerNote RealRuntime::taskgraph_fallback_reason() const noexcept {
  return static_cast<SchedulerNote>(
      impl_->fallback_reason.load(std::memory_order_relaxed));
}

std::size_t RealRuntime::taskgraph_size() const noexcept {
  return impl_->graph != nullptr ? impl_->graph->size() : 0;
}

void RealRuntime::reset_taskgraph() noexcept {
  impl_->graph.reset();
  impl_->graph_stale = false;
  impl_->fallback_reason.store(0, std::memory_order_relaxed);
  impl_->schedule.threads = 0;
}

}  // namespace taskprof::rt
