#!/usr/bin/env python3
"""Gate committed bench JSONs against fresh runs (ratio-based).

Four bench families are understood, dispatched on the file's "bench" id:

event_hotpath (BENCH_event_hotpath.json)
  The trajectory bench records each shape's ns per event, and one
  SteadyClock read (shape clock_read) timed in the same run.  Raw ns are
  machine-dependent; each shape's ns/event divided by a floor shape's ns
  from the same run is a same-run ratio, and it must stay under the
  shape's ceiling in HOTPATH_CEILINGS.  The floor is clock_read, except
  for the shapes in HOTPATH_FLOOR_OF.  The committed file and a
  --candidate run are both gated; --min-ratio does not apply.
  enter_exit_wide256 and merge_wide64 are the ceilings with clear room:
  without the promoted child index their lookups scan the sibling list,
  several times the indexed cost.  The other ceilings catch only gross
  regressions: on the other profiler shapes the fast path sat inside the
  run-to-run noise of the plain engine it replaced.

queue_contention (BENCH_queue_contention.json)
  Each (workload, threads) cell carries both schedulers (chase_lev,
  taskgraph).  The gated quantity is again a same-run ratio: on the
  recurring "sweep" workload, taskgraph/chase_lev per cell (the
  record-and-replay speedup, DESIGN.md §12).  --taskgraph-floor
  additionally enforces an absolute floor on the file's summary
  taskgraph_speedup_sweep_4t/8t fields; CI applies it to the committed
  JSON (and to fresh runs with a generous --min-ratio, since shared
  runners are noisy).

numa_scaling (BENCH_numa_scaling.json)
  Each (kernel, machine) cell records the same BOTS task graph run under
  the flat and the hierarchical victim policy on one simulated NUMA
  machine; the gated quantity is the virtual-span ratio flat/hier.  The
  simulator is deterministic, so these ratios are exact, not noisy:
  absolute floors apply (--numa-cell-floor, default 1.0 — the
  hierarchical policy never loses a cell; --numa-wide-floor, default
  1.5 — the wide-fanout kernel's minimum win on the widest machine),
  and a --candidate run is additionally compared cell-by-cell against
  the committed reference.

ingest (BENCH_ingest.json)
  Each cell is one producer count of the {1, 8, 32} sweep through the
  in-process ingestion daemon.  Raw snapshots/sec and events/sec are
  machine-dependent trajectory numbers; the gated quantities are the
  deterministic ones: totals_exact / clean_stream must be true in every
  cell (not one visit lost or double-counted, exactly one rebase per
  producer), and delta_to_rebase_ratio — the mean delta wire cost over
  the mean rebase wire cost, a pure function of the builder, the codec
  and the difference encoder — must stay below --ingest-delta-ceiling
  (default 0.8: deltas are strictly cheaper than rebases) and, for a
  --candidate run, must match the committed value almost exactly (the
  encoders are deterministic; only JSON rounding is absorbed).

With --absolute, an ingest candidate's raw events/sec are compared too
-- only meaningful when the candidate was produced on the same machine
as the committed reference (e.g. a local before/after check).

Usage:
  python3 tools/check_bench_regression.py \
      --committed BENCH_event_hotpath.json \
      --candidate build/BENCH_event_hotpath.json
  python3 tools/check_bench_regression.py \
      --committed BENCH_queue_contention.json --taskgraph-floor 2.0
"""

import argparse
import json
import sys


def load_doc(path):
    with open(path) as f:
        doc = json.load(f)
    bench = doc.get("bench")
    if bench not in ("event_hotpath", "queue_contention", "numa_scaling",
                     "ingest"):
        raise SystemExit(f"{path}: unknown bench id {bench!r}")
    return doc


# ----------------------------------------------------------------------
# event_hotpath
# ----------------------------------------------------------------------

# The floor every other shape is divided by: one SteadyClock read.
HOTPATH_FLOOR = "clock_read"

# Shapes divided by another shape of the same run instead.  The merge
# shapes read no clock and run in one of two speeds within one binary;
# the pool shape, which reads no clock either, moves with them, so their
# ratio to it spreads less (max/min 1.20-1.60 over sets of 8 runs)
# than their ratio to the clock read (1.81-2.14).
HOTPATH_FLOOR_OF = {
    "merge_small": "node_pool_alloc_release",
    "merge_wide64": "node_pool_alloc_release",
}

# Ceiling on ns/event / floor ns per shape: 2x the largest ratio seen in
# ten `bench_event_hotpath --reps=5` runs on a 4-vCPU host whose
# SteadyClock read cost 35-42 ns (EXPERIMENTS.md, "Event-engine hot
# path").  A shape that reads no clock (pool) doubles its ratio on a host
# whose clock read costs half as much; 2x keeps such hosts green.
HOTPATH_CEILINGS = {
    "tsc_clock_read": 1.3,
    "event_stamp": 1.5,
    "enter_exit_hot": 2.8,
    "enter_exit_deep16": 2.9,
    "enter_exit_wide256": 3.3,
    "fib_leaf_tasks": 4.7,
    "fib_with_creates": 4.0,
    "nqueens_param_tasks": 4.5,
    "task_with_body": 4.1,
    "task_switch_pingpong": 3.6,
    "node_pool_alloc_release": 0.45,
    "merge_small": 2.9,  # x node_pool_alloc_release (HOTPATH_FLOOR_OF)
    "merge_wide64": 4.8,  # x node_pool_alloc_release
}


def load_hotpath(path, doc=None):
    """Return {shape: ns_per_event} from an event_hotpath bench JSON."""
    doc = doc if doc is not None else load_doc(path)
    if doc.get("bench") != "event_hotpath":
        raise SystemExit(f"{path}: not an event_hotpath bench file")
    shapes = {}
    for entry in doc.get("results", []):
        ns = float(entry["ns_per_event"])
        if ns <= 0:
            raise SystemExit(f"{path}: non-positive ns/event for "
                             f"{entry['shape']}")
        shapes[entry["shape"]] = ns
    return shapes


def gate_hotpath_ceilings(shapes, label, quiet=False):
    """Cap every shape's ns/event as a multiple of its floor shape's."""
    if HOTPATH_FLOOR not in shapes:
        return [f"{label}: no {HOTPATH_FLOOR} shape to divide by"]
    failures = []
    for shape, ceiling in sorted(HOTPATH_CEILINGS.items()):
        if shape not in shapes:
            failures.append(f"{label}: {shape}: missing from the run")
            continue
        floor = HOTPATH_FLOOR_OF.get(shape, HOTPATH_FLOOR)
        if floor not in shapes:
            failures.append(f"{label}: {shape}: no {floor} shape to divide by")
            continue
        ratio = shapes[shape] / shapes[floor]
        flag = ""
        if ratio > ceiling:
            failures.append(
                f"{label}: {shape}: {ratio:.2f}x {floor} exceeds "
                f"its {ceiling:.2f}x ceiling")
            flag = "  << FAIL"
        if not quiet:
            print(f"{label}: {shape:<24} {ratio:>6.2f}x {floor:<24} "
                  f"(ceiling {ceiling:.2f}x){flag}")
    for shape in sorted(set(shapes) - set(HOTPATH_CEILINGS) -
                        {HOTPATH_FLOOR}):
        failures.append(f"{label}: {shape}: no ceiling in HOTPATH_CEILINGS")
    return failures


# ----------------------------------------------------------------------
# queue_contention
# ----------------------------------------------------------------------

# Per-cell ratios gated by contention_ratios(): numerator / denominator
# scheduler throughput, restricted to `workloads` (None = all).
CONTENTION_PAIRS = [
    ("taskgraph", "chase_lev", ("sweep",)),
]


def load_contention(path, doc=None):
    """Return ({(workload, threads): {scheduler: tasks/s}}, summary)."""
    doc = doc if doc is not None else load_doc(path)
    if doc.get("bench") != "queue_contention":
        raise SystemExit(f"{path}: not a queue_contention bench file")
    cells = {}
    for entry in doc.get("results", []):
        key = (entry["workload"], int(entry["threads"]))
        tps = float(entry["tasks_per_sec"])
        if tps <= 0:
            raise SystemExit(f"{path}: non-positive tasks/sec for {key}")
        cells.setdefault(key, {})[entry["scheduler"]] = tps
    if not cells:
        raise SystemExit(f"{path}: no results")
    if doc.get("task_counts_identical") is not True:
        raise SystemExit(f"{path}: task_counts_identical is not true — "
                         "the schedulers did not run the same work")
    summary = {
        k: float(doc.get(k, 0.0))
        for k in ("taskgraph_speedup_sweep_4t", "taskgraph_speedup_sweep_8t")
    }
    return cells, summary


def contention_ratios(cells, path="<cells>"):
    """Flatten cells to {label: ratio} for every gated scheduler pair."""
    ratios = {}
    for (workload, threads), by_sched in sorted(cells.items()):
        for num, den, only in CONTENTION_PAIRS:
            if only is not None and workload not in only:
                continue
            if num not in by_sched or den not in by_sched:
                raise SystemExit(
                    f"{path}: cell {workload} x{threads} is missing "
                    f"scheduler {num if num not in by_sched else den}")
            label = f"{workload} x{threads} {num}/{den}"
            ratios[label] = by_sched[num] / by_sched[den]
    return ratios


def compare_contention(committed, candidate, min_ratio, quiet=False):
    """Gate candidate per-cell scheduler ratios against committed ones."""
    failures = []
    ref = contention_ratios(committed, "committed")
    cand = contention_ratios(candidate, "candidate")
    if not quiet:
        print(f"{'cell ratio':<38} {'committed':>10} {'candidate':>10} "
              f"{'ratio':>7}")
    for label, ref_ratio in sorted(ref.items()):
        if label not in cand:
            failures.append(f"{label}: missing from candidate run")
            continue
        ratio = cand[label] / ref_ratio
        flag = ""
        if ratio < min_ratio:
            failures.append(
                f"{label}: {cand[label]:.2f}x is below {min_ratio:.2f}x "
                f"of committed {ref_ratio:.2f}x")
            flag = "  << FAIL"
        if not quiet:
            print(f"{label:<38} {ref_ratio:>9.2f}x {cand[label]:>9.2f}x "
                  f"{ratio:>6.2f}{flag}")
    return failures


def gate_taskgraph_floor(summary, floor, label, quiet=False):
    """Enforce the absolute replay-speedup floor on a summary dict."""
    failures = []
    for key, value in sorted(summary.items()):
        flag = ""
        if value < floor:
            failures.append(
                f"{label}: {key} = {value:.2f}x is below the "
                f"{floor:.2f}x replay-speedup floor")
            flag = "  << FAIL"
        if not quiet:
            print(f"{label}: {key:<28} {value:>6.2f}x "
                  f"(floor {floor:.2f}x){flag}")
    return failures


# ----------------------------------------------------------------------
# numa_scaling
# ----------------------------------------------------------------------

# The widest simulated machine of the sweep; the wide-fanout kernel must
# clear --numa-wide-floor there.
NUMA_WIDEST_MACHINE = "4x64"


def load_numa(path, doc=None):
    """Return ({(kernel, machine): ratio}, wide_fanout_kernel)."""
    doc = doc if doc is not None else load_doc(path)
    if doc.get("bench") != "numa_scaling":
        raise SystemExit(f"{path}: not a numa_scaling bench file")
    cells = {}
    for entry in doc.get("results", []):
        key = (entry["kernel"], entry["machine"])
        ratio = float(entry["ratio"])
        if ratio <= 0:
            raise SystemExit(f"{path}: non-positive ratio for {key}")
        if entry.get("counts_match") is not True:
            raise SystemExit(f"{path}: counts_match is not true for {key} — "
                             "the victim policies did not run the same work")
        cells[key] = ratio
    if not cells:
        raise SystemExit(f"{path}: no results")
    wide = doc.get("wide_fanout_kernel")
    if not any(kernel == wide for kernel, _ in cells):
        raise SystemExit(f"{path}: wide_fanout_kernel {wide!r} has no cells")
    return cells, wide


def gate_numa_floors(cells, wide_kernel, cell_floor, wide_floor, label,
                     quiet=False):
    """Absolute floors on one run's hierarchical/flat span ratios."""
    failures = []
    eps = 1e-9  # the ratios are exact (deterministic sim); eps absorbs
    # only the JSON round trip
    for (kernel, machine), ratio in sorted(cells.items()):
        floor = cell_floor
        kind = "cell"
        if kernel == wide_kernel and machine == NUMA_WIDEST_MACHINE:
            floor = max(cell_floor, wide_floor)
            kind = "wide-fanout"
        flag = ""
        if ratio + eps < floor:
            failures.append(
                f"{label}: {kernel} @ {machine} hier/flat = {ratio:.2f}x "
                f"is below the {floor:.2f}x {kind} floor")
            flag = "  << FAIL"
        if not quiet:
            print(f"{label}: {kernel:<10} {machine:<6} {ratio:>6.2f}x "
                  f"(floor {floor:.2f}x){flag}")
    return failures


def compare_numa(committed, candidate, min_ratio, quiet=False):
    """Gate candidate per-cell ratios against committed ones."""
    failures = []
    if not quiet:
        print(f"{'cell':<22} {'committed':>10} {'candidate':>10} "
              f"{'ratio':>7}")
    for key, ref_ratio in sorted(committed.items()):
        kernel, machine = key
        label = f"{kernel} @ {machine}"
        if key not in candidate:
            failures.append(f"{label}: missing from candidate run")
            continue
        ratio = candidate[key] / ref_ratio
        flag = ""
        if ratio < min_ratio:
            failures.append(
                f"{label}: {candidate[key]:.2f}x is below {min_ratio:.2f}x "
                f"of committed {ref_ratio:.2f}x")
            flag = "  << FAIL"
        if not quiet:
            print(f"{label:<22} {ref_ratio:>9.2f}x {candidate[key]:>9.2f}x "
                  f"{ratio:>6.2f}{flag}")
    return failures


# ----------------------------------------------------------------------
# ingest
# ----------------------------------------------------------------------

# JSON stores doubles with 6 significant digits; the wire-byte ratios
# are otherwise deterministic, so this is the whole tolerance.
INGEST_RATIO_TOLERANCE = 1e-3


def load_ingest(path, doc=None):
    """Return {producers: {"ratio": r, "events_per_sec": e,
    "snapshots_per_sec": s}} after validating the exactness flags."""
    doc = doc if doc is not None else load_doc(path)
    if doc.get("bench") != "ingest":
        raise SystemExit(f"{path}: not an ingest bench file")
    cells = {}
    for entry in doc.get("results", []):
        producers = int(entry["producers"])
        if entry.get("totals_exact") is not True:
            raise SystemExit(
                f"{path}: totals_exact is not true at {producers} producers "
                "— the daemon lost or double-counted mass")
        if entry.get("clean_stream") is not True:
            raise SystemExit(
                f"{path}: clean_stream is not true at {producers} producers "
                "— a producer re-rebased or was rejected mid-run")
        ratio = float(entry["delta_to_rebase_ratio"])
        eps = float(entry["events_per_sec"])
        sps = float(entry["snapshots_per_sec"])
        if ratio <= 0 or eps <= 0 or sps <= 0:
            raise SystemExit(f"{path}: non-positive measurement at "
                             f"{producers} producers")
        cells[producers] = {"ratio": ratio, "events_per_sec": eps,
                            "snapshots_per_sec": sps}
    if not cells:
        raise SystemExit(f"{path}: no results")
    if doc.get("all_totals_exact") is not True:
        raise SystemExit(f"{path}: all_totals_exact is not true")
    return cells


def gate_ingest_ceiling(cells, ceiling, label, quiet=False):
    """Absolute ceiling on every cell's delta/rebase wire-cost ratio."""
    failures = []
    for producers, cell in sorted(cells.items()):
        ratio = cell["ratio"]
        flag = ""
        if ratio > ceiling:
            failures.append(
                f"{label}: {producers} producers delta/rebase = "
                f"{ratio:.3f} exceeds the {ceiling:.2f} ceiling — deltas "
                "are no longer cheaper than rebases")
            flag = "  << FAIL"
        if not quiet:
            print(f"{label}: {producers:>3} producers d/r {ratio:>6.3f} "
                  f"(ceiling {ceiling:.2f}){flag}")
    return failures


def compare_ingest(committed, candidate, absolute=False, min_ratio=0.85,
                   quiet=False):
    """Candidate delta/rebase ratios must match the committed ones to
    within JSON rounding (they are deterministic); throughputs are gated
    only with --absolute (same-machine runs)."""
    failures = []
    if not quiet:
        print(f"{'producers':<10} {'committed':>10} {'candidate':>10} "
              f"{'drift':>9}")
    for producers, ref in sorted(committed.items()):
        if producers not in candidate:
            failures.append(f"{producers} producers: missing from candidate "
                            "run")
            continue
        cand = candidate[producers]
        drift = abs(cand["ratio"] - ref["ratio"]) / ref["ratio"]
        flag = ""
        if drift > INGEST_RATIO_TOLERANCE:
            failures.append(
                f"{producers} producers: delta/rebase {cand['ratio']:.4f} "
                f"drifted from committed {ref['ratio']:.4f} — the delta "
                "encoder changed behavior")
            flag = "  << FAIL"
        if not quiet:
            print(f"{producers:<10} {ref['ratio']:>10.4f} "
                  f"{cand['ratio']:>10.4f} {drift:>8.1e}{flag}")
        if absolute and cand["events_per_sec"] < (min_ratio *
                                                  ref["events_per_sec"]):
            failures.append(
                f"{producers} producers: {cand['events_per_sec']:.3e} "
                f"events/sec is below {min_ratio:.2f}x of committed "
                f"{ref['events_per_sec']:.3e}")
    return failures


# ----------------------------------------------------------------------


def self_test():
    """Exercise the loaders and gates on synthetic data; 0 on success."""
    import os
    import tempfile

    # --- event_hotpath ---------------------------------------------------
    run = {HOTPATH_FLOOR: 10.0}
    for shape in sorted(HOTPATH_CEILINGS, key=lambda s: s in HOTPATH_FLOOR_OF):
        floor = run[HOTPATH_FLOOR_OF.get(shape, HOTPATH_FLOOR)]
        run[shape] = floor * HOTPATH_CEILINGS[shape] / 2
    # Every shape at half its ceiling: a pass.
    assert gate_hotpath_ceilings(run, "t", quiet=True) == []
    # One shape over its ceiling: caught.
    slow = dict(run, enter_exit_wide256=10.0 * (
        HOTPATH_CEILINGS["enter_exit_wide256"] + 0.1))
    fails = gate_hotpath_ceilings(slow, "t", quiet=True)
    assert len(fails) == 1 and "enter_exit_wide256" in fails[0], fails
    # A faster clock read in the same run raises every ratio over it.
    fails = gate_hotpath_ceilings(dict(run, clock_read=4.0), "t", quiet=True)
    assert len(fails) == len(HOTPATH_CEILINGS) - len(HOTPATH_FLOOR_OF), fails
    # A faster pool shape raises the merge shapes' ratios, and only those.
    pool = HOTPATH_FLOOR_OF["merge_small"]
    fails = gate_hotpath_ceilings(dict(run, **{pool: run[pool] / 4}), "t",
                                  quiet=True)
    assert sorted(f.split(":")[1].strip() for f in fails) == sorted(
        HOTPATH_FLOOR_OF), fails
    # Missing shape: caught.
    missing = dict(run)
    del missing["merge_wide64"]
    fails = gate_hotpath_ceilings(missing, "t", quiet=True)
    assert fails == ["t: merge_wide64: missing from the run"], fails
    # Missing pool shape: caught, for itself and for each shape over it.
    no_pool = dict(run)
    del no_pool[pool]
    fails = gate_hotpath_ceilings(no_pool, "t", quiet=True)
    assert len(fails) == 1 + len(HOTPATH_FLOOR_OF), fails
    # Missing floor: caught.
    no_floor = dict(run)
    del no_floor[HOTPATH_FLOOR]
    fails = gate_hotpath_ceilings(no_floor, "t", quiet=True)
    assert fails == ["t: no clock_read shape to divide by"], fails
    # A shape without a ceiling: caught.
    fails = gate_hotpath_ceilings(dict(run, new_shape=1.0), "t", quiet=True)
    assert fails == ["t: new_shape: no ceiling in HOTPATH_CEILINGS"], fails

    # load_hotpath round trip through a real file, plus its rejects.
    doc = {"bench": "event_hotpath", "results": [
        {"shape": "clock_read", "ns_per_event": 40.0},
        {"shape": "enter_exit_hot", "ns_per_event": 50.0},
    ]}
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as f:
            json.dump(doc, f)
        assert load_hotpath(path) == {"clock_read": 40.0,
                                      "enter_exit_hot": 50.0}
        bad = dict(doc, bench="other")
        with open(path, "w") as f:
            json.dump(bad, f)
        try:
            load_doc(path)
            raise AssertionError("wrong bench id accepted")
        except SystemExit:
            pass
        zero = dict(doc, results=[{"shape": "clock_read",
                                   "ns_per_event": 0.0}])
        with open(path, "w") as f:
            json.dump(zero, f)
        try:
            load_hotpath(path)
            raise AssertionError("zero ns/event accepted")
        except SystemExit:
            pass
    finally:
        os.remove(path)

    # --- queue_contention ------------------------------------------------
    qcells = {
        ("fib", 4): {"chase_lev": 1.5e6, "taskgraph": 1.4e6},
        ("sweep", 4): {"chase_lev": 1.0e6, "taskgraph": 2.2e6},
    }
    # Identical: clean pass; the ratio is gated only on sweep.
    labels = set(contention_ratios(qcells))
    assert labels == {"sweep x4 taskgraph/chase_lev"}, labels
    assert compare_contention(qcells, qcells, 0.85, quiet=True) == []
    # Eroded replay: caught.
    eroded = {k: dict(v) for k, v in qcells.items()}
    eroded[("sweep", 4)]["taskgraph"] = 1.0e6
    fails = compare_contention(qcells, eroded, 0.85, quiet=True)
    assert len(fails) == 1 and "taskgraph/chase_lev" in fails[0], fails
    # Missing cell: caught.
    fails = compare_contention(
        qcells, {("fib", 4): qcells[("fib", 4)]}, 0.85, quiet=True)
    assert fails == ["sweep x4 taskgraph/chase_lev: missing from candidate "
                     "run"], fails
    # Floor gate: 2.2x passes a 2.0 floor, 1.9x fails it.
    summary = {"taskgraph_speedup_sweep_4t": 2.2,
               "taskgraph_speedup_sweep_8t": 1.9}
    fails = gate_taskgraph_floor(summary, 2.0, "t", quiet=True)
    assert len(fails) == 1 and "sweep_8t" in fails[0], fails
    assert gate_taskgraph_floor(summary, 1.5, "t", quiet=True) == []

    # load_contention round trip, plus its rejects.
    qdoc = {"bench": "queue_contention", "task_counts_identical": True,
            "taskgraph_speedup_sweep_4t": 2.2,
            "taskgraph_speedup_sweep_8t": 2.3,
            "results": [
                {"workload": "sweep", "threads": 4, "scheduler": s,
                 "tasks_per_sec": t}
                for s, t in (("chase_lev", 1.2e6), ("taskgraph", 2.5e6))]}
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as f:
            json.dump(qdoc, f)
        cells, summary = load_contention(path)
        assert cells[("sweep", 4)]["taskgraph"] == 2.5e6
        assert summary["taskgraph_speedup_sweep_8t"] == 2.3
        bad = dict(qdoc, task_counts_identical=False)
        with open(path, "w") as f:
            json.dump(bad, f)
        try:
            load_contention(path)
            raise AssertionError("task-count mismatch accepted")
        except SystemExit:
            pass
    finally:
        os.remove(path)

    # --- numa_scaling ----------------------------------------------------
    ncells = {
        ("fib", "1x8"): 1.0,
        ("fib", "4x64"): 2.0,
        ("nqueens", "1x8"): 1.0,
        ("nqueens", "4x64"): 5.2,
    }
    # Floors: clean pass, including the exact-1.0 single-domain control.
    assert gate_numa_floors(ncells, "nqueens", 1.0, 1.5, "t",
                            quiet=True) == []
    # Hierarchical losing a cell: caught.
    losing = dict(ncells)
    losing[("fib", "4x64")] = 0.9
    fails = gate_numa_floors(losing, "nqueens", 1.0, 1.5, "t", quiet=True)
    assert len(fails) == 1 and "fib @ 4x64" in fails[0], fails
    # Wide-fanout kernel under its higher floor: caught.
    shallow = dict(ncells)
    shallow[("nqueens", "4x64")] = 1.2
    fails = gate_numa_floors(shallow, "nqueens", 1.0, 1.5, "t", quiet=True)
    assert len(fails) == 1 and "wide-fanout" in fails[0], fails
    # Candidate comparison: identical passes, eroded and missing caught.
    assert compare_numa(ncells, dict(ncells), 0.9, quiet=True) == []
    eroded_n = dict(ncells)
    eroded_n[("nqueens", "4x64")] = 2.0
    fails = compare_numa(ncells, eroded_n, 0.9, quiet=True)
    assert len(fails) == 1 and "nqueens @ 4x64" in fails[0], fails
    fails = compare_numa(ncells, {("fib", "1x8"): 1.0}, 0.9, quiet=True)
    assert len(fails) == 3, fails

    # load_numa round trip, plus its rejects.
    ndoc = {"bench": "numa_scaling", "wide_fanout_kernel": "nqueens",
            "results": [
                {"kernel": "nqueens", "machine": m, "ratio": r,
                 "counts_match": True}
                for m, r in (("1x8", 1.0), ("4x64", 5.2))]}
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as f:
            json.dump(ndoc, f)
        cells, wide = load_numa(path)
        assert wide == "nqueens" and cells[("nqueens", "4x64")] == 5.2
        bad = {"bench": "numa_scaling", "wide_fanout_kernel": "nqueens",
               "results": [dict(ndoc["results"][0], counts_match=False)]}
        with open(path, "w") as f:
            json.dump(bad, f)
        try:
            load_numa(path)
            raise AssertionError("count mismatch accepted")
        except SystemExit:
            pass
        bad = dict(ndoc, wide_fanout_kernel="sort")
        with open(path, "w") as f:
            json.dump(bad, f)
        try:
            load_numa(path)
            raise AssertionError("absent wide-fanout kernel accepted")
        except SystemExit:
            pass
    finally:
        os.remove(path)

    # --- ingest ----------------------------------------------------------
    icells = {
        1: {"ratio": 0.66, "events_per_sec": 4.0e5,
            "snapshots_per_sec": 2.0e3},
        8: {"ratio": 0.66, "events_per_sec": 3.5e5,
            "snapshots_per_sec": 1.6e3},
        32: {"ratio": 0.661, "events_per_sec": 3.9e5,
             "snapshots_per_sec": 1.8e3},
    }
    # Ceiling: clean pass at 0.8, every cell caught at 0.5.
    assert gate_ingest_ceiling(icells, 0.8, "t", quiet=True) == []
    fails = gate_ingest_ceiling(icells, 0.5, "t", quiet=True)
    assert len(fails) == 3 and "no longer cheaper" in fails[0], fails
    # Candidate: identical passes; a drifted encoder is caught.
    assert compare_ingest(icells, dict(icells), quiet=True) == []
    drifted = {k: dict(v) for k, v in icells.items()}
    drifted[8]["ratio"] = 0.7
    fails = compare_ingest(icells, drifted, quiet=True)
    assert len(fails) == 1 and "delta encoder changed" in fails[0], fails
    # Missing cell: caught.
    fails = compare_ingest(icells, {1: icells[1]}, quiet=True)
    assert len(fails) == 2, fails
    # Absolute mode: same ratios but halved throughput is caught.
    halved_i = {k: dict(v, events_per_sec=v["events_per_sec"] / 2)
                for k, v in icells.items()}
    assert compare_ingest(icells, halved_i, quiet=True) == []
    fails = compare_ingest(icells, halved_i, absolute=True, quiet=True)
    assert len(fails) == 3 and "events/sec" in fails[0], fails

    # load_ingest round trip, plus its rejects.
    idoc = {"bench": "ingest", "all_totals_exact": True, "results": [
        {"producers": p, "delta_to_rebase_ratio": c["ratio"],
         "events_per_sec": c["events_per_sec"],
         "snapshots_per_sec": c["snapshots_per_sec"],
         "totals_exact": True, "clean_stream": True}
        for p, c in icells.items()]}
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as f:
            json.dump(idoc, f)
        assert load_ingest(path) == icells
        bad = {**idoc, "results": [
            dict(idoc["results"][0], totals_exact=False)]}
        with open(path, "w") as f:
            json.dump(bad, f)
        try:
            load_ingest(path)
            raise AssertionError("lost mass accepted")
        except SystemExit:
            pass
        bad = {**idoc, "all_totals_exact": False}
        with open(path, "w") as f:
            json.dump(bad, f)
        try:
            load_ingest(path)
            raise AssertionError("all_totals_exact=false accepted")
        except SystemExit:
            pass
    finally:
        os.remove(path)

    print("self-test passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--committed",
                        help="committed reference bench JSON")
    parser.add_argument("--candidate",
                        help="freshly produced bench JSON (optional when "
                             "only --taskgraph-floor is being checked)")
    parser.add_argument("--min-ratio", type=float, default=0.85,
                        help="minimum candidate/committed ratio before "
                             "failing (default: 0.85)")
    parser.add_argument("--absolute", action="store_true",
                        help="also gate raw events/sec (same-machine runs "
                             "only; ingest)")
    parser.add_argument("--taskgraph-floor", type=float, default=0.0,
                        help="absolute floor for the queue_contention "
                             "summary taskgraph replay speedups at >=4 "
                             "threads (0 = off)")
    parser.add_argument("--numa-cell-floor", type=float, default=1.0,
                        help="numa_scaling: minimum hierarchical/flat span "
                             "ratio for every (kernel, machine) cell "
                             "(default: 1.0 — hierarchical never loses)")
    parser.add_argument("--numa-wide-floor", type=float, default=1.5,
                        help="numa_scaling: minimum ratio for the wide-"
                             "fanout kernel on the widest machine "
                             "(default: 1.5)")
    parser.add_argument("--ingest-delta-ceiling", type=float, default=0.8,
                        help="ingest: maximum delta/rebase wire-cost ratio "
                             "per producer cell (default: 0.8 — deltas must "
                             "stay cheaper than rebases)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in checks on synthetic data "
                             "and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.committed:
        parser.error("--committed is required (or use --self-test)")

    committed_doc = load_doc(args.committed)
    bench = committed_doc["bench"]
    failures = []

    if bench == "event_hotpath":
        failures += gate_hotpath_ceilings(
            load_hotpath(args.committed, committed_doc), "committed")
        if args.candidate:
            failures += gate_hotpath_ceilings(load_hotpath(args.candidate),
                                              "candidate")
    elif bench == "numa_scaling":
        committed, wide = load_numa(args.committed, committed_doc)
        failures += gate_numa_floors(committed, wide, args.numa_cell_floor,
                                     args.numa_wide_floor, "committed")
        if args.candidate:
            candidate, cand_wide = load_numa(args.candidate)
            failures += compare_numa(committed, candidate, args.min_ratio)
            failures += gate_numa_floors(
                candidate, cand_wide, args.numa_cell_floor * args.min_ratio,
                args.numa_wide_floor * args.min_ratio, "candidate")
    elif bench == "ingest":
        committed = load_ingest(args.committed, committed_doc)
        failures += gate_ingest_ceiling(committed, args.ingest_delta_ceiling,
                                        "committed")
        if args.candidate:
            candidate = load_ingest(args.candidate)
            failures += compare_ingest(committed, candidate, args.absolute,
                                       args.min_ratio)
            failures += gate_ingest_ceiling(candidate,
                                            args.ingest_delta_ceiling,
                                            "candidate")
    else:
        committed, ref_summary = load_contention(args.committed,
                                                 committed_doc)
        if args.candidate:
            candidate, cand_summary = load_contention(args.candidate)
            failures += compare_contention(committed, candidate,
                                           args.min_ratio)
        if args.taskgraph_floor > 0:
            failures += gate_taskgraph_floor(ref_summary,
                                             args.taskgraph_floor,
                                             "committed")
            if args.candidate:
                failures += gate_taskgraph_floor(cand_summary,
                                                 args.taskgraph_floor *
                                                 args.min_ratio,
                                                 "candidate")

    if failures:
        print("\nbench regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nbench regression gate passed ({bench}, "
          f"min ratio {args.min_ratio:.2f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
