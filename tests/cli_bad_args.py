#!/usr/bin/env python3
"""Every bad command-line argument must exit 2 with a typed message.

    cli_bad_args.py BINARY...

For every BINARY (taskprof_cli, taskprofd, fuzz_schedules and benches),
reads the generated usage text of each of its commands
(`BINARY [COMMAND] --help`), so no option row escapes, and feeds every
value row the bad values of its kind: empty, non-numeric, trailing
garbage, the wrong sign, overflow, just outside the printed range, an
unknown choice, and lists with a bad or empty entry.  Flags get a value,
and each command gets an unknown option.  Then it runs the named cases
below: command lines that aborted, hung or were silently accepted before
the option tables.  Each run must exit 2 within 10 s, without a signal,
with "--name:" on stderr.
"""

import os
import re
import subprocess
import sys
import tempfile

TIMEOUT_S = 10
ROW = re.compile(r"^  (--[a-z0-9-]+)(?:=(\S+))?(?:  (.*))?$")
INTERVAL = re.compile(r"in ([\[(])(-?[\d.]+), (-?[\d.]+)\]")
LOWER = re.compile(r"(>=|>) (-?[\d.]+)")
UPPER = re.compile(r"<= (-?[\d.]+)")

# Arguments that make each command otherwise valid and quick, so a bad
# value that slipped through would run (and fail the check) rather than
# trip over something else.  {tmp} is a temporary directory.
CONTEXT = {
    ("taskprof_cli", ""): ["--kernel=fib", "--size=test", "--threads=2"],
    ("taskprof_cli", "load"): ["{tmp}/none.tpsnap"],
    ("taskprof_cli", "merge"): ["--out={tmp}/m.tpsnap", "{tmp}/none.tpsnap"],
    ("taskprof_cli", "diagnose"): ["--kernel=fib", "--size=test",
                                   "--threads=2"],
    ("taskprof_cli", "whatif"): ["--kernel=fib", "--size=test",
                                 "--threads=2"],
    ("taskprof_cli", "whatif-validate"): ["--kernels=fib", "--threads=2",
                                          "--optimize=50"],
    ("taskprofd", "serve"): ["--socket={tmp}/d.sock", "--max-seconds=1"],
    ("taskprofd", "report"): ["--socket={tmp}/none.sock"],
    ("taskprofd", "export"): ["--socket={tmp}/none.sock",
                              "--out={tmp}/e.tpsnap"],
    ("fuzz_schedules", ""): ["--seeds=1", "--threads=1", "--engine=sim"],
    ("bench_table1_granularity", ""): ["--quick"],
    ("bench_event_hotpath", ""): ["--quick", "--reps=1",
                                  "--out={tmp}/h.json"],
}

# (binary, command line, option the error must name)
NAMED = [
    # Aborted (exit 134) or misbehaved before: the defects that motivated
    # the option tables.
    ("taskprof_cli", "--kernel=fib --size=test --threads=abc", "--threads"),
    ("taskprof_cli", "--kernel=fib --size=test --threads=0", "--threads"),
    ("taskprof_cli", "--kernel=fib --size=test --threads=-1", "--threads"),
    ("taskprof_cli", "--kernel=fib --size=test --threads=99999999999",
     "--threads"),
    ("taskprof_cli", "--kernel=fib --size=test --threads=2x", "--threads"),
    ("taskprof_cli", "--kernel=fib --size=test --repeat=abc", "--repeat"),
    ("taskprof_cli", "--kernel=fib --size=test --seed=abc", "--seed"),
    ("taskprof_cli", "--kernel=fib --size=test --snapshot-every=abc",
     "--snapshot-every"),
    ("taskprof_cli", "--kernel=fib --size=test --snapshot-every=-1",
     "--snapshot-every"),
    ("taskprof_cli", "--kernel=fib --size=test --engine=real --threads=5000",
     "--threads"),
    ("taskprof_cli", "--kernel=fib --size=test --report=bogus", "--report"),
    # Ran before its scheduler was deleted: a removed choice is an
    # unknown one.
    ("taskprof_cli", "--kernel=fib --size=test --engine=real "
     "--scheduler=mutex_deque", "--scheduler"),
    ("taskprof_cli", "diagnose --kernel=fib --size=test --threads=abc",
     "--threads"),
    ("taskprof_cli", "whatif --kernel=fib --size=test --threads-list=2,0,-3",
     "--threads-list"),
    ("taskprof_cli", "whatif-validate --kernels=fib --tolerance=abc",
     "--tolerance"),
    ("taskprof_cli", "whatif-validate --kernels=fib --tolerance=-1",
     "--tolerance"),
    ("taskprof_cli", "whatif-validate --kernels=fib --threads=0", "--threads"),
    # Exited 0 and wrote nothing: an uninstrumented run records no
    # profile, so every output that reads one is refused.
    ("taskprof_cli", "--kernel=fib --size=test --uninstrumented "
     "--report-json={tmp}/u.json", "--report-json"),
    ("taskprof_cli", "--kernel=fib --size=test --uninstrumented "
     "--snapshot-out={tmp}/u.tpsnap", "--snapshot-out"),
    ("taskprof_cli", "--kernel=fib --size=test --uninstrumented "
     "--snapshot-every=10", "--snapshot-every"),
    ("taskprof_cli", "--kernel=fib --size=test --uninstrumented "
     "--ingest={tmp}/none.sock", "--ingest"),
    ("taskprof_cli", "--kernel=fib --size=test --uninstrumented "
     "--report=findings", "--report"),
    ("taskprofd", "serve --socket={tmp}/d.sock --shards=abc", "--shards"),
    ("taskprofd", "serve --socket={tmp}/d.sock --shards=0", "--shards"),
    ("taskprofd", "serve --socket={tmp}/d.sock --shards=-3", "--shards"),
    ("taskprofd", "report --socket={tmp}/d.sock --out={tmp}/r", "--out"),
    ("taskprofd", "export --socket={tmp}/d.sock --out={tmp}/e --kind=json",
     "--kind"),
    ("fuzz_schedules", "--threads 99999999999", "--threads"),
    ("fuzz_schedules", "--seeds 5x", "--seeds"),
    ("fuzz_schedules", "--kernels bogus", "--kernels"),
    ("bench_table1_granularity", "--seed=abc", "--seed"),
    ("bench_event_hotpath", "--quick --reps=-4 --out={tmp}/h.json", "--reps"),
]


def run(binary, words, tmp):
    command = [binary] + [w.replace("{tmp}", tmp) for w in words]
    try:
        return subprocess.run(command, capture_output=True, text=True,
                              timeout=TIMEOUT_S, cwd=tmp)
    except subprocess.TimeoutExpired:
        return None


def expect_usage_error(binary, words, option, tmp):
    """Returns a failure message, or None when the run exits 2 naming
    `option`."""
    shown = " ".join([os.path.basename(binary)] + words)
    result = run(binary, words, tmp)
    if result is None:
        return f"{shown}: still running after {TIMEOUT_S} s"
    if result.returncode != 2 or f"{option}:" not in result.stderr:
        return (f"{shown}: exit {result.returncode}, stderr "
                f"{result.stderr.strip()[-200:]!r}; want exit 2 and "
                f"'{option}:'")
    return None


def commands_of(binary, tmp):
    """The binary's commands ("" = the default one), from its --help."""
    text = run(binary, ["--help"], tmp).stdout
    listed = []
    if "\ncommands (" in text:
        for line in text.split("\ncommands (", 1)[1].splitlines()[1:]:
            if line.startswith("  "):
                listed.append(line.split()[1])
    default = [] if text.startswith(
        f"usage: {os.path.basename(binary)} COMMAND") else [""]
    return default + listed


def rows_of(binary, command, tmp):
    words = [command, "--help"] if command else ["--help"]
    result = run(binary, words, tmp)
    assert result is not None and result.returncode == 0, words
    rows = []
    for line in result.stdout.splitlines():
        match = ROW.match(line)
        if match and match.group(1) != "--help":
            rows.append((match.group(1), match.group(2), match.group(3) or ""))
    return rows


def bounds(notes):
    """(low, high, low_open) from a row's printed range; None = unbounded."""
    match = INTERVAL.search(notes)
    if match:
        return float(match[2]), float(match[3]), match[1] == "("
    match = LOWER.search(notes)
    if match:
        return float(match[2]), None, match[1] == ">"
    match = UPPER.search(notes)
    return None, (float(match[1]) if match else None), False


def number(value, integral):
    return str(int(value)) if integral else repr(value)


def bad_numbers(kind, notes):
    """Bad scalar values of a numeric kind, and one valid value."""
    integral = kind != "REAL"
    low, high, low_open = bounds(notes)
    bad = ["abc", "2x", " 4", "+4"]
    if kind == "REAL":
        bad += ["nan", "inf"]
    elif kind == "INT":
        bad += ["99999999999", "18446744073709551616", "0x10"]
    else:
        bad += ["18446744073709551616", "1.5"]
    if kind == "U64" or (low is not None and low >= 0):
        bad.append("-1")
    if low is not None:
        bad.append(number(low if low_open else low - 1, integral))
    if high is not None:
        bad.append(number(high + 1, integral))
    valid = high if high is not None else (low + 1 if low is not None else 1)
    return bad, number(valid, integral)


def bad_values(form, notes):
    """Bad values for a row of usage form `form` (never the empty list)."""
    if form in ("INT", "U64", "REAL"):
        return [""] + bad_numbers(form, notes)[0]
    if form in ("INT,...", "REAL,..."):
        element = form[:-4]
        bad, valid = bad_numbers(element, notes)
        return (["", ",", f"{valid},", f",{valid}", f"{valid},,{valid}"] +
                [f"{valid},{b}" for b in bad])
    if form.endswith(",..."):
        first = form[:-4].split("|")[0]
        return ["", ",", f"{first},", f"{first},,{first}", f"{first},bogus",
                first.upper()]
    if "|" in form:
        return ["", "bogus", form.split("|")[0].upper()]
    return [""]


def main():
    binaries = {os.path.basename(path): os.path.abspath(path)
                for path in sys.argv[1:]}
    if not binaries:
        sys.exit(__doc__)
    failures = []
    checked = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, binary in binaries.items():
            for command in commands_of(binary, tmp):
                words = ([command] if command else []) + CONTEXT.get(
                    (name, command), [])
                cases = [(["--bogus-option"], "--bogus-option")]
                for option, form, notes in rows_of(binary, command, tmp):
                    if form is None:
                        cases.append(([option + "=1"], option))
                        continue
                    cases += [([f"{option}={value}"], option)
                              for value in bad_values(form, notes)]
                    # The space-separated form, and a value missing at the
                    # end of argv.
                    cases += [([option, ""], option), ([option], option)]
                for case, option in cases:
                    failure = expect_usage_error(binary, words + case, option,
                                                 tmp)
                    if failure:
                        failures.append(failure)
                    checked += 1
        for name, line, option in NAMED:
            if name not in binaries:
                print(f"skipped (no {name} given): {line}")
                continue
            failure = expect_usage_error(binaries[name], line.split(), option,
                                         tmp)
            if failure:
                failures.append(failure)
            checked += 1
    for failure in failures:
        print(failure)
    print(f"{checked} bad command lines over {len(binaries)} binaries: "
          f"{len(failures)} failures")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
