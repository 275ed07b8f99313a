#!/usr/bin/env python3
"""Corrupt trace files must fail the trace-reading CLI commands cleanly.

Corrupt means bytes the reader rejects (tests/corpus/trace) or bytes that
decode into an impossible history the replay rejects
(tests/corpus/trace_replay); both exit 1 with a typed error.

    cli_trace_errors.py TASKPROF_CLI TRACE_FILE CORPUS_DIR

Flips one payload bit of TRACE_FILE, a valid .tptrc, in a copy, then runs
--analyze-trace, diagnose --trace-file and whatif --trace-file on that
copy and on every bad_<errc>_*.tptrc file in CORPUS_DIR.  Each run must
exit 1 within a few seconds and name the expected error class: bad-crc
for the copy, <errc> for a corpus file.  An abort (exit 134), a segfault
(139) or a hang fails the check.
"""

import os
import subprocess
import sys
import tempfile

TIMEOUT_S = 10


def check(cli, path, errc):
    failures = []
    for command in ([cli, f"--analyze-trace={path}"],
                    [cli, "diagnose", f"--trace-file={path}"],
                    [cli, "whatif", f"--trace-file={path}"]):
        shown = " ".join(command)
        try:
            run = subprocess.run(command, capture_output=True, text=True,
                                 timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            failures.append(f"{shown}: still running after {TIMEOUT_S} s")
            continue
        if run.returncode != 1 or f": {errc}: " not in run.stderr:
            failures.append(f"{shown}: exit {run.returncode}, stderr "
                            f"{run.stderr.strip()!r}; want exit 1 and {errc}")
    return failures


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    cli, trace, corpus = sys.argv[1:]
    with open(trace, "rb") as f:
        data = bytearray(f.read())
    data[40] ^= 0x10  # inside the events payload, which starts at byte 32
    failures = []
    checked = 0
    with tempfile.TemporaryDirectory() as scratch:
        flipped = os.path.join(scratch, "flipped.tptrc")
        with open(flipped, "wb") as f:
            f.write(data)
        failures += check(cli, flipped, "bad-crc")
        checked += 1
    for name in sorted(os.listdir(corpus)):
        if name.startswith("bad_") and name.endswith(".tptrc"):
            errc = name[len("bad_"):].split("_")[0]
            failures += check(cli, os.path.join(corpus, name), errc)
            checked += 1
    for failure in failures:
        print(failure)
    print(f"{checked} corrupt trace files x 3 commands: "
          f"{len(failures)} failures")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
