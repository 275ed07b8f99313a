#!/usr/bin/env python3
"""The run command prints the diagnose command's verdict, byte for byte.

    cli_one_verdict.py TASKPROF_CLI

For every BOTS kernel at 2, 4 and 8 sim workers (size test), runs

    TASKPROF_CLI --kernel=K --size=test --threads=T --trace --telemetry
                 --report=findings
    TASKPROF_CLI diagnose --kernel=K --size=test --threads=T

Both exit 0, and the run command's diagnosis block, from its
"Diagnosis: " header to the end of stdout, must equal diagnose's stdout:
both record the same profile, trace and telemetry and hand them to the
same detectors, so every entry point gives the same verdict.
"""

import subprocess
import sys

TIMEOUT_S = 60
KERNELS = ["alignment", "fft", "fib", "floorplan", "health", "nqueens",
           "sort", "sparselu", "strassen"]
HEADER = "Diagnosis: "


def stdout_of(command):
    """stdout of a run that must exit 0, or None after reporting why not."""
    try:
        run = subprocess.run(command, capture_output=True, text=True,
                             timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{' '.join(command)}: still running after {TIMEOUT_S} s")
        return None
    if run.returncode != 0:
        print(f"{' '.join(command)}: exit {run.returncode}, stderr "
              f"{run.stderr.strip()[-200:]!r}")
        return None
    return run.stdout


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    cli = sys.argv[1]
    failures = 0
    for kernel in KERNELS:
        for threads in (2, 4, 8):
            live = [f"--kernel={kernel}", "--size=test",
                    f"--threads={threads}"]
            run = stdout_of([cli] + live + ["--trace", "--telemetry",
                                            "--report=findings"])
            diagnose = stdout_of([cli, "diagnose"] + live)
            if run is None or diagnose is None:
                failures += 1
                continue
            start = run.find(HEADER)
            block = run[start:] if start >= 0 else ""
            if block != diagnose:
                failures += 1
                print(f"{kernel} at {threads} threads: the run command's "
                      f"diagnosis block\n{block}differs from diagnose's "
                      f"output\n{diagnose}")
    print(f"{len(KERNELS) * 3} runs: {failures} verdicts differ")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
