#!/usr/bin/env python3
"""A well-formed trace file must load in every trace-reading CLI command.

    cli_trace_ok.py TASKPROF_CLI TRACE_FILE TEXT

Runs --analyze-trace, diagnose --trace-file and whatif --trace-file on
TRACE_FILE.  Each run must exit 0 within a few seconds and print TEXT on
stdout.  An abort (exit 134), a segfault (139) or a hang fails the check.
"""

import subprocess
import sys

TIMEOUT_S = 10


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    cli, trace, text = sys.argv[1:]
    failures = []
    for command in ([cli, f"--analyze-trace={trace}"],
                    [cli, "diagnose", f"--trace-file={trace}"],
                    [cli, "whatif", f"--trace-file={trace}"]):
        shown = " ".join(command)
        try:
            run = subprocess.run(command, capture_output=True, text=True,
                                 timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            failures.append(f"{shown}: still running after {TIMEOUT_S} s")
            continue
        if run.returncode != 0 or text not in run.stdout:
            failures.append(f"{shown}: exit {run.returncode}, stderr "
                            f"{run.stderr.strip()[-200:]!r}; want exit 0 "
                            f"and {text!r} on stdout")
    for failure in failures:
        print(failure)
    print(f"{trace} x 3 commands: {len(failures)} failures")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
