#!/usr/bin/env python3
"""An output the disk cannot take must fail the run.

    cli_write_error.py BINARY ARG...

Runs BINARY ARG... with one output pointed where it cannot be written:
at /dev/full, where every write fails with ENOSPC, or into a directory
that does not exist.  The run must exit 1 and must not claim that the
file was written.  Exits 77 (skipped) when an argument names /dev/full
and this system has none.
"""

import os
import subprocess
import sys

TIMEOUT_S = 60


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    needs_dev_full = any("/dev/full" in arg for arg in sys.argv[2:])
    if needs_dev_full and not os.path.exists("/dev/full"):
        print("skipped: this system has no /dev/full")
        sys.exit(77)
    command = sys.argv[1:]
    run = subprocess.run(command, capture_output=True, text=True,
                         timeout=TIMEOUT_S)
    output = run.stdout + run.stderr
    if run.returncode != 1 or "written to" in output:
        print(f"{' '.join(command)}: exit {run.returncode}; want exit 1 and "
              f"no 'written to' line\n{output[-2000:]}")
        sys.exit(1)
    print(f"exit 1: {run.stderr.strip()}")


if __name__ == "__main__":
    main()
