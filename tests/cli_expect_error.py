#!/usr/bin/env python3
"""A command must fail cleanly with one typed error.

    cli_expect_error.py ERRC COMMAND [ARG...]

Runs COMMAND and wants exit 1 within a few seconds, with ": ERRC: " on
stderr.  A success, an abort (exit 134), a segfault (139) or a hang
fails the check.
"""

import subprocess
import sys

TIMEOUT_S = 10


def main():
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    errc, command = sys.argv[1], sys.argv[2:]
    shown = " ".join(command)
    try:
        run = subprocess.run(command, capture_output=True, text=True,
                             timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"{shown}: still running after {TIMEOUT_S} s")
    if run.returncode != 1 or f": {errc}: " not in run.stderr:
        sys.exit(f"{shown}: exit {run.returncode}, stderr "
                 f"{run.stderr.strip()[-200:]!r}; want exit 1 and {errc}")
    print(f"{shown}: exit 1, {errc}")


if __name__ == "__main__":
    main()
