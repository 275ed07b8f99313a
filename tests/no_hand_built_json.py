#!/usr/bin/env python3
"""JSON is built in one place: src/common/json.{hpp,cpp}.

    no_hand_built_json.py SOURCE_ROOT

Scans every .cpp and .hpp under SOURCE_ROOT's src/, examples/ and bench/
and fails, naming file:line, on a call of append_json_string( or
append_json_number(, or on a string literal holding an escaped JSON key
such as "\\"name\\": ".  Only the writer itself may contain either; every
other JSON output goes through its JsonWriter, so escaping, number
formatting and layout cannot drift apart again.
"""

import os
import re
import sys

SCANNED_DIRS = ("src", "examples", "bench")
WRITER = {os.path.join("src", "common", "json.hpp"),
          os.path.join("src", "common", "json.cpp")}
PATTERNS = (
    re.compile(r"\bappend_json_(?:string|number)\("),
    re.compile(r'\\"[A-Za-z_][A-Za-z0-9_ ]*\\": '),
)


def sources(root):
    for top in SCANNED_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp")):
                    path = os.path.join(dirpath, name)
                    yield path, os.path.relpath(path, root)


def main(argv):
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    scanned = 0
    hits = []
    for path, rel in sources(argv[1]):
        scanned += 1
        if rel in WRITER:
            continue
        with open(path, encoding="utf-8", errors="replace") as source:
            for number, line in enumerate(source, 1):
                if any(pattern.search(line) for pattern in PATTERNS):
                    hits.append(f"{rel}:{number}: {line.strip()}")
    if scanned == 0:
        print(f"FAIL: no .cpp/.hpp files under {argv[1]}")
        return 1
    for hit in hits:
        print(hit)
    if hits:
        print(f"FAIL: {len(hits)} line(s) build JSON by hand; write it "
              "through JsonWriter (src/common/json.hpp)")
        return 1
    print(f"ok: {scanned} files scanned, JSON is built only in "
          "src/common/json.*")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
