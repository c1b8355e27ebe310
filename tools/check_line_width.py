#!/usr/bin/env python3
"""Fails on any C++ source line wider than .clang-format's ColumnLimit.

Usage: check_line_width.py <repo root> <dir> [<dir> ...]

Scans the .cpp and .h files under each <dir> (relative to <repo root>)
and prints every line over the limit as path:line: width. Widths count
characters, not bytes, so a "§" or "×" in a comment is one column.
Exits 1 when any line is over, 2 on a usage error. This runs in ctest
so the width rule that CI's clang-format step enforces is caught
without clang-format installed.
"""

import os
import re
import sys


def column_limit(root):
    with open(os.path.join(root, ".clang-format"), encoding="utf-8") as fh:
        match = re.search(r"^ColumnLimit:\s*(\d+)\s*$", fh.read(), re.M)
    if not match:
        sys.exit("no ColumnLimit in .clang-format")
    return int(match.group(1))


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    root = argv[1]
    limit = column_limit(root)
    over = 0
    for top in argv[2:]:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cpp", ".h")):
                    continue
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as fh:
                    for number, line in enumerate(fh, 1):
                        width = len(line.rstrip("\n"))
                        if width > limit:
                            over += 1
                            print(f"{os.path.relpath(path, root)}:{number}: "
                                  f"{width} > {limit}")
    if over:
        print(f"{over} line(s) over {limit} columns", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
