#!/usr/bin/env python3
"""Applies ci.yml's line-coverage gates to a --coverage build, without gcovr.

Usage: check_coverage.py <build dir> [--list-tests]

Runs `gcov --json-format --stdout` over every .gcda file under <build
dir>, merges the per-translation-unit reports (a line is covered when
any unit ran it, so a header's lines are pooled over every unit that
includes it), and checks each gate that .github/workflows/ci.yml
declares. A gate is a workflow step whose `run` calls gcovr: its
`--filter` regexes, matched from the start of each source path relative
to the repository root as gcovr's relative filters are, pick the files,
and its `--fail-under-line` is the threshold. So the gate list and
thresholds live in ci.yml alone.

Prints one line per gate (covered/total lines, percent, threshold,
verdict) and its per-file split. Exits 1 when a gate is under its
threshold or matches no file, 2 on a usage error.
--list-tests prints the coverage job's test binaries (its `cov_tests`
list) and exits, so a local run builds and runs the same set:

  cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug \\
        -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage
  tests=$(tools/check_coverage.py build-cov --list-tests)
  cmake --build build-cov --target $tests
  for t in $tests; do build-cov/tests/$t; done
  tools/check_coverage.py build-cov

The count can differ from gcovr's by a few lines: gcovr also drops
lines it deems non-code (a lone brace, say) and honours exclusion
markers, which this tool does not.
"""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKFLOW = os.path.join(ROOT, ".github", "workflows", "ci.yml")


def workflow_steps(text):
    """Yields (name, body) for each `- name:` step of the workflow."""
    starts = list(re.finditer(r"^\s*- name:\s*(.+?)\s*$", text, re.M))
    for i, match in enumerate(starts):
        end = starts[i + 1].start() if i + 1 < len(starts) else len(text)
        yield match.group(1), text[match.end():end]


def gates(text):
    """Returns [(step name, [filter regex], threshold)] for gcovr steps."""
    found = []
    for name, body in workflow_steps(text):
        joined = re.sub(r"\\\n", " ", body)
        command = re.search(r"^\s*gcovr\b(.*)$", joined, re.M)
        if not command:
            continue
        args = shlex.split(command.group(1))
        filters = [v for k, v in zip(args, args[1:]) if k == "--filter"]
        under = [v for k, v in zip(args, args[1:])
                 if k == "--fail-under-line"]
        if not filters or len(under) != 1:
            sys.exit(f"gate '{name}': expected --filter and one "
                     "--fail-under-line")
        found.append((name, filters, float(under[0])))
    return found


def coverage_tests(text):
    match = re.search(r'cov_tests="([^"]*)"', text)
    if not match:
        sys.exit("no cov_tests list in the workflow")
    return match.group(1).replace("\\", " ").split()


def gcov_reports(build_dir):
    """Yields every JSON report gcov writes for the .gcda files."""
    for dirpath, dirnames, filenames in os.walk(build_dir):
        dirnames.sort()
        gcdas = sorted(f for f in filenames if f.endswith(".gcda"))
        if not gcdas:
            continue
        out = subprocess.run(
            ["gcov", "--json-format", "--stdout", *gcdas],
            cwd=dirpath, check=True, capture_output=True, text=True).stdout
        # One JSON document per line, one per .gcda.
        for line in out.splitlines():
            if line.strip():
                yield json.loads(line)


def merge(build_dir):
    """Returns {repo-relative path: {line: covered}} over all reports."""
    lines = {}
    for report in gcov_reports(build_dir):
        base = report.get("current_working_directory", "")
        for entry in report["files"]:
            path = os.path.normpath(os.path.join(base, entry["file"]))
            rel = os.path.relpath(path, ROOT)
            if rel.startswith(".."):
                continue
            per_file = lines.setdefault(rel.replace(os.sep, "/"), {})
            for line in entry["lines"]:
                number = line["line_number"]
                per_file[number] = per_file.get(number, False) or \
                    line["count"] > 0
    return lines


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.strip().splitlines()[0])
    parser.add_argument("build_dir")
    parser.add_argument("--list-tests", action="store_true")
    args = parser.parse_args(argv[1:])
    with open(WORKFLOW, encoding="utf-8") as fh:
        text = fh.read()
    if args.list_tests:
        print(" ".join(coverage_tests(text)))
        return 0
    if not os.path.isdir(args.build_dir):
        print(f"no build directory {args.build_dir}", file=sys.stderr)
        return 2

    lines = merge(args.build_dir)
    failed = 0
    for name, filters, threshold in gates(text):
        patterns = [re.compile(f) for f in filters]
        files = sorted(p for p in lines
                       if any(pat.match(p) for pat in patterns))
        covered = sum(sum(lines[p].values()) for p in files)
        total = sum(len(lines[p]) for p in files)
        percent = 100.0 * covered / total if total else 0.0
        ok = total > 0 and percent >= threshold
        failed += not ok
        verdict = "ok" if ok else ("FAIL (no file)" if not total else "FAIL")
        print(f"{name}: {covered}/{total} lines, {percent:.1f}% "
              f"(gate {threshold:g}%) {verdict}")
        for p in files:
            print(f"  {p}: {sum(lines[p].values())}/{len(lines[p])}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
