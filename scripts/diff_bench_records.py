#!/usr/bin/env python3
"""Diffs a fresh BENCH_<name>.json run record against the committed one.

A run record's timing columns move from run to run, but its work counters
do not: an ungoverned run at the same thread count reproduces every row's
qe_cache_hit_rate, formula_nodes and poly_nodes exactly. A committed record
that no longer matches a fresh run is stale; this script catches that.

Usage:
  diff_bench_records.py FRESH COMMITTED

Exit 0 when both records list the same cells in the same order and every
row agrees on the compared columns; exit 1 with one line per difference
otherwise. Timing columns (ms, p50_ms, p90_ms, p99_ms, samples) are
ignored. Compare only ungoverned runs: a governor bypasses the memo
caches, so a governed run reads different hit rates and node counts.
"""

import json
import sys

COMPARED = ("qe_cache_hit_rate", "formula_nodes", "poly_nodes")


def load_rows(path):
    with open(path) as f:
        return json.load(f)["rows"]


def diff(fresh, committed):
    """One line per difference between two lists of rows."""
    fresh_cells = [row["cell"] for row in fresh]
    committed_cells = [row["cell"] for row in committed]
    if fresh_cells != committed_cells:
        return [f"cell lists differ: fresh {fresh_cells} vs committed "
                f"{committed_cells}"]
    problems = []
    for new, old in zip(fresh, committed):
        for key in COMPARED:
            a, b = new.get(key, "absent"), old.get(key, "absent")
            if a != b:
                problems.append(
                    f"{new['cell']}: {key} fresh {a!r} vs committed {b!r}")
    return problems


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    fresh_path, committed_path = argv[1], argv[2]
    try:
        committed = load_rows(committed_path)
        problems = diff(load_rows(fresh_path), committed)
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"{fresh_path} vs {committed_path}: unreadable record: {e!r}",
              file=sys.stderr)
        return 1
    for problem in problems:
        print(f"{committed_path}: {problem}", file=sys.stderr)
    if problems:
        print(f"{committed_path} is stale: re-record it from a fresh "
              f"ungoverned run", file=sys.stderr)
        return 1
    print(f"{fresh_path} matches {committed_path} ({len(committed)} row(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
