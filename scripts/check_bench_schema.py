#!/usr/bin/env python3
"""Validates BENCH_<name>.json run records (schema_version 1).

The bench harness (bench/bench_util.h WriteRunRecord) emits one run
record per bench binary; this script is the schema contract both for the
committed trajectory artifacts at the repo root and for the fresh records
CI's bench-smoke leg produces. Exit 0 = every file valid.

Usage:
  check_bench_schema.py BENCH_pipeline.json [more.json ...]
  check_bench_schema.py --query-log ccdb_query_log.jsonl   # JSONL records

Schema (DESIGN.md §12):
  top level: schema_version == 1, bench (str), threads (int >= 1),
             rows (list)
  row:       cell (str), threads (int), ms (number or null), and either
               plain cell:   qe_cache_hit_rate (number-or-null),
                             formula_nodes, poly_nodes (ints)
               latency cell: samples (int >= 1), p50_ms, p90_ms, p99_ms
                             (numbers, p50 <= p90 <= p99)
"""

import json
import sys


def fail(path, msg):
    print(f"{path}: {msg}", file=sys.stderr)
    return 1


def check_row(path, i, row):
    errors = 0
    where = f"rows[{i}]"
    for key, typ in (("cell", str), ("threads", int)):
        if not isinstance(row.get(key), typ):
            errors += fail(path, f"{where}: missing or mistyped '{key}'")
    if row.get("ms") is not None and not isinstance(row["ms"], (int, float)):
        errors += fail(path, f"{where}: 'ms' must be a number or null")
    if "samples" in row:  # latency cell with percentile columns
        if not isinstance(row["samples"], int) or row["samples"] < 1:
            errors += fail(path, f"{where}: 'samples' must be an int >= 1")
        ps = []
        for key in ("p50_ms", "p90_ms", "p99_ms"):
            if not isinstance(row.get(key), (int, float)):
                errors += fail(path, f"{where}: missing percentile '{key}'")
            else:
                ps.append(row[key])
        if len(ps) == 3 and not (ps[0] <= ps[1] <= ps[2]):
            errors += fail(path, f"{where}: percentiles not monotone: {ps}")
    else:
        if "qe_cache_hit_rate" not in row:
            errors += fail(path, f"{where}: missing 'qe_cache_hit_rate'")
        for key in ("formula_nodes", "poly_nodes"):
            if not isinstance(row.get(key), int):
                errors += fail(path, f"{where}: missing or mistyped '{key}'")
    return errors


def check_bench(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(path, f"unreadable or invalid JSON: {e}")
    errors = 0
    if doc.get("schema_version") != 1:
        errors += fail(path, f"schema_version must be 1, "
                             f"got {doc.get('schema_version')!r}")
    if not isinstance(doc.get("bench"), str) or not doc["bench"]:
        errors += fail(path, "missing or empty 'bench'")
    if not isinstance(doc.get("threads"), int) or doc["threads"] < 1:
        errors += fail(path, "'threads' must be an int >= 1")
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        return errors + fail(path, "'rows' must be a non-empty list")
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            errors += fail(path, f"rows[{i}] is not an object")
            continue
        errors += check_row(path, i, row)
    if errors == 0:
        print(f"{path}: ok ({len(rows)} row(s), bench={doc['bench']}, "
              f"threads={doc['threads']})")
    return errors


# Required keys of every query-log record (base/query_log.h, schema 3).
QUERY_LOG_KEYS = ("schema_version", "ts_us", "session_id", "config", "kind",
                  "text_hash", "text_len", "catalog_version", "ok",
                  "cache_hit", "elapsed_seconds", "read_set", "invalidation")


def check_read_set(path, lineno, rec):
    """Schema >= 2: 'read_set' is the sorted relation names the query reads;
    'invalidation' is the cache scope a mutation must hit to invalidate the
    answer ('relations:[...]' matching the read_set, or 'global' when the
    read-set is unknown, e.g. unparsable text)."""
    errors = 0
    rs = rec.get("read_set")
    if not (isinstance(rs, list)
            and all(isinstance(name, str) for name in rs)):
        return fail(path, f"line {lineno}: 'read_set' must be a list of str")
    if rs != sorted(rs):
        errors += fail(path, f"line {lineno}: 'read_set' must be sorted")
    inv = rec.get("invalidation")
    if inv == "global":
        return errors
    if not isinstance(inv, str) or not inv.startswith("relations:["):
        return errors + fail(
            path, f"line {lineno}: 'invalidation' must be 'global' or "
                  f"'relations:[...]', got {inv!r}")
    if inv != "relations:[" + ",".join(rs) + "]":
        errors += fail(path, f"line {lineno}: 'invalidation' scope does not "
                             f"match 'read_set'")
    return errors


def check_query_log(path):
    errors = 0
    records = 0
    try:
        with open(path) as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as e:
                    errors += fail(path, f"line {lineno}: invalid JSON: {e}")
                    continue
                records += 1
                for key in QUERY_LOG_KEYS:
                    if key not in rec:
                        errors += fail(path,
                                       f"line {lineno}: missing '{key}'")
                if rec.get("schema_version") != 3:
                    errors += fail(path, f"line {lineno}: schema_version "
                                         f"must be 3")
                errors += check_read_set(path, lineno, rec)
                sid = rec.get("session_id")
                if not isinstance(sid, int) or sid < 0:
                    errors += fail(path, f"line {lineno}: session_id must be "
                                         f"a non-negative int")
                cfg = rec.get("config", "")
                if not (isinstance(cfg, str) and len(cfg) == 16
                        and all(c in "0123456789abcdef" for c in cfg)):
                    errors += fail(path, f"line {lineno}: config must be "
                                         f"16 lowercase hex digits")
                h = rec.get("text_hash", "")
                if not (isinstance(h, str) and len(h) == 16
                        and all(c in "0123456789abcdef" for c in h)):
                    errors += fail(path, f"line {lineno}: text_hash must be "
                                         f"16 lowercase hex digits")
                if rec.get("kind") not in ("query", "governed",
                                           "explain_analyze"):
                    errors += fail(path, f"line {lineno}: unknown kind "
                                         f"{rec.get('kind')!r}")
    except OSError as e:
        return fail(path, f"unreadable: {e}")
    if records == 0:
        errors += fail(path, "no records")
    if errors == 0:
        print(f"{path}: ok ({records} record(s))")
    return errors


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    errors = 0
    query_log_mode = False
    for arg in argv[1:]:
        if arg == "--query-log":
            query_log_mode = True
            continue
        if query_log_mode:
            errors += check_query_log(arg)
        else:
            errors += check_bench(arg)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
