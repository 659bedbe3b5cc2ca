#!/usr/bin/env python3
"""Diff two bench JSON reports (bench/common.hpp JsonReport schema).

Usage:
  bench_compare.py BASELINE.json CURRENT.json
  bench_compare.py --self-test

Rows are matched by their configuration fields (task, kernel, broadphase,
backend, aircraft, ...) — everything except the measurement fields. Per
matched row the outcome digest — the FNV-1a digest over the task's
outcome counters — is deterministic across hosts, kernels, broadphases,
and shard configurations, so ANY mismatch means the two builds computed
different ATM answers: hard failure (exit 1). Same for a baseline row the
current report no longer produces, and for reports from different benches
or scenarios.

Wall time is not compared: the reports CI feeds in are single-repetition
600-aircraft smoke runs, whose wall_ms moves by more than half between
two runs of one build on a shared machine. Performance is judged with
bench/e2e (BENCHMARK.json), over repeated runs.

CI compares each leg's fresh BENCH_*.json against the checked-in
bench/baselines/ snapshot; regenerate a baseline with
`ATM_BENCH_SMOKE=1 build/bench/bench_<name> --json bench/baselines/BENCH_<name>.json`
whenever an outcome legitimately changes (and say why in the commit).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

# Per-row measurement fields: everything else identifies the row.
# (speedup is a wall-time ratio, lanes_masked depends on host AVX2
# support; conflict_lanes and the digests are outcomes and DO identify.)
MEASUREMENT_FIELDS = {"wall_ms", "modeled_ms", "digest", "lanes_masked",
                      "speedup"}

# Params that describe the machine/run rather than the workload, ignored
# when checking that two reports ran the same configuration.
VOLATILE_PARAMS = {"avx2_available"}


def row_key(row: dict) -> tuple:
    return tuple(sorted((k, v) for k, v in row.items()
                        if k not in MEASUREMENT_FIELDS))


def fmt_key(key: tuple) -> str:
    return " ".join(f"{k}={v}" for k, v in key)


def compare(baseline: dict, current: dict, out=sys.stdout) -> int:
    """Returns the exit code: 0 clean (warnings allowed), 1 hard failure."""
    failures = 0
    warnings = 0

    for field in ("bench", "scenario"):
        if baseline.get(field) != current.get(field):
            print(f"FAIL: {field} differs: baseline "
                  f"{baseline.get(field)!r} vs current "
                  f"{current.get(field)!r}", file=out)
            failures += 1

    base_params = {k: v for k, v in baseline.get("params", {}).items()
                   if k not in VOLATILE_PARAMS}
    cur_params = {k: v for k, v in current.get("params", {}).items()
                  if k not in VOLATILE_PARAMS}
    if base_params != cur_params:
        # Different sweeps still must agree on whatever rows match.
        print(f"WARN: run params differ: baseline {base_params} vs "
              f"current {cur_params}", file=out)
        warnings += 1

    base_rows = {row_key(r): r for r in baseline.get("results", [])}
    cur_rows = {row_key(r): r for r in current.get("results", [])}

    for key, base_row in base_rows.items():
        cur_row = cur_rows.get(key)
        if cur_row is None:
            print(f"FAIL: row missing from current report: {fmt_key(key)}",
                  file=out)
            failures += 1
            continue
        base_digest = base_row.get("digest")
        cur_digest = cur_row.get("digest")
        if base_digest != cur_digest:
            print(f"FAIL: outcome digest changed for {fmt_key(key)}: "
                  f"{base_digest} -> {cur_digest}", file=out)
            failures += 1

    for key in cur_rows.keys() - base_rows.keys():
        print(f"WARN: new row not in baseline: {fmt_key(key)}", file=out)
        warnings += 1

    if failures:
        print(f"bench_compare: {failures} failure(s), {warnings} "
              f"warning(s)", file=out)
        return 1
    print(f"bench_compare: outcomes identical across "
          f"{len(base_rows)} row(s), {warnings} warning(s)", file=out)
    return 0


# --- self-test fixtures ------------------------------------------------------

def _report(rows: list[dict]) -> dict:
    return {"bench": "host_simd", "scenario": "dense-en-route",
            "params": {"smoke": 1, "avx2_available": 1},
            "results": rows}


def _row(task: str, kernel: str, wall: float, digest: str) -> dict:
    return {"task": task, "kernel": kernel, "aircraft": 600,
            "wall_ms": wall, "modeled_ms": wall, "digest": digest,
            "lanes_masked": 0}


def self_test() -> int:
    import io

    base = _report([_row("task1", "scalar", 1.0, "aaaa"),
                    _row("task1", "avx2", 0.5, "aaaa")])

    cases = [
        # (name, current report, want exit, want substrings in output)
        ("identical", _report([_row("task1", "scalar", 1.0, "aaaa"),
                               _row("task1", "avx2", 0.5, "aaaa")]),
         0, ["outcomes identical"]),
        # Wall time moves either way without a word: only outcomes count.
        ("wall_time_not_compared",
         _report([_row("task1", "scalar", 1.6, "aaaa"),
                  _row("task1", "avx2", 0.2, "aaaa")]),
         0, ["outcomes identical", "0 warning(s)"]),
        ("digest_mismatch",
         _report([_row("task1", "scalar", 1.0, "bbbb"),
                  _row("task1", "avx2", 0.5, "aaaa")]),
         1, ["FAIL: outcome digest changed", "aaaa -> bbbb"]),
        ("missing_row",
         _report([_row("task1", "scalar", 1.0, "aaaa")]),
         1, ["FAIL: row missing from current report"]),
        ("extra_row_warns",
         _report([_row("task1", "scalar", 1.0, "aaaa"),
                  _row("task1", "avx2", 0.5, "aaaa"),
                  _row("task23", "scalar", 9.0, "cccc")]),
         0, ["WARN: new row not in baseline"]),
        # Host without AVX2 support: lanes_masked differs, avx2_available
        # differs — neither is a row identity nor a failure.
        ("host_differences_ignored",
         {**_report([{**_row("task1", "scalar", 1.0, "aaaa"),
                      "lanes_masked": 77},
                     _row("task1", "avx2", 0.5, "aaaa")]),
          "params": {"smoke": 1, "avx2_available": 0}},
         0, ["outcomes identical", "0 warning(s)"]),
    ]

    ok = True
    for name, current, want_exit, want_texts in cases:
        out = io.StringIO()
        got = compare(base, current, out=out)
        text = out.getvalue()
        if got != want_exit:
            print(f"self-test FAILED [{name}]: exit {got}, want "
                  f"{want_exit}\n{text}")
            ok = False
        for want in want_texts:
            if want not in text:
                print(f"self-test FAILED [{name}]: output missing "
                      f"{want!r}\n{text}")
                ok = False

    # Mismatched bench names must hard-fail regardless of rows.
    out = io.StringIO()
    other = dict(base, bench="sharding")
    if compare(base, other, out=out) != 1:
        print("self-test FAILED [bench_name]: expected exit 1")
        ok = False

    print("bench_compare self-test:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main(argv: list[str]) -> int:
    if len(argv) > 1 and argv[1] == "--self-test":
        return self_test()
    args = argv[1:]
    if len(args) != 2 or any(a.startswith("--") for a in args):
        print(__doc__, file=sys.stderr)
        return 2
    baseline = json.loads(Path(args[0]).read_text(encoding="utf-8"))
    current = json.loads(Path(args[1]).read_text(encoding="utf-8"))
    return compare(baseline, current)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
