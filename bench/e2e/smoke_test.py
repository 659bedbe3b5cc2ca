#!/usr/bin/env python3
"""bench_atm_smoke: run every bench_atm workload in --smoke mode and check it.

    python3 bench/e2e/smoke_test.py --binary <bench_atm>
                                    --benchmark-json <BENCHMARK.json>

Each workload runs untraced and traced at seed 42 with --smoke (a tenth of
the aircraft, 3 cycles). Every run must exit 0, its last line must pass
`python3 -m json.tool` and report correct, and every check it reports
must hold: the reference oracle, the call counts, the decorated run
against the bare backend (a do_run_* hook that forgot to forward runs the
base-class code and changes the modeled digest), the checked-in seed-42
digest, and, traced, the traced against the untraced digests. A traced
run's JSONL trace must hold the same events as the bare backend's traced
run, host-timed fields aside. The metric names must be exactly
BENCHMARK.json's end_to_end names (untraced) and per_layer names
(traced). Last, a wrong expected digest must make bench_atm exit non-zero
and report every operation failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path


def run(binary: str, workload: str, trace: int, trace_dir: str,
        extra: list[str]) -> tuple[int, list[str], str]:
    cmd = [binary, "--workload", workload, "--seed", "42", "--smoke",
           "--trace", str(trace), "--trace-dir", trace_dir, *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


def trace_events(path: Path) -> list[dict]:
    """A JSONL trace's events without the fields that carry host time
    (the reference backend reports host time as modeled time)."""
    events = []
    for line in path.read_text().splitlines():
        event = json.loads(line)
        for key in ("measured_ms", "modeled_ms", "slack_ms"):
            event.pop(key, None)
        events.append(event)
    return events


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", required=True)
    parser.add_argument("--benchmark-json", required=True, type=Path)
    args = parser.parse_args()
    bench = json.loads(args.benchmark_json.read_text())
    expected_names = {
        0: {m["name"] for m in bench["end_to_end"]},
        1: {m["name"] for m in bench["per_layer"]},
    }
    failures: list[str] = []

    with tempfile.TemporaryDirectory(prefix="bench_atm_smoke_") as tmp:
        for workload in (w["name"] for w in bench["workloads"]):
            for trace in (0, 1):
                label = f"{workload} --trace {trace}"
                rc, lines, err = run(args.binary, workload, trace, tmp, [])
                if len(lines) < 2:
                    failures.append(f"{label}: exit {rc}, no result\n"
                                    f"{err[-1500:]}")
                    continue
                if rc != 0:
                    failures.append(f"{label}: exit {rc}")
                tool = subprocess.run([sys.executable, "-m", "json.tool"],
                                      input=lines[-1], capture_output=True,
                                      text=True, check=False)
                if tool.returncode != 0:
                    failures.append(f"{label}: last line is not JSON")
                    continue
                result = json.loads(lines[-1])
                details = json.loads(lines[-2])["bench_atm"]
                if not result["correct"] or result["failed"] != 0:
                    failures.append(f"{label}: reported incorrect")
                checks = details["checks"]
                wanted = ["oracle", "call_counts", "bare", "expected"]
                if trace:
                    wanted.append("traced_untraced")
                for check in wanted:
                    if checks.get(check) is not True:
                        failures.append(f"{label}: check {check} = "
                                        f"{checks.get(check)}")
                names = set(result["metrics"])
                if names != expected_names[trace]:
                    failures.append(
                        f"{label}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(expected_names[trace] - names)}, "
                        f"extra {sorted(names - expected_names[trace])}")
                spans = Path(tmp) / f"{workload}.spans.jsonl"
                if trace and not (spans.is_file() and spans.stat().st_size):
                    failures.append(f"{label}: no spans at {spans}")
                if trace:
                    decorated = trace_events(
                        Path(tmp) / f"{workload}.trace.jsonl")
                    bare = trace_events(
                        Path(tmp) / f"{workload}.bare.trace.jsonl")
                    if decorated != bare:
                        failures.append(
                            f"{label}: trace differs from the bare "
                            f"backend's ({len(decorated)} vs {len(bare)} "
                            "events)")
                print(f"ran {label}: outcome {details['outcome_digest']}")

        # The mismatch path: a wrong checked-in digest fails the run.
        wrong = Path(tmp) / "wrong_digests.txt"
        wrong.write_text("".join(
            f"{w['name']} smoke {'0' * 16} -\n" for w in bench["workloads"]))
        workload = bench["workloads"][0]["name"]
        rc, lines, _ = run(args.binary, workload, 0, tmp,
                           ["--expected", str(wrong)])
        result = json.loads(lines[-1]) if lines else {}
        if rc == 0 or result.get("correct") is not False or \
                result.get("failed") != result.get("attempted"):
            failures.append(f"{workload}: a wrong expected digest gave exit "
                            f"{rc} and result {result}")

    for failure in failures:
        print(f"FAIL {failure}")
    if not failures:
        print("bench_atm_smoke: ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
