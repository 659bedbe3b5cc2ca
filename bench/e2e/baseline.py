#!/usr/bin/env python3
"""Record bench_atm baselines: run-to-run spread of every end-to-end metric.

    python3 bench/e2e/baseline.py

For each workload of BENCHMARK.json, runs `run.py --workload W --seed S
--seconds <run_seconds> --trace 0` once per seed 1..10, one process at a
time, splits the runs into two sets of 5 (seeds 1-5 and 6-10), and writes
baselines/<workload>.json with, per metric: the values, median and
quartiles (statistics.quantiles, n=4) of each set and of all runs, the
spread (quartile distance over median) next to the metric's bound from
BENCHMARK.json, the drift between the two set medians, and whether the
metric is unresolved (its spread exceeds its bound). A host descriptor
(nproc, CPU model, AVX2, compiler, build type) is recorded with them.
Exits 1 when a run fails or reports incorrect.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "baselines"
SEEDS = list(range(1, 11))


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else None}


def host_descriptor() -> dict:
    cpu = platform.processor()
    flags = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name") and not cpu:
                cpu = line.split(":", 1)[1].strip()
            if line.startswith("flags") and not flags:
                flags = line
    except OSError:
        pass
    cache = {}
    try:
        for line in (ROOT / ".bench_build" / "CMakeCache.txt").read_text(
                ).splitlines():
            if ":" in line and "=" in line and not line.startswith("#"):
                key, value = line.split("=", 1)
                cache[key.split(":", 1)[0]] = value
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, check=False).stdout
        compiler = version.splitlines()[0] if version else compiler
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "avx2": " avx2" in flags, "compiler": compiler,
            "build_type": cache.get("CMAKE_BUILD_TYPE", "")}


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"baseline.py: {workload} seed {seed} failed "
                 f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    details = json.loads(lines[-2])["bench_atm"] if len(lines) > 1 else {}
    return {"result": result, "details": details}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    OUT.mkdir(parents=True, exist_ok=True)
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            run = run_once(workload, seed, bench["run_seconds"])
            runs.append(run)
            ok = ok and run["result"]["correct"]
            print(f"{workload} seed {seed}: correct="
                  f"{run['result']['correct']}", file=sys.stderr)
        half = len(runs) // 2
        metrics = {}
        for name, spec in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            first = quartiles(values[:half])
            second = quartiles(values[half:])
            drift = ((second["median"] - first["median"]) / first["median"]
                     if first["median"] else None)
            if drift is not None and spec["better"] == "higher":
                drift = -drift
            overall = quartiles(values)
            metrics[name] = {
                "unit": spec["unit"], "better": spec["better"],
                "bound": spec["bound"], "values": values,
                "all": overall, "set_a": first, "set_b": second,
                "set_b_worse_by": drift,
                # Spread wider than the bound: a regression within the
                # noise cannot be told from no change.
                "unresolved": overall["spread"] is None or
                              overall["spread"] > spec["bound"],
            }
        doc = {
            "workload": workload, "seeds": SEEDS,
            "run_seconds": bench["run_seconds"], "host": host_descriptor(),
            "samples": [r["details"].get("samples") for r in runs],
            "correct": [r["result"]["correct"] for r in runs],
            "metrics": metrics,
        }
        path = OUT / f"{workload}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"wrote {path}", file=sys.stderr)
        for name, m in metrics.items():
            print(f"  {name:24s} median {m['all']['median']:.6g} "
                  f"spread {m['all']['spread']} bound {m['bound']} "
                  f"set B worse by {m['set_b_worse_by']}"
                  f"{' UNRESOLVED' if m['unresolved'] else ''}",
                  file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
