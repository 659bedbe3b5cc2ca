#!/usr/bin/env python3
"""Build bench_atm from source and run one workload.

    python3 bench/e2e/run.py --workload <name> --seed <n> --seconds <s>
                             --trace <0|1>

Configures bench/e2e as a Release build in .bench_build at the repository
root (once), builds bench_atm, and runs it with the given arguments from
the current directory. Build output goes to stderr; the last stdout line
is bench_atm's result object. Traces land in .bench_build/trace unless
--trace-dir is given.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build"


def build() -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"run.py: no src/ under {ROOT}; bench_atm builds the "
                 "repository's libraries from source")
    try:
        if not (BUILD / "CMakeCache.txt").is_file():
            configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, stdout=sys.stderr, check=True)
        jobs = str(len(os.sched_getaffinity(0)))
        subprocess.run(["cmake", "--build", str(BUILD), "--target",
                        "bench_atm", "-j", jobs],
                       stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"run.py: building bench_atm failed: {err}")
    return BUILD / "bench_atm"


def main() -> int:
    binary = build()
    cmd = [str(binary), "--trace-dir", str(BUILD / "trace"), *sys.argv[1:]]
    return subprocess.run(cmd, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
