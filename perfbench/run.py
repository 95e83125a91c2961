#!/usr/bin/env python3
"""Builds and runs the Table I benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload table1_pushdown --seed 1 --seconds 25 --trace 0

`--seconds` defaults to BENCHMARK.json's `run_seconds`. The first call configures and builds perfbench/ (the repository's
libraries plus the benchmark driver) into .bench_build/ in Release; later
calls only rebuild what changed. The driver's last line of standard output
is the result JSON (see perfbench/README.md). `--self-test` builds and runs
the result checker's own test instead.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
TARGETS = ["perfbench_driver", "perfbench_checker_test"]
WORKLOADS = ["table1_pushdown", "table1_plain", "dashboard_tcp"]
# A run must finish well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no Scoop sources at {ROOT / 'src'}; nothing to build")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            log("configure failed")
            return False
    compile_cmd = ["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target"]
    if subprocess.run(compile_cmd + TARGETS, stdout=sys.stderr).returncode != 0:
        log("build failed")
        return False
    return True


def run_seconds():
    """BENCHMARK.json's run length, or None when the file is missing."""
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    except (OSError, ValueError, KeyError):
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=run_seconds())
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and (args.workload is None or not args.seconds):
        parser.error("--workload and --seconds are required")
    if not build():
        return 2

    if args.self_test:
        command = [str(BUILD_DIR / "perfbench_checker_test")]
    else:
        command = [str(BUILD_DIR / "perfbench_driver"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 3
    if proc.returncode != 0:
        log(f"driver exited with {proc.returncode}")
        return proc.returncode if proc.returncode > 0 else 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
