#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

Run from the root of the repository:

    python3 perf/run.py --workload table3_serial --seed 1 --seconds 10 --trace 0
    python3 perf/run.py --test        # build and run the benchmark's own tests

The first run builds the repository's xmark_core library with the
repository's own CMakeLists.txt, then this package (perf/CMakeLists.txt),
into $CARGO_TARGET_DIR (default .bench_build). Build output goes to stderr;
the benchmark's report goes to stdout, and its last line is the JSON result.
Exits non-zero, without a result line, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
RUN_TIMEOUT_S = 175
BUILD_JOBS = str(max(1, min(4, os.cpu_count() or 1)))


def log(message):
    print(f"[perf] {message}", file=sys.stderr, flush=True)


def run_build_step(args):
    result = subprocess.run(args, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        raise RuntimeError(f"build step failed ({result.returncode}): {' '.join(args)}")


def build(targets):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError(f"no repository sources next to {PERF_DIR}")
    out = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not out.is_absolute():
        out = Path.cwd() / out
    core_dir = out / "xmark-core"
    perf_dir = out / "xmark-perf"
    run_build_step(["cmake", "-S", str(ROOT), "-B", str(core_dir),
                    "-DCMAKE_BUILD_TYPE=Release"])
    run_build_step(["cmake", "--build", str(core_dir), "--target", "xmark_core",
                    "-j", BUILD_JOBS])
    run_build_step(["cmake", "-S", str(PERF_DIR), "-B", str(perf_dir),
                    "-DCMAKE_BUILD_TYPE=Release",
                    f"-DXMARK_CORE_LIB={core_dir / 'libxmark_core.a'}"])
    run_build_step(["cmake", "--build", str(perf_dir), "-j", BUILD_JOBS,
                    "--target", *targets])
    return out, perf_dir


def check_result(line):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected result keys: {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"}:
            raise ValueError(f"metric {name} must have exactly value and unit")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.test and not args.workload:
        parser.error("--workload is required")

    try:
        out, perf_dir = build(["perf_tests"] if args.test else ["xmark_perf"])
    except (RuntimeError, OSError) as err:
        log(str(err))
        return 2

    if args.test:
        binary = perf_dir / "perf_tests"
        if not binary.is_file():
            log("googletest not found; perf_tests was not built")
            return 2
        return subprocess.run([str(binary)], timeout=600).returncode

    trace_dir = out / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    command = [str(perf_dir / "xmark_perf"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--trace-dir", str(trace_dir)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        log(f"xmark_perf exited with {proc.returncode}")
        return proc.returncode or 4
    try:
        check_result(lines[-1])
    except ValueError as err:
        log(f"malformed result line: {err}")
        return 5
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
