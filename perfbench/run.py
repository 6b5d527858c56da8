#!/usr/bin/env python3
"""vodsim benchmark entry point.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_large --seed 1 --seconds 12 --trace 0

Builds the library and the benchmark program from source (Release, into
.bench_build/perfbench), then runs one workload. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. --trace 0 reports the end-to-end metrics of BENCHMARK.json, and
--trace 1 the per-layer metrics from a separate traced run.

vodsim_perfbench refuses to run when any VODSIM_* or REPRO_* environment
variable is set: those switch on tracing, auditing or another engine mode
inside the library and would change what is measured.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper_large", "dense_intermittent", "fault_storm", "sweep_fig7")
# Each run must finish well inside the harness's 180 s limit.
RUN_TIMEOUT_S = 170
BUILD_JOBS = max(1, min(4, os.cpu_count() or 1))


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    if not 0 < args.seconds <= 120:
        fail("--seconds must be in (0, 120]")
    return args


def git_commit(root):
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def build(root, bench_dir):
    build_dir = root / ".bench_build" / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", str(BUILD_JOBS),
                    "--target", "vodsim_perfbench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    binary = build_dir / "vodsim_perfbench"
    if not binary.is_file():
        fail(f"build produced no binary at {binary}")
    return binary


def main():
    args = parse_args()
    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"vodsim sources not found under {root / 'src'}; run from a "
             "full checkout of the repository")
    try:
        binary = build(root, bench_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        fail(f"build failed: {error}")

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--commit", git_commit(root)]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} exceeded {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
