#!/usr/bin/env python3
"""Simulator benchmark entry point.

Builds the harness (perfbench/CMakeLists.txt: the src/ libraries plus
perfbench/harness.cpp, Release) into the build directory, runs one workload
in a fresh process, and prints the harness output. The last stdout line is
the result object {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload wakeup_20k --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout. The build directory is
$CARGO_TARGET_DIR/perfbench when that variable is set, else
.bench_build/perfbench. Exit codes: 0 success, 1 a correctness check
failed, 2 build or usage error.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("wakeup_20k", "verify_10k", "churn_10k")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
HARNESS_TIMEOUT_S = 170


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out: Path) -> Path:
    """Configure (once) and build the harness; build output goes to stderr."""
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "oddci_perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny population of the same workload (self-test)")
    args = parser.parse_args()

    out = build_dir()
    try:
        exe = build(out)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        spans = out / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans", str(spans / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: harness exceeded {HARNESS_TIMEOUT_S} s", file=sys.stderr)
        return 2
    lines = proc.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: harness exited {proc.returncode} without a result",
              file=sys.stderr)
        return 2
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
