#!/usr/bin/env python3
"""Serving benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark binary (and the repository library it links) from
source with CMake in Release mode, runs the binary's self-test, then runs
the workload.  The last line of standard output is the binary's JSON
result, checked here against the metric lists in BENCHMARK.json.

The build goes to $CARGO_TARGET_DIR/perfbench when that variable is set,
else to .bench_build/perfbench at the repository root.  Exits non-zero
without printing a result when the build, the self-test or the run fails.
"""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("poly_batch", "relu_tcp", "otext_offline")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR")
    base = Path(target) if target else ROOT / ".bench_build"
    return base.resolve() / "perfbench"


def build(out_dir):
    """Configures and builds the perfbench target; True on success.

    Both steps are incremental: after the first run they take about a second.
    """
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(out_dir), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out_dir), "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        try:
            res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                 timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step failed: {e}")
            return False
        if res.returncode != 0:
            log(f"build step exited {res.returncode}: {' '.join(cmd)}")
            return False
    return True


def run_binary(cmd):
    """Runs the binary to completion; (returncode, stdout lines) or None on timeout."""
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        log(f"timed out after {RUN_TIMEOUT_S} s: {' '.join(cmd)}")
        return None
    return res.returncode, res.stdout.splitlines()


def expected_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json lists for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Returns an error string, or None when the result line is well formed."""
    try:
        res = json.loads(line)
    except json.JSONDecodeError as e:
        return f"last line is not JSON: {e}"
    if not isinstance(res, dict) or set(res) != {"correct", "attempted", "failed", "metrics"}:
        return "result must have exactly correct, attempted, failed and metrics"
    if not isinstance(res["correct"], bool):
        return "correct must be a boolean"
    for key in ("attempted", "failed"):
        if not isinstance(res[key], int) or isinstance(res[key], bool) or res[key] < 0:
            return f"{key} must be a whole number"
    if res["attempted"] < 1:
        return "attempted must be at least 1"
    want = expected_metrics(trace)
    got = res["metrics"]
    if set(got) != set(want):
        return f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}"
    for name, m in got.items():
        if not NAME_RE.match(name):
            return f"bad metric name {name!r}"
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            return f"metric {name} must have exactly value and unit"
        if not UNIT_RE.match(str(m["unit"])) or m["unit"] != want[name]:
            return f"metric {name} has unit {m['unit']!r}, BENCHMARK.json says {want[name]!r}"
        if not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool):
            return f"metric {name} has a non-numeric value"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    out_dir = build_dir()
    if not build(out_dir):
        return 2
    binary = out_dir / "perfbench"

    selftest = run_binary([str(binary), "--self-test"])
    if selftest is None or selftest[0] != 0:
        log("self-test failed")
        return 1

    res = run_binary([str(binary), "--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", repr(args.seconds), "--trace", str(args.trace)])
    if res is None:
        return 1
    code, lines = res
    if code != 0 or not lines:
        log(f"perfbench exited {code}")
        return 1
    error = check_result(lines[-1], bool(args.trace))
    if error:
        log(error)
        return 1
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
