#!/usr/bin/env python3
"""Build and run the NeuroPlan-cpp benchmark.

    python3 perfbench/run.py --workload <train_c|plan_b|serve_d|all> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a source tree. The first run configures and builds
perfbench/ (the library sources plus the driver, Release) under
$CARGO_TARGET_DIR, default .bench_build; later runs rebuild only what
changed. Build output goes to stderr. The driver's report goes to
stdout, and its last line is the JSON result, checked here against the
metric names in BENCHMARK.json. The exit status is non-zero when the
build fails, a correctness check fails or the result is malformed.
--self-test builds and runs the tests of the driver's statistics code.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("train_c", "plan_b", "serve_d")
BUILD_TYPE = "Release"
# A run must end within 180 s; leave room for start-up and the checks.
DRIVER_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def revision(root):
    try:
        rev = subprocess.run(["git", "-C", str(root), "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def build(root, target):
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(build_dir), "--target", target, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return build_dir / target


def expected_metrics(root, trace):
    spec_path = root / "BENCHMARK.json"
    if not spec_path.exists():
        fail(f"no {spec_path.name} under {root}")
    spec = json.loads(spec_path.read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(root, driver, args, workload):
    command = [str(driver), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--rev", revision(root)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: driver did not finish within {DRIVER_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        print(lines[-1] if lines else "", flush=True)
        fail(f"{workload}: driver exited {proc.returncode} without a result")
    keys = {"correct", "attempted", "failed", "metrics"}
    if set(result) != keys:
        fail(f"{workload}: result keys {sorted(result)} != {sorted(keys)}")
    expected = expected_metrics(root, args.trace)
    if set(result["metrics"]) != expected:
        fail(f"{workload}: metrics {sorted(set(result['metrics']) ^ expected)} "
             "do not match BENCHMARK.json")
    print(lines[-1], flush=True)
    return proc.returncode == 0 and result["correct"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").exists():
        fail(f"no library sources under {root}; run from a NeuroPlan-cpp source tree")

    if args.self_test:
        test = build(root, "perfbench_stats_test")
        sys.exit(subprocess.run([str(test)]).returncode)
    if args.workload is None:
        parser.error("--workload is required")

    driver = build(root, "perfbench_driver")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for workload in workloads:
        ok = run_workload(root, driver, args, workload) and ok
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
