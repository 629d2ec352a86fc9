#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

Usage (from the repository root):

    python3 servebench/run.py --workload single_stream --seed 1 --seconds 15 \
        --trace 0 --cluster-rate 400

The library under ../src and the benchmark program in this directory are
compiled into $CARGO_TARGET_DIR/servebench (default .bench_build/servebench).
The program's last line carries every metric it measured; this script keeps the ones
BENCHMARK.json lists for the mode (end_to_end with --trace 0, per_layer with
--trace 1) and prints them as the final line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {value, unit}}}

preceded by the host fingerprint and a `samples` line giving each metric's
sample count. Exits non-zero, without a result line, when the build or the
run fails or a listed metric is missing.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    generator = [] if os.path.exists(os.path.join(build_dir, "CMakeCache.txt")) or not shutil.which("ninja") \
        else ["-G", "Ninja"]
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"] + generator,
                   stdout=sys.stderr, check=True)
    jobs = str(max(1, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "servebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--cluster-rate", type=float, required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit(f"run.py: unknown workload {args.workload}")
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    try:
        binary = build(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "servebench"))
    except (subprocess.CalledProcessError, OSError) as err:
        sys.exit(f"run.py: build failed: {err}")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--cluster-rate", repr(args.cluster_rate)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run.py: servebench exited with {proc.returncode}")
    result = json.loads(lines[-1])
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        sys.exit(f"run.py: servebench did not report {', '.join(missing)}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wrong = [n for n in names if result["metrics"][n]["unit"] != units[n]]
    if wrong:
        sys.exit(f"run.py: unit differs from BENCHMARK.json for {', '.join(wrong)}")

    for line in lines[:-1]:
        print(line)
    print("samples " + json.dumps({n: result["metrics"][n]["samples"] for n in names}))
    metrics = {n: {"value": result["metrics"][n]["value"], "unit": result["metrics"][n]["unit"]} for n in names}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
