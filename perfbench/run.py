#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench).

Usage, from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --self-test

The first form builds the perfbench package (CMake, Release) into the
directory named by CARGO_TARGET_DIR, or `.bench_build` when unset, then
runs one workload. Its standard output ends with one JSON object:
{"correct", "attempted", "failed", "metrics"}; --trace 0 gives the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.
Build output goes to standard error. A failed build exits non-zero
without printing a result.

--self-test runs every workload of BENCHMARK.json at a reduced qubit
count, on two seeds and in both trace modes, with every case checked
against the "hpc" fp64 backend, and asserts that each run passes its
checks and emits exactly the metrics BENCHMARK.json names, with their
units.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    """Configures and builds incrementally; returns the binary path."""
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def self_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in (1, 2):
            for trace in (0, 1):
                cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", "1",
                       "--trace", str(trace), "--reduced"]
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
                where = f"{workload} seed={seed} trace={trace}"
                before = len(problems)
                if proc.returncode != 0:
                    problems.append(f"{where}: exit code {proc.returncode}")
                    continue
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                context = json.loads(proc.stdout.strip().splitlines()[-2])
                if context.get("seed") != seed:
                    problems.append(f"{where}: seed not recorded with the result")
                if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                    problems.append(f"{where}: checks failed: {context.get('problems')}")
                metrics = result["metrics"]
                names = {m["name"] for m in expected[trace]}
                if set(metrics) != names:
                    problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                    f"missing {sorted(names - set(metrics))}, "
                                    f"extra {sorted(set(metrics) - names)}")
                for m in expected[trace]:
                    got = metrics.get(m["name"])
                    if got is None:
                        continue
                    if got["unit"] != m["unit"]:
                        problems.append(f"{where}: {m['name']} unit {got['unit']} != {m['unit']}")
                    if not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
                        problems.append(f"{where}: {m['name']} is not a finite number")
                print(f"self-test {where}: {'ok' if len(problems) == before else 'FAILED'}",
                      file=sys.stderr)
    for p in problems:
        print("FAIL " + p, file=sys.stderr)
    print("self-test " + ("passed" if not problems else f"failed ({len(problems)} problems)"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if args.self_test:
        return self_test(binary)
    if args.workload is None:
        parser.error("--workload is required")
    sys.stdout.flush()
    return subprocess.run([binary, "--workload", args.workload, "--seed", str(args.seed),
                           "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode


if __name__ == "__main__":
    sys.exit(main())
