#!/usr/bin/env python3
"""Build and run the pimwfa benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Builds perfbench/ (a CMake package that compiles the library from the
enclosing checkout) into .bench_build/, runs the benchmark's self-tests,
then runs one workload and relays its output. The last line of standard
output is the run's JSON result; with --trace 1 the Chrome trace of the
run is written to .bench_build/traces/. Exits non-zero without a result
when the build, the self-tests or the run fail.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "-j", jobs]]
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build step failed:", " ".join(step))
            return False
    return True


def selftest():
    return subprocess.run([str(BUILD / "perfbench_selftest")],
                          stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the self-tests only")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    if not build():
        return 1
    if not selftest():
        log("self-tests failed")
        return 1
    if args.selftest:
        return 0

    command = [str(BUILD / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out",
                    str(traces / f"{args.workload}-seed{args.seed}.json")]
    # A run measures for --seconds, plus three set-ups and the reference
    # computation; its traced form alternates with untraced passes.
    timeout_s = args.seconds * 2 + 120
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=timeout_s)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {timeout_s:g} s")
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        log(f"{args.workload} exited with code {run.returncode}")
        return 1
    result = json.loads(lines[-1])
    differ = expected_metrics(args.trace) ^ set(result["metrics"])
    if differ:
        log("metrics differ from BENCHMARK.json:", sorted(differ))
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
