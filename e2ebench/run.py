#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

    python3 e2ebench/run.py --workload compile|batch \
        --seed N --seconds S --trace 0|1 [--corrupt-expected]

Run it from anywhere inside a checkout of the repository. It builds the
benchmark (e2ebench/CMakeLists.txt, which pulls in the repository's own
build) into .bench_build/ at the checkout root, runs one workload, checks
that the reported metrics are exactly the ones BENCHMARK.json lists for
the mode, and forwards the output; the last line is the result object.
A traced run also writes a Chrome trace-event file under
.bench_build/traces/.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "e2ebench")
WORKLOADS = ("compile", "batch")


def fail(msg, code=2):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no repository sources next to {HERE}; nothing to build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "e2ebench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=850)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def expected_metrics(trace):
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        return None
    with open(spec_path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-expected", action="store_true")
    args = ap.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    if args.corrupt_expected:
        cmd.append("--corrupt-expected")
    # Environment knobs of the library (SATB_NO_FUSE, SATB_PACER, ...)
    # would change what is measured; the benchmark pins its own settings.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SATB_")}
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=args.seconds + 120)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out", 3)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        fail(f"benchmark exited with {done.returncode}", 3)
    result = json.loads(lines[-1])
    want = expected_metrics(bool(args.trace))
    if want is not None and set(result["metrics"]) != want:
        sys.stderr.write(done.stdout)
        fail("reported metrics differ from BENCHMARK.json: missing "
             f"{sorted(want - set(result['metrics']))}, extra "
             f"{sorted(set(result['metrics']) - want)}", 4)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
