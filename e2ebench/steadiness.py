#!/usr/bin/env python3
"""Steadiness report: runs each workload K times, seeds 1..K, and prints
every end-to-end metric's median and interquartile spread.

    python3 e2ebench/steadiness.py [--runs 10]

The spread is (Q3 - Q1) / median over the K runs, with the quartiles
Python's statistics.quantiles(values, n=4) gives. A metric is steady
when its spread is under a third of its bound in BENCHMARK.json; the
report exits 1 if any metric on any workload is not. Use it to set the
bounds, and to check that a benchmark change keeps every workload steady.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        raise SystemExit(f"run failed: {' '.join(cmd)}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med) if med else 0.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    steady = True
    for w in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(1, args.runs + 1):
            r = run_once(w, seed, spec["run_seconds"])
            if not r["correct"]:
                print(f"  {w} seed {seed}: {r['failed']} of "
                      f"{r['attempted']} operations failed")
            runs.append(r)
        print(f"{w}: {args.runs} runs, seeds 1..{args.runs}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            med, sp = spread(values)
            ok = sp < bound / 3
            steady &= ok
            print(f"  {name:32s} median {med:14.6g} {unit:9s} "
                  f"spread {100 * sp:6.2f}%  bound {bound:.3f} "
                  f"{'ok' if ok else 'TOO NOISY'}")
        sys.stdout.flush()
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
