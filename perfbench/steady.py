"""Steadiness check: run one workload N times, report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --workload serve-mix --runs 10

Run ``i`` uses seed ``i`` (1, 2, ... N) and the run length from
``BENCHMARK.json``.  For every end-to-end metric it prints the median,
the quartiles (``statistics.quantiles(n=4)``) and the inter-quartile
distance as a share of the median, beside the metric's bound; a spread
above its bound is marked ``WIDE``.  The exit status is 1 when a run
fails, the share of failed requests differs between runs, or any spread
is wide.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import List

import harness

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run_once(workload: str, seed: int, seconds: float) -> dict:
    child = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True,
    )
    lines = harness.stdout_lines(child.stdout)
    if child.returncode != 0 or not lines:
        raise RuntimeError(
            f"seed {seed}: exit {child.returncode}\n{child.stderr[-2000:]}")
    return json.loads(lines[-1])


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    spec = harness.benchmark_spec()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = []
    for seed in range(1, args.runs + 1):
        result = run_once(args.workload, seed, seconds)
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
    shares = {r["failed"] / r["attempted"] for r in results}
    steady = all(r["correct"] for r in results) and len(shares) == 1
    print(f"\n{args.workload}: {args.runs} runs, "
          f"failed share {sorted(shares)}")
    print(f"{'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        figures = harness.quartile_spread(values)
        wide = figures["spread"] > bound
        steady = steady and not wide
        print(f"{name:24s} {figures['median']:12.4f} {figures['q1']:12.4f} "
              f"{figures['q3']:12.4f} {figures['spread']:8.4f} {bound:6.2f}"
              f"{'  WIDE' if wide else ''}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
