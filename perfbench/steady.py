#!/usr/bin/env python3
"""Steadiness mode: run one workload N times in a row, each run a fresh
untraced process with its own seed (1..N), and print each end-to-end
metric's median and quartiles.

    python3 perfbench/steady.py --workload coarse_tcp --runs 10 --seconds 12

For every metric with a bound in BENCHMARK.json it also prints the
quartile spread as a share of the median next to that bound, so bounds can
be set, and checked, from data.  Quartiles are statistics.quantiles(n=4).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _bounds() -> dict[str, float]:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except OSError:
        return {}
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=12.0)
    args = ap.parse_args(argv)

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    failed = 0
    for seed in range(1, args.runs + 1):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        wall = time.monotonic() - t0
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed} ({wall:.0f} s): correct={result['correct']} "
              f"attempted={result['attempted']} "
              f"failed={result['failed']} "
              + " ".join(f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()),
              flush=True)

    bounds = _bounds()
    print(f"\n{args.workload}: {args.runs} runs of {args.seconds:g} s, "
          f"{failed} failed operations")
    print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
    for name, xs in values.items():
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], 0, xs[0])
        spread = (q3 - q1) / abs(med) if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = "  OVER BOUND" if spread > bound else "  over bound/3" if spread > bound / 3 else ""
        print(f"{name:28} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} "
              f"{'' if bound is None else bound:>6}{flag} {units[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
