#!/usr/bin/env python3
"""Write every experiment's outputs under a deterministic clock, for diffing.

Runs `typeforge run --r 2 --nrep 3 --raw` for all 11 experiments with their
default grids under `bench_layers.FakeClock`, writing the 33 files (bench
CSV, verdict CSV and raw JSON of each) into OUT.  For each experiment it
prints how many `bench._measure` calls it made and how many cases they
measured, and writes the same lines to OUT/measure_calls.txt.  Two trees
produce the same output when `diff -r` of their OUT directories is empty.

    PYTHONPATH=src python scripts/fake_clock_outputs.py OUT
"""

import argparse
import os
import sys

from bench_layers import FakeClock

import typeforge
from typeforge import bench, cli
from typeforge.experiments import EXPERIMENT_IDS


def _counting_measure(counts: list):
    """`bench._measure` wrapped to add one call and its cases to `counts`,
    installed in every module that holds a reference to it."""
    real = bench._measure

    def counting(groups, *args):
        counts[0] += 1
        counts[1] += sum(len(group) for group in groups)
        return real(groups, *args)

    holders = [m for name, m in sys.modules.items()
               if name.startswith(typeforge.__name__) and getattr(m, "_measure", None) is real]
    for module in holders:
        module._measure = counting
    return real, holders


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", help="directory for the 33 files and measure_calls.txt")
    args = ap.parse_args(argv)

    counts = [0, 0]
    real, holders = _counting_measure(counts)
    lines = []
    try:
        for experiment in EXPERIMENT_IDS:
            counts[:] = [0, 0]
            code = cli.main(["run", "--experiment", experiment, "--r", "2", "--nrep", "3",
                             "--raw", "--out", args.out], clock=FakeClock())
            lines.append(f"{experiment}: exit {code}, {counts[0]} calls, {counts[1]} cases")
            print(lines[-1], flush=True)
    finally:
        for module in holders:
            module._measure = real
    with open(os.path.join(args.out, "measure_calls.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
