#!/usr/bin/env python3
"""Run every benchmark experiment and collect the CSV outputs in one place.

Each experiment writes ``<id>_bench.csv`` and ``<id>_verdicts.csv`` into the
output directory (plus ``<id>_raw.json`` with --raw).  Timing quality depends
on the machine being otherwise idle; keep heavy jobs off the box while this
runs.  Exit code 3 means at least one guideline violation was recorded, 1
means an experiment failed to execute at all.
"""

import argparse
import sys
import time

from typeforge.cli import main as typeforge_main
from typeforge.experiments import EXPERIMENT_IDS
from typeforge.packer import ENGINES
from typeforge.transport import TRANSPORTS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="results", help="output directory")
    # unset flags leave `typeforge run`'s own defaults
    parser.add_argument("--engine", choices=ENGINES)
    parser.add_argument("--transport", choices=TRANSPORTS)
    parser.add_argument("--variant", type=int, choices=(1, 2))
    parser.add_argument("--r", type=int, help="independent runs per case")
    parser.add_argument("--nrep", type=int,
                        help="override the size-based repetition schedule")
    parser.add_argument("--threshold", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--raw", action="store_true",
                        help="also write every raw sample as JSON")
    parser.add_argument("--only", action="append", choices=EXPERIMENT_IDS,
                        metavar="EXPERIMENT", help="run a subset (repeatable)")
    args = parser.parse_args(argv)

    failed = []
    violated = []
    for experiment in args.only or EXPERIMENT_IDS:
        flags = ["run", "--experiment", experiment, "--out", args.out]
        for name in ("engine", "transport", "variant", "r", "nrep", "threshold", "seed"):
            value = getattr(args, name)
            if value is not None:
                flags += [f"--{name}", str(value)]
        if args.raw:
            flags.append("--raw")
        started = time.perf_counter()
        code = typeforge_main(flags)
        print(f"{experiment}: exit {code} in {time.perf_counter() - started:.1f}s",
              flush=True)
        if code == 3:
            violated.append(experiment)
        elif code != 0:
            failed.append(experiment)

    if failed:
        print(f"failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    if violated:
        print(f"violations recorded in: {', '.join(violated)}")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
