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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], allow_abbrev=False,
        epilog="every other argument is passed to each `typeforge run` as given")
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--only", action="append", choices=EXPERIMENT_IDS,
                        metavar="EXPERIMENT", help="run a subset (repeatable)")
    args, run_args = parser.parse_known_args(argv)

    failed = []
    violated = []
    for experiment in args.only or EXPERIMENT_IDS:
        started = time.perf_counter()
        code = typeforge_main(["run", "--experiment", experiment, "--out", args.out,
                               *run_args])
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
