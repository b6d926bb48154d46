#!/usr/bin/env python3
"""Run one benchmark workload against the typeforge sources of this checkout.

    python3 perfbench/run.py --workload fine_inmem --seed 1 --seconds 12 --trace 0

With --trace 0 it prints every end-to-end metric, with --trace 1 every
per-layer metric (from spans recorded around each public library call),
and in both cases ends its output with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The full record (environment, cases, self-time tables and, when traced,
the span dump) goes to perfbench/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import signal
import sys
import time
from multiprocessing import resource_tracker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")


def stop_children() -> None:
    """Stop and reap every process this run started.

    Echo processes are joined where they finish; any still alive here (only
    after a failure) are killed.  The first spawned process also starts
    multiprocessing's resource tracker, which otherwise ends only once this
    process has exited; it is stopped by closing its pipe, and killed if it
    has not ended within ten seconds.
    """
    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    rt = resource_tracker._resource_tracker
    with rt._lock:
        if getattr(rt, "_pid", None) is None:
            return
        os.close(rt._fd)
        pid, rt._fd, rt._pid = rt._pid, None, None
    deadline = time.monotonic() + 10.0
    while os.waitpid(pid, os.WNOHANG) == (0, 0):
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            return
        time.sleep(0.01)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "typeforge", "__init__.py")):
        print(f"perfbench: no typeforge sources at {SRC}", file=sys.stderr)
        return 2
    # the checkout's sources, never an installed copy; spawned echo
    # processes inherit this path
    sys.path.insert(0, SRC)

    import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        report = measure.run(WORKLOADS[args.workload], args.seed, args.seconds,
                             bool(args.trace), ROOT)
    finally:
        stop_children()

    os.makedirs(RESULTS, exist_ok=True)
    out_path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    record = dict(report.details)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in report.metrics.items()}
    record["attempted"] = report.tally.attempted
    record["failed"] = report.tally.failed
    with open(out_path, "w") as fh:
        json.dump(record, fh)
        fh.write("\n")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(report.details["env"]))
    for line in report.lines:
        print(line)
    for name, (value, unit) in report.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    tally = report.tally
    print(f"error_rate = {tally.failed / max(tally.attempted, 1):.6g} "
          f"({tally.failed} of {tally.attempted} operations failed)")
    for failure in tally.failures[:10]:
        print(f"FAILED {failure}")
    print(f"record written to {os.path.relpath(out_path, ROOT)}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
