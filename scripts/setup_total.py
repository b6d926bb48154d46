#!/usr/bin/env python3
"""Time the set-up work of all 11 experiments.

Runs every experiment at r=1, nrep=1 under a deterministic fake clock, so no
timing happens and the wall time is all set-up: building, committing and
normalizing descriptions, making engines and filling regions.  Prints the
seconds of each experiment, the total, and how many top-level
`typecore._layout` calls (one per commit of a tree) each made.

    PYTHONPATH=src python scripts/setup_total.py
"""

import sys
import threading
import time

from typeforge import typecore
from typeforge.experiments import EXPERIMENT_IDS, make_plan, run_experiment


class FakeClock:
    """Per-thread counter advancing by a fixed power-of-two step per call."""

    def __init__(self, step: float = 2**-10):
        self.step = step
        self._local = threading.local()

    def __call__(self) -> float:
        value = getattr(self._local, "value", 0.0) + self.step
        self._local.value = value
        return value


class LayoutCalls:
    """Counts calls of `typecore._layout` that are not made by `_layout`
    itself, while installed."""

    def __init__(self):
        self.count = 0
        self._depth = threading.local()
        self._real = typecore._layout

    def _counting(self, t):
        depth = getattr(self._depth, "n", 0)
        if depth == 0:
            self.count += 1
        self._depth.n = depth + 1
        try:
            return self._real(t)
        finally:
            self._depth.n = depth

    def __enter__(self):
        typecore._layout = self._counting
        return self

    def __exit__(self, *exc):
        typecore._layout = self._real


def main() -> int:
    total_s = 0.0
    total_calls = 0
    print(f"{'experiment':<22}{'seconds':>9}{'_layout calls':>15}")
    for experiment in EXPERIMENT_IDS:
        plan = make_plan(experiment, r=1, nrep=1)
        with LayoutCalls() as calls:
            started = time.perf_counter()
            run_experiment(plan, clock=FakeClock())
            elapsed = time.perf_counter() - started
        total_s += elapsed
        total_calls += calls.count
        print(f"{experiment:<22}{elapsed:>9.2f}{calls.count:>15}", flush=True)
    print(f"{'total':<22}{total_s:>9.2f}{total_calls:>15}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
