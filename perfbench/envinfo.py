"""Environment record written with every result (Hoefler & Belli, SC15:
report the machine, the software and the clock next to the numbers)."""

from __future__ import annotations

import glob
import os
import platform
import socket
import statistics
import subprocess
import sys
import time

import numpy as np

MEMCPY_BYTES = 2_560_000


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict[str, str]:
    out = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(d, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(d, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(d, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        out[f"L{level}{'d' if kind == 'Data' else 'i' if kind == 'Instruction' else ''}"] = size
    return out


def _git_sha(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def perf_counter_overhead_ns(calls: int = 200_000) -> float:
    """Cost of one perf_counter() call, net of the loop around it."""
    clock = time.perf_counter
    rng = range(calls)
    t0 = clock()
    for _ in rng:
        pass
    t1 = clock()
    for _ in rng:
        clock()
    t2 = clock()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls * 1e9)


def memcpy_seconds(nbytes: int, reps: int = 31) -> float:
    """Median time of one cache-resident numpy copy of `nbytes`."""
    src = np.frombuffer(np.random.default_rng(0).bytes(nbytes), dtype=np.uint8)
    dst = np.empty_like(src)
    samples = []
    for _ in range(reps + 3):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples[3:])


def record(root: str) -> dict:
    clock = time.get_clock_info("perf_counter")
    memcpy_s = memcpy_seconds(MEMCPY_BYTES)
    return {
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "git_sha": _git_sha(root),
        "perf_counter": {"implementation": clock.implementation,
                         "resolution_s": clock.resolution,
                         "monotonic": clock.monotonic},
        "perf_counter_call_ns": round(perf_counter_overhead_ns(), 1),
        "memcpy_bytes": MEMCPY_BYTES,
        "memcpy_GBps": round(MEMCPY_BYTES / memcpy_s / 1e9, 3),
    }
