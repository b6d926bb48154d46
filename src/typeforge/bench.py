"""Ping-pong timing harness with median-of-runs reduction.

One scheduler measures every case.  It takes groups of cases, each group
one comparison (one case, or lhs then rhs), and runs the groups one after
another.  A group gets `r` independent runs over fresh endpoints; each run
alternates single repetitions of its cases on one channel, first a few
untimed warmups, then `nrep` timed repetitions per case.  Both parties
time each repetition locally and swap their readings, and the repetition's
sample is the larger of the two.  A run reduces to the median of its
samples; a case reports mean, min and max over its `r` run medians.

A party's engines and regions live exactly as long as one measurement:
before the first run it prepares every case of every group once, one
engine per (type, count, engine) and one region per window.  So the checks
of a family grid point, measured in one call, build each program and fill
each region once.  Only the ping party draws seeded bytes; the echo party
never reads its own bytes before the ping's payload overwrites them, so its
windows start zeroed and its first touch falls in the untimed warmups.

The wall clock is injectable so the whole pipeline can be exercised with a
deterministic fake.  With an injected clock, or on the inmem carrier, the
echo side is a thread of this process.  With the real clock the tcp carrier
places it in a spawned echo process, one per `echo_session`: every
measurement of an experiment is a job for the same process, and a lone
`run_case` or `run_pair` is a session of one job.  A failure on the echo
side is raised to the caller with its cause, and the session's process is
stopped with it.
"""

from __future__ import annotations

import contextlib
import contextvars
import csv
import itertools
import json
import multiprocessing
import multiprocessing.connection
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from . import transport as tp
from .packer import make_engine
from .typecore import CommittedType, Datatype, datatype_dumps

WARMUP_REPS = 3
DEFAULT_RUNS = 5
DEFAULT_SEED = 1

VARIANTS = ("typed", "packed", "raw")

# how long a finished measurement waits for its echo side to wind down
_JOIN_TIMEOUT = 60.0
# how long the caller waits for the echo process to connect
_ACCEPT_TIMEOUT = 30.0


def nrep_schedule(m_bytes: int) -> int:
    """Repetitions per run, chosen by message size."""
    if m_bytes <= 32_000:
        return 100
    if m_bytes <= 320_000:
        return 50
    return 20


@dataclass(frozen=True)
class BenchCase:
    """One measurable configuration of layout, engine and carrier.
    A committed `datatype` is never committed again.  `spec_json` None
    stands for the datatype's own JSON, serialized only when a stats CSV
    is written."""

    case_id: str
    datatype: Optional[Datatype | CommittedType]
    count: int
    variant: str
    engine: str
    transport: str
    m_bytes: int
    A: Optional[int] = None
    spec_json: Optional[str] = ""

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant != "raw" and self.datatype is None:
            raise ValueError(f"variant {self.variant!r} needs a datatype")


@dataclass(frozen=True)
class RunStats:
    """Reduced timings of one case."""

    case: BenchCase
    r: int
    nrep: int
    run_medians: tuple[float, ...]
    mean_s: float
    min_s: float
    max_s: float
    raw_samples: tuple[tuple[float, ...], ...]


def _seeded_bytes(seed: int, n: int) -> np.ndarray:
    """`n` bytes drawn from `seed`, as a uint8 array: whole 64-bit words of
    the generator's raw output, cut to length.  A pure function of (seed,
    n), about six times cheaper than `Generator.bytes`."""
    words = np.random.default_rng(seed).bit_generator.random_raw(-(-n // 8))
    return words.view(np.uint8)[:n]


def _prepare(groups: Sequence[Sequence[BenchCase]], seed: Optional[int] = None
             ) -> list[list[tuple]]:
    """One party's (case, region, engine) per case, group by group.

    The region is the engine's window, zeroed.  The ping party, which
    passes a `seed`, then unpacks a seeded payload into it, so only the
    bytes the layout reads are drawn; for the raw variant the seeded bytes
    are the whole message.  The echo party passes none and draws nothing:
    it unpacks the ping's payload before it packs, and a raw echo receives
    before it sends, so its windows stay zeroed until the first warmup.
    A zeroed numpy array leaves the pages of the gaps untouched.  Cases of
    one (type, count, engine) share one engine, and cases whose engines
    have the same window (origin, span) share one region, filled once, so
    the two sides of a comparison copy to and from the same pages, as two
    datatypes over one buffer do; a raw case keeps bytes of its own.  A
    type is keyed by identity, which the groups hold for the whole call.
    """
    engines: dict = {}
    regions: dict[tuple[int, int], np.ndarray] = {}

    def side(case: BenchCase) -> tuple:
        if case.variant == "raw":
            payload = case.m_bytes if seed is None else _seeded_bytes(seed, case.m_bytes)
            return case, bytearray(payload), None
        key = (id(case.datatype), case.count, case.engine)
        if key not in engines:
            engines[key] = make_engine(case.engine, case.datatype, case.count)
        eng = engines[key]
        window = (eng.origin, eng.span)
        if window not in regions:
            regions[window] = np.zeros(eng.span, dtype=np.uint8)
            if seed is not None:
                eng.unpack_message(_seeded_bytes(seed, eng.total_bytes), regions[window])
        return case, regions[window], eng

    return [[side(case) for case in group] for group in groups]


def _one_rep(ep: tp.Endpoint, case: BenchCase, region, eng, clock) -> float:
    """One synchronized repetition; returns the max-of-pair sample."""
    ep.barrier()
    if case.variant == "typed":
        elapsed = tp.pingpong_typed(ep, case.datatype, case.count, region, eng, clock)
    elif case.variant == "packed":
        elapsed = tp.pingpong_packed(ep, case.datatype, case.count, region, eng, clock)
    else:
        elapsed = tp.pingpong_raw(ep, region, clock)
    other = ep.exchange_f64(elapsed)
    return max(elapsed, other)


def _interleaved_loop(ep, sides, nreps, warmups, clock) -> list[list[float]]:
    """Alternate single repetitions across cases on one endpoint.

    `sides` holds one (case, region, engine) per case and `nreps` its timed
    repetitions.  Both halves of the endpoint pair run this same loop, so
    the repetition schedule agrees step for step.  Returns one post-warmup
    sample list per case.
    """
    out: list[list[float]] = [[] for _ in sides]
    for rep in range(warmups + max(nreps)):
        for i, (case, region, eng) in enumerate(sides):
            if rep < warmups + nreps[i]:
                sample = _one_rep(ep, case, region, eng, clock)
                if rep >= warmups:
                    out[i].append(sample)
    return out


def _runs(endpoints: Iterator[tp.Endpoint], groups, nreps, warmups, clock, r) -> list:
    """r interleaved runs of each group in turn, each on the next endpoint,
    closing it after its run.  Returns the runs of each group."""
    out = []
    for sides, group_nreps in zip(groups, nreps):
        runs = []
        for ep in itertools.islice(endpoints, r):
            try:
                runs.append(_interleaved_loop(ep, sides, group_nreps, warmups, clock))
            finally:
                ep.close()
        out.append(runs)
    return out


def _echo_process_main(port, jobs) -> None:
    """Body of the echo process: serve the jobs that arrive on `jobs` until
    None.  A job (groups, nreps, warmups, r) is r runs of each group, one
    connection each, over engines and regions of its own.  A failed
    job's cause goes back over `jobs` before the process exits."""
    try:
        for groups, nreps, warmups, r in iter(jobs.recv, None):
            endpoints = (tp.tcp_connect(port, peer_id="pong") for _ in range(r * len(groups)))
            _runs(endpoints, _prepare(groups), nreps, warmups, time.perf_counter, r)
    except Exception as exc:
        try:
            jobs.send(f"{type(exc).__name__}: {exc}")
        except OSError:
            pass
        raise


def _thread_runs(groups, sides, nreps, warmups, clock, r) -> list:
    pairs = [tp.make_pair(groups[0][0].transport) for _ in range(r * len(groups))]
    with ThreadPoolExecutor(max_workers=1) as pool:
        echo = pool.submit(_runs, (pong for _, pong in pairs),
                           _prepare(groups), nreps, warmups, clock, r)
        try:
            return _runs((ping for ping, _ in pairs), sides, nreps, warmups, clock, r)
        except tp.PeerClosed:
            # the echo side closed the channel; its own error is the cause
            cause = echo.exception(_JOIN_TIMEOUT)
            if cause is not None:
                raise cause from None
            raise
        finally:
            for ep in itertools.chain(*pairs):
                ep.close()


def _accept_echo(listener, child) -> tp.TcpEndpoint:
    """The echo process's next connection.  An echo process that exits
    before it connects is reported at once, not after the accept timeout."""
    ready = multiprocessing.connection.wait([listener, child.sentinel], _ACCEPT_TIMEOUT)
    if listener in ready:
        return tp.tcp_accept(listener, peer_id="ping")
    if ready:
        raise tp.PeerClosed("echo process exited before it connected")
    raise tp.TransportUnavailable("echo process did not connect")


class EchoProcess:
    """The ping side's hold on one spawned echo process: the listener the
    echo side connects to, the job pipe and the child.  The child starts
    with the first job and serves every later one; a failed job stops it
    and forgets it, so the next job starts a fresh one."""

    def __init__(self):
        self._child = None

    def _start(self) -> None:
        ctx = multiprocessing.get_context("spawn")
        self._listener, port = tp.tcp_listener()
        self._jobs, child_end = ctx.Pipe()
        child = ctx.Process(target=_echo_process_main, args=(port, child_end), daemon=True)
        child.start()
        child_end.close()
        self._child = child

    def runs(self, groups, sides, nreps, warmups, r) -> list:
        """r runs of each group of `sides` against the echo side of
        `groups`, which the echo process prepares."""
        if self._child is None:
            self._start()
        try:
            return self._job(groups, sides, nreps, warmups, r)
        except BaseException:
            self._stop()
            raise

    def _job(self, groups, sides, nreps, warmups, r) -> list:
        try:
            self._jobs.send((groups, nreps, warmups, r))
            pings = (_accept_echo(self._listener, self._child)
                     for _ in range(r * len(groups)))
            return _runs(pings, sides, nreps, warmups, time.perf_counter, r)
        except OSError as exc:
            # a broken channel or job pipe: an echo process that failed is the cause
            self._child.join(_JOIN_TIMEOUT)
            if self._child.exitcode:
                raise tp.PeerClosed(f"echo process exited with code "
                                    f"{self._child.exitcode}{self._cause()}") from exc
            raise

    def _cause(self) -> str:
        try:
            return f": {self._jobs.recv()}" if self._jobs.poll() else ""
        except (EOFError, OSError):
            return ""

    def _stop(self) -> None:
        """Terminate the child if it is still alive, and forget it."""
        child, self._child = self._child, None
        if child.is_alive():
            child.terminate()
        child.join()
        self._listener.close()
        self._jobs.close()

    def close(self) -> None:
        """Tell the child to stop and wait for it; terminate it if it is
        still alive after the join timeout."""
        if self._child is None:
            return
        try:
            self._jobs.send(None)
        except OSError:
            pass
        self._child.join(_JOIN_TIMEOUT)
        self._stop()


_session: contextvars.ContextVar[Optional[EchoProcess]] = contextvars.ContextVar(
    "echo_session", default=None)


@contextlib.contextmanager
def echo_session():
    """The echo process of every real-clock tcp measurement made within.
    It starts with the first such measurement and is stopped on leaving;
    a session opened within another is the outer one."""
    outer = _session.get()
    if outer is not None:
        yield outer
        return
    echo = EchoProcess()
    token = _session.set(echo)
    try:
        yield echo
    finally:
        _session.reset(token)
        echo.close()


def _measure(groups: Sequence[Sequence[BenchCase]], r: int, nrep: Optional[int],
             warmups: int, clock: Optional[Callable[[], float]], seed: int
             ) -> list[list[RunStats]]:
    """The one scheduler: each group of cases in turn gets r runs over fresh
    endpoints, each run alternating single repetitions of the group's cases
    on one channel.  Returns the stats of each group's cases.

    Each party prepares every case of every group once, so its regions keep
    their contents from run to run and group to group; the warmups absorb
    first touch.  All cases share the endpoints' carrier, so they must
    share one transport.
    """
    if len({case.transport for group in groups for case in group}) != 1:
        raise ValueError("cases measured together need one transport")
    nreps = [[nrep if nrep is not None else nrep_schedule(c.m_bytes) for c in group]
             for group in groups]
    sides = _prepare(groups, seed)
    if clock is None and groups[0][0].transport == "tcp":
        with echo_session() as echo:
            runs = echo.runs(groups, sides, nreps, warmups, r)
    else:
        runs = _thread_runs(groups, sides, nreps, warmups, clock or time.perf_counter, r)
    return [[_reduce(case, n, [tuple(run[i]) for run in group_runs])
             for i, (case, n) in enumerate(zip(group, group_nreps))]
            for group, group_nreps, group_runs in zip(groups, nreps, runs)]


def _reduce(case: BenchCase, nrep: int, per_run: list[tuple[float, ...]]) -> RunStats:
    medians = [statistics.median(samples) for samples in per_run]
    return RunStats(
        case=case,
        r=len(per_run),
        nrep=nrep,
        run_medians=tuple(medians),
        mean_s=statistics.fmean(medians),
        min_s=min(medians),
        max_s=max(medians),
        raw_samples=tuple(per_run),
    )


def run_case(
    case: BenchCase,
    r: int = DEFAULT_RUNS,
    nrep: Optional[int] = None,
    warmups: int = WARMUP_REPS,
    clock: Optional[Callable[[], float]] = None,
    seed: int = DEFAULT_SEED,
) -> RunStats:
    """Measure one case: r runs of nrep repetitions each."""
    return _measure([[case]], r, nrep, warmups, clock, seed)[0][0]


def run_pair(
    case_a: BenchCase,
    case_b: BenchCase,
    r: int = DEFAULT_RUNS,
    nrep: Optional[int] = None,
    warmups: int = WARMUP_REPS,
    clock: Optional[Callable[[], float]] = None,
    seed: int = DEFAULT_SEED,
) -> tuple[RunStats, RunStats]:
    """Measure two cases with single repetitions interleaved a, b, a, b.

    Each case still gets r runs reduced exactly as in run_case; only the
    schedule differs.  Both cases share one channel per run and one echo
    side (for tcp under the real clock, one process), so every pair of
    adjacent samples sees the same thread placement and the same few
    milliseconds of machine conditions; load drift, throttling bursts and
    scheduler asymmetry all cancel out of the ratio.  A pair of cases on
    different transports raises ValueError.
    """
    stats_a, stats_b = _measure([[case_a, case_b]], r, nrep, warmups, clock, seed)[0]
    return stats_a, stats_b


# --- CSV output ---------------------------------------------------------

# whole-array indexed descriptions serialize to spec_json fields well past
# the csv module's default 128 KB cap
csv.field_size_limit(sys.maxsize)

STATS_HEADER = [
    "case_id", "spec_json", "variant", "engine", "transport",
    "m_bytes", "A", "r", "nrep", "mean_s", "min_s", "max_s",
]

def _sec(v: float) -> str:
    return f"{v:.9f}"


def _tree_json(t: Datatype | CommittedType) -> str:
    return datatype_dumps(t.datatype if isinstance(t, CommittedType) else t)


def write_stats_csv(path: str, rows: Sequence[RunStats]) -> None:
    """One row per case; a tree several cases share is serialized once."""
    trees: dict[int, str] = {}
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(STATS_HEADER)
        for s in rows:
            c = s.case
            spec = c.spec_json
            if spec is None:
                if id(c.datatype) not in trees:
                    trees[id(c.datatype)] = _tree_json(c.datatype)
                spec = trees[id(c.datatype)]
            w.writerow([
                c.case_id, spec, c.variant, c.engine, c.transport,
                c.m_bytes, "" if c.A is None else c.A, s.r, s.nrep,
                _sec(s.mean_s), _sec(s.min_s), _sec(s.max_s),
            ])


def write_raw_json(path: str, rows: Sequence[RunStats]) -> None:
    """Sidecar with every individual sample, one object per case."""
    payload = [
        {
            "case_id": s.case.case_id,
            "r": s.r,
            "nrep": s.nrep,
            "runs": [list(samples) for samples in s.raw_samples],
        }
        for s in rows
    ]
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def read_stats_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))
