"""The closed-loop exchange: one ping client with one round trip in
flight, echoed by one pong party.

The exchange runs in rounds: one round trip per case (and, when traced,
one traced and one raw round trip too).  Before each round the ping side
sends one small control frame (warm-up, timed round r, or stop); both
sides derive the round's operations from it and the seed with
`round_ops`, so no control traffic falls between the round trips of a
round.  inmem echoes from one thread of this process; tcp echoes from one
spawned process over one loopback connection, the placement the library's
harness uses under the real clock.  Both parties inherit the one core the
run is pinned to (see measure.run).
"""

from __future__ import annotations

import multiprocessing
import struct
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from typeforge import transport as tp

from oracle import seeded_region
from tracing import END, START, NoTrace, TracedEndpoint, TracedEngine, Tracer

TYPED, TRACED, RAW = range(3)
WARM, TIMED, STOP = range(3)  # control frame kinds
_CTL = struct.Struct("<Bq")  # kind, round number
WARMUP_ROUNDS = 5
MIN_SAMPLES = 100  # timed round trips per case and operation in a run, at least
OVERTIME_S = 60.0  # give up reaching MIN_SAMPLES this long after the budget


@dataclass
class Party:
    """One side's view of every case: datatype, engine and regions.

    Regions are sized from the engine's public window (span bytes starting
    at layout offset origin) and filled from the seed; ping and pong use
    different streams so that a byte that was never delivered shows.
    """

    cases: list  # per case: (committed type, count, engine)
    regions: list = field(default_factory=list)
    raws: list = field(default_factory=list)
    traced: list = field(default_factory=list)

    @classmethod
    def make(cls, cases, seed: int, role: int, tr) -> "Party":
        party = cls(cases)
        for i, (_, _, eng) in enumerate(cases):
            party.regions.append(seeded_region(eng.span, seed, i, role))
            party.raws.append(seeded_region(eng.total_bytes, seed, i, role + 2))
            party.traced.append(TracedEngine(eng, tr) if tr.enabled else None)
        return party


def round_ops(n: int, seed: int, kind: int, r: int, trace: bool) -> list[tuple[int, int]]:
    """The (case, operation) pairs of one round, the same on both sides.

    Each round visits the n cases in its own order, drawn from the seed and
    the round number: a round trip's time depends on the message before it
    (a small message after a large one can take twice as long), so a fixed
    order would tie every case's figure to what the seed put before it.
    Timed rounds alternate which of the typed pair goes first, so drift
    within a round falls on traced and untraced round trips alike."""
    order = np.random.default_rng((seed, kind, r)).permutation(n).tolist()
    if kind == WARM:
        ops = (TYPED, RAW) if trace else (TYPED,)
    elif not trace:
        ops = (TYPED,)
    else:
        ops = (TRACED, TYPED, RAW) if r % 2 else (TYPED, TRACED, RAW)
    return [(i, op) for i in order for op in ops]


def _serve(ep, party: Party, seed: int, trace: bool, tr) -> None:
    """Pong loop: echo the rounds the control frames announce until STOP.
    Traced round trips are numbered in order, as on the ping side."""
    tep = TracedEndpoint(ep, tr) if trace else None
    next_rt = 0
    while True:
        kind, r = _CTL.unpack(bytes(ep.recv_msg()))
        if kind == STOP:
            return
        for i, op in round_ops(len(party.cases), seed, kind, r, trace):
            ct, count, eng = party.cases[i]
            if op == TYPED:
                tp.pingpong_typed(ep, ct, count, party.regions[i], eng)
            elif op == TRACED:
                tr.rt = next_rt
                next_rt += 1
                k = tr.begin("transport.pingpong_typed")
                tp.pingpong_typed(tep, ct, count, party.regions[i], party.traced[i])
                tr.end(k)
                tr.rt = None
            else:
                tp.pingpong_raw(ep, party.raws[i])


def _echo_process_main(port, workload_name, seed, trace, conn) -> None:
    """Body of the spawned tcp echo process.  It sets its cases up itself,
    echoes, sends its regions back over the socket, and returns its spans
    through `conn` before it exits."""
    from cases import prepare
    from workloads import WORKLOADS

    tr = Tracer() if trace else NoTrace()
    ep = tr.call("transport.connect", tp.tcp_connect, port, "pong")
    try:
        w = WORKLOADS[workload_name]
        cases = []
        for point in w.points:
            m = prepare(point, NoTrace())[0]
            cases.append((m.ct, m.count, m.eng2))
        party = Party.make(cases, seed, 1, tr)
        _serve(ep, party, seed, trace, tr)
        for region, raw in zip(party.regions, party.raws):
            ep.send_msg(region)
            ep.send_msg(raw)
    finally:
        ep.close()
        conn.send(tr.spans)
        conn.close()


@dataclass
class LoopResult:
    typed: list  # per case: untraced round-trip seconds
    traced: list  # per case: traced round-trip seconds
    raw: list  # per case: raw round-trip seconds
    rt_case: dict = field(default_factory=dict)  # traced rt id -> case
    rounds: int = 0
    traced_rounds: int = 0
    wall_s: float = 0.0  # wall time of the timed rounds
    slices: list = field(default_factory=list)  # per slice: (first round, end round, wall s)
    attempted: int = 0
    failed: int = 0
    error: str = ""
    pong_regions: list = field(default_factory=list)
    pong_raws: list = field(default_factory=list)
    pong_spans: list = field(default_factory=list)


class Exchange:
    """The ping side: owns the endpoint and the pong party's lifetime."""

    def __init__(self, workload, ping_cases, pong_cases, seed: int, trace: bool, tr):
        self.w = workload
        self.seed = seed
        self.trace = trace
        self.tr = tr
        self.ping = Party.make(ping_cases, seed, 0, tr)
        self._pong_cases = pong_cases
        self._pong_tr = Tracer() if trace else NoTrace()
        self._worker = None
        self._child = None
        self._conn = None
        self._tep = None

    # --- pong party lifetime ---

    def start(self) -> None:
        if self.w.carrier == "inmem":
            self.ep, pong_ep = self.tr.call("transport.connect", tp.make_pair, "inmem")
            self._pong = Party.make(self._pong_cases, self.seed, 1, self._pong_tr)
            self._worker = threading.Thread(target=self._pong_thread,
                                            args=(pong_ep,), daemon=True)
            self._worker.start()
        else:
            listener, port = tp.tcp_listener()
            ctx = multiprocessing.get_context("spawn")
            self._conn, child_conn = ctx.Pipe(duplex=False)
            self._child = ctx.Process(target=_echo_process_main,
                                      args=(port, self.w.name, self.seed, self.trace,
                                            child_conn))
            self._child.start()
            child_conn.close()
            try:
                self.ep = tp.tcp_accept(listener, peer_id="ping")
            except tp.TransportUnavailable:
                self._child.kill()
                self._child.join()
                raise
            finally:
                listener.close()
        self._tep = TracedEndpoint(self.ep, self.tr) if self.trace else None

    def _pong_thread(self, ep) -> None:
        try:
            _serve(ep, self._pong, self.seed, self.trace, self._pong_tr)
        finally:
            ep.close()

    def finish(self, res: LoopResult) -> None:
        """Stop the pong party, collect its regions and spans, and wait
        until it has ended."""
        try:
            self.ep.send_msg(_CTL.pack(STOP, 0))
            if self._child is not None:
                for _ in self.ping.cases:
                    res.pong_regions.append(self.ep.recv_msg())
                    res.pong_raws.append(self.ep.recv_msg())
        finally:
            self.ep.close()
        if self._worker is not None:
            self._worker.join(timeout=60.0)
            if self._worker.is_alive():
                raise RuntimeError("pong thread did not stop")
            res.pong_regions = self._pong.regions
            res.pong_raws = self._pong.raws
            res.pong_spans = self._pong_tr.spans
            return
        if self._conn.poll(60.0):
            res.pong_spans = self._conn.recv()
        self._conn.close()
        self._child.join(timeout=60.0)
        if self._child.is_alive():
            self._child.kill()
            self._child.join()
            raise RuntimeError("echo process did not exit")

    def abort(self) -> None:
        """Tear the pong party down after a failure."""
        self.ep.close()
        if self._worker is not None:
            self._worker.join(timeout=10.0)
        if self._child is not None:
            self._child.join(timeout=10.0)
            if self._child.is_alive():
                self._child.kill()
                self._child.join()

    # --- ping side ---

    def _op(self, op: int, i: int, rt: int) -> float:
        ep = self.ep
        ct, count, eng = self.ping.cases[i]
        if op == TYPED:
            return tp.pingpong_typed(ep, ct, count, self.ping.regions[i], eng)
        if op == RAW:
            return tp.pingpong_raw(ep, self.ping.raws[i])
        tr = self.tr
        tr.rt = rt
        k = tr.begin("transport.pingpong_typed")
        tp.pingpong_typed(self._tep, ct, count, self.ping.regions[i], self.ping.traced[i])
        tr.end(k)
        tr.rt = None
        span = tr.spans[k]
        return span[END] - span[START]

    def _warm_up(self, rounds: int) -> None:
        for _ in range(rounds):
            self.ep.send_msg(_CTL.pack(WARM, 0))
            for i, op in round_ops(len(self.ping.cases), self.seed, WARM, 0, self.trace):
                self._op(op, i, -1)

    def _rounds(self, res: LoopResult, until_s: float, min_rounds: int) -> None:
        """One slice: whole timed rounds until the loop's timed wall time
        reaches `until_s` and the slice has `min_rounds` rounds."""
        t0 = time.perf_counter()
        base = res.wall_s
        first = res.rounds
        while True:
            self.ep.send_msg(_CTL.pack(TIMED, res.rounds))
            for i, op in round_ops(len(self.ping.cases), self.seed, TIMED, res.rounds,
                                   self.trace):
                res.attempted += 1
                if op == TYPED:
                    res.typed[i].append(self._op(op, i, -1))
                elif op == RAW:
                    res.raw[i].append(self._op(op, i, -1))
                else:
                    rt = len(res.rt_case)
                    res.rt_case[rt] = i
                    res.traced[i].append(self._op(op, i, rt))
            res.rounds += 1
            res.wall_s = base + time.perf_counter() - t0
            if res.wall_s >= until_s and res.rounds - first >= min_rounds:
                break
            if res.wall_s >= until_s + OVERTIME_S:
                break
        res.slices.append((first, res.rounds, res.wall_s - base))

    def run(self, seconds: float, slices: int, between) -> LoopResult:
        """Warm up, then measure `seconds` of round trips in `slices` equal
        slices, with at least MIN_SAMPLES rounds over all of them.  After
        each slice `between(k)` runs with the pong party idle, so that work
        measured elsewhere in the run is spread over the same stretch of
        time as the round trips; one untimed round then warms the cases
        again."""
        n = len(self.ping.cases)
        res = LoopResult([[] for _ in range(n)], [[] for _ in range(n)],
                         [[] for _ in range(n)])
        min_rounds = -(-MIN_SAMPLES // slices)
        try:
            self._warm_up(WARMUP_ROUNDS)
            for k in range(slices):
                self._rounds(res, seconds * (k + 1) / slices, min_rounds)
                between(k)
                if k < slices - 1:
                    self._warm_up(1)
        except Exception as exc:  # a failed round trip ends the loop; it is counted
            res.failed += 1
            res.error = f"{type(exc).__name__}: {exc}"
            self.abort()
            return res
        res.traced_rounds = res.rounds if self.trace else 0
        self.finish(res)
        return res
