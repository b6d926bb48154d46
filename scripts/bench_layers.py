#!/usr/bin/env python3
"""Time the pipeline layer by layer for a fixed reference set of layouts.

For each layout it times the set-up (`layouts.build`; `typecore.commit` of
a copy of the built tree that was never committed, so the whole unit is
derived; `commit_again`: committing the built tree once more, which reads
the unit its first commit stored on it; `normalizer.normalize`;
`typecore.equivalent` of the layout against its normalized form;
`equivalent_family`: `typecore.equivalent` of each count-1 alternative of
the layout's family against the family reference, whose count differs
for all but rowcol, or None for a layout with no such alternative;
`compile`: building a `packer.CompiledEngine`; `compile_again`: building a
second engine of the same committed type; and `plan`: compile plus
choosing the copy path, all a first copy does before moving bytes),
committing and normalizing a fresh tree in every repetition (`compile` and
`plan` get a freshly committed type), then one pack, one unpack and one
memcpy of the same payload size, and prints the segment count and the copy
path that ran (`CompiledEngine.strategy`; the interpreted engine always
walks the tree).
Pack, unpack and memcpy are interleaved within each repetition so host
speed drift hits all three alike; each figure is a median with its
quartiles, in microseconds.

Next it times inmem round trips on one core: the raw, typed and packed
variants of tiled A=2, bucket A=2, alternating A=10 and
alternating_repeated A=2 at 2.56 MB, of rowcol A=100 (n=10240), of tiled
A=2 at 3.2 KB, of tiled A=10000 at 2.56 MB (64 segments, one periodic
piece) and of block_indexed A=100 at 3.2 KB (8 segments, 8 lone pieces)
on the compiled engine, and of tiled A=2 at 3.2 KB on the interpreted
engine, with the typed/packed ratio (G2/G3).  It times the same three
variants over tcp, both processes on one core, for contiguous at 2.56 MB
and 3.2 KB, tiled A=1000 at 2.56 MB and tiled A=10 at 3.2 KB.

Then it sweeps where a tcp typed message is better gathered from and
scattered into its region's runs than packed and unpacked: for each
segment count and segment length of a vector layout, the median round trip
of each path, the two alternating repetition by repetition on one
connection between two processes on one core.  Each point has two
engines, one built to gather and one to pack, through the packer's rule
(`packer._RUNS_MEAN_MIN`, `packer._RUNS_FEW`).  The shortest segment
length from which the runs win at every count is the crossover, and the
same per count.

It then times the harness's fixed cost on the tcp carrier under the real
clock: a 64-byte raw `run_case` (r=1, nrep=1) on its own, which forks
and stops an echo process of its own; the same measurement within an open
`bench.echo_session`, whose process is already running; and one tcp
`basic_layouts` experiment over the grid of perfbench's coarse_tcp sweep.

Then it times the set-up share of all 11 experiments: each runs at r=1,
nrep=1 under a deterministic fake clock, so no timing happens and its wall
time is all set-up (building, committing and normalizing descriptions,
making engines, filling regions, and the few copies of the schedule).  For
each experiment it reports the seconds, the top-level `typecore._layout`
calls (one per commit of a tree) and the seconds spent in `bench._prepare`,
read by wrapping both for the duration of the section.  It also times the
copy-path choice (`CompiledEngine.strategy`) of three count-1 indexed
descriptions, block_indexed and alternating_indexed A=2 at 2.56 MB and
rowcol A=100 (n=10240), on an engine built outside the timing.

Last it sweeps the kernels a compiled engine may copy a periodic piece
by (`packer._KERNELS`): for each pattern, period, starting offset and
payload size of the sweep, the median time of every kernel in every
direction (pack, unpack, across), the kernels alternating in order
repetition by repetition on one core, with the kernel the packer's table
picks and the one the packer used before the table, and for a one-field
pattern of words the word gather as well; then, per payload size and
direction, how often the pick is within 10 % of the fastest kernel and
its worst ratios to the fastest and to the former kernel.  Each kernel's
move comes from the packer's per-direction builder (`packer._piece_move`)
and runs through its copy loop (`packer._run_moves`).

With `--setup-only` it times only the set-up stages of every reference
layout (stored under `setup`) and the set-up share, so the many
alternating runs that set-up figures need are quick.  `--runs N` makes
N runs of the chosen sections, each in a new process, and
`--tree LABEL=DIR`, given once per checkout, alternates them between
checkouts of two trees, each run by the checkout's own copy of this
script when it has one, so each tree's sweeps reach its own packer.
`--summary FILE` prints, for each tree of a file of such runs, the
min-max over its runs of every tcp round-trip row, of the median of each
tcp harness row and of every crossover point.

The results, with the host, CPU count, Python and numpy versions, the git
sha of the tree `typeforge` is imported from (with "-dirty" when it has
uncommitted changes) and the clock's
resolution and call cost, are stored under `--label`
in the JSON file `--out`, so runs of two trees can sit side by side:

    PYTHONPATH=src python scripts/bench_layers.py --label change --out BENCH_6.json
    PYTHONPATH=src python scripts/bench_layers.py --setup-only --label change --out BENCH_22.json
    PYTHONPATH=src python scripts/bench_layers.py --label x --runs 3 \
        --tree parent=../parent --tree change=. --out BENCH_23.json
    PYTHONPATH=src python scripts/bench_layers.py --summary BENCH_25.json
"""

import argparse
import contextlib
import json
import multiprocessing
import os
import platform
import socket
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import typeforge
from typeforge import bench, experiments, layouts, normalizer, packer, transport, typecore

# (layout, elements, A, engine): the five fine_inmem layouts of the
# benchmark, then a tiling whose instances join, then coarse_tcp's tiled
# A=1000, then describe_sweep's long index tables, then a short list of
# lone pieces; 2.56 MB of INT payload unless the element count says
# otherwise
REFERENCE = (
    ("tiled", 640_000, 2, "compiled"),
    ("bucket", 640_000, 2, "compiled"),
    ("alternating", 640_000, 10, "compiled"),
    ("rowcol_fully_indexed", 10_240, 100, "compiled"),
    ("tiled", 800, 2, "interpreted"),
    ("alternating_repeated", 640_000, 2, "compiled"),
    ("tiled", 640_000, 1000, "compiled"),
    ("block_indexed", 640_000, 2, "compiled"),
    ("alternating_indexed", 640_000, 2, "compiled"),
    ("rowcol_fully_indexed", 10_240, 1000, "compiled"),
    ("block_indexed", 800, 100, "compiled"),
)


def _quartiles(samples: list[float]) -> dict[str, float]:
    q1, med, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"p25_us": q1 * 1e6, "median_us": med * 1e6, "p75_us": q3 * 1e6}


def _clock_call_ns(calls: int = 100_000) -> float:
    clock = time.perf_counter
    start = clock()
    for _ in range(calls):
        clock()
    return (clock() - start) / calls * 1e9


def environment() -> dict:
    """The machine record; the git sha is that of the tree `typeforge` is
    imported from."""
    root = os.path.dirname(os.path.abspath(typeforge.__file__))
    try:
        sha = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                             cwd=root, capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": sha,
        "clock_resolution_s": time.get_clock_info("perf_counter").resolution,
        "clock_call_ns": round(_clock_call_ns(), 1),
    }


def _timed(fn, reps: int, fresh=None) -> tuple[dict, object]:
    """Quartiles of `reps` calls of `fn`, and the last call's result.  With
    `fresh`, every call gets a new `fresh()`, made outside the timing."""
    times = []
    for _ in range(reps):
        args = (fresh(),) if fresh else ()
        start = time.perf_counter()
        out = fn(*args)
        times.append(time.perf_counter() - start)
    return _quartiles(times), out


def setup(layout: str, n: int, A: int, reps: int) -> dict:
    """Set-up stages of one layout, each timed on its own.  Commit reads a
    tree that was never committed, and normalize one built afresh, for
    each call, as a new experiment would; `commit_again` commits the built
    tree, which its build has committed already."""
    spec = layouts.LayoutSpec(id=layout, n=n, A=A)
    out = {}
    out["build"], built = _timed(lambda: layouts.build(spec), reps)
    ct, count = built.committed, built.count
    # `build` commits its tree, so commit a JSON copy, which holds no unit
    out["commit"], _ = _timed(typecore.commit, reps,
                              lambda: typecore.datatype_loads(typecore.datatype_dumps(ct.datatype)))
    out["commit_again"], _ = _timed(lambda: typecore.commit(ct.datatype), reps)
    out["normalize"], report = _timed(normalizer.normalize, reps,
                                      lambda: layouts.build(spec).committed)
    normal = report.committed_output
    out["equivalent"], _ = _timed(lambda: typecore.equivalent(ct, count, normal, count), reps)
    out["equivalent_family"] = _family_equivalence(spec, reps)
    # the first engine of a committed type reads the unit's byte bounds;
    # a second engine of the same type finds them computed
    def fresh():
        return typecore.commit(layouts.build(spec).datatype)

    out["compile"], _ = _timed(lambda ct: packer.CompiledEngine(ct, count), reps, fresh)
    packer.CompiledEngine(ct, count)
    out["compile_again"], _ = _timed(lambda: packer.CompiledEngine(ct, count), reps)
    out["plan"], _ = _timed(lambda ct: packer.CompiledEngine(ct, count).strategy, reps, fresh)
    return out


def _family_equivalence(spec: layouts.LayoutSpec, reps: int) -> dict | None:
    """Quartiles of one `equivalent` call per count-1 alternative of the
    layout's family against the family reference, or None."""
    try:
        reference, *alternatives = layouts.build_alternatives(spec)
    except layouts.BadParams:
        return None
    alternatives = [built for built in alternatives if built.count == 1]
    if not alternatives:
        return None
    quartiles, same = _timed(lambda: [
        typecore.equivalent(built.committed, 1, reference.committed, reference.count)
        for built in alternatives], reps)
    assert all(same)
    return quartiles


def measure(layout: str, n: int, A: int, engine: str, reps: int) -> dict:
    built = layouts.build(layouts.LayoutSpec(id=layout, n=n, A=A))
    ct, count = built.committed, built.count
    stages = setup(layout, n, A, 5)
    program = packer.CompiledEngine(ct, count)
    eng = packer.make_engine(engine, ct, count)
    region = np.zeros(eng.span, dtype=np.uint8)
    eng.unpack_message(bench._seeded_bytes(1, eng.total_bytes), region)
    src = np.frombuffer(bytes(eng.pack_message(region)), dtype=np.uint8)
    dst = np.empty_like(src)
    times = {"pack": [], "unpack": [], "memcpy": []}
    for _ in range(reps):
        start = time.perf_counter()
        eng.pack_message(region)
        times["pack"].append(time.perf_counter() - start)
        start = time.perf_counter()
        eng.unpack_message(src, region)
        times["unpack"].append(time.perf_counter() - start)
        start = time.perf_counter()
        np.copyto(dst, src)
        times["memcpy"].append(time.perf_counter() - start)
    out = {
        "layout": layout, "n": n, "A": A, "engine": engine,
        "payload_bytes": eng.total_bytes,
        "segments": program.segment_count,
        "strategy": program.strategy if engine == "compiled" else "walk",
        "compile": stages.pop("compile"),
        "setup": stages,
    }
    out.update({k: _quartiles(v) for k, v in times.items()})
    memcpy = out["memcpy"]["median_us"]
    out["pack_vs_memcpy"] = out["pack"]["median_us"] / memcpy
    out["unpack_vs_memcpy"] = out["unpack"]["median_us"] / memcpy
    return out


def harness() -> dict:
    """Quartiles, in microseconds, of the fixed cost of real-clock tcp
    measurements (see the module docstring): 5 lone measurements, 21
    within one session, 3 experiments."""
    case = bench.BenchCase("raw64", None, 0, "raw", "compiled", "tcp", 64)
    plan = experiments.make_plan("basic_layouts", A_values=(10, 1000),
                                 sizes=(3_200, 2_560_000), r=1, nrep=1, transport="tcp")

    def measure_once():
        return bench.run_case(case, r=1, nrep=1)

    out = {}
    out["lone_run_case"], _ = _timed(measure_once, 5)
    with bench.echo_session():
        measure_once()
        out["run_case_in_session"], _ = _timed(measure_once, 21)
    out["coarse_tcp_experiment"], _ = _timed(lambda: experiments.run_experiment(plan), 3)
    return out


# (layout, elements, A, engine) of the round-trip section: four periodic
# layouts at 2.56 MB (the last a tiling whose instances join), a row and a
# column, tiled A=2 at 3.2 KB on both engines, a tiling of 64 instances,
# and a short list of lone pieces
ROUND_TRIPS = (
    ("tiled", 640_000, 2, "compiled"),
    ("bucket", 640_000, 2, "compiled"),
    ("alternating", 640_000, 10, "compiled"),
    ("alternating_repeated", 640_000, 2, "compiled"),
    ("rowcol_fully_indexed", 10_240, 100, "compiled"),
    ("tiled", 800, 2, "compiled"),
    ("tiled", 800, 2, "interpreted"),
    ("tiled", 640_000, 10_000, "compiled"),
    ("block_indexed", 800, 100, "compiled"),
)


@contextlib.contextmanager
def one_core():
    """Pin this process, and so both inmem parties, to one core, for the
    duration of the block."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(before)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


# (layout, elements, A, engine) of the tcp round trips: perfbench's
# coarse_tcp cases
TCP_ROUND_TRIPS = (
    ("contiguous", 640_000, 0, "compiled"),
    ("contiguous", 800, 0, "compiled"),
    ("tiled", 640_000, 1000, "compiled"),
    ("tiled", 800, 10, "compiled"),
)


def round_trips(cases: tuple, carrier: str, r: int = 3) -> list[dict]:
    """Median round trip, in microseconds, of the raw, typed and packed
    variants of each of `cases` over `carrier` on one core (over tcp,
    with the echo process on the same core): typed and packed alternate
    repetition by repetition (`run_pair`), raw is measured on its own;
    each figure is the median of `r` run medians."""
    rows = []
    with one_core(), bench.echo_session():
        for layout, n, A, engine in cases:
            built = layouts.build(layouts.LayoutSpec(id=layout, n=n, A=A))
            ct, count = built.committed, built.count

            def case(variant):
                return bench.BenchCase(f"{layout}/{variant}", ct, count, variant,
                                       engine, carrier, ct.size * count, A)

            typed, packed = bench.run_pair(case("typed"), case("packed"), r=r)
            raw = bench.run_case(case("raw"), r=r)
            row = {"layout": layout, "n": n, "A": A, "engine": engine,
                   "payload_bytes": ct.size * count}
            for name, stats in (("raw", raw), ("typed", typed), ("packed", packed)):
                row[f"{name}_us"] = statistics.median(stats.run_medians) * 1e6
            row["typed_over_packed"] = row["typed_us"] / row["packed_us"]
            rows.append(row)
    return rows


# segment counts and lengths (bytes) of the gather-or-pack sweep; 80 runs
# of 40 bytes are coarse_tcp's tiled A=10 at 3.2 KB, and 1023 is the most
# runs a message gathers (IOV_MAX less the header)
SWEEP_SEGMENTS = (2, 8, 16, 32, 80, 128, 1023)
SWEEP_BYTES = (40, 64, 256, 512, 1024, 2048, 3072, 4096)
SWEEP_REPS = 31


def _sweep_engines() -> list:
    """Per (segments, bytes) of the sweep, a vector of that many blocks of
    that length, each followed by a gap as long, as two compiled engines:
    one that gathers (index 0) and one that packs (index 1), each path
    fixed when its engine is built, through the packer's rule: a
    mean-length floor of 0 gathers every point, and a floor no payload
    reaches, with no runs gathered at any length (`packer._RUNS_FEW` 0),
    packs every point."""
    int_ = typecore.Base(typecore.BaseKind.INT)
    saved = packer._RUNS_MEAN_MIN, packer._RUNS_FEW
    pairs = []
    try:
        for k in SWEEP_SEGMENTS:
            for b in SWEEP_BYTES:
                pair = []
                for floor, few in ((0, saved[1]), (sys.maxsize, 0)):
                    packer._RUNS_MEAN_MIN, packer._RUNS_FEW = floor, few
                    eng = packer.make_engine("compiled", typecore.Vector(k, b // 4, b // 2, int_), 1)
                    eng.runs  # read once, and kept, under this rule
                    pair.append(eng)
                pairs.append(pair)
    finally:
        packer._RUNS_MEAN_MIN, packer._RUNS_FEW = saved
    return pairs


def _sweep_side(ep, reps: int) -> list:
    """Round trips of every sweep point, by its gathering (index 0) and its
    packing (index 1) engine, alternating which goes first; both parties
    run this."""
    pairs = _sweep_engines()
    regions = [np.zeros(pair[0].span, dtype=np.uint8) for pair in pairs]
    out = [([], []) for _ in pairs]
    for rep in range(reps):
        for i, pair in enumerate(pairs):
            for path in (rep % 2, 1 - rep % 2):
                eng = pair[path]
                out[i][path].append(transport.pingpong_typed(
                    ep, eng.committed, eng.count, regions[i], eng))
    return out


def _sweep_echo(port: int, reps: int) -> None:
    """Body of the sweep's echo process."""
    ep = transport.tcp_connect(port, peer_id="pong")
    try:
        _sweep_side(ep, reps)
    finally:
        ep.close()


def crossover(reps: int = SWEEP_REPS) -> dict:
    """The gather-or-pack sweep (see the module docstring)."""
    with one_core():
        listener, port = transport.tcp_listener()
        child = multiprocessing.get_context("spawn").Process(target=_sweep_echo,
                                                             args=(port, reps))
        child.start()
        try:
            ep = transport.tcp_accept(listener, peer_id="ping")
        finally:
            listener.close()
        try:
            times = _sweep_side(ep, reps)
        finally:
            ep.close()
            child.join(60)
            if child.is_alive():
                child.kill()
                child.join()
    points = []
    for (k, b), (gathered, packed) in zip(
            [(k, b) for k in SWEEP_SEGMENTS for b in SWEEP_BYTES], times):
        g, p = statistics.median(gathered) * 1e6, statistics.median(packed) * 1e6
        points.append({"segments": k, "segment_bytes": b, "gathered_us": g,
                       "packed_us": p, "gathered_over_packed": g / p})
    return {"reps": reps, "points": points,
            "floor_bytes": _floor(points, SWEEP_SEGMENTS),
            "floor_bytes_by_segments": {k: _floor(points, (k,)) for k in SWEEP_SEGMENTS}}


def _floor(points: list, counts: tuple) -> int | None:
    """The shortest segment length from which the runs win at each of
    `counts` and every longer length of the sweep, or None."""
    floor = None
    for b in reversed(SWEEP_BYTES):
        if any(pt["gathered_over_packed"] >= 1 for pt in points
               if pt["segment_bytes"] == b and pt["segments"] in counts):
            break
        floor = b
    return floor


# the kernel sweep: periodic pieces of one field of each width (bytes), of
# two of the same width, and of the two-field patterns of bucket (4, 12)
# and alternating (36, 44), the second field 4 bytes after the first; at
# each period (bytes; 24 and 96 are alternating_repeated's and
# alternating's, 4000 rowcol A=1000's); starting at each region byte
# offset; at each payload size, the region held to `KERNEL_REGION_MAX` bytes
KERNEL_WIDTHS = (4, 8, 12, 16, 36, 44)
KERNEL_PATTERNS = tuple((w,) for w in KERNEL_WIDTHS) + tuple(
    (w, w) for w in KERNEL_WIDTHS) + ((4, 12), (36, 44))
KERNEL_PERIODS = (16, 24, 32, 64, 96, 128, 256, 512, 2048, 4000, 8192)
KERNEL_SHIFTS = (0, 4, 2)
KERNEL_PAYLOADS = (3_200, 2_560_000)
KERNEL_REGION_MAX = 16 << 20
DIRECTIONS = ("pack", "unpack", "across")
KERNEL_REPS = 11


def _former_kernel(way: int, pattern: tuple, period: int) -> str:
    """The kernel the packer used before the kernel table: record-wise
    packing and unpacking, and across, a column per field, staged for
    integer words more than 2048 bytes apart (here when every field is a
    word; the packer staged only those fields that were)."""
    if way < 2:
        return "record"
    return "staged" if all(n in (1, 2, 4, 8) for n in pattern) and period > 2048 else "column"


def _kernel_point(piece, shift: int, reps: int) -> dict:
    """Median microseconds of every kernel in every direction for one
    periodic piece starting `shift` bytes into its region, the kernels
    alternating in order repetition by repetition; for a one-field piece of
    integer words, also the word gather (a take into the payload and an
    indexed store back) the compiled engine runs for a list it cannot
    split."""
    rows, period, width = piece.rows, piece.period, max(piece.pat)
    span = shift + (rows - 1) * period + piece.rel[-1] + piece.pat[-1]
    src = np.frombuffer(bench._seeded_bytes(2, span), dtype=np.uint8)
    dst = np.full(span, 0xAA, dtype=np.uint8)
    payload = np.empty(rows * piece.row_bytes, dtype=np.uint8)
    kernels = packer._KERNEL_NAMES
    moves = {k: [(packer._piece_move(piece, way, shift, 0, k),) for way in range(3)]
             for k in kernels}
    ends = ((src, payload), (payload, dst), (src, dst))
    times = [{k: [] for k in kernels} for _ in DIRECTIONS]
    gather = len(piece.pat) == 1 and width in (1, 2, 4, 8) and shift % width == 0
    if gather:
        dt = np.dtype(f"u{width}")
        index = np.arange(shift // width, rows * period // width, period // width)
        gathers = {"gather_pack": (("take", index, dt),), "gather_unpack": (("put", index, dt),)}
        times.append({k: [] for k in gathers})
    for rep in range(reps):
        for k in kernels[:: 1 if rep % 2 == 0 else -1]:
            for way, (a, b) in enumerate(ends):
                start = time.perf_counter()
                packer._run_moves(moves[k][way], a, b)
                times[way][k].append(time.perf_counter() - start)
        if gather:
            for (k, moves_k), (a, b) in zip(gathers.items(), ends):
                start = time.perf_counter()
                packer._run_moves(moves_k, a, b)
                times[3][k].append(time.perf_counter() - start)
    picked = [packer._piece_move(piece, way, shift, 0) for way in range(3)]
    out = {"pattern": list(piece.pat), "period": period, "shift": shift,
           "rows": rows, "payload_bytes": rows * piece.row_bytes}
    for way, name in enumerate(DIRECTIONS):
        us = {k: statistics.median(v) * 1e6 for k, v in times[way].items()}
        out[name] = {"us": us, "picked": picked[way][0],
                     "former": _former_kernel(way, piece.pat, period)}
    if gather:
        out["gather_us"] = {k: statistics.median(v) * 1e6 for k, v in times[3].items()}
    return out


def kernel_sweep(reps: int) -> dict:
    """The kernel sweep (see the module docstring), on one core."""
    points = []
    with one_core():
        for payload in KERNEL_PAYLOADS:
            for pat in KERNEL_PATTERNS:
                rel = (0, pat[0] + 4)[: len(pat)]
                for period in KERNEL_PERIODS:
                    if rel[-1] + pat[-1] > period or pat == (period,):
                        continue
                    rows = max(2, min(payload // sum(pat), KERNEL_REGION_MAX // period))
                    piece = packer.Piece(rows, period, 0, rel, pat)
                    for shift in KERNEL_SHIFTS:
                        points.append({"target_bytes": payload,
                                       **_kernel_point(piece, shift, reps)})
    return {"reps": reps, "points": points, "summary": _kernel_summary(points)}


def _kernel_summary(points: list) -> dict:
    """Per target payload size and direction: the points, how many pick the
    fastest kernel to within 10 %, and the largest picked/fastest and
    picked/former ratios with their points."""
    out = {}
    for payload in KERNEL_PAYLOADS:
        near = [pt for pt in points if pt["target_bytes"] == payload]
        for name in DIRECTIONS:
            rows = []
            for pt in near:
                us = pt[name]["us"]
                picked = us[pt[name]["picked"]]
                rows.append((picked / min(us.values()), picked / us[pt[name]["former"]], pt))
            key = f"{payload}/{name}"
            worst_best = max(rows, key=lambda r: r[0])
            worst_former = max(rows, key=lambda r: r[1])
            out[key] = {
                "points": len(rows),
                "picked_within_10pct_of_fastest": sum(r[0] <= 1.1 for r in rows),
                "max_picked_over_fastest": worst_best[0],
                "at": _point_name(worst_best[2]),
                "max_picked_over_former": worst_former[1],
                "former_at": _point_name(worst_former[2]),
                "median_picked_over_former": statistics.median(r[1] for r in rows),
            }
    return out


def _point_name(pt: dict) -> str:
    return (f"{pt['pattern']}@{pt['period']}+{pt['shift']}"
            f" rows={pt['rows']}")


def print_kernel_sweep(reps: int) -> dict:
    """`kernel_sweep`, printed as its summary."""
    sweep = kernel_sweep(reps)
    print(f"{'kernel sweep, one core':<24}{'points':>7}{'~fastest':>9}{'max/fast':>9}"
          f"{'max/former':>11}{'med/former':>11}  worst against former")
    for key, row in sweep["summary"].items():
        print(f"{key:<24}{row['points']:>7}{row['picked_within_10pct_of_fastest']:>9}"
              f"{row['max_picked_over_fastest']:>9.2f}{row['max_picked_over_former']:>11.2f}"
              f"{row['median_picked_over_former']:>11.2f}  {row['former_at']}", flush=True)
    return sweep


class FakeClock:
    """Per-thread counter advancing by a fixed power-of-two step per call."""

    def __init__(self, step: float = 2**-10):
        self.step = step
        self._local = threading.local()

    def __call__(self) -> float:
        value = getattr(self._local, "value", 0.0) + self.step
        self._local.value = value
        return value


class Tally:
    """Calls of `module.name`, and the seconds spent in them, while
    installed; calls made from within a call are not counted again."""

    def __init__(self, module, name: str):
        self.calls = 0
        self.seconds = 0.0
        self._module, self._name = module, name
        self._real = getattr(module, name)
        self._depth = threading.local()

    def _counting(self, *args):
        depth = getattr(self._depth, "n", 0)
        self._depth.n = depth + 1
        start = time.perf_counter()
        try:
            return self._real(*args)
        finally:
            self._depth.n = depth
            if depth == 0:
                self.calls += 1
                self.seconds += time.perf_counter() - start

    def __enter__(self):
        setattr(self._module, self._name, self._counting)
        return self

    def __exit__(self, *exc):
        setattr(self._module, self._name, self._real)


def _strategy_time(layout: str, n: int, A: int, reps: int) -> dict:
    """Quartiles of the copy-path choice of a count-1 layout, each on an
    engine built outside the timing."""
    built = layouts.build(layouts.LayoutSpec(id=layout, n=n, A=A))
    assert built.count == 1
    quartiles, _ = _timed(lambda eng: eng.strategy, reps,
                          lambda: packer.CompiledEngine(built.committed, built.count))
    return quartiles


def setup_share(reps: int) -> dict:
    """Set-up of every experiment under the fake clock, and the copy-path
    choice of count-1 block_indexed A=2, alternating_indexed A=2 and rowcol
    A=100 (see the module docstring)."""
    rows = {}
    for experiment in experiments.EXPERIMENT_IDS:
        plan = experiments.make_plan(experiment, r=1, nrep=1)
        with Tally(typecore, "_layout") as layout, Tally(bench, "_prepare") as prepare:
            start = time.perf_counter()
            experiments.run_experiment(plan, clock=FakeClock())
            seconds = time.perf_counter() - start
        rows[experiment] = {"seconds": seconds, "layout_calls": layout.calls,
                            "prepare_s": prepare.seconds}
    return {
        "experiments": rows,
        "total_s": sum(row["seconds"] for row in rows.values()),
        "prepare_s": sum(row["prepare_s"] for row in rows.values()),
        "layout_calls": sum(row["layout_calls"] for row in rows.values()),
        "block_indexed_A2_strategy": _strategy_time("block_indexed", 640_000, 2, reps),
        "alternating_indexed_A2_strategy": _strategy_time("alternating_indexed", 640_000, 2, reps),
        "rowcol_A100_strategy": _strategy_time("rowcol_fully_indexed", 10_240, 100, reps),
    }


def print_setup_share(reps: int) -> dict:
    """`setup_share`, printed as a table."""
    share = setup_share(reps)
    print(f"{'experiment':<22}{'seconds':>9}{'_layout calls':>15}{'_prepare s':>12}")
    for name, row in share["experiments"].items():
        print(f"{name:<22}{row['seconds']:>9.2f}{row['layout_calls']:>15}"
              f"{row['prepare_s']:>12.3f}")
    print(f"{'total':<22}{share['total_s']:>9.2f}{share['layout_calls']:>15}"
          f"{share['prepare_s']:>12.3f}")
    print(f"strategy of count-1 block_indexed A=2, alternating_indexed A=2, rowcol A=100 "
          f"(median us): {share['block_indexed_A2_strategy']['median_us']:.0f}, "
          f"{share['alternating_indexed_A2_strategy']['median_us']:.0f}, "
          f"{share['rowcol_A100_strategy']['median_us']:.0f}", flush=True)
    return share


# the set-up stages of `setup`, in the order `setup_rows` prints them
SETUP_STAGES = ("build", "commit", "commit_again", "normalize", "equivalent",
                "equivalent_family", "compile", "compile_again", "plan")


def setup_rows(reps: int) -> list[dict]:
    """The set-up stages of every reference layout, `reps` calls each,
    printed as medians in microseconds."""
    print(f"{'layout':<34}" + "".join(f"{name[:8]:>9}" for name in SETUP_STAGES))
    rows = []
    for layout, n, A, _ in REFERENCE:
        stages = setup(layout, n, A, reps)
        rows.append({"layout": layout, "n": n, "A": A, "setup": stages})
        print(f"{f'{layout}/A{A}/n{n}':<34}" + "".join(
            f"{stages[k]['median_us']:>9.0f}" if stages[k] else f"{'-':>9}"
            for k in SETUP_STAGES), flush=True)
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", help="key of this run in the output file (required "
                                    "unless --summary)")
    ap.add_argument("--out", default="BENCH.json", help="JSON file to add the run to")
    ap.add_argument("--reps", type=int, default=41, help="timed repetitions per layout")
    ap.add_argument("--setup-only", action="store_true",
                    help="time the set-up stages and the set-up share only")
    ap.add_argument("--runs", type=int, default=1,
                    help="runs of the chosen sections, each in a fresh process, "
                         "stored as <label>/1, <label>/2, ...")
    ap.add_argument("--tree", action="append", default=[], metavar="LABEL=DIR",
                    help="with --runs: alternate every run between these typeforge "
                         "checkouts (DIR/src first on the import path, and DIR's own "
                         "scripts/bench_layers.py when it has one), stored as "
                         "LABEL/1, ...; the first tree goes first in odd runs")
    ap.add_argument("--summary", metavar="FILE",
                    help="print each tree's min-max over the runs of FILE for every "
                         "tcp round-trip row, tcp harness median and crossover point, "
                         "and run nothing")
    args = ap.parse_args(argv)
    if args.summary:
        return print_summary(args.summary)
    if not args.label:
        ap.error("--label is required")
    if args.runs > 1 or args.tree:
        return _alternating_runs(args)
    if args.setup_only:
        run = {"environment": environment(), "reps": args.reps, "setup": setup_rows(args.reps),
               "setup_share": print_setup_share(args.reps)}
        return _store(args, run)

    rows = []
    print(f"{'layout':<34}{'engine':<12}{'segments':>9} {'strategy':<9}"
          f"{'build':>8}{'commit':>8}{'again':>8}{'normal':>8}{'equiv':>8}{'family':>8}"
          f"{'compile':>8}{'again':>8}{'plan':>8}{'pack':>8}{'unpack':>8}{'memcpy':>8}"
          f"{'pack/mc':>8}")
    for layout, n, A, engine in REFERENCE:
        row = measure(layout, n, A, engine, args.reps)
        rows.append(row)
        stages = [row["setup"][k] for k in ("build", "commit", "commit_again", "normalize",
                                            "equivalent", "equivalent_family")]
        stages += [row["compile"], row["setup"]["compile_again"], row["setup"]["plan"]]
        stages += [row[k] for k in ("pack", "unpack", "memcpy")]
        print(f"{f'{layout}/A{A}/n{n}':<34}{engine:<12}{row['segments']:>9} "
              f"{row['strategy']:<9}"
              + "".join(f"{q['median_us']:>8.0f}" if q else f"{'-':>8}" for q in stages)
              + f"{row['pack_vs_memcpy']:>8.1f}", flush=True)

    trips = round_trips(ROUND_TRIPS, "inmem")
    tcp_trips = round_trips(TCP_ROUND_TRIPS, "tcp")
    for name, rows_ in (("inmem", trips), ("tcp", tcp_trips)):
        print(f"{name + ' round trip, one core':<34}{'engine':<12}{'raw':>8}{'typed':>8}"
              f"{'packed':>8}{'typed/packed':>14}")
        for row in rows_:
            label = f"{row['layout']}/A{row['A']}/n{row['n']}"
            print(f"{label:<34}{row['engine']:<12}"
                  + "".join(f"{row[k + '_us']:>8.0f}" for k in ("raw", "typed", "packed"))
                  + f"{row['typed_over_packed']:>14.2f}", flush=True)

    sweep = crossover()
    print("tcp typed round trip, gathered/packed, one core "
          f"(rows: segments; columns: segment bytes {SWEEP_BYTES})")
    for k in SWEEP_SEGMENTS:
        print(f"{k:>6}" + "".join(f"{pt['gathered_over_packed']:>8.2f}"
                                  for pt in sweep["points"] if pt["segments"] == k))
    print(f"runs win from {sweep['floor_bytes']} bytes per segment at every count; "
          "by count: " + ", ".join(f"{k}: {b}" for k, b in
                                   sweep["floor_bytes_by_segments"].items()), flush=True)

    cost = harness()
    print("tcp harness, real clock (median us): " + ", ".join(
        f"{name} {q['median_us']:.0f}" for name, q in cost.items()), flush=True)

    share = print_setup_share(args.reps)
    kernels = print_kernel_sweep(KERNEL_REPS)
    return _store(args, {"environment": environment(), "reps": args.reps, "layouts": rows,
                         "round_trips": trips, "tcp_round_trips": tcp_trips,
                         "crossover": sweep, "tcp_harness": cost, "setup_share": share,
                         "kernel_sweep": kernels})


def _alternating_runs(args) -> int:
    """`--runs` runs of the chosen sections, each in a new process of this
    script, alternating between the `--tree` checkouts (or this one's
    import path) run by run, so host speed drift hits every tree alike."""
    trees = [tuple(spec.split("=", 1)) for spec in args.tree] or [(args.label, None)]
    sections = ["--setup-only"] if args.setup_only else []
    for run in range(1, args.runs + 1):
        for label, root in trees if run % 2 else trees[::-1]:
            env, script = dict(os.environ), os.path.abspath(__file__)
            if root is not None:
                env["PYTHONPATH"] = os.pathsep.join(
                    filter(None, (os.path.join(root, "src"), env.get("PYTHONPATH"))))
                # the tree's own script, whose sweeps reach its own packer
                own = os.path.join(root, "scripts", "bench_layers.py")
                script = own if os.path.isfile(own) else script
            print(f"--- run {run} of {label}", flush=True)
            subprocess.run([sys.executable, script, "--label", f"{label}/{run}",
                            "--out", args.out, "--reps", str(args.reps), *sections],
                           env=env, check=True)
    return 0


def summary(doc: dict) -> dict:
    """Per row name, per tree, the values of that row over the tree's runs
    in `doc` (a file of runs stored as LABEL/1, LABEL/2, ...): the raw,
    typed and packed tcp round trips (us) and their typed/packed ratio,
    the median (us) of each tcp harness row, and each crossover point's
    gathered/packed ratio."""
    trips, points = {}, {}
    for label, run in doc.items():
        tree = label.rsplit("/", 1)[0]
        for row in run.get("tcp_round_trips") or ():
            name = f"tcp {row['layout']}/A{row['A']}/n{row['n']}"
            for key in ("raw_us", "typed_us", "packed_us", "typed_over_packed"):
                trips.setdefault(f"{name} {key}", {}).setdefault(tree, []).append(row[key])
        for name, q in (run.get("tcp_harness") or {}).items():
            trips.setdefault(f"tcp harness {name} median_us", {}).setdefault(
                tree, []).append(q["median_us"])
        for pt in (run.get("crossover") or {}).get("points", ()):
            points.setdefault((pt["segments"], pt["segment_bytes"]), {}).setdefault(
                tree, []).append(pt["gathered_over_packed"])
    # the crossover points in grid order, whichever tree measured them first
    return trips | {f"crossover {k}x{b} B gathered/packed": points[k, b]
                    for k, b in sorted(points)}


def print_summary(path: str) -> int:
    """`summary` of the JSON file `path`, one row per line, one min-max
    column per tree."""
    with open(path) as fh:
        rows = summary(json.load(fh))
    trees = list(dict.fromkeys(tree for row in rows.values() for tree in row))
    print(f"{'min-max over runs':<48}" + "".join(f"{tree:>16}" for tree in trees))
    for name, row in rows.items():
        digits = 0 if name.endswith("_us") else 2
        cells = [f"{min(row[t]):.{digits}f}-{max(row[t]):.{digits}f}" if t in row else "-"
                 for t in trees]
        print(f"{name:<48}" + "".join(f"{cell:>16}" for cell in cells))
    return 0


def _store(args, run: dict) -> int:
    """Add `run` to the JSON file `--out` under `--label`."""
    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc[args.label] = run
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.label} to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
