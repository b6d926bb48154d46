"""One run of one workload: set-up, byte checks, the timed exchange, the
harness sweep, and the metrics computed from them."""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

from typeforge import experiments

import envinfo
from cases import check_member, prepare
from exchange import Exchange
from oracle import LayoutOracle, seeded_region
from tracing import (ATTRS, END, NAME, RT, START, NoTrace, Tracer, layer_of, layer_table,
                     self_times)
from workloads import Workload, grid_points

SETUP_LAYERS = ("layouts", "typecore", "normalizer")
# equal slices the timed exchange comes in; the set-up passes after the
# first and the sweeps run spread over the gaps between them
SLICES = 12


@dataclass
class Tally:
    """Operations attempted and failed: round trips, byte checks and sweep
    grid points.  An exception or a byte mismatch is a failure."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)


@dataclass
class Report:
    metrics: dict  # name -> (value, unit)
    tally: Tally
    lines: list  # human-readable summary
    details: dict  # everything else written to the result file


def geomean(xs) -> float:
    return math.exp(statistics.fmean(math.log(x) for x in xs))


def p90(xs) -> float:
    return statistics.quantiles(xs, n=10)[-1]


def _share(total: int, slots: int, k: int) -> int:
    """How many of `total` jobs spread evenly over `slots` fall in slot k."""
    return total * (k + 1) // slots - total * k // slots


def _sweep(w: Workload, seed: int, tally: Tally, tr) -> float:
    """Run the workload's grid through experiments.run_experiment once, the
    way `typeforge run` does; return the wall time."""
    total = 0.0
    for exp, overrides in w.sweep:
        plan = experiments.make_plan(exp, r=1, nrep=1, seed=seed, **overrides)
        gc.collect()
        k = tr.begin("bench.sweep")
        t0 = time.perf_counter()
        try:
            result = experiments.run_experiment(plan)
        except Exception as exc:  # a failed grid point is counted, not fatal
            tally.check(f"sweep/{exp}: {type(exc).__name__}: {exc}", False)
            continue
        finally:
            total += time.perf_counter() - t0
            tr.end(k)
        for row in result.stats:
            tally.check(f"sweep/{row.case.case_id}", True)
    return total


def _timed_setup(w: Workload, tr, setup_times: list, pass_ranges: list) -> list:
    """One set-up pass, timed; returns its products."""
    gc.collect()
    lo = len(tr.spans)
    t0 = time.perf_counter()
    k = tr.begin("bench.setup")
    members = [prepare(p, tr) for p in w.points]
    tr.end(k)
    setup_times.append(time.perf_counter() - t0)
    pass_ranges.append((lo, len(tr.spans)))
    return members


def _direct_pass(w: Workload, seed: int, tr: Tracer) -> None:
    """The sweep's useful work, done once and directly: set up every member
    of every grid point and pack and unpack it once."""
    k = tr.begin("bench.direct")
    for exp, overrides in w.sweep:
        for point in grid_points(exp, overrides):
            for m in prepare(point, tr):
                region = seeded_region(m.eng.span, seed, 9)
                packed = tr.call("packer.pack", m.eng.pack_message, region)
                tr.call("packer.unpack", m.eng.unpack_message, packed, region)
    tr.end(k)


def run(w: Workload, seed: int, seconds: float, trace: bool, root: str) -> Report:
    tally = Tally()
    lines: list[str] = []
    details: dict = {"workload": w.name, "seed": seed, "seconds": seconds,
                     "trace": int(trace), "why": w.why}
    details["env"] = envinfo.record(root)
    # Everything from here on, with every thread and process it starts,
    # runs on one core, so every run places its work alike.  On a virtual
    # machine a wake-up across cores costs from tens of microseconds to
    # milliseconds and varies from run to run; on one core a hand-off
    # between the ping and the echo side is a plain context switch.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tr = Tracer() if trace else NoTrace()

    # set-up: the first pass makes the cases this run sends and warms the
    # library up; the others run between slices of the exchange (see below)
    setup_times, pass_ranges = [], []
    members = _timed_setup(w, tr, setup_times, pass_ranges)

    # byte checks of every member
    segments = []
    for ms in members:
        for j, m in enumerate(ms):
            oracle = _oracle(m)
            for name, ok in check_member(m, seed, oracle).items():
                tally.check(f"{m.point.label}/{m.built.spec.id}/{name}", ok)
            if j == 0:
                segments.append(oracle.segments)
    refs = [ms[0] for ms in members]
    del oracle, members  # only the reference descriptions round-trip

    # the timed exchange
    gc.collect()
    ex = Exchange(w, [(m.ct, m.count, m.eng) for m in refs],
                  [(m.ct, m.count, m.eng2) for m in refs], seed, trace, tr)
    # the sweeps and the remaining set-up passes run between slices of the
    # exchange, so that every metric samples the whole run: on a shared host
    # the machine's speed drifts over seconds, and a metric measured in one
    # stretch of the run would see only that stretch's speed
    sweep_times: list[float] = []

    def between(k: int) -> None:
        for _ in range(_share(w.sweep_reps, SLICES, k)):
            sweep_times.append(_sweep(w, seed, tally, tr))
        for _ in range(_share(w.setup_reps - 1, SLICES, k)):
            _timed_setup(w, tr, setup_times, pass_ranges)

    ex.start()
    loop = ex.run(seconds, SLICES, between)
    tally.attempted += loop.attempted
    tally.failed += loop.failed
    if loop.error:
        tally.failures.append(f"round trip: {loop.error}")
    else:
        _check_after_loop(refs, ex, loop, seed, trace, tally)
    cases = []
    for i, m in enumerate(refs):
        cases.append({
            "case": m.point.label, "description": m.built.spec.id,
            "payload_bytes": m.eng.total_bytes, "region_bytes": m.eng.span,
            "segments": segments[i], "contiguous": bool(m.eng.is_contiguous),
            "samples": len(loop.typed[i]),
            "rtt_p50_us": 1e6 * statistics.median(loop.typed[i]) if loop.typed[i] else None,
        })
    del ex
    setup_s = statistics.fmean(setup_times[1:])
    sweep_s = statistics.fmean(sweep_times) if sweep_times else 0.0

    details["cases"] = cases
    details["setup_times_s"] = setup_times
    details["sweep_times_s"] = sweep_times
    details["failures"] = tally.failures[:50]

    metrics: dict = {}
    if loop.error:
        pass  # no timings from a broken exchange; the failure is counted
    elif not trace:
        _end_to_end(metrics, lines, details, refs, loop, setup_s, sweep_s)
    else:
        gc.collect()
        _direct_pass(w, seed, tr)
        _per_layer(metrics, lines, details, refs, cases, loop, tr, pass_ranges, sweep_s)
    lines[:0] = [f"case {c['case']}: {c['payload_bytes']} B payload, {c['segments']} segments, "
                 f"{c['samples']} samples, rtt p50 {c['rtt_p50_us'] or 0:.1f} us" for c in cases]
    return Report(metrics, tally, lines, details)


def _oracle(m) -> LayoutOracle:
    return LayoutOracle(m.ct, m.count, m.eng.origin)


def _check_after_loop(refs, ex, loop, seed, trace, tally) -> None:
    """Ping's region came back unchanged; pong's holds ping's payload at
    the layout's bytes and its own seed bytes everywhere else."""
    for i, m in enumerate(refs):
        oracle = _oracle(m)
        ping_before = seeded_region(m.eng.span, seed, i, 0)
        pong_before = seeded_region(m.eng2.span, seed, i, 1)
        tally.check(f"{m.point.label}/after/ping_region", ex.ping.regions[i] == ping_before)
        tally.check(f"{m.point.label}/after/pong_region",
                    oracle.unpacked_ok(loop.pong_regions[i], oracle.payload(ping_before),
                                       pong_before))
        if trace:
            raw_before = seeded_region(m.eng.total_bytes, seed, i, 2)
            tally.check(f"{m.point.label}/after/raw",
                        ex.ping.raws[i] == raw_before and loop.pong_raws[i] == raw_before)


def _end_to_end(metrics, lines, details, refs, loop, setup_s, sweep_s) -> None:
    """Each slice of the exchange yields the round-trip figures, and the
    run reports their mean over slices.  The host's speed switches for
    seconds at a time between two levels; a mean over slices spread across
    the run moves in proportion to the share of slow time, where a median
    or any other quantile jumps from one level to the other."""
    per_round = sum(2 * m.eng.total_bytes for m in refs)
    p50s, p90s = [], []
    for lo, hi, _ in loop.slices:
        p50s.append(geomean(statistics.median(s[lo:hi]) for s in loop.typed))
        p90s.append(geomean(p90(s[lo:hi]) for s in loop.typed))
    details["slices"] = [{"rounds": hi - lo, "wall_s": wall, "rtt_p50_us": 1e6 * a,
                          "rtt_p90_us": 1e6 * b}
                         for (lo, hi, wall), a, b in zip(loop.slices, p50s, p90s)]
    metrics["rtt_p50_us"] = (1e6 * statistics.fmean(p50s), "us")
    metrics["rtt_p90_us"] = (1e6 * statistics.fmean(p90s), "us")
    metrics["payload_MBps"] = (loop.rounds * per_round / loop.wall_s / 1e6, "MB/s")
    metrics["setup_s"] = (setup_s, "s")
    metrics["sweep_s"] = (sweep_s, "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    sizes = sorted({m.eng.total_bytes for m in refs})
    lines.append(f"round trips: geometric mean over {len(refs)} cases of each case's "
                 f"median and p90, mean over {len(loop.slices)} slices of "
                 f"{[hi - lo for lo, hi, _ in loop.slices]} timed samples per case")
    lines.append(f"payload: both directions, message sizes {sizes} B, "
                 f"{loop.rounds} rounds in {loop.wall_s:.2f} s")


def _per_layer(metrics, lines, details, refs, cases, loop, tr, pass_ranges, sweep_s) -> None:
    _setup_layers(metrics, tr.spans, pass_ranges)
    metrics["typecore.segments"] = (geomean(c["segments"] for c in cases), "count")
    per_case = _loop_layers(metrics, refs, loop, tr.spans)

    # the harness: the sweep minus the layers' busy time in one direct pass
    table = layer_table(tr.spans)
    direct = table.get("bench.direct", {})
    metrics["bench.harness_s"] = (
        sweep_s - sum(v for layer, v in direct.items() if layer != "bench"), "s")
    typed = [statistics.median(s) for s in loop.typed]
    traced = [statistics.median(s) for s in loop.traced]
    metrics["trace.overhead_pct"] = (100.0 * (geomean(traced) / geomean(typed) - 1.0), "%")

    # the workload-design checks and the self-time tables
    packer_share = (sum(statistics.median(c["packer"]) for c in per_case)
                    / sum(statistics.median(c["rtt"]) for c in per_case))
    setup_table = _median_pass_table(tr.spans, pass_ranges)
    setup_share = sum(setup_table.get(k, 0.0) for k in SETUP_LAYERS) / sum(setup_table.values())
    details["design"] = {"packer_share_of_rtt": packer_share,
                         "describe_layers_share_of_setup": setup_share}
    loop_table: dict = defaultdict(float)
    for spans in (tr.spans, loop.pong_spans):
        for layer, v in layer_table(spans).get("transport.pingpong_typed", {}).items():
            loop_table[layer] += v / loop.traced_rounds
    details["self_time_s"] = {"setup (median pass)": setup_table,
                              "round trips (both sides, per round)": dict(loop_table),
                              "direct pass": direct,
                              "sweep": {"bench": sweep_s}}
    details["spans"] = {"ping": tr.spans, "pong": loop.pong_spans}
    lines.append("packer.* bandwidths are cache-resident: every message fits well "
                 "inside the last-level cache, so they measure cache, not DRAM, bandwidth")
    lines.append(f"design: packer self time is {100 * packer_share:.0f}% of the round trip; "
                 f"layouts+typecore+normalizer are {100 * setup_share:.0f}% of set-up")
    for phase, row in details["self_time_s"].items():
        cells = ", ".join(f"{k} {v * 1e3:.3f} ms" for k, v in sorted(row.items()))
        lines.append(f"self time, {phase}: {cells}")


def _setup_layers(metrics, spans, pass_ranges) -> None:
    """Set-up layer metrics: totals within each pass, median over passes."""

    def per_pass(fn):
        return statistics.median(fn(spans[lo:hi]) for lo, hi in pass_ranges)

    def seconds(*names):
        return per_pass(lambda ss: sum(s[END] - s[START] for s in ss if s[NAME] in names))

    def normalizer_sum(key):
        return per_pass(lambda ss: sum(s[ATTRS][key] for s in ss
                                       if s[NAME] == "normalizer.normalize"))

    metrics["layouts.build_s"] = (seconds("layouts.build", "layouts.build_alternatives"), "s")
    metrics["typecore.commit_s"] = (seconds("typecore.commit"), "s")
    metrics["typecore.commit_calls"] = (
        per_pass(lambda ss: sum(s[NAME] == "typecore.commit" for s in ss)), "count")
    metrics["typecore.equivalent_s"] = (seconds("typecore.equivalent"), "s")
    metrics["normalizer.normalize_s"] = (seconds("normalizer.normalize"), "s")
    metrics["normalizer.cost_in"] = (normalizer_sum("cost_in"), "count")
    metrics["normalizer.cost_out"] = (normalizer_sum("cost_out"), "count")
    metrics["normalizer.iterations"] = (normalizer_sum("iterations"), "count")
    metrics["packer.compile_s"] = (seconds("packer.make_engine"), "s")


def _loop_layers(metrics, refs, loop, ping_spans) -> list:
    """Packer and transport metrics from the traced round trips, whose
    spans both sides stamp with the round-trip id.  Returns, per case, the
    per-round-trip series the metrics were reduced from."""
    by_rt: dict = defaultdict(lambda: defaultdict(list))
    for side, spans in (("ping", ping_spans), ("pong", loop.pong_spans)):
        for s in spans:
            if s[RT] is not None:
                by_rt[s[RT]][(side, s[NAME])].append(s)
    per_case = [defaultdict(list) for _ in refs]
    pack_bytes = pack_time = 0.0
    frames = frame_bytes = 0
    for rt, groups in by_rt.items():
        c = per_case[loop.rt_case[rt]]
        rtt = sum(s[END] - s[START] for s in groups[("ping", "transport.pingpong_typed")])
        packer_s = 0.0
        for side in ("ping", "pong"):
            for name in ("packer.pack", "packer.unpack"):
                for s in groups[(side, name)]:
                    d = s[END] - s[START]
                    packer_s += d
                    c[name].append(d)
                    if name == "packer.pack":
                        pack_bytes += s[ATTRS]["bytes"]
                        pack_time += d
            for s in groups[(side, "transport.send")]:
                c["send"].append(s[END] - s[START])
                frames += 1
                frame_bytes += s[ATTRS]["bytes"]
        for s in groups[("ping", "transport.recv")]:
            c["recv_wait"].append(s[END] - s[START])
        c["rtt"].append(rtt)
        c["packer"].append(packer_s)
        c["wire"].append(rtt - packer_s)

    def case_mean(key):
        return statistics.fmean(statistics.median(c[key]) if c[key] else 0.0 for c in per_case)

    pack_gbps = pack_bytes / pack_time / 1e9 if pack_time else 0.0
    moved = [m.eng.total_bytes for m in refs if not m.eng.is_contiguous]
    memcpy_s = sum(envinfo.memcpy_seconds(b) for b in moved)
    memcpy_gbps = sum(moved) / memcpy_s / 1e9 if moved else 0.0
    metrics["packer.pack_s"] = (case_mean("packer.pack"), "s")
    metrics["packer.unpack_s"] = (case_mean("packer.unpack"), "s")
    metrics["packer.pack_GBps"] = (pack_gbps, "GB/s")
    metrics["packer.memcpy_GBps"] = (memcpy_gbps, "GB/s")
    metrics["packer.pack_vs_memcpy"] = (memcpy_gbps / pack_gbps if pack_gbps else 0.0, "ratio")
    metrics["packer.bytes_moved"] = (4 * sum(moved), "count")
    metrics["transport.send_s"] = (case_mean("send"), "s")
    metrics["transport.recv_wait_s"] = (case_mean("recv_wait"), "s")
    metrics["transport.wire_s"] = (case_mean("wire"), "s")
    metrics["transport.connect_s"] = (
        sum(s[END] - s[START] for spans in (ping_spans, loop.pong_spans) for s in spans
            if s[NAME] == "transport.connect"), "s")
    metrics["transport.frames"] = (frames / loop.traced_rounds, "count")
    metrics["transport.frame_bytes"] = (frame_bytes / loop.traced_rounds, "count")
    typed = [statistics.median(s) for s in loop.typed]
    raw = [statistics.median(s) for s in loop.raw]
    metrics["transport.raw_rtt_us"] = (1e6 * geomean(raw), "us")
    metrics["transport.typed_over_raw"] = (geomean(t / r for t, r in zip(typed, raw)), "ratio")
    return per_case


def _median_pass_table(spans, pass_ranges) -> dict[str, float]:
    """Self seconds per layer in the median set-up pass."""
    selfs = self_times(spans)
    rows = []
    for lo, hi in pass_ranges:
        row: dict = defaultdict(float)
        for i in range(lo, hi):
            row[layer_of(spans[i][NAME])] += selfs[i]
        rows.append(dict(row))
    rows.sort(key=lambda r: sum(r.values()))
    return rows[len(rows) // 2]
