"""Tests of `scripts/bench_layers.py`: its hooks into the packer (the
script names them directly, so a renamed hook fails here, and fails the
script, instead of dropping a sweep from its output), its summary of a
file of runs, and the script each checkout of `--tree` runs."""

import importlib.util
import os
import pathlib

import numpy as np

import typeforge.packer as packer
from typeforge.transport import TcpEndpoint

_SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "bench_layers.py"


def _bench_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Socket:
    """Counts the buffers of each `sendmsg` and takes every byte."""

    def __init__(self):
        self.buffers = []

    def setsockopt(self, *args):
        pass

    def sendmsg(self, parts):
        self.buffers.append(len(parts))
        return sum(memoryview(p).nbytes for p in parts)


def test_sweeps_reach_the_packer():
    bench_layers = _bench_layers()
    # the kernel sweep: every kernel and the word gather, in every direction
    point = bench_layers._kernel_point(packer.Piece(40, 16, 0, (0,), (4,)), 4, reps=1)
    for way in bench_layers.DIRECTIONS:
        assert set(point[way]["us"]) == set(packer._KERNEL_NAMES)
        assert point[way]["picked"] in packer._KERNEL_NAMES
    assert set(point["gather_us"]) == {"gather_pack", "gather_unpack"}
    # the crossover sweep: per point, an engine built to gather and one
    # built to pack, and the rule restored afterwards
    rule = packer._RUNS_MEAN_MIN, packer._RUNS_FEW
    pairs = bench_layers._sweep_engines()
    assert (packer._RUNS_MEAN_MIN, packer._RUNS_FEW) == rule
    assert len(pairs) == len(bench_layers.SWEEP_SEGMENTS) * len(bench_layers.SWEEP_BYTES)
    for gathering, packing in pairs:
        assert len(gathering.runs) == gathering.segment_count
        assert packing.runs is None
    # and a tcp send takes the path each was built for: the header and
    # every run, or the header and the packed payload
    gathering, packing = pairs[0]
    region = np.zeros(gathering.span, dtype=np.uint8)
    sock = _Socket()
    ep = TcpEndpoint("ping", sock)
    ep.send_typed(gathering, region)
    ep.send_typed(packing, region)
    assert sock.buffers == [1 + gathering.segment_count, 2]


def test_summary_ranges_each_tree_over_its_runs():
    # runs stored as LABEL/1, LABEL/2, ... group by LABEL; a point one tree
    # did not measure is absent from its column
    def run(typed, ratios):
        return {"tcp_round_trips": [{"layout": "tiled", "A": 10, "n": 800, "raw_us": 20.0,
                                     "typed_us": typed, "packed_us": 50.0,
                                     "typed_over_packed": typed / 50.0}],
                "crossover": {"points": [{"segments": k, "segment_bytes": 64,
                                          "gathered_over_packed": r}
                                         for k, r in ratios.items()]}}

    rows = _bench_layers().summary({
        "parent/1": run(40.0, {8: 0.7}), "change/1": run(30.0, {80: 1.1, 8: 0.6}),
        "change/2": run(35.0, {80: 0.9, 8: 0.5}), "parent/2": run(45.0, {8: 0.8})})
    assert rows["tcp tiled/A10/n800 typed_us"] == {"parent": [40.0, 45.0],
                                                   "change": [30.0, 35.0]}
    assert list(rows)[-2:] == ["crossover 8x64 B gathered/packed",
                               "crossover 80x64 B gathered/packed"]
    assert rows["crossover 80x64 B gathered/packed"] == {"change": [1.1, 0.9]}


def test_summary_ranges_the_tcp_harness_medians():
    # one row per harness measurement, its medians over each tree's runs;
    # a run without the section adds nothing
    def run(lone, session):
        return {"tcp_harness": {
            "lone_run_case": {"p25_us": lone - 1, "median_us": lone, "p75_us": lone + 1},
            "run_case_in_session": {"p25_us": 1.0, "median_us": session, "p75_us": 9.0}}}

    rows = _bench_layers().summary({
        "parent/1": run(280e3, 500.0), "change/1": run(10e3, 480.0),
        "parent/2": run(270e3, 520.0), "change/2": {}})
    assert rows == {
        "tcp harness lone_run_case median_us": {"parent": [280e3, 270e3], "change": [10e3]},
        "tcp harness run_case_in_session median_us": {"parent": [500.0, 520.0],
                                                      "change": [480.0]}}


def test_each_tree_runs_its_own_script(monkeypatch, tmp_path):
    # a checkout with a script of its own runs it; one without runs this one
    bench_layers = _bench_layers()
    own = tmp_path / "own"
    (own / "scripts").mkdir(parents=True)
    (own / "scripts" / "bench_layers.py").write_text("")
    calls = []
    monkeypatch.setattr(bench_layers.subprocess, "run",
                        lambda cmd, env, check: calls.append((cmd[1], env["PYTHONPATH"])))
    args = bench_layers.argparse.Namespace(
        runs=1, setup_only=False, label="x", out="out.json", reps=1,
        tree=[f"own={own}", f"bare={tmp_path / 'bare'}"])
    assert bench_layers._alternating_runs(args) == 0
    assert [script for script, _ in calls] == [str(own / "scripts" / "bench_layers.py"),
                                               str(_SCRIPT)]
    assert [path.split(os.pathsep)[0] for _, path in calls] == [str(own / "src"),
                                                         str(tmp_path / "bare" / "src")]
