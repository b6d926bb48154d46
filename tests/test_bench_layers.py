"""Smoke test of `scripts/bench_layers.py`'s hooks into the packer: a
renamed hook would make the script's sweeps return None and drop out of
its output without an error."""

import importlib.util
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
    # built to pack, and the floor restored afterwards
    floor = packer._RUNS_MEAN_MIN
    pairs = bench_layers._sweep_engines()
    assert packer._RUNS_MEAN_MIN == floor
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
