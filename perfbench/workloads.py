"""The benchmark's workloads: which layouts each one moves, over which
carrier, and which experiment grid its sweep runs.

Every layout uses the INT base type and parameter variant 1.  README.md in
this directory says why each workload exists and which layer it stresses
or bypasses; later changes cite the workloads by name.
"""

from __future__ import annotations

from dataclasses import dataclass

from typeforge import experiments, layouts

LARGE = 2_560_000  # bytes of payload in the large cases
SMALL = 3_200  # bytes of payload in the small cases
INT_BYTES = 4


@dataclass(frozen=True)
class Point:
    """One catalog layout.  A family point builds every alternative
    description of the layout; its reference member is the one that
    round-trips."""

    layout: str
    n: int  # elements
    A: int = 0
    engine: str = "compiled"
    family: bool = False

    @property
    def label(self) -> str:
        a = f"/A{self.A}" if self.A else ""
        return f"{self.layout}{a}/n{self.n}/{self.engine}"


@dataclass(frozen=True)
class Workload:
    name: str
    carrier: str  # "inmem" or "tcp"
    points: tuple[Point, ...]
    # experiments.run_experiment plans: (experiment id, make_plan overrides);
    # every plan also gets r=1, nrep=1 and the workload seed
    sweep: tuple[tuple[str, dict], ...]
    # set-up passes per run: the first makes the cases the run sends, and
    # setup_s is the mean of the others
    setup_reps: int
    sweep_reps: int  # sweeps per run; sweep_s is their mean
    why: str


def _elems(nbytes: int) -> int:
    return nbytes // INT_BYTES


FINE_INMEM = Workload(
    name="fine_inmem",
    carrier="inmem",
    points=(
        Point("tiled", _elems(LARGE), 2),
        Point("bucket", _elems(LARGE), 2),
        Point("alternating", _elems(LARGE), 10),
        Point("rowcol_fully_indexed", 10_240, 100),
        Point("tiled", _elems(SMALL), 2, engine="interpreted"),
    ),
    sweep=(
        ("basic_layouts", dict(A_values=(2, 10), sizes=(LARGE,))),
        ("rowcol", dict(A_values=(100,), sizes=(10_240,))),
        ("basic_layouts", dict(A_values=(2,), sizes=(SMALL,), engine="interpreted")),
    ),
    setup_reps=31,
    sweep_reps=5,
    why="fragmented layouts over inmem: the packer's periodic, gather and "
        "tree-walk paths dominate each round trip",
)

COARSE_TCP = Workload(
    name="coarse_tcp",
    carrier="tcp",
    points=(
        Point("contiguous", _elems(LARGE)),
        Point("tiled", _elems(LARGE), 1000),
        Point("contiguous", _elems(SMALL)),
        Point("tiled", _elems(SMALL), 10),
    ),
    sweep=(
        ("basic_layouts", dict(A_values=(10, 1000), sizes=(SMALL, LARGE), transport="tcp")),
    ),
    setup_reps=31,
    sweep_reps=4,
    why="contiguous and coarse layouts over tcp: the packer is a view or a "
        "memcpy, so the socket path and per-message cost dominate",
)

DESCRIBE_SWEEP = Workload(
    name="describe_sweep",
    carrier="inmem",
    points=(
        Point("block_indexed", _elems(LARGE), 2, family=True),
        Point("block_indexed", _elems(LARGE), 1000, family=True),
        Point("alternating_indexed", _elems(LARGE), 2, family=True),
        Point("alternating_indexed", _elems(LARGE), 1000, family=True),
        Point("vector_tiled", _elems(LARGE), 2, family=True),
        Point("rowcol_fully_indexed", 10_240, 100, family=True),
        Point("rowcol_fully_indexed", 10_240, 1000, family=True),
    ),
    sweep=(
        ("block_indexed", dict(A_values=(2, 1000), sizes=(LARGE,))),
        ("alternating_indexed", dict(A_values=(2, 1000), sizes=(LARGE,))),
        ("vector_tiled", dict(A_values=(2,), sizes=(LARGE,))),
        ("rowcol", dict(A_values=(100, 1000), sizes=(10_240,))),
    ),
    setup_reps=5,
    sweep_reps=3,
    why="alternative descriptions of one layout: building, committing and "
        "normalizing them, and the experiment harness, dominate",
)

WORKLOADS = {w.name: w for w in (FINE_INMEM, COARSE_TCP, DESCRIBE_SWEEP)}

# catalog layout of each family experiment the sweeps use, as the
# experiment registry maps them
_FAMILY_LAYOUT = {
    "vector_tiled": "vector_tiled",
    "block_indexed": "block_indexed",
    "alternating_indexed": "alternating_indexed",
    "rowcol": "rowcol_fully_indexed",
}


def grid_points(experiment: str, overrides: dict) -> list[Point]:
    """Grid points of one sweep plan, as the experiment enumerates them.

    Points whose parameters do not divide are kept here; the direct pass
    skips them the same way the experiment does.
    """
    plan = experiments.make_plan(experiment, **overrides)
    out = []
    for size in plan.sizes:
        n = size if plan.size_unit == "elements" else size // plan.basetype.size
        for a in plan.A_values:
            if experiment == "basic_layouts":
                out.extend(Point(lid, n, a, plan.engine) for lid in layouts.BASIC_IDS)
            else:
                out.append(Point(_FAMILY_LAYOUT[experiment], n, a, plan.engine, family=True))
    return out
