"""Registry of benchmark experiments over the layout catalog.

Each experiment names a parameter grid (blocksize sweep × data sizes) and
a point function.  One grid generator turns every size into an element
count and a point tag (`A2/m3200` for a byte size, `A2/n100` for an
element count), and one constructor makes each point's `LayoutSpec` with
the plan's variant and basetype, so `variant` and `size_unit` mean the
same in every experiment.  The heterogeneous tile counts its size in
payload bytes and does not depend on the variant.  A point function
yields the point's measurements, each a list of comparisons measured in
one call:

* bench experiments time a set of layouts side by side and emit only
  timing rows, one comparison with no guideline case per layout;
* guideline experiments additionally compare ways of moving the same
  layout (two, or a family's reference and all its alternatives) and emit
  verdict rows, each judged from the stats of its own two cases.

A point measures each of its cases once, and its stats rows list them in
measuring order.

Grid points whose parameters do not divide evenly (a byte size is not a
whole number of elements, count would not be a whole number, or a
blocksize exceeds the element count) are skipped rather than truncated.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from .bench import DEFAULT_RUNS, DEFAULT_SEED, RunStats, echo_session
from .guidelines import (
    DEFAULT_THRESHOLD,
    GuidelineVerdict,
    Measured,
    _alternatives_comparison,
    _bench_case,
    _bench_row,
    _g1_comparison,
    _g2_g3_comparison,
    _g4_comparison,
    _judge_all,
)
from .layouts import (
    ALTERNATING_INDEXED,
    ALTERNATING_REPEATED,
    BASIC_IDS,
    BLOCK_INDEXED,
    BadParams,
    LayoutSpec,
    ROWCOL_FULLY_INDEXED,
    TILED,
    TILED_HET,
    TILED_STRUCT,
    TILED_VECTOR,
    VECTOR_TILED,
    build,
    build_alternatives,
)
from .typecore import Base, BaseKind, Contiguous, commit

_SWEEP6 = (2, 10, 100, 1000, 1024, 10000)
_HET_KINDS = (BaseKind.CHAR, BaseKind.INT, BaseKind.DOUBLE, BaseKind.SHORT)


@dataclass(frozen=True)
class ExperimentPlan:
    """One experiment with its parameter grid and measurement knobs."""

    experiment: str
    A_values: tuple[int, ...]
    sizes: tuple[int, ...]
    size_unit: str = "bytes"
    variant: int = 1
    engine: str = "compiled"
    transport: str = "inmem"
    r: int = DEFAULT_RUNS
    nrep: Optional[int] = None
    threshold: float = DEFAULT_THRESHOLD
    seed: int = DEFAULT_SEED
    basetype: BaseKind = BaseKind.INT

    def __post_init__(self):
        if self.experiment not in EXPERIMENT_IDS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.size_unit not in ("bytes", "elements"):
            raise ValueError(f"unknown size unit {self.size_unit!r}")
        if self.variant not in (1, 2):
            raise ValueError(f"unknown variant {self.variant!r}")


def make_plan(experiment: str, **overrides) -> ExperimentPlan:
    """Plan with the experiment's published parameter defaults applied."""
    if experiment not in _EXPERIMENTS:
        raise ValueError(f"unknown experiment {experiment!r}")
    e = _EXPERIMENTS[experiment]
    base = ExperimentPlan(experiment, e.A_values, e.sizes, e.size_unit)
    if overrides:
        base = replace(base, **{k: v for k, v in overrides.items() if v is not None})
    return base


@dataclass
class ExperimentResult:
    """Everything one experiment produced, in emission order."""

    plan: ExperimentPlan
    stats: list[RunStats] = field(default_factory=list)
    verdicts: list[GuidelineVerdict] = field(default_factory=list)

    def add(self, measured: Measured) -> None:
        """Each comparison's stats rows, in measuring order, and verdicts."""
        for stats, verdicts in measured:
            self.stats.extend(stats)
            self.verdicts.extend(verdicts)


# --- grid points and their comparisons ------------------------------------


def _grid(plan: ExperimentPlan):
    """Every grid point as (A, element count, point tag), sizes outer and
    A inner.  A byte size that is not a whole number of elements is
    skipped; the heterogeneous tile counts its elements in bytes."""
    elem_bytes = 1 if plan.experiment == "tiled_het" else plan.basetype.size
    for size in plan.sizes:
        if plan.size_unit == "elements":
            n, tag = size, f"n{size}"
        elif size % elem_bytes == 0:
            n, tag = size // elem_bytes, f"m{size}"
        else:
            continue
        for a in plan.A_values:
            yield a, n, f"A{a}/{tag}"


def _spec(plan: ExperimentPlan, layout_id: str, n: int, a: int, **fields) -> LayoutSpec:
    """A grid point's layout with the plan's variant and basetype, unless
    `fields` set them."""
    return LayoutSpec(**{"id": layout_id, "n": n, "A": a, "variant": plan.variant,
                         "basetype": plan.basetype, **fields})


def _try_build(spec: LayoutSpec):
    try:
        return build(spec)
    except BadParams:
        return None


def _basic_layouts(plan: ExperimentPlan, a: int, n: int, tag: str):
    for layout_id in BASIC_IDS:
        built = _try_build(_spec(plan, layout_id, n, a))
        if built is not None:
            yield [_bench_row(built, plan.engine, plan.transport,
                              f"basic_layouts/v{plan.variant}/{layout_id}/{tag}", a)]


def _tiled_het(plan: ExperimentPlan, a: int, n: int, tag: str):
    built = _try_build(_spec(plan, TILED_HET, n, a, kinds=_HET_KINDS))
    if built is None:
        return
    # no catalog spec builds the byte reference as one instance, so its row
    # carries the datatype's own JSON, which does
    ref = _bench_case(f"tiled_het/contig_bytes/{tag}", commit(Contiguous(n, Base(BaseKind.BYTE))),
                      1, "typed", plan.engine, plan.transport, a)
    yield [([ref], [])]
    yield [_bench_row(built, plan.engine, plan.transport, f"tiled_het/tiled_het/{tag}", a)]


def _pack_unpack(plan: ExperimentPlan, a: int, n: int, tag: str):
    built = _try_build(_spec(plan, TILED, n, a))
    if built is not None:
        yield [_g2_g3_comparison(built.committed, built.count, plan.engine, plan.transport,
                                 plan.threshold, f"pack_unpack/{tag}", a)]


def _contig(plan: ExperimentPlan, a: int, n: int, tag: str):
    for layout_id in BASIC_IDS:
        built = _try_build(_spec(plan, layout_id, n, a))
        if built is not None:
            yield [_g1_comparison(built.committed, built.count, plan.engine, plan.transport,
                                  plan.threshold, f"contig/{layout_id}/{tag}", a)]


def _family(plan: ExperimentPlan, a: int, n: int, tag: str, **fields):
    """One measurement: the reference and every alternative, then G4 of
    every member."""
    try:
        family = build_alternatives(_spec(plan, _EXPERIMENTS[plan.experiment].layout,
                                          n, a, **fields))
    except BadParams:
        return
    how = (plan.engine, plan.transport, plan.threshold)
    case_id = f"{plan.experiment}/{tag}"
    yield [_alternatives_comparison(family, *how, case_id, a)] + [
        _g4_comparison(m.committed, m.count, *how, f"{case_id}/{m.spec.id}", a)
        for m in family]


def _tiled_struct(plan: ExperimentPlan, a: int, n: int, tag: str):
    for s1, s2 in ((1, 1), (2, 3)):
        yield from _family(plan, a, n, f"{tag}/S{s1}-{s2}", S1=s1, S2=s2)


@dataclass(frozen=True)
class _Experiment:
    """An experiment's point function, which yields the measurements of one
    grid point (each a list of comparisons measured in one call), its
    published grid, and the catalog layout a family experiment varies."""

    point: Callable
    A_values: tuple[int, ...]
    sizes: tuple[int, ...]
    size_unit: str = "bytes"
    layout: Optional[str] = None


_EXPERIMENTS = {
    "basic_layouts": _Experiment(_basic_layouts, _SWEEP6, (3_200, 2_560_000)),
    "tiled_het": _Experiment(_tiled_het, (2, 6, 8, 10, 16, 100, 128, 200),
                             (48_000, 1_500_000)),
    "pack_unpack": _Experiment(_pack_unpack, (2, 10, 10_000), (64_000, 2_560_000)),
    "contig": _Experiment(_contig, _SWEEP6, (2_000, 2_560_000)),
    "tiled_struct": _Experiment(_tiled_struct, _SWEEP6, (2_000, 2_560_000), layout=TILED_STRUCT),
    "tiled_vector": _Experiment(_family, _SWEEP6, (2_000, 2_560_000), layout=TILED_VECTOR),
    "vector_tiled": _Experiment(_family, _SWEEP6, (2_000, 2_560_000), layout=VECTOR_TILED),
    "block_indexed": _Experiment(_family, _SWEEP6, (3_200, 2_560_000), layout=BLOCK_INDEXED),
    "alternating_indexed": _Experiment(_family, _SWEEP6, (3_200, 2_560_000),
                                       layout=ALTERNATING_INDEXED),
    "alternating_repeated": _Experiment(_family, _SWEEP6, (3_200, 2_560_000),
                                        layout=ALTERNATING_REPEATED),
    "rowcol": _Experiment(_family, (2, 10, 100, 128, 512, 1000, 1024, 5000, 10_000),
                          (100, 10_240), size_unit="elements", layout=ROWCOL_FULLY_INDEXED),
}

EXPERIMENT_IDS = tuple(_EXPERIMENTS)


def run_experiment(plan: ExperimentPlan,
                   clock: Optional[Callable[[], float]] = None) -> ExperimentResult:
    """Measure every feasible grid point of the plan, sequentially.  Its
    real-clock tcp measurements share one echo process (`echo_session`)."""
    point = _EXPERIMENTS[plan.experiment].point
    result = ExperimentResult(plan)
    with echo_session():
        for a, n, tag in _grid(plan):
            for comparisons in point(plan, a, n, tag):
                result.add(_judge_all(comparisons, plan.r, plan.nrep, clock, plan.seed))
    return result
