"""Registry of benchmark experiments over the layout catalog.

Each experiment names a parameter grid (blocksize sweep × data sizes) and
a measurement pattern:

* bench experiments time a set of layouts side by side and emit only
  timing rows;
* guideline experiments additionally compare two ways of moving the same
  layout and emit verdict rows.

Grid points whose parameters do not divide evenly (count would not be a
whole number, or a blocksize exceeds the element count) are skipped
rather than truncated.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from .bench import DEFAULT_RUNS, DEFAULT_SEED, BenchCase, RunStats, echo_session, run_case
from .guidelines import (
    DEFAULT_THRESHOLD,
    GuidelineVerdict,
    _check_family,
    check_g1,
    check_g2_g3,
)
from .layouts import (
    ALTERNATING_INDEXED,
    ALTERNATING_REPEATED,
    BASIC_IDS,
    BLOCK_INDEXED,
    BadParams,
    LayoutSpec,
    TILED,
    TILED_STRUCT,
    TILED_VECTOR,
    VECTOR_TILED,
    build,
    build_alternatives,
    spec_dumps,
)
from .typecore import Base, BaseKind, Contiguous, commit

_SWEEP6 = (2, 10, 100, 1000, 1024, 10000)
_HET_KINDS = (BaseKind.CHAR, BaseKind.INT, BaseKind.DOUBLE, BaseKind.SHORT)

EXPERIMENT_IDS = (
    "basic_layouts",
    "tiled_het",
    "pack_unpack",
    "contig",
    "tiled_struct",
    "tiled_vector",
    "vector_tiled",
    "block_indexed",
    "alternating_indexed",
    "alternating_repeated",
    "rowcol",
)

_DEFAULTS: dict[str, dict] = {
    "basic_layouts": dict(A=_SWEEP6, sizes=(3_200, 2_560_000)),
    "tiled_het": dict(A=(2, 6, 8, 10, 16, 100, 128, 200), sizes=(48_000, 1_500_000)),
    "pack_unpack": dict(A=(2, 10, 10_000), sizes=(64_000, 2_560_000)),
    "contig": dict(A=_SWEEP6, sizes=(2_000, 2_560_000)),
    "tiled_struct": dict(A=_SWEEP6, sizes=(2_000, 2_560_000)),
    "tiled_vector": dict(A=_SWEEP6, sizes=(2_000, 2_560_000)),
    "vector_tiled": dict(A=_SWEEP6, sizes=(2_000, 2_560_000)),
    "block_indexed": dict(A=_SWEEP6, sizes=(3_200, 2_560_000)),
    "alternating_indexed": dict(A=_SWEEP6, sizes=(3_200, 2_560_000)),
    "alternating_repeated": dict(A=_SWEEP6, sizes=(3_200, 2_560_000)),
    "rowcol": dict(A=(2, 10, 100, 128, 512, 1000, 1024, 5000, 10_000),
                   sizes=(100, 10_240), size_unit="elements"),
}

_FAMILY_OF = {
    "tiled_struct": TILED_STRUCT,
    "tiled_vector": TILED_VECTOR,
    "vector_tiled": VECTOR_TILED,
    "block_indexed": BLOCK_INDEXED,
    "alternating_indexed": ALTERNATING_INDEXED,
    "alternating_repeated": ALTERNATING_REPEATED,
    "rowcol": "rowcol_fully_indexed",
}


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


def make_plan(experiment: str, **overrides) -> ExperimentPlan:
    """Plan with the experiment's published parameter defaults applied."""
    if experiment not in _DEFAULTS:
        raise ValueError(f"unknown experiment {experiment!r}")
    d = _DEFAULTS[experiment]
    base = ExperimentPlan(
        experiment=experiment,
        A_values=d["A"],
        sizes=d["sizes"],
        size_unit=d.get("size_unit", "bytes"),
    )
    if overrides:
        base = replace(base, **{k: v for k, v in overrides.items() if v is not None})
    return base


@dataclass
class ExperimentResult:
    """Everything one experiment produced, in emission order."""

    plan: ExperimentPlan
    stats: list[RunStats] = field(default_factory=list)
    verdicts: list[GuidelineVerdict] = field(default_factory=list)

    _seen: set = field(default_factory=set, repr=False)

    def add_stats(self, *rows: RunStats) -> None:
        for row in rows:
            if row.case.case_id not in self._seen:
                self._seen.add(row.case.case_id)
                self.stats.append(row)

    def add_verdicts(self, rows: list[GuidelineVerdict]) -> None:
        """Each verdict's stats rows, lhs first, except that G4_ALT lists
        its reference (the rhs) first."""
        self.verdicts.extend(rows)
        for v in rows:
            if v.case.guideline == "G4_ALT_DESCRIPTION":
                self.add_stats(v.rhs_stats, v.lhs_stats)
            else:
                self.add_stats(v.lhs_stats, v.rhs_stats)


def _elem_count(plan: ExperimentPlan, size: int) -> int:
    if plan.size_unit == "elements":
        return size
    return size // plan.basetype.size


def _size_tag(plan: ExperimentPlan, size: int) -> str:
    return f"n{size}" if plan.size_unit == "elements" else f"m{size}"


def _try_build(spec: LayoutSpec):
    try:
        return build(spec)
    except BadParams:
        return None


def _bench_row(plan: ExperimentPlan, case_id: str, built, A: Optional[int],
               m_bytes: int, clock) -> RunStats:
    case = BenchCase(
        case_id=case_id,
        datatype=built.committed,
        count=built.count,
        variant="typed",
        engine=plan.engine,
        transport=plan.transport,
        m_bytes=m_bytes,
        A=A,
        spec_json=spec_dumps(built.spec),
    )
    return run_case(case, r=plan.r, nrep=plan.nrep, clock=clock, seed=plan.seed)


def _run_basic_layouts(plan: ExperimentPlan, result: ExperimentResult, clock) -> None:
    for m in plan.sizes:
        n = _elem_count(plan, m)
        for a in plan.A_values:
            for layout_id in BASIC_IDS:
                spec = LayoutSpec(id=layout_id, n=n, A=a, variant=plan.variant,
                                  basetype=plan.basetype)
                built = _try_build(spec)
                if built is None:
                    continue
                cid = f"basic_layouts/v{plan.variant}/{layout_id}/A{a}/m{m}"
                result.add_stats(_bench_row(plan, cid, built, a, m, clock))


def _run_tiled_het(plan: ExperimentPlan, result: ExperimentResult, clock) -> None:
    from .layouts import BuiltLayout, TILED_HET

    for m in plan.sizes:
        for a in plan.A_values:
            spec = LayoutSpec(id=TILED_HET, n=m, A=a, kinds=_HET_KINDS)
            built = _try_build(spec)
            if built is None:
                continue
            ref_type = commit(Contiguous(m, Base(BaseKind.BYTE)))
            ref = BuiltLayout(ref_type, 1, 1, m, LayoutSpec(id="contiguous", n=m,
                                                            basetype=BaseKind.BYTE))
            result.add_stats(
                _bench_row(plan, f"tiled_het/contig_bytes/A{a}/m{m}", ref, a, m, clock),
                _bench_row(plan, f"tiled_het/tiled_het/A{a}/m{m}", built, a, m, clock),
            )


def _run_pack_unpack(plan: ExperimentPlan, result: ExperimentResult, clock) -> None:
    for m in plan.sizes:
        n = _elem_count(plan, m)
        for a in plan.A_values:
            built = _try_build(LayoutSpec(id=TILED, n=n, A=a, basetype=plan.basetype))
            if built is None:
                continue
            result.add_verdicts(check_g2_g3(
                built.committed, built.count,
                engine=plan.engine, transport=plan.transport,
                threshold=plan.threshold, r=plan.r, nrep=plan.nrep,
                clock=clock, seed=plan.seed,
                case_id=f"pack_unpack/A{a}/m{m}", A=a,
            ))


def _run_contig(plan: ExperimentPlan, result: ExperimentResult, clock) -> None:
    for m in plan.sizes:
        n = _elem_count(plan, m)
        for a in plan.A_values:
            for layout_id in BASIC_IDS:
                built = _try_build(LayoutSpec(id=layout_id, n=n, A=a,
                                              basetype=plan.basetype))
                if built is None:
                    continue
                result.add_verdicts(check_g1(
                    built.committed, built.count,
                    engine=plan.engine, transport=plan.transport,
                    threshold=plan.threshold, r=plan.r, nrep=plan.nrep,
                    clock=clock, seed=plan.seed,
                    case_id=f"contig/{layout_id}/A{a}/m{m}", A=a,
                ))


def _family_points(plan: ExperimentPlan):
    """Grid points for a family experiment: (spec, A, size, point tag)."""
    family = _FAMILY_OF[plan.experiment]
    for size in plan.sizes:
        n = _elem_count(plan, size)
        for a in plan.A_values:
            tag = f"{plan.experiment}/A{a}/{_size_tag(plan, size)}"
            if plan.experiment == "tiled_struct":
                for s1, s2 in ((1, 1), (2, 3)):
                    spec = LayoutSpec(id=family, n=n, A=a, S1=s1, S2=s2,
                                      basetype=plan.basetype)
                    yield spec, a, size, f"{tag}/S{s1}-{s2}"
            else:
                yield LayoutSpec(id=family, n=n, A=a, basetype=plan.basetype), a, size, tag


def _run_family(plan: ExperimentPlan, result: ExperimentResult, clock) -> None:
    for spec, a, size, tag in _family_points(plan):
        try:
            family = build_alternatives(spec)
        except BadParams:
            continue
        result.add_verdicts(_check_family(
            family, engine=plan.engine, transport=plan.transport,
            threshold=plan.threshold, r=plan.r, nrep=plan.nrep,
            clock=clock, seed=plan.seed, case_id=tag, A=a,
        ))


def run_experiment(plan: ExperimentPlan,
                   clock: Optional[Callable[[], float]] = None) -> ExperimentResult:
    """Execute every feasible grid point of the plan, sequentially.  Its
    real-clock tcp measurements share one echo process (`echo_session`)."""
    result = ExperimentResult(plan)
    with echo_session():
        if plan.experiment == "basic_layouts":
            _run_basic_layouts(plan, result, clock)
        elif plan.experiment == "tiled_het":
            _run_tiled_het(plan, result, clock)
        elif plan.experiment == "pack_unpack":
            _run_pack_unpack(plan, result, clock)
        elif plan.experiment == "contig":
            _run_contig(plan, result, clock)
        else:
            _run_family(plan, result, clock)
    return result
