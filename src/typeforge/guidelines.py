"""Executable performance guidelines over ping-pong statistics.

Each guideline compares two ways of communicating the same byte layout and
renders a verdict from the ratio of their mean-of-run-medians:

* G1_CONTIG: count instances of a type vs one instance of the contiguous
  wrapper around it, expected similar.
* G2_PACK_SEND / G3_RECV_UNPACK: typed transfer vs explicit pack, send,
  receive, unpack; typed is expected no slower.  One packed round trip
  contains both the send-side and receive-side compositions, so a single
  measurement grounds both verdicts.
* G4_NORMALIZE: a description vs its normalized rewrite, expected no
  slower.
* G4_ALT_DESCRIPTION: alternative descriptions of one layout family,
  expected similar.

Relations: "similar" is violated when max(ratio, 1/ratio) exceeds the
threshold, "no_slower" when ratio alone does.  Both sides must describe
byte-identical layouts; anything else is a comparison error, not a verdict.

Each guideline has a builder that makes its comparison (the cases to
measure together and the guideline cases to judge from them), and one
measuring call, `_judge_all`, returns every comparison's stats and
verdicts.  Each `check_*` is its builder plus that call; the experiments
combine the builders per grid point.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .bench import DEFAULT_RUNS, DEFAULT_SEED, WARMUP_REPS, BenchCase, RunStats, _measure
from .layouts import BuiltLayout, LayoutSpec, build_alternatives, spec_dumps
from .normalizer import normalize
from .typecore import CommittedType, Contiguous, Datatype, commit, equivalent

DEFAULT_THRESHOLD = 1.10

SIMILAR = "similar"
NO_SLOWER = "no_slower"
RELATIONS = (SIMILAR, NO_SLOWER)

GUIDELINE_IDS = (
    "G1_CONTIG",
    "G2_PACK_SEND",
    "G3_RECV_UNPACK",
    "G4_NORMALIZE",
    "G4_ALT_DESCRIPTION",
)


class LayoutMismatch(ValueError):
    """Both sides of a guideline must describe the same byte layout."""


@dataclass(frozen=True)
class GuidelineCase:
    """One comparison: which guideline, which two measurable sides."""

    guideline: str
    case_id: str
    relation: str
    lhs: BenchCase
    rhs: BenchCase
    threshold: float = DEFAULT_THRESHOLD

    def __post_init__(self):
        if self.guideline not in GUIDELINE_IDS:
            raise ValueError(f"unknown guideline {self.guideline!r}")
        if self.relation not in RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")
        if not self.threshold > 1.0:
            raise ValueError("threshold must exceed 1")


@dataclass(frozen=True)
class GuidelineVerdict:
    """Outcome of one comparison."""

    case: GuidelineCase
    lhs_stats: RunStats
    rhs_stats: RunStats
    ratio: float
    violated: bool
    severity: float


def evaluate(relation: str, ratio: float, threshold: float) -> tuple[bool, float]:
    """Pure verdict rule: (violated, severity) for a timing ratio."""
    if not ratio > 0.0:
        raise ValueError("ratio must be positive")
    if not threshold > 1.0:
        raise ValueError("threshold must exceed 1")
    if relation == SIMILAR:
        severity = max(ratio, 1.0 / ratio)
        return severity > threshold, severity
    if relation == NO_SLOWER:
        return ratio > threshold, ratio
    raise ValueError(f"unknown relation {relation!r}")


def judge(case: GuidelineCase, lhs_stats: RunStats, rhs_stats: RunStats) -> GuidelineVerdict:
    ratio = lhs_stats.mean_s / rhs_stats.mean_s
    violated, severity = evaluate(case.relation, ratio, case.threshold)
    return GuidelineVerdict(case, lhs_stats, rhs_stats, ratio, violated, severity)


def _require_same_layout(lhs: CommittedType, lhs_c: int, rhs: CommittedType, rhs_c: int, what: str) -> None:
    if not equivalent(lhs, lhs_c, rhs, rhs_c):
        raise LayoutMismatch(f"{what}: sides describe different byte layouts")


def _bench_case(case_id: str, ct: CommittedType, count: int, variant: str, engine: str,
                transport: str, A: Optional[int], spec_json: Optional[str] = None) -> BenchCase:
    return BenchCase(
        case_id=case_id,
        datatype=ct,
        count=count,
        variant=variant,
        engine=engine,
        transport=transport,
        m_bytes=ct.size * count,
        A=A,
        spec_json=spec_json,
    )


# One comparison: the cases measured together (one case, or lhs then rhs)
# and the guideline cases judged from their stats.  A plain bench row is a
# comparison with no guideline case.
Comparison = tuple[list[BenchCase], list[GuidelineCase]]


def _bench_row(built: BuiltLayout, engine: str, transport: str, case_id: str,
               A: Optional[int]) -> Comparison:
    """One typed case of a catalog layout, carrying its spec."""
    return [_bench_case(case_id, built.committed, built.count, "typed", engine, transport,
                        A, spec_dumps(built.spec))], []


def _g1_comparison(ct: CommittedType, c: int, engine: str, transport: str,
                   threshold: float, case_id: str, A: Optional[int]) -> Comparison:
    wrapper = commit(Contiguous(c, ct.datatype))
    _require_same_layout(ct, c, wrapper, 1, "G1_CONTIG")
    lhs = _bench_case(f"{case_id}/typed-count", ct, c, "typed", engine, transport, A)
    rhs = _bench_case(f"{case_id}/contig-one", wrapper, 1, "typed", engine, transport, A)
    return [lhs, rhs], [GuidelineCase("G1_CONTIG", case_id, SIMILAR, lhs, rhs, threshold)]


def _g2_g3_comparison(ct: CommittedType, c: int, engine: str, transport: str,
                      threshold: float, case_id: str, A: Optional[int]) -> Comparison:
    lhs = _bench_case(f"{case_id}/typed", ct, c, "typed", engine, transport, A)
    rhs = _bench_case(f"{case_id}/packed", ct, c, "packed", engine, transport, A)
    return [lhs, rhs], [GuidelineCase(gid, case_id, NO_SLOWER, lhs, rhs, threshold)
                        for gid in ("G2_PACK_SEND", "G3_RECV_UNPACK")]


def _g4_comparison(ct: CommittedType, c: int, engine: str, transport: str,
                   threshold: float, case_id: str, A: Optional[int]) -> Comparison:
    report = normalize(ct)
    normal = report.committed_output
    _require_same_layout(ct, c, normal, c, "G4_NORMALIZE")
    lhs = _bench_case(f"{case_id}/given", ct, c, "typed", engine, transport, A)
    rhs = _bench_case(f"{case_id}/normalized", normal, c, "typed",
                      engine, transport, A)
    case = GuidelineCase("G4_NORMALIZE", case_id, NO_SLOWER, lhs, rhs, threshold)
    # already normal: both sides are the same description, measured once
    return ([lhs, rhs] if report.changed else [lhs]), [case]


def _alternatives_comparisons(family: list[BuiltLayout], engine: str, transport: str,
                              threshold: float, case_id: str, A: Optional[int]
                              ) -> list[Comparison]:
    """(alternative, reference) for every member after the reference."""
    ref = family[0]
    ref_case = _bench_case(f"{case_id}/{ref.spec.id}", ref.committed, ref.count,
                           "typed", engine, transport, A)
    out = []
    for member in family[1:]:
        _require_same_layout(member.committed, member.count,
                             ref.committed, ref.count, "G4_ALT_DESCRIPTION")
        alt_case = _bench_case(f"{case_id}/{member.spec.id}", member.committed,
                               member.count, "typed", engine, transport, A)
        case = GuidelineCase("G4_ALT_DESCRIPTION", case_id, SIMILAR,
                             alt_case, ref_case, threshold)
        out.append(([alt_case, ref_case], [case]))
    return out


# What one measuring call found for each of its comparisons: the stats of
# its cases, in order, and the verdict of each of its guideline cases.
Measured = list[tuple[list[RunStats], list[GuidelineVerdict]]]


def _judge_all(comparisons: Sequence[Comparison], r: int, nrep: Optional[int],
               clock: Optional[Callable[[], float]], seed: int) -> Measured:
    """Measure the comparisons in one call, each with runs of its own, and
    judge each guideline case from its comparison's first and last case."""
    stats = _measure([group for group, _ in comparisons], r, nrep, WARMUP_REPS, clock, seed)
    return [(group_stats, [judge(case, group_stats[0], group_stats[-1]) for case in cases])
            for (_, cases), group_stats in zip(comparisons, stats)]


def _check(comparisons: Sequence[Comparison], r: int, nrep: Optional[int],
           clock: Optional[Callable[[], float]], seed: int) -> list[GuidelineVerdict]:
    """The verdicts of comparisons measured in one call."""
    return [v for _, verdicts in _judge_all(comparisons, r, nrep, clock, seed) for v in verdicts]


def check_g1(
    t: Datatype | CommittedType,
    c: int,
    *,
    engine: str = "compiled",
    transport: str = "inmem",
    threshold: float = DEFAULT_THRESHOLD,
    r: int = DEFAULT_RUNS,
    nrep: Optional[int] = None,
    clock: Optional[Callable[[], float]] = None,
    seed: int = DEFAULT_SEED,
    case_id: str = "g1",
    A: Optional[int] = None,
) -> list[GuidelineVerdict]:
    """Count instances vs one contiguous wrapper, expected similar."""
    return _check([_g1_comparison(commit(t), c, engine, transport, threshold, case_id, A)],
                  r, nrep, clock, seed)


def check_g2_g3(
    t: Datatype | CommittedType,
    c: int,
    *,
    engine: str = "compiled",
    transport: str = "inmem",
    threshold: float = DEFAULT_THRESHOLD,
    r: int = DEFAULT_RUNS,
    nrep: Optional[int] = None,
    clock: Optional[Callable[[], float]] = None,
    seed: int = DEFAULT_SEED,
    case_id: str = "g2g3",
    A: Optional[int] = None,
) -> list[GuidelineVerdict]:
    """Typed transfer vs explicit pack and unpack, expected no slower.

    The packed round trip stages through an intermediate buffer on both
    the sending and the receiving side, so the one measurement yields a
    send-side and a receive-side verdict with the same ratio.
    """
    return _check([_g2_g3_comparison(commit(t), c, engine, transport, threshold, case_id, A)],
                  r, nrep, clock, seed)


def check_g4(
    t: Datatype | CommittedType,
    c: int,
    *,
    engine: str = "compiled",
    transport: str = "inmem",
    threshold: float = DEFAULT_THRESHOLD,
    r: int = DEFAULT_RUNS,
    nrep: Optional[int] = None,
    clock: Optional[Callable[[], float]] = None,
    seed: int = DEFAULT_SEED,
    case_id: str = "g4",
    A: Optional[int] = None,
) -> list[GuidelineVerdict]:
    """Description vs its normalization, expected no slower."""
    return _check([_g4_comparison(commit(t), c, engine, transport, threshold, case_id, A)],
                  r, nrep, clock, seed)


def check_alternatives(
    spec: LayoutSpec,
    *,
    engine: str = "compiled",
    transport: str = "inmem",
    threshold: float = DEFAULT_THRESHOLD,
    r: int = DEFAULT_RUNS,
    nrep: Optional[int] = None,
    clock: Optional[Callable[[], float]] = None,
    seed: int = DEFAULT_SEED,
    case_id: str = "g4alt",
    A: Optional[int] = None,
) -> list[GuidelineVerdict]:
    """Compare every family member against the family's reference."""
    return _check(_alternatives_comparisons(build_alternatives(spec), engine, transport,
                                            threshold, case_id, A), r, nrep, clock, seed)


# --- CSV output ---------------------------------------------------------

VERDICT_HEADER = [
    "guideline", "case_id", "lhs", "rhs",
    "ratio", "threshold", "violated", "severity",
]


def write_verdicts_csv(path: str, verdicts: Sequence[GuidelineVerdict]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(VERDICT_HEADER)
        for v in verdicts:
            w.writerow([
                v.case.guideline, v.case.case_id,
                v.case.lhs.case_id, v.case.rhs.case_id,
                f"{v.ratio:.6f}", f"{v.case.threshold:.2f}",
                "true" if v.violated else "false", f"{v.severity:.6f}",
            ])


def read_verdicts_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def any_violation(verdicts: Sequence[GuidelineVerdict]) -> bool:
    return any(v.violated for v in verdicts)
