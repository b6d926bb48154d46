"""Guideline verdicts: the pure rule, the checks and the CSV format."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import typeforge.bench as bench
from typeforge import typecore
from typeforge.bench import BenchCase
from typeforge.guidelines import (
    DEFAULT_THRESHOLD,
    GUIDELINE_IDS,
    GuidelineCase,
    GuidelineVerdict,
    LayoutMismatch,
    _require_same_layout,
    any_violation,
    check_alternatives,
    check_g1,
    check_g2_g3,
    check_g4,
    evaluate,
    judge,
    read_verdicts_csv,
    write_verdicts_csv,
)
from typeforge.layouts import BLOCK_INDEXED, LayoutSpec, build, build_alternatives
from typeforge.normalizer import normalize
from typeforge.typecore import Base, BaseKind, Contiguous, Vector

INT = Base(BaseKind.INT)


def _bench(case_id="side", variant="typed"):
    dt = None if variant == "raw" else Contiguous(4, INT)
    return BenchCase(case_id, dt, 1, variant, "compiled", "inmem", 16)


def _stats(mean: float):
    return bench._reduce(_bench(), 1, [(mean,)])


def _gcase(relation="similar", threshold=DEFAULT_THRESHOLD):
    return GuidelineCase("G1_CONTIG", "case", relation, _bench("l"), _bench("r"), threshold)


# --- the pure verdict rule ----------------------------------------------


def test_similar_flags_both_directions():
    assert evaluate("similar", 0.8, 1.10) == (True, 1.25)
    assert evaluate("similar", 1.25, 1.10) == (True, 1.25)
    assert evaluate("similar", 1.05, 1.10) == (False, 1.05)


def test_no_slower_tolerates_being_faster():
    assert evaluate("no_slower", 0.5, 1.10) == (False, 0.5)
    assert evaluate("no_slower", 1.5, 1.10) == (True, 1.5)


def test_threshold_boundary_is_not_a_violation():
    assert evaluate("no_slower", 1.5, 1.5) == (False, 1.5)
    assert evaluate("similar", 1.5, 1.5) == (False, 1.5)


@given(st.floats(0.01, 100.0), st.floats(1.01, 3.0))
def test_similar_is_reciprocal_symmetric(ratio, threshold):
    violated, severity = evaluate("similar", ratio, threshold)
    assert severity >= 1.0
    assert severity >= ratio
    assert violated == (severity > threshold)
    _, mirrored = evaluate("similar", 1.0 / ratio, threshold)
    assert mirrored == pytest.approx(severity, rel=1e-12)


@given(st.floats(0.01, 100.0), st.floats(1.01, 3.0))
def test_no_slower_severity_is_the_ratio(ratio, threshold):
    violated, severity = evaluate("no_slower", ratio, threshold)
    assert severity == ratio
    assert violated == (ratio > threshold)
    if ratio <= 1.0:
        assert not violated


def test_evaluate_rejects_bad_inputs():
    with pytest.raises(ValueError):
        evaluate("similar", 0.0, 1.10)
    with pytest.raises(ValueError):
        evaluate("similar", -1.0, 1.10)
    with pytest.raises(ValueError):
        evaluate("similar", 1.0, 1.0)
    with pytest.raises(ValueError):
        evaluate("faster", 1.0, 1.10)


def test_injected_slowdown_is_always_caught():
    # a clean factor-2 regression must never slip past the 1.10 bar
    for i in range(25):
        base = 1e-6 * (1 + 7 * i)
        verdict = judge(_gcase("no_slower"), _stats(2.0 * base), _stats(base))
        assert verdict.violated
        assert verdict.severity >= 1.8
        sym = judge(_gcase("similar"), _stats(base), _stats(2.0 * base))
        assert sym.violated
        assert sym.severity >= 1.8


def test_case_validation():
    with pytest.raises(ValueError):
        GuidelineCase("G9_WARP", "x", "similar", _bench(), _bench())
    with pytest.raises(ValueError):
        GuidelineCase("G1_CONTIG", "x", "crooked", _bench(), _bench())
    with pytest.raises(ValueError):
        GuidelineCase("G1_CONTIG", "x", "similar", _bench(), _bench(), threshold=1.0)


def test_layout_guard():
    assert issubclass(LayoutMismatch, ValueError)
    _require_same_layout(INT, 2, Base(BaseKind.DOUBLE), 1, "ok")
    with pytest.raises(LayoutMismatch):
        _require_same_layout(INT, 1, INT, 2, "counts differ")


# --- the checks under a deterministic clock ------------------------------


def test_g1_compares_count_against_wrapper(fake_clock):
    verdicts = check_g1(Vector(2, 3, 5, INT), 4, r=2, nrep=2, clock=fake_clock)
    assert len(verdicts) == 1
    v = verdicts[0]
    assert v.case.guideline == "G1_CONTIG"
    assert v.case.relation == "similar"
    assert v.case.lhs.case_id == "g1/typed-count"
    assert v.case.rhs.case_id == "g1/contig-one"
    assert v.case.lhs.count == 4 and v.case.rhs.count == 1
    assert v.ratio == 1.0 and not v.violated


def test_g2_g3_share_one_measurement(fake_clock):
    verdicts = check_g2_g3(Vector(2, 3, 5, INT), 2, r=2, nrep=2, clock=fake_clock)
    assert [v.case.guideline for v in verdicts] == ["G2_PACK_SEND", "G3_RECV_UNPACK"]
    first, second = verdicts
    assert first.lhs_stats is second.lhs_stats
    assert first.rhs_stats is second.rhs_stats
    assert first.ratio == second.ratio == 1.0
    assert first.case.lhs.variant == "typed"
    assert first.case.rhs.variant == "packed"
    assert first.case.lhs.case_id == "g2g3/typed"
    assert first.case.rhs.case_id == "g2g3/packed"


def test_g4_reuses_stats_when_already_normal(fake_clock):
    verdicts = check_g4(Contiguous(8, INT), 2, r=2, nrep=2, clock=fake_clock)
    (v,) = verdicts
    assert v.case.guideline == "G4_NORMALIZE"
    assert v.lhs_stats is v.rhs_stats
    assert v.ratio == 1.0 and not v.violated


def test_g4_measures_both_sides_when_rewritten(fake_clock):
    built = build(LayoutSpec(id="vector_tiled", n=30, A=3, variant=1))
    verdicts = check_g4(built.datatype, built.count, r=2, nrep=2, clock=fake_clock)
    (v,) = verdicts
    assert v.lhs_stats is not v.rhs_stats
    assert v.case.lhs.case_id == "g4/given"
    assert v.case.rhs.case_id == "g4/normalized"
    assert v.ratio == 1.0


def test_g4_point_commits_the_normalized_form_once(monkeypatch, fake_clock):
    # normalize commits its output for the cost; check_g4 measures that
    # committed form instead of committing it again
    calls = []
    depth = [0]
    real = typecore._layout

    def counting(t):
        # only commits count, not the recursion into subtrees
        if depth[0] == 0:
            calls.append(t)
        depth[0] += 1
        try:
            return real(t)
        finally:
            depth[0] -= 1

    rewritten = 0
    for member in build_alternatives(LayoutSpec(id=BLOCK_INDEXED, n=800, A=2)):
        normal = normalize(member.committed).output
        calls.clear()
        monkeypatch.setattr(typecore, "_layout", counting)
        verdicts = check_g4(member.committed, member.count, r=1, nrep=1, clock=fake_clock)
        monkeypatch.setattr(typecore, "_layout", real)
        assert [v.case.guideline for v in verdicts] == ["G4_NORMALIZE"]
        assert calls.count(member.datatype) == 0
        if normal != member.datatype:
            rewritten += 1
            assert calls.count(normal) == 1
    assert rewritten == 1


def test_alternatives_pair_members_with_reference(fake_clock):
    spec = LayoutSpec(id="rowcol_fully_indexed", n=10, A=3)
    verdicts = check_alternatives(spec, r=1, nrep=2, clock=fake_clock, case_id="fam")
    assert len(verdicts) == 2
    assert [v.case.lhs.case_id for v in verdicts] == [
        "fam/rowcol_contig_indexed",
        "fam/rowcol_struct",
    ]
    for v in verdicts:
        assert v.case.rhs.case_id == "fam/rowcol_fully_indexed"
        assert v.case.relation == "similar"
        assert v.ratio == 1.0 and not v.violated


def test_guideline_registry():
    assert GUIDELINE_IDS == (
        "G1_CONTIG",
        "G2_PACK_SEND",
        "G3_RECV_UNPACK",
        "G4_NORMALIZE",
        "G4_ALT_DESCRIPTION",
    )


# --- CSV ----------------------------------------------------------------


def test_verdict_csv_round_trip(tmp_path):
    good = judge(_gcase("no_slower"), _stats(1.0e-3), _stats(1.0e-3))
    bad = judge(_gcase("similar"), _stats(4.0e-3), _stats(1.0e-3))
    path = tmp_path / "verdicts.csv"
    write_verdicts_csv(str(path), [good, bad])
    lines = path.read_text().splitlines()
    assert lines[0] == "guideline,case_id,lhs,rhs,ratio,threshold,violated,severity"
    rows = read_verdicts_csv(str(path))
    assert rows[0]["violated"] == "false"
    assert rows[0]["ratio"] == "1.000000"
    assert rows[0]["threshold"] == "1.10"
    assert rows[1]["violated"] == "true"
    assert rows[1]["ratio"] == "4.000000"
    assert rows[1]["severity"] == "4.000000"
    assert any_violation([good, bad])
    assert not any_violation([good])
