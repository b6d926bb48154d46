"""Experiment registry: grids, defaults, emission order and skip rules."""

import json
from collections import Counter

import pytest

import typeforge.bench as bench
import typeforge.guidelines as guidelines
import typeforge.typecore as typecore
from typeforge.experiments import (
    EXPERIMENT_IDS,
    ExperimentPlan,
    make_plan,
    run_experiment,
)
from typeforge.layouts import (
    ALL_IDS,
    BLOCK_INDEXED,
    LayoutSpec,
    build,
    build_alternatives,
    spec_from_json,
)
from typeforge.typecore import Base, BaseKind, Contiguous

_SWEEP6 = (2, 10, 100, 1000, 1024, 10000)


# --- registry and defaults ----------------------------------------------


def test_experiment_registry():
    assert EXPERIMENT_IDS == (
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


def test_family_experiments_name_catalog_layouts():
    for experiment in ("tiled_struct", "tiled_vector", "vector_tiled",
                       "block_indexed", "alternating_indexed", "alternating_repeated"):
        assert experiment in ALL_IDS
        assert make_plan(experiment).experiment == experiment


@pytest.mark.parametrize(
    "experiment,A_values,sizes,size_unit",
    [
        ("basic_layouts", _SWEEP6, (3_200, 2_560_000), "bytes"),
        ("tiled_het", (2, 6, 8, 10, 16, 100, 128, 200), (48_000, 1_500_000), "bytes"),
        ("pack_unpack", (2, 10, 10_000), (64_000, 2_560_000), "bytes"),
        ("contig", _SWEEP6, (2_000, 2_560_000), "bytes"),
        ("tiled_struct", _SWEEP6, (2_000, 2_560_000), "bytes"),
        ("tiled_vector", _SWEEP6, (2_000, 2_560_000), "bytes"),
        ("vector_tiled", _SWEEP6, (2_000, 2_560_000), "bytes"),
        ("block_indexed", _SWEEP6, (3_200, 2_560_000), "bytes"),
        ("alternating_indexed", _SWEEP6, (3_200, 2_560_000), "bytes"),
        ("alternating_repeated", _SWEEP6, (3_200, 2_560_000), "bytes"),
        ("rowcol", (2, 10, 100, 128, 512, 1000, 1024, 5000, 10_000), (100, 10_240), "elements"),
    ],
)
def test_published_parameter_grids(experiment, A_values, sizes, size_unit):
    plan = make_plan(experiment)
    assert plan.A_values == A_values
    assert plan.sizes == sizes
    assert plan.size_unit == size_unit
    assert plan.engine == "compiled"
    assert plan.transport == "inmem"
    assert plan.variant == 1
    assert plan.r == 5
    assert plan.nrep is None
    assert plan.threshold == 1.10
    assert plan.seed == 1


def test_make_plan_overrides():
    plan = make_plan("rowcol", A_values=(2,), sizes=(6,), r=2, nrep=3, engine="interpreted")
    assert plan.A_values == (2,)
    assert plan.sizes == (6,)
    assert (plan.r, plan.nrep, plan.engine) == (2, 3, "interpreted")
    untouched = make_plan("rowcol", r=None, nrep=None)
    assert untouched.r == 5 and untouched.nrep is None


def test_plan_validation():
    with pytest.raises(ValueError):
        make_plan("mosaic")
    with pytest.raises(ValueError):
        ExperimentPlan("basic_layouts", (2,), (64,), size_unit="pages")
    with pytest.raises(ValueError):
        ExperimentPlan("mosaic", (2,), (64,))


def test_plan_rejects_an_unknown_variant():
    # variant 3 would build no layout, and the run would write empty CSVs
    with pytest.raises(ValueError, match="variant"):
        make_plan("basic_layouts", variant=3)


# --- result assembly ----------------------------------------------------


def test_family_point_measures_each_case_once(monkeypatch, fake_clock, tmp_path):
    measured = []
    real = guidelines._measure

    def recording(groups, *args):
        measured.extend(case for group in groups for case in group)
        return real(groups, *args)

    monkeypatch.setattr(guidelines, "_measure", recording)
    plan = make_plan("rowcol", A_values=(2,), sizes=(6,), r=2, nrep=3)
    result = run_experiment(plan, clock=fake_clock)
    # one reference for both alternatives
    assert len({id(case) for case in measured}) == len(measured) == 8
    ids = [s.case.case_id for s in result.stats]
    assert len(set(ids)) == len(ids) == len(measured)
    assert [id(s.case) for s in result.stats] == [id(case) for case in measured]

    # every G4_ALT verdict reads the rows of its own two sides, and the
    # sidecar holds their samples
    path = tmp_path / "raw.json"
    bench.write_raw_json(str(path), result.stats)
    raw = {entry["case_id"]: entry["runs"] for entry in json.loads(path.read_text())}
    rows = {s.case.case_id: s for s in result.stats}
    alts = [v for v in result.verdicts if v.case.guideline == "G4_ALT_DESCRIPTION"]
    assert len(alts) == 2
    for v in alts:
        for case, stats in ((v.case.lhs, v.lhs_stats), (v.case.rhs, v.rhs_stats)):
            assert rows[case.case_id] is stats
            assert raw[case.case_id] == [list(run) for run in stats.raw_samples]


# --- tiny grids through the real pipeline -------------------------------


def test_basic_layouts_rows_and_order(fake_clock):
    plan = make_plan("basic_layouts", A_values=(2,), sizes=(160,), r=1, nrep=2)
    result = run_experiment(plan, clock=fake_clock)
    assert result.verdicts == []
    assert [s.case.case_id for s in result.stats] == [
        "basic_layouts/v1/tiled/A2/m160",
        "basic_layouts/v1/block/A2/m160",
        "basic_layouts/v1/bucket/A2/m160",
        "basic_layouts/v1/alternating/A2/m160",
    ]
    for s in result.stats:
        assert s.case.variant == "typed"
        assert s.case.A == 2
        assert s.case.m_bytes == 160
        assert s.case.spec_json.startswith('{"id":')


def test_indivisible_grid_points_are_skipped(fake_clock):
    plan = make_plan("basic_layouts", A_values=(3,), sizes=(160,), r=1, nrep=2)
    assert run_experiment(plan, clock=fake_clock).stats == []
    # 162 bytes are not a whole number of INT elements
    odd = make_plan("basic_layouts", A_values=(2,), sizes=(162,), r=1, nrep=2)
    assert run_experiment(odd, clock=fake_clock).stats == []
    het = make_plan("tiled_het", A_values=(6,), sizes=(150,), r=1, nrep=2)
    assert run_experiment(het, clock=fake_clock).stats == []


def _rebuilt(spec_json: str):
    """(datatype, count) a reader rebuilds from a stats row's spec_json: a
    constructor tree is one instance, a catalog spec is built."""
    obj = json.loads(spec_json)
    if "kind" in obj:
        return typecore.datatype_from_json(obj), 1
    built = build(spec_from_json(obj))
    return built.datatype, built.count


def test_tiled_het_emits_byte_reference_first(fake_clock, tmp_path):
    plan = make_plan("tiled_het", A_values=(1,), sizes=(150,), r=1, nrep=2)
    result = run_experiment(plan, clock=fake_clock)
    assert [s.case.case_id for s in result.stats] == [
        "tiled_het/contig_bytes/A1/m150",
        "tiled_het/tiled_het/A1/m150",
    ]
    ref, het = result.stats
    assert ref.case.m_bytes == het.case.m_bytes == 150
    assert ref.case.count == 1
    assert het.case.count == 10  # 150 bytes over a 15-byte unit
    # each row's spec_json rebuilds the measured type and count
    path = tmp_path / "bench.csv"
    bench.write_stats_csv(str(path), result.stats)
    rows = bench.read_stats_csv(str(path))
    assert _rebuilt(rows[0]["spec_json"]) == (Contiguous(150, Base(BaseKind.BYTE)), 1)
    for s, row in zip(result.stats, rows):
        assert _rebuilt(row["spec_json"]) == (s.case.datatype.datatype, s.case.count)


def test_pack_unpack_emits_paired_verdicts(fake_clock):
    plan = make_plan("pack_unpack", A_values=(2,), sizes=(160,), r=1, nrep=2)
    result = run_experiment(plan, clock=fake_clock)
    assert [v.case.guideline for v in result.verdicts] == [
        "G2_PACK_SEND",
        "G3_RECV_UNPACK",
    ]
    assert [s.case.case_id for s in result.stats] == [
        "pack_unpack/A2/m160/typed",
        "pack_unpack/A2/m160/packed",
    ]


def test_contig_checks_every_basic_layout(fake_clock):
    plan = make_plan("contig", A_values=(2,), sizes=(160,), r=1, nrep=2)
    result = run_experiment(plan, clock=fake_clock)
    assert [v.case.guideline for v in result.verdicts] == ["G1_CONTIG"] * 4
    ids = [s.case.case_id for s in result.stats]
    assert ids[:2] == [
        "contig/tiled/A2/m160/typed-count",
        "contig/tiled/A2/m160/contig-one",
    ]
    assert len(ids) == 8


def test_family_experiment_emits_alternatives_then_g4(fake_clock):
    plan = make_plan("vector_tiled", A_values=(2,), sizes=(40,), r=1, nrep=2)
    result = run_experiment(plan, clock=fake_clock)
    assert [v.case.guideline for v in result.verdicts] == [
        "G4_ALT_DESCRIPTION",
        "G4_NORMALIZE",
        "G4_NORMALIZE",
    ]
    ids = [s.case.case_id for s in result.stats]
    assert ids[0] == "vector_tiled/A2/m40/tiled"
    assert ids[1] == "vector_tiled/A2/m40/vector_tiled"
    assert all(i.startswith("vector_tiled/A2/m40") for i in ids)


def test_tiled_struct_sweeps_both_splits(fake_clock):
    plan = make_plan("tiled_struct", A_values=(2,), sizes=(80,), r=1, nrep=2)
    result = run_experiment(plan, clock=fake_clock)
    tags = {v.case.case_id for v in result.verdicts}
    assert any("/S1-1" in t for t in tags)
    assert any("/S2-3" in t for t in tags)


def test_rowcol_uses_element_sizes(fake_clock):
    plan = make_plan("rowcol", A_values=(2,), sizes=(6,), r=1, nrep=2)
    result = run_experiment(plan, clock=fake_clock)
    guidelines = [v.case.guideline for v in result.verdicts]
    assert guidelines == [
        "G4_ALT_DESCRIPTION",
        "G4_ALT_DESCRIPTION",
        "G4_NORMALIZE",
        "G4_NORMALIZE",
        "G4_NORMALIZE",
    ]
    ids = [s.case.case_id for s in result.stats]
    assert ids[:3] == [
        "rowcol/A2/n6/rowcol_fully_indexed",
        "rowcol/A2/n6/rowcol_contig_indexed",
        "rowcol/A2/n6/rowcol_struct",
    ]
    for v in result.verdicts:
        assert not v.violated  # deterministic clock, ratio exactly 1


@pytest.mark.parametrize("experiment,sizes", [
    ("contig", (160,)),
    ("pack_unpack", (160,)),
    ("block_indexed", (3_200,)),
])
def test_variant_reaches_every_experiment(experiment, sizes, fake_clock):
    def extents(variant):
        plan = make_plan(experiment, A_values=(2,), sizes=sizes, variant=variant,
                         r=1, nrep=1)
        return [s.case.datatype.extent for s in run_experiment(plan, clock=fake_clock).stats]

    v1, v2 = extents(1), extents(2)
    assert len(v1) == len(v2) > 0
    assert v1[0] != v2[0]


def test_basic_layouts_measures_each_case_on_its_own(monkeypatch, fake_clock):
    calls = []
    real = bench._prepare

    def counting(groups, seed=None):
        if seed is not None:  # the ping party's, once per measurement
            calls.append([len(group) for group in groups])
        return real(groups, seed)

    monkeypatch.setattr(bench, "_prepare", counting)
    plan = make_plan("basic_layouts", A_values=(2, 10), sizes=(160,), r=1, nrep=1)
    result = run_experiment(plan, clock=fake_clock)
    assert len(result.stats) == 8
    assert calls == [[1]] * 8


def test_family_point_commits_each_member_once(monkeypatch, fake_clock):
    spec = LayoutSpec(id=BLOCK_INDEXED, n=800, A=2)
    members = [m.datatype for m in build_alternatives(spec)]
    calls = Counter()
    depth = [0]
    real = typecore._layout

    def counting(t):
        # only commits count, not the recursion into subtrees
        if depth[0] == 0:
            calls[t] += 1
        depth[0] += 1
        try:
            return real(t)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(typecore, "_layout", counting)
    plan = make_plan("block_indexed", A_values=(2,), sizes=(3_200,), r=1, nrep=1)
    result = run_experiment(plan, clock=fake_clock)
    assert len(result.verdicts) == 3
    assert [calls[t] for t in members] == [1, 1]


def test_family_point_prepares_once_per_party(monkeypatch, fake_clock):
    calls = []
    real = bench._prepare

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(bench, "_prepare", counting)
    plan = make_plan("block_indexed", A_values=(2,), sizes=(3_200,), r=1, nrep=1)
    result = run_experiment(plan, clock=fake_clock)
    assert len(result.verdicts) == 3
    # one alternative pair and two G4 checks, measured in one call: the
    # ping and the echo side each prepare every comparison once
    assert len(calls) == 2


def test_tree_json_is_written_only_with_the_stats_csv(monkeypatch, fake_clock, tmp_path):
    serialized, dumped = [], []
    real_to_json, real_dumps = typecore.datatype_to_json, bench.datatype_dumps

    def to_json(t):
        serialized.append(t)
        return real_to_json(t)

    def dumps(t):
        dumped.append(t)
        return real_dumps(t)

    monkeypatch.setattr(typecore, "datatype_to_json", to_json)
    monkeypatch.setattr(bench, "datatype_dumps", dumps)
    plan = make_plan("block_indexed", A_values=(2,), sizes=(3_200,), r=1, nrep=1)
    result = run_experiment(plan, clock=fake_clock)
    assert serialized == []
    path = tmp_path / "bench.csv"
    bench.write_stats_csv(str(path), result.stats)
    rows = bench.read_stats_csv(str(path))
    trees = {id(s.case.datatype): s.case.datatype.datatype for s in result.stats}
    # each distinct tree once, however many rows share it
    assert len(dumped) == len(trees) < len(result.stats)
    for s, row in zip(result.stats, rows):
        assert s.case.spec_json is None
        assert row["spec_json"] == real_dumps(s.case.datatype.datatype)


def test_family_point_builds_one_engine_per_type_and_party(monkeypatch, fake_clock):
    import typeforge.packer as packer

    built = []
    real = packer.CompiledEngine.__init__

    def counting(self, t, count):
        built.append((t, count))
        real(self, t, count)

    monkeypatch.setattr(packer.CompiledEngine, "__init__", counting)
    plan = make_plan("alternating_repeated", r=1, nrep=1)
    run_experiment(plan, clock=fake_clock)
    distinct = {(id(t), count) for t, count in built}
    # every grid point measures its members again in each G4 check; the
    # ping and the echo side each build one engine per type
    assert len(distinct) == 26
    assert len(built) == 2 * len(distinct)
