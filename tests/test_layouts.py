"""Catalog layouts: derived parameters, built trees and family equivalence."""

import pytest

from typeforge.layouts import (
    ALL_IDS,
    BASIC_IDS,
    ROWCOL_IDS,
    BadParams,
    LayoutSpec,
    build,
    build_alternatives,
    derive_params,
    make_tiled_heterogeneous,
    spec_from_json,
    spec_to_json,
    unit_elems,
)
from typeforge.typecore import BaseKind, commit, equivalent, flatten

CHAR = BaseKind.CHAR
SHORT = BaseKind.SHORT
INT = BaseKind.INT
DOUBLE = BaseKind.DOUBLE


def segs(built):
    return flatten(built.datatype, built.count).segments


# --- derived parameters -------------------------------------------------


def test_variant1_parameters():
    p = derive_params(LayoutSpec(id="tiled", n=12, A=3, variant=1))
    assert (p.A, p.B, p.A1, p.A2, p.B1, p.B2) == (3, 5, 2, 4, 4, 6)


def test_variant2_parameters():
    p = derive_params(LayoutSpec(id="tiled", n=12, A=4, variant=2))
    assert (p.A, p.B, p.A1, p.A2, p.B1, p.B2) == (4, 12, 2, 6, 8, 16)


def test_variant2_rejects_odd_A():
    with pytest.raises(BadParams):
        derive_params(LayoutSpec(id="tiled", n=12, A=3, variant=2))


def test_variant1_rejects_tiny_A():
    with pytest.raises(BadParams):
        derive_params(LayoutSpec(id="tiled", n=12, A=1, variant=1))


def test_explicit_variant_and_overrides():
    p = derive_params(
        LayoutSpec(id="tiled", n=8, A=2, variant="explicit", B=9, A1=1, A2=3, B1=5, B2=6)
    )
    assert (p.B, p.A1, p.A2, p.B1, p.B2) == (9, 1, 3, 5, 6)
    hybrid = derive_params(LayoutSpec(id="tiled", n=8, A=4, variant=1, B=11))
    assert (hybrid.B, hybrid.B1) == (11, 5)


def test_repeated_family_pins_trailing_gap():
    p = derive_params(LayoutSpec(id="alternating_repeated", n=12, A=3, variant=1))
    assert p.B2 == p.A2 == 4


# --- block arithmetic: payload elements and period per block ------------


@pytest.mark.parametrize(
    "layout_id,payload,period",
    [
        ("tiled", lambda p: p.A, lambda p: p.B),
        ("block", lambda p: 2 * p.A, lambda p: p.B1 + p.B2),
        ("bucket", lambda p: p.A1 + p.A2, lambda p: 2 * p.B),
        ("alternating", lambda p: p.A1 + p.A2, lambda p: p.B1 + p.B2),
    ],
)
@pytest.mark.parametrize("A,variant", [(3, 1), (10, 1), (4, 2), (10, 2)])
def test_basic_block_arithmetic(layout_id, payload, period, A, variant):
    spec = LayoutSpec(id=layout_id, n=12 * A, A=A, variant=variant)
    p = derive_params(spec)
    built = build(spec)
    assert unit_elems(spec) == payload(p)
    unit = commit(built.datatype)
    assert unit.size == payload(p) * built.elem_size
    assert unit.extent == period(p) * built.elem_size
    assert built.count == spec.n // payload(p)
    assert built.total_extent_elems == built.count * period(p)


@pytest.mark.parametrize("A", [2, 10, 100])
def test_tiled_extent_formulas(A):
    n = 12 * A
    v1 = build(LayoutSpec(id="tiled", n=n, A=A, variant=1))
    assert v1.total_extent_elems == n + 2 * n // A
    v2 = build(LayoutSpec(id="tiled", n=n, A=A, variant=2))
    assert v2.total_extent_elems == 3 * n


# --- frozen small instances (hand computed) -----------------------------


def test_tiled_small_instance():
    built = build(LayoutSpec(id="tiled", n=12, A=3, variant=1))
    assert built.count == 4
    assert segs(built) == [(0, 12), (20, 12), (40, 12), (60, 12)]


def test_block_small_instance():
    built = build(LayoutSpec(id="block", n=12, A=3, variant=1))
    assert built.count == 2
    assert segs(built) == [(0, 12), (16, 12), (40, 12), (56, 12)]


def test_bucket_small_instance():
    built = build(LayoutSpec(id="bucket", n=12, A=3, variant=1))
    assert segs(built) == [(0, 8), (20, 16), (40, 8), (60, 16)]


def test_alternating_small_instance():
    built = build(LayoutSpec(id="alternating", n=12, A=3, variant=1))
    assert segs(built) == [(0, 8), (16, 16), (40, 8), (56, 16)]


def test_alternating_repeated_merges_at_seam():
    built = build(LayoutSpec(id="alternating_repeated", n=12, A=3, variant=1))
    assert built.count == 2
    assert segs(built) == [(0, 8), (16, 24), (48, 16)]


def test_alternating_struct_small_instance():
    built = build(LayoutSpec(id="alternating_struct", n=12, A=3, variant=1))
    assert built.count == 1
    assert segs(built) == [(0, 8), (16, 24), (48, 16)]


def test_block_indexed_small_instance():
    built = build(LayoutSpec(id="block_indexed", n=12, A=3, variant=1))
    assert built.count == 1
    assert segs(built) == [(0, 12), (16, 12), (40, 12), (56, 12)]


def test_rowcol_small_instances():
    for layout_id in ROWCOL_IDS:
        built = build(LayoutSpec(id=layout_id, n=7, A=3))
        assert segs(built) == [(0, 16), (24, 4), (36, 4), (48, 4)]


def test_heterogeneous_tile_packing():
    kinds = (CHAR, INT, DOUBLE, SHORT)
    unit = commit(make_tiled_heterogeneous(1, kinds))
    assert unit.size == 15
    assert unit.extent == 24
    assert unit.flat.segments == [(0, 1), (4, 14)]
    wider = commit(make_tiled_heterogeneous(2, kinds))
    assert (wider.size, wider.extent) == (30, 40)


def test_heterogeneous_build_counts_bytes():
    spec = LayoutSpec(id="tiled_het", n=45, A=1, kinds=(CHAR, INT, DOUBLE, SHORT))
    built = build(spec)
    assert built.count == 3
    assert built.elem_size == 1
    assert built.total_extent_elems == 3 * 24


def test_contiguous_layout_is_trivial():
    built = build(LayoutSpec(id="contiguous", n=9, basetype=DOUBLE))
    assert (built.count, built.elem_size, built.total_extent_elems) == (9, 8, 9)


# --- alternative-description families -----------------------------------


@pytest.mark.parametrize(
    "family_id,extra",
    [
        ("contig_subtype", {"subtype": "tiled"}),
        ("tiled_struct", {"S1": 2, "S2": 3}),
        ("tiled_vector", {}),
        ("vector_tiled", {"S1": 5}),
        ("block_indexed", {}),
        ("alternating_indexed", {}),
        ("alternating_repeated", {}),
        ("alternating_struct", {}),
    ],
)
@pytest.mark.parametrize("A", [2, 10])
def test_families_are_equivalent_to_reference(family_id, extra, A):
    n = 60 * A
    members = build_alternatives(LayoutSpec(id=family_id, n=n, A=A, variant=1, **extra))
    assert len(members) >= 2
    ref = members[0]
    for alt in members[1:]:
        assert equivalent(ref.datatype, ref.count, alt.datatype, alt.count)


# the reference description of each layout that has a family
FAMILY_REFERENCES = {
    "contig_subtype": "tiled",
    "tiled_struct": "tiled",
    "tiled_vector": "tiled",
    "vector_tiled": "tiled",
    "block_indexed": "block",
    "alternating_indexed": "alternating",
    "alternating_repeated": "alternating_repeated",
    "alternating_struct": "alternating_repeated",
    "rowcol_fully_indexed": "rowcol_fully_indexed",
    "rowcol_contig_indexed": "rowcol_fully_indexed",
    "rowcol_struct": "rowcol_fully_indexed",
}


def _family_ids(layout_id):
    spec = LayoutSpec(id=layout_id, n=30, A=3, variant=1, subtype="tiled")
    return [m.spec.id for m in build_alternatives(spec)]


@pytest.mark.parametrize("layout_id", sorted(FAMILY_REFERENCES))
def test_family_reference_comes_first(layout_id):
    family = _family_ids(layout_id)
    assert family[0] == FAMILY_REFERENCES[layout_id]
    assert layout_id in family
    # every member that has a family names this one, in the same order
    for member in family:
        if member in FAMILY_REFERENCES:
            assert _family_ids(member) == family


def test_rowcol_family_lists_all_three():
    alts = build_alternatives(LayoutSpec(id="rowcol_struct", n=10, A=2))
    assert [m.spec.id for m in alts] == list(ROWCOL_IDS)
    ref = alts[0]
    for alt in alts[1:]:
        assert equivalent(ref.datatype, ref.count, alt.datatype, alt.count)


def test_layouts_without_family_are_rejected():
    for layout_id in set(ALL_IDS) - set(FAMILY_REFERENCES):
        with pytest.raises(BadParams):
            _family_ids(layout_id)


# --- rejected parameter sets --------------------------------------------


@pytest.mark.parametrize(
    "spec",
    [
        LayoutSpec(id="tiled", n=13, A=3, variant=1),
        LayoutSpec(id="tiled", n=0, A=3, variant=1),
        LayoutSpec(id="block", n=10, A=3, variant=1),
        LayoutSpec(id="bucket", n=12, A=3, variant="explicit", A1=2, A2=2, B=5),
        LayoutSpec(id="block", n=12, A=3, variant="explicit", B1=4, B2=4),
        LayoutSpec(id="tiled", n=12, A=3, variant="explicit", B=3),
        LayoutSpec(id="rowcol_struct", n=3, A=7),
        LayoutSpec(id="tiled_het", n=16, A=1, kinds=(CHAR, INT, DOUBLE, SHORT)),
        LayoutSpec(id="tiled_het", n=15, A=1, kinds=()),
        LayoutSpec(id="contig_subtype", n=12, A=3, variant=1, subtype="rowcol_struct"),
        LayoutSpec(id="vector_tiled", n=14, A=3, variant=1, S1=5),
        LayoutSpec(id="mosaic", n=12, A=3),
        LayoutSpec(id="tiled", n=12, A=3, variant=7),
    ],
)
def test_bad_params_are_rejected(spec):
    with pytest.raises(BadParams):
        build(spec)


# --- JSON ---------------------------------------------------------------


@pytest.mark.parametrize(
    "spec",
    [
        LayoutSpec(id="tiled", n=120, A=10, variant=2),
        LayoutSpec(id="contig_subtype", n=12, A=3, subtype="bucket"),
        LayoutSpec(id="tiled_het", n=45, A=1, kinds=(CHAR, INT, DOUBLE, SHORT)),
        LayoutSpec(id="vector_tiled", n=30, A=3, S1=5, basetype=SHORT),
        LayoutSpec(id="tiled", n=8, A=2, variant="explicit", B=9, A1=1, A2=3, B1=5, B2=6),
    ],
)
def test_spec_json_round_trip(spec):
    assert spec_from_json(spec_to_json(spec)) == spec


def test_catalog_ids_are_unique():
    assert len(ALL_IDS) == len(set(ALL_IDS)) == 17
    assert set(BASIC_IDS) < set(ALL_IDS)
    assert set(ROWCOL_IDS) < set(ALL_IDS)
