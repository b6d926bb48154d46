"""Normalization: cheaper descriptions of identical layouts."""

import numpy as np
import pytest
from hypothesis import given

from treegen import datatypes
from typeforge.layouts import LayoutSpec, build
from typeforge.normalizer import cost, descr_size, normalize, normalize_type
from typeforge.typecore import (
    Base,
    BaseKind,
    Composite,
    Contiguous,
    HVector,
    Indexed,
    IndexedBlock,
    MalformedType,
    Resized,
    Vector,
    commit,
    flatten,
)

INT = Base(BaseKind.INT)


def _same_layout(a, b, counts=(1, 2, 5)) -> bool:
    return all(flatten(a, c).same_segments(flatten(b, c)) for c in counts)


# --- cost model ---------------------------------------------------------


def test_description_size_charges_list_entries():
    assert descr_size(INT) == 1
    assert descr_size(Contiguous(4, INT)) == 2
    assert descr_size(Indexed(((2, 0), (4, 5)), INT)) == 4
    assert descr_size(IndexedBlock(2, (0, 5, 9), INT)) == 5
    assert descr_size(Composite(((2, 0, INT), (1, 12, INT)))) == 5
    assert descr_size(Resized(0, 40, Vector(2, 3, 5, INT))) == 3


def test_cost_adds_segment_count():
    assert cost(Contiguous(4, INT)) == 1 + 2
    assert cost(Vector(2, 3, 5, INT)) == 2 + 2


# --- named rewrites -----------------------------------------------------


def test_dense_vector_collapses_to_contiguous():
    report = normalize(Vector(4, 2, 2, INT))
    assert report.output == Contiguous(8, INT)
    assert report.changed
    assert "collapse-dense" in report.passes
    assert (report.input_cost, report.output_cost) == (3, 3)


def test_gapless_tile_drops_its_resize():
    report = normalize(Resized(0, 16, Contiguous(4, INT)))
    assert report.output == Contiguous(4, INT)
    assert "fold-resized" in report.passes


def test_equal_blocklens_become_indexed_block():
    report = normalize(Indexed(((2, 0), (2, 5), (2, 9)), INT))
    assert report.output == IndexedBlock(2, (0, 5, 9), INT)
    assert "indexed-to-block" in report.passes


def test_nested_vector_description_unnests():
    built = build(LayoutSpec(id="vector_tiled", n=30, A=3, variant=1))
    assert built.datatype == HVector(2, 1, 100, Vector(5, 3, 5, INT))
    report = normalize(built.datatype)
    assert report.changed
    assert "fuse-nested-vectors" in report.passes
    assert report.output == Vector(10, 3, 5, INT)


def test_adjacent_struct_members_fuse():
    report = normalize(Composite(((2, 0, INT), (3, 8, INT))))
    assert report.output == Contiguous(5, INT)
    assert (report.input_cost, report.output_cost) == (6, 3)


def test_periodic_index_table_is_rolled_up():
    built = build(LayoutSpec(id="alternating_indexed", n=144, A=3, variant=1))
    report = normalize(built.datatype)
    assert (report.input_cost, report.output_cost) == (98, 55)
    assert "regular-stride" in report.passes
    assert _same_layout(built.datatype, report.output)


def test_padding_markers_survive():
    # the trailing gap is part of the layout; normalization must keep it
    built = build(LayoutSpec(id="tiled_vector", n=12, A=3, variant=1))
    report = normalize(built.datatype)
    assert not report.changed
    assert report.output is built.datatype
    assert report.passes == ()


# --- catalog-wide guarantees --------------------------------------------

_CATALOG = [
    LayoutSpec(id="contiguous", n=24),
    LayoutSpec(id="tiled", n=24, A=3, variant=1),
    LayoutSpec(id="block", n=24, A=3, variant=1),
    LayoutSpec(id="bucket", n=24, A=3, variant=1),
    LayoutSpec(id="alternating", n=24, A=3, variant=1),
    LayoutSpec(id="tiled", n=40, A=4, variant=2),
    LayoutSpec(id="tiled_het", n=45, A=1, kinds=(BaseKind.CHAR, BaseKind.INT, BaseKind.DOUBLE, BaseKind.SHORT)),
    LayoutSpec(id="contig_subtype", n=24, A=3, variant=1, subtype="bucket"),
    LayoutSpec(id="tiled_struct", n=30, A=3, variant=1, S1=2, S2=3),
    LayoutSpec(id="tiled_vector", n=24, A=3, variant=1),
    LayoutSpec(id="vector_tiled", n=30, A=3, variant=1, S1=5),
    LayoutSpec(id="block_indexed", n=24, A=3, variant=1),
    LayoutSpec(id="alternating_indexed", n=24, A=3, variant=1),
    LayoutSpec(id="alternating_repeated", n=24, A=3, variant=1),
    LayoutSpec(id="alternating_struct", n=24, A=3, variant=1),
    LayoutSpec(id="rowcol_fully_indexed", n=10, A=3),
    LayoutSpec(id="rowcol_contig_indexed", n=10, A=3),
    LayoutSpec(id="rowcol_struct", n=10, A=3),
]


@pytest.mark.parametrize("spec", _CATALOG, ids=lambda s: s.id)
def test_catalog_layouts_survive_normalization(spec):
    built = build(spec)
    report = normalize(built.datatype)
    before = commit(built.datatype)
    after = commit(report.output)
    assert (after.lb, after.ub) == (before.lb, before.ub)
    assert _same_layout(built.datatype, report.output, counts=(1, built.count))
    assert report.output_cost <= report.input_cost


# --- properties on random trees -----------------------------------------


@given(datatypes())
def test_normalization_preserves_layout_and_bounds(t):
    report = normalize(t)
    before = commit(t)
    after = commit(report.output)
    assert (after.lb, after.ub) == (before.lb, before.ub)
    assert _same_layout(t, report.output)


@given(datatypes())
def test_normalization_never_raises_cost(t):
    report = normalize(t)
    assert report.output_cost <= report.input_cost
    assert report.output_cost == cost(report.output)
    assert report.input_cost == cost(t)


@given(datatypes())
def test_normalization_is_idempotent(t):
    once = normalize_type(t)
    again = normalize(once)
    assert not again.changed
    assert again.output == once


def test_unchanged_report_shape():
    report = normalize(Contiguous(3, INT))
    assert not report.changed
    assert report.passes == ()
    assert report.iterations == 1
    assert report.input is report.output


# 2.56 MB of INT payload: 320000 and 640000 table entries
@pytest.mark.parametrize("layout", ["block_indexed", "alternating_indexed"])
def test_long_index_tables_are_not_converted_entry_by_entry(layout, monkeypatch):
    def entry_by_entry(*_, **__):
        raise AssertionError("an index table was converted entry by entry")

    monkeypatch.setattr(np, "fromiter", entry_by_entry)
    built = build(LayoutSpec(id=layout, n=640_000, A=2))
    ct = commit(built.datatype)
    report = normalize(built.datatype)
    assert report.changed
    assert report.committed_output.size == ct.size == 2_560_000


def test_normalize_validates_first():
    with pytest.raises(MalformedType):
        normalize(Contiguous(-2, INT))
