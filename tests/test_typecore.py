"""Constructor trees, flattening, bounds and equivalence."""

import dataclasses
import gc
import os
import pickle
import resource
import subprocess
import sys
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import typeforge.typecore as typecore
from treegen import base_types, datatypes, oracle_segments, oracle_walk
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
    bounds,
    canonicalize,
    commit,
    datatype_dumps,
    datatype_from_json,
    datatype_loads,
    datatype_to_json,
    equivalent,
    extent,
    flatten,
)
from typeforge.layouts import BadParams, LayoutSpec, build, build_alternatives
from typeforge.normalizer import normalize
from typeforge.packer import ENGINES, _split_pieces, make_engine

INT = Base(BaseKind.INT)
DOUBLE = Base(BaseKind.DOUBLE)
SHORT = Base(BaseKind.SHORT)


# --- base kinds ---------------------------------------------------------


def test_base_kind_table():
    expected = {
        BaseKind.BYTE: (1, 1),
        BaseKind.CHAR: (1, 1),
        BaseKind.SHORT: (2, 2),
        BaseKind.INT: (4, 4),
        BaseKind.DOUBLE: (8, 8),
    }
    assert set(BaseKind) == set(expected)
    for kind, (size, align) in expected.items():
        assert kind.size == size
        assert kind.alignment == align


def test_base_kind_from_name_round_trip():
    for kind in BaseKind:
        assert BaseKind.from_name(kind.wire_name) is kind
        assert BaseKind.from_name(kind.wire_name.upper()) is kind
    with pytest.raises(MalformedType):
        BaseKind.from_name("float128")


# --- frozen single-instance layouts (hand computed) ---------------------


def test_vector_of_ints_layout():
    # 2 blocks of 3 ints, stride 5 units of 4 bytes = 20 bytes apart.
    ct = commit(Vector(2, 3, 5, INT))
    assert ct.flat.segments == [(0, 12), (20, 12)]
    assert (ct.size, ct.lb, ct.ub, ct.extent) == (24, 0, 32, 32)


def test_vector_strided_blocks():
    ct = commit(Vector(3, 2, 4, INT))
    assert ct.flat.segments == [(0, 8), (16, 8), (32, 8)]
    assert (ct.size, ct.extent) == (24, 40)


def test_vector_negative_stride_keeps_order():
    ct = commit(Vector(2, 1, -2, INT))
    assert ct.flat.segments == [(0, 4), (-8, 4)]
    assert (ct.lb, ct.ub, ct.extent) == (-8, 4, 12)


def test_indexed_ragged_blocks():
    ct = commit(Indexed(((2, 0), (4, 5)), INT))
    assert ct.flat.segments == [(0, 8), (20, 16)]
    assert (ct.size, ct.lb, ct.ub) == (24, 0, 36)


def test_indexed_block_constant_blocks():
    ct = commit(IndexedBlock(1, (0, 3, 5), SHORT))
    assert ct.flat.segments == [(0, 2), (6, 2), (10, 2)]
    assert (ct.size, ct.ub) == (6, 12)


def test_struct_members_in_order():
    ct = commit(Composite(((2, 0, INT), (1, 12, DOUBLE))))
    assert ct.flat.segments == [(0, 8), (12, 8)]
    assert (ct.size, ct.lb, ct.ub) == (16, 0, 20)


def test_resized_moves_bounds_not_payload():
    ct = commit(Resized(-4, 24, INT))
    assert ct.flat.segments == [(0, 4)]
    assert (ct.size, ct.lb, ct.ub, ct.extent) == (4, -4, 20, 24)
    assert flatten(ct, 2).segments == [(0, 4), (24, 4)]


def test_contiguous_merges_across_instances():
    assert flatten(Contiguous(2, INT), 3).segments == [(0, 24)]
    assert commit(Contiguous(4, Vector(2, 3, 5, INT))).extent == 128


def test_empty_constructors_have_zero_bounds():
    for t in (
        Contiguous(0, INT),
        Vector(2, 0, 3, INT),
        Indexed(((0, 7),), INT),
        IndexedBlock(0, (1, 2), INT),
        Composite(((0, 40, INT),)),
        Contiguous(3, Contiguous(0, DOUBLE)),
    ):
        ct = commit(t)
        assert (ct.size, ct.lb, ct.ub) == (0, 0, 0)
        assert ct.flat.segments == []


def test_marker_only_type_still_occupies_bounds():
    marker = Resized(4, 8, Contiguous(0, INT))
    ct = commit(marker)
    assert (ct.size, ct.lb, ct.ub) == (0, 4, 12)
    outer = commit(Composite(((1, 0, INT), (2, 16, marker))))
    assert outer.flat.segments == [(0, 4)]
    assert (outer.size, outer.lb, outer.ub) == (4, 0, 36)


def test_overlap_flag():
    assert commit(Vector(2, 2, 1, INT)).flat.overlapping
    assert not commit(Vector(2, 2, 4, INT)).flat.overlapping
    dup = commit(Composite(((1, 0, INT), (1, 0, INT))))
    assert dup.flat.overlapping
    assert dup.flat.segments == [(0, 4), (0, 4)]
    assert dup.size == 8


# --- properties against the reference oracle ----------------------------


@given(datatypes())
def test_flatten_matches_byte_oracle(t):
    addrs, lb, ub, empty = oracle_walk(t)
    ct = commit(t)
    assert ct.size == len(addrs)
    assert (ct.lb, ct.ub) == (lb, ub)
    assert empty == (ct.size == 0 and ct.lb == 0 and ct.ub == 0)
    assert flatten(t).segments == oracle_segments(addrs)


@given(st.integers(0, 5), datatypes())
def test_contiguous_equals_count(c, t):
    assert flatten(Contiguous(c, t)).same_segments(flatten(t, c))


@given(st.integers(0, 5), datatypes())
def test_contiguous_scales_extent(c, t):
    assert commit(Contiguous(c, t)).extent == c * commit(t).extent


@given(datatypes())
def test_commit_is_idempotent(t):
    ct = commit(t)
    assert commit(ct) is ct
    assert flatten(ct).same_segments(flatten(t))


def _eager_tile(off, ln, count: int, stride: int) -> tuple[np.ndarray, np.ndarray]:
    """`count` copies of a canonical list the eager way: every copy built,
    then the one join copies can make merged by a canonicalizing pass."""
    if count == 0 or len(off) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if count == 1:
        return off, ln
    touching = off[-1] + ln[-1] == off[0] + stride
    if touching and len(off) == 1:
        return off, ln * count
    out_off = (np.arange(count, dtype=np.int64)[:, None] * stride + off[None, :]).ravel()
    out_len = np.tile(ln, count)
    return canonicalize(out_off, out_len) if touching else (out_off, out_len)


def _eager_unit(t) -> tuple[np.ndarray, np.ndarray]:
    """One instance's segments, every level's list built in full: the
    reference for the closed forms of `commit` and `flatten`."""
    none = np.empty(0, dtype=np.int64)
    if isinstance(t, Base):
        return np.array([0], dtype=np.int64), np.array([t.kind.size], dtype=np.int64)
    if isinstance(t, Resized):
        return _eager_unit(t.inner)
    if isinstance(t, Composite):
        offs, lens = [none], [none]
        for count, displ, member in t.members:
            if typecore._size_bounds(member) != (0, 0, 0):
                off, ln = _eager_tile(*_eager_unit(member), count, extent(member))
                offs.append(off + displ)
                lens.append(ln)
        return canonicalize(np.concatenate(offs), np.concatenate(lens))
    if typecore._size_bounds(t) == (0, 0, 0):
        return none, none
    inner, ext = _eager_unit(t.inner), extent(t.inner)
    if isinstance(t, Contiguous):
        return _eager_tile(*inner, t.count, ext)
    if isinstance(t, (Vector, HVector)):
        block = _eager_tile(*inner, t.blocklen, ext)
        return _eager_tile(*block, t.count, typecore.vector_stride(t, ext))
    return typecore._place_blocks(*typecore.block_table(t, ext), inner, ext)


def _tiled_reference(t, count: int) -> tuple[np.ndarray, np.ndarray]:
    """`count` instances by the definition: the eager unit copied at each
    multiple of the extent, then one canonicalizing pass."""
    return _eager_tile(*_eager_unit(t), count, extent(t))


# units whose instances touch (one segment, and two with the join between
# instances), and vector strides that are zero, negative or touching
_TILING_EDGES = [
    INT,
    Indexed(((1, 0), (1, 2)), INT),
    Resized(0, 0, INT),
    Resized(4, 4, INT),
    HVector(3, 1, 0, INT),
    HVector(3, 2, -8, INT),
    HVector(3, 2, 8, INT),
    HVector(3, 1, 4, Indexed(((1, 0), (1, 2)), SHORT)),
    Contiguous(2, HVector(2, 1, -4, INT)),
]


@given(st.one_of(datatypes(), st.sampled_from(_TILING_EDGES)), st.integers(0, 20))
def test_closed_form_tiling_matches_tile_and_canonicalize(t, count):
    flat = flatten(t, count)
    # read off the closed form, before any array is built
    n, payload = flat.segment_count, flat.payload_bounds
    off, ln = _tiled_reference(t, count)
    assert flat.offsets.tolist() == off.tolist()
    assert flat.lengths.tolist() == ln.tolist()
    assert not flat.offsets.flags.writeable and not flat.lengths.flags.writeable
    assert n == len(off)
    assert payload == ((int(off.min()), int((off + ln).max())) if n else (flat.lb, flat.lb))


@st.composite
def _description_pairs(draw):
    """Two (type, count) descriptions: one the other's instances as a
    contiguous count, as a count-1 list of indexed instances or under
    unrelated counts, or two random ones."""
    t, c = draw(datatypes()), draw(st.integers(0, 6))
    m = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(("contiguous", "indexed", "recount", "random")))
    if kind == "contiguous":
        return (Contiguous(m, t), c), (t, m * c)
    if kind == "indexed":
        return (IndexedBlock(1, tuple(range(c)), t), 1), (t, c)
    if kind == "recount":
        return (t, c), (t, draw(st.integers(0, 6)))
    return (t, c), (draw(datatypes()), draw(st.integers(0, 6)))


@given(_description_pairs())
def test_equivalent_agrees_with_the_eager_lists(pair):
    (t1, c1), (t2, c2) = pair
    off1, ln1 = _tiled_reference(t1, c1)
    off2, ln2 = _tiled_reference(t2, c2)
    same = (commit(t1).size * c1 == commit(t2).size * c2
            and off1.tolist() == off2.tolist() and ln1.tolist() == ln2.tolist())
    assert equivalent(t1, c1, t2, c2) == same
    assert equivalent(t2, c2, t1, c1) == same


def test_tilings_of_different_strides_compare_window_by_window():
    # four copies of one segment 8 bytes apart, against two copies of two
    # segments 16 bytes apart: one list, two closed forms
    words = flatten(Vector(4, 1, 2, INT))
    pairs = flatten(Resized(0, 16, Indexed(((1, 0), (1, 2)), INT)), 2)
    assert (words.form.copies, words.form.stride) == (4, 8)
    assert (pairs.form.copies, pairs.form.stride) == (2, 16)
    assert words.same_segments(pairs) and pairs.same_segments(words)
    assert not words.same_segments(flatten(Vector(4, 1, 3, INT)))
    assert equivalent(Vector(4, 1, 2, INT), 1, Resized(0, 16, Indexed(((1, 0), (1, 2)), INT)), 2)


@st.composite
def _segment_list_pairs(draw):
    """Two (type, count) descriptions at counts 1 to 3 whose lists often
    agree in closed forms that do not: a tiling against the explicit list
    of a struct that places its instances, and tilings of different copies
    and strides.  The instances are spread apart so that none join, and a
    struct with one of them moved differs from the tiling in that
    instance's segments only."""
    t = draw(datatypes().filter(lambda t: commit(t).size > 0))
    a, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    kind = draw(st.sampled_from(("regrouped", "listed", "moved", "recount", "random")))
    if kind == "regrouped":
        return (Contiguous(a, t), b), (Contiguous(b, t), a)
    if kind in ("listed", "moved"):
        lb, ub = bounds(t)
        step = 2 * (ub - lb) + 1
        displs = [i * step for i in range(a)]
        if kind == "moved":
            displs[draw(st.integers(0, a - 1))] += draw(st.integers(1, 2))
        return (Composite(tuple((1, d, t) for d in displs)), 1), (Resized(lb, step, t), a)
    if kind == "recount":
        return (t, a), (t, b)
    return (t, a), (draw(datatypes()), b)


@given(_segment_list_pairs(), st.sampled_from((1, 2, 3, typecore._CHECK_ENTRIES)))
def test_same_segments_agrees_with_the_materialized_lists(pair, window):
    (t1, c1), (t2, c2) = pair
    with mock.patch.object(typecore, "_CHECK_ENTRIES", window):
        same = flatten(t1, c1).same_segments(flatten(t2, c2))
        back = flatten(t2, c2).same_segments(flatten(t1, c1))
    off1, ln1 = flatten(t1, c1).form.materialize()
    off2, ln2 = flatten(t2, c2).form.materialize()
    expected = np.array_equal(off1, off2) and np.array_equal(ln1, ln2)
    assert same == back == expected


@pytest.mark.parametrize("window", [1, 2, 3, typecore._CHECK_ENTRIES])
def test_same_segments_finds_one_moved_segment_in_any_window(window):
    # five words 8 bytes apart, as a tiling and as struct members
    tiling = flatten(Resized(0, 8, INT), 5)
    with mock.patch.object(typecore, "_CHECK_ENTRIES", window):
        assert tiling.same_segments(flatten(Composite(tuple((1, 8 * i, INT) for i in range(5)))))
        for moved in range(5):
            members = tuple((1, 8 * i + (i == moved), INT) for i in range(5))
            listed = flatten(Composite(members))
            assert not tiling.same_segments(listed) and not listed.same_segments(tiling)


def test_nested_levels_fuse_when_the_outer_step_continues_the_inner():
    # vector_tiled A=2 and its reference at 2.56 MB: one tiling each
    alternative = commit(HVector(64_000, 1, 80, Vector(5, 2, 4, INT))).flat
    reference = flatten(Resized(0, 16, Contiguous(2, INT)), 320_000)
    for flat in (alternative, reference):
        assert (flat.form.copies, flat.form.stride) == (320_000, 16)
        assert (flat.form.offsets.tolist(), flat.form.lengths.tolist()) == ([0], [8])
    assert alternative.same_segments(reference)
    assert "_arrays" not in vars(alternative) and "_arrays" not in vars(reference)


def test_huge_regular_description_commits_in_closed_form(tmp_path):
    t = Contiguous(10**11, Vector(2, 1, 2, INT))
    tracemalloc.start()
    try:
        ct = commit(t)
        report = normalize(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert ct.flat.segment_count == 10**11 + 1
    assert ct.payload_bounds == (0, 12 * 10**11)
    assert report.output_cost == 10**11 + 1 + 3
    # listing its segments still fails, as one error line; under an
    # address-space limit on the child, so no host overcommit policy lets
    # the allocation through, and with one BLAS thread, whose buffers
    # would otherwise take address space per core
    spec = tmp_path / "huge.json"
    spec.write_text(datatype_dumps(t))
    limit = 3 << 30
    proc = subprocess.run(
        [sys.executable, "-m", "typeforge.cli", "flatten", "--spec", str(spec)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
             "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: out of memory") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("lid", ["block_indexed", "alternating_indexed", "vector_tiled"])
@pytest.mark.parametrize("A", [2, 1000])
def test_given_and_normalized_alternatives_copy_alike(lid, A):
    # so the typed path of a family member stays one region-to-region pass
    try:
        family = build_alternatives(LayoutSpec(id=lid, n=640_000, A=A))
    except BadParams:
        pytest.skip(f"{lid} does not divide at A={A}")
    for built in family[1:]:
        given_engine = make_engine("compiled", built.committed, built.count)
        normal = normalize(built.committed).committed_output
        normal_engine = make_engine("compiled", normal, built.count)
        assert given_engine.copy_key is not None
        assert given_engine.copy_key == normal_engine.copy_key


@given(datatypes())
def test_bounds_walk_matches_commit(t):
    ct = commit(t)
    assert bounds(t) == (ct.lb, ct.ub)
    assert bounds(ct) == (ct.lb, ct.ub)


@given(datatypes())
def test_json_round_trip(t):
    assert datatype_loads(datatype_dumps(t)) == t


_INT_JSON = '{"kind":"base","base":"int"}'


@pytest.mark.parametrize(
    "t, text",
    [
        (SHORT, '{"kind":"base","base":"short"}'),
        (Contiguous(3, INT), '{"kind":"contiguous","count":3,"inner":' + _INT_JSON + "}"),
        (Vector(2, 3, 5, INT),
         '{"kind":"vector","count":2,"blocklen":3,"stride":5,"inner":' + _INT_JSON + "}"),
        (HVector(2, 1, 24, Contiguous(2, INT)),
         '{"kind":"hvector","count":2,"blocklen":1,"stride_bytes":24,'
         '"inner":{"kind":"contiguous","count":2,"inner":' + _INT_JSON + "}}"),
        (Indexed(((1, 0), (2, 4)), INT),
         '{"kind":"indexed","blocks":[[1,0],[2,4]],"inner":' + _INT_JSON + "}"),
        (IndexedBlock(2, (0, 5, -2), INT),
         '{"kind":"indexed_block","blocklen":2,"displs":[0,5,-2],"inner":' + _INT_JSON + "}"),
        (Composite(((1, 0, INT), (2, 8, DOUBLE))),
         '{"kind":"struct","members":[[1,0,' + _INT_JSON + '],'
         '[2,8,{"kind":"base","base":"double"}]]}'),
        (Resized(-4, 16, Base(BaseKind.CHAR)),
         '{"kind":"resized","lb":-4,"extent":16,"inner":{"kind":"base","base":"char"}}'),
    ],
    ids=["base", "contiguous", "vector", "hvector", "indexed", "indexed_block", "struct",
         "resized"],
)
def test_json_text_of_each_node_kind_is_fixed(t, text):
    # these bytes feed the stats CSV `spec_json` column and `typeforge
    # normalize`, so key order and spelling are part of the format
    assert datatype_dumps(t) == text
    assert datatype_loads(text) == t


@pytest.mark.parametrize(
    "obj",
    [
        {"kind": "indexed", "blocks": [[1, 0], [2]], "inner": {"kind": "base", "base": "int"}},
        {"kind": "indexed_block", "blocklen": 1, "displs": 5,
         "inner": {"kind": "base", "base": "int"}},
        {"kind": "indexed_block", "blocklen": 1, "displs": [0, None],
         "inner": {"kind": "base", "base": "int"}},
        {"kind": "indexed", "blocks": [[1, None]], "inner": {"kind": "base", "base": "int"}},
        {"kind": ["base"], "base": "int"},
        {"kind": 5},
        {"kind": "base", "base": 5},
    ],
    ids=["ragged_blocks", "scalar_displs", "null_displ", "null_block_entry",
         "list_kind", "int_kind", "int_base"],
)
def test_json_rejects_malformed_fields(obj):
    with pytest.raises(MalformedType):
        datatype_from_json(obj)


def _indexed_nodes(t):
    """Every Indexed and IndexedBlock node of a tree."""
    if isinstance(t, (Indexed, IndexedBlock)):
        yield t
    if isinstance(t, Composite):
        for _, _, member in t.members:
            yield from _indexed_nodes(member)
    elif not isinstance(t, Base):
        yield from _indexed_nodes(t.inner)


def _expanded_blocks(t) -> tuple[list[int], list[int]]:
    """Placement of an indexed node by the definition: the inner unit's
    segments copied at every instance of every block, then one
    canonicalizing pass."""
    inner = commit(t.inner)
    if isinstance(t, Indexed):
        blocks = [(int(bl), int(d)) for bl, d in t.blocks]
    else:
        blocks = [(t.blocklen, int(d)) for d in t.displs]
    starts = [(d + i) * inner.extent for bl, d in blocks for i in range(bl)]
    if not starts or (inner.size, inner.lb, inner.ub) == (0, 0, 0):
        return [], []
    off = np.array([s + o for s in starts for o in inner.flat.offsets.tolist()],
                   dtype=np.int64)
    off, ln = canonicalize(off, np.tile(inner.flat.lengths, len(starts)))
    return off.tolist(), ln.tolist()


# inner units of one segment as long as their extent, which place in
# closed form, next to random ones
_DENSE = st.one_of(base_types(), st.builds(Contiguous, st.integers(1, 3), base_types()),
                   st.builds(Resized, st.integers(-4, 4), st.just(4), st.just(INT)),
                   st.integers(-8, 8).map(lambda d: Composite(((1, d, INT),))))
_INDEXED = st.one_of(
    st.builds(Indexed, st.lists(st.tuples(st.integers(0, 3), st.integers(-6, 12)),
                                max_size=6).map(tuple), st.one_of(_DENSE, datatypes(2))),
    st.builds(IndexedBlock, st.integers(0, 3), st.lists(st.integers(-6, 12), max_size=6),
              st.one_of(_DENSE, datatypes(2))),
)


@given(st.one_of(datatypes(), _INDEXED))
def test_block_placement_matches_expanded_instances(t):
    for node in _indexed_nodes(t):
        flat = commit(node).flat
        assert (flat.offsets.tolist(), flat.lengths.tolist()) == _expanded_blocks(node)


def test_merged_lengths_are_exact_past_float_precision():
    big = 2**53 + 1
    ct = commit(Composite(((1, 0, Contiguous(big, Base(BaseKind.BYTE))),
                           (1, big, Contiguous(2, Base(BaseKind.BYTE))))))
    assert ct.size == big + 2
    assert ct.flat.lengths.tolist() == [big + 2]
    assert int(ct.flat.lengths.sum()) == ct.size


# --- periodic index tables ------------------------------------------------


def _repeated(k_rows, shift: int, copies: int, inner, blocklen: int | None = None):
    """An indexed node whose table is `copies` copies of `k_rows`, copy m
    shifted by m * `shift`: (blocklen, displ) rows, or displacements of
    one `blocklen` when it is given."""
    if blocklen is not None:
        return IndexedBlock(blocklen, [d + m * shift for m in range(copies) for d in k_rows], inner)
    return Indexed([(bl, d + m * shift) for m in range(copies) for bl, d in k_rows], inner)


# k = 1..4, a negative shift, blocks that join across copies, overlapping
# blocks, zero-length rows, non-zero first displacements, Resized inners
# (one of extent 0, so every copy lands on the last) and an inner that is
# not one dense segment
_PERIODIC = [
    _repeated((0,), 3, 10, INT, blocklen=2),
    _repeated((12,), -3, 5, SHORT, blocklen=1),
    _repeated(((1, 0), (2, 3)), 5, 4, INT),
    _repeated(((3, 0), (2, 1)), 2, 3, DOUBLE),
    _repeated(((0, 5), (2, 0), (0, 1)), 4, 3, INT),
    _repeated((7, 9), 4, 2, DOUBLE, blocklen=1),
    _repeated(((1, 2), (2, -4), (1, 9), (3, 0)), -7, 3, Resized(-2, 8, SHORT)),
    _repeated(((2, 0), (1, 3)), 1, 4, Resized(0, 0, INT)),
    _repeated((1, 4, 6), 9, 3, Vector(2, 1, 2, INT), blocklen=2),
]


@st.composite
def _periodic_tables(draw):
    """An indexed node whose table is copies of its first k = 1..4 rows,
    each copy one shift on, with at least max(3, 2k) rows."""
    k = draw(st.integers(1, 4))
    copies = draw(st.integers(max(2, -(-3 // k)), 5))
    shift = draw(st.integers(-12, 12))
    inner = draw(st.one_of(_DENSE, datatypes(2),
                           st.builds(Resized, st.integers(-4, 4), st.integers(0, 12), base_types())))
    if draw(st.booleans()):
        displs = draw(st.lists(st.integers(-6, 12), min_size=k, max_size=k))
        return _repeated(displs, shift, copies, inner, blocklen=draw(st.integers(0, 3)))
    rows = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(-6, 12)), min_size=k, max_size=k))
    return _repeated(rows, shift, copies, inner)


def _assert_committed_as_placed(node) -> None:
    """`node`'s committed form holds exactly the segments `_place_blocks`
    makes of its whole table, and agrees with the same node committed with
    the period finder off on every figure read off a form."""
    ct, inner = commit(node), commit(node.inner)
    off, ln = typecore._place_blocks(*typecore.block_table(node, inner.extent),
                                     inner.flat.form.materialize(), inner.extent)
    with mock.patch.object(typecore, "table_period", lambda t: None):
        explicit = commit(dataclasses.replace(node))
    assert explicit.flat.form.copies == 1
    form_off, form_ln = ct.flat.form.materialize()
    assert (form_off.tolist(), form_ln.tolist()) == (off.tolist(), ln.tolist())
    assert ct.flat.segment_count == len(off)
    assert ct.flat.payload_bounds == explicit.flat.payload_bounds
    assert (ct.size, ct.lb, ct.ub) == (explicit.size, explicit.lb, explicit.ub)
    assert bounds(dataclasses.replace(node)) == (ct.lb, ct.ub)
    assert _split_pieces(ct.flat.form) == _split_pieces(explicit.flat.form)
    for count in (1, 3):
        assert (make_engine("compiled", ct, count).copy_key
                == make_engine("compiled", explicit, count).copy_key)


@pytest.mark.parametrize("t", _PERIODIC)
def test_hand_made_periodic_tables_commit_as_placed(t):
    t = dataclasses.replace(t)
    assert typecore.table_period(t) is not None
    assert commit(t).flat.form.copies > 1 or commit(t).flat.segment_count <= 1
    _assert_committed_as_placed(t)
    addrs, lb, ub, empty = oracle_walk(t)
    assert commit(t).flat.segments == oracle_segments(addrs)
    assert (commit(t).lb, commit(t).ub) == ((0, 0) if empty else (lb, ub))


@given(st.one_of(datatypes(), _INDEXED, _periodic_tables()))
def test_indexed_tables_commit_as_placed(t):
    for node in _indexed_nodes(t):
        _assert_committed_as_placed(node)


def test_period_finder_takes_the_smallest_period_and_refuses_the_rest():
    period = typecore.table_period
    assert period(IndexedBlock(1, (0, 4, 8, 12, 16, 20), INT)) == (1, 4)
    assert period(IndexedBlock(1, (0, 1, 4, 5, 8, 9), INT)) == (2, 4)
    assert period(Indexed(((1, 0), (2, 0), (1, 6), (2, 6)), INT)) == (2, 6)
    assert period(IndexedBlock(1, (5, 3, 1, 15, 13, 11), INT)) == (3, 10)
    # two rows, rows that repeat in length but not in place, a count that
    # k does not divide, and a table that breaks off after its ends agree
    assert period(IndexedBlock(1, (0, 4), INT)) is None
    assert period(Indexed(((1, 0), (2, 4), (1, 8), (3, 12)), INT)) is None
    assert period(IndexedBlock(1, (0, 1, 4, 5, 8), INT)) is None
    broken = np.arange(100_000, dtype=np.int64) * 3
    broken[70_000] += 1
    assert period(IndexedBlock(1, broken, INT)) is None
    assert period(IndexedBlock(1, np.arange(100_000) * 3, INT)) == (1, 3)


def test_irregular_table_is_refused_without_a_pass():
    # rowcol's table: a row, then one column entry per later row
    t = build(LayoutSpec(id="rowcol_fully_indexed", n=10_240, A=100)).datatype
    t = dataclasses.replace(t)
    with mock.patch.object(typecore, "_repeats", side_effect=AssertionError("full pass")):
        assert typecore.table_period(t) is None


@pytest.mark.parametrize("lid", ["block_indexed", "alternating_indexed"])
def test_periodic_tables_set_up_below_the_table_bytes(lid):
    reference, given_ = build_alternatives(LayoutSpec(id=lid, n=640_000, A=2))
    t = dataclasses.replace(given_.datatype)
    table = t.blocks if isinstance(t, Indexed) else t.displs
    tracemalloc.start()
    try:
        ct = commit(t)
        report = normalize(t)
        same = equivalent(ct, 1, reference.committed, reference.count)
        strategy = make_engine("compiled", t, 1).strategy
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert same and report.changed and strategy == "pieces"
    assert peak < table.nbytes


def test_pickled_indexed_node_drops_both_memos():
    memos = {"_committed_unit", "_table_period"}
    for t in (_repeated(((1, 0), (2, 3)), 5, 4, INT), _repeated((0, 2), 8, 3, INT, blocklen=1)):
        t = dataclasses.replace(t)
        outer = Contiguous(2, t)
        commit(t), commit(outer)
        assert memos <= set(vars(t))
        for copy in (pickle.loads(pickle.dumps(t)), pickle.loads(pickle.dumps(outer)).inner):
            assert copy == t
            assert not memos & set(vars(copy))
            assert commit(copy).flat.same_segments(commit(t).flat)


def test_indexed_block_broadcasts_its_blocklen_once(monkeypatch):
    # every `block_table` of an IndexedBlock slices one broadcast of its
    # blocklen, stored on the node and left out of a pickle
    t = IndexedBlock(3, np.arange(0, 40, 4), INT)
    calls = []
    real = np.broadcast_to
    monkeypatch.setattr(typecore.np, "broadcast_to", lambda *a: calls.append(a) or real(*a))
    lens = [typecore.block_table(t, rows=rows)[0] for rows in (None, 2, 5, None)]
    assert len(calls) == 1
    assert [x.tolist() for x in lens] == [[3] * 10, [3] * 2, [3] * 5, [3] * 10]
    assert "_table_blocklens" not in vars(pickle.loads(pickle.dumps(t)))


# --- index tables ---------------------------------------------------------


def test_index_tables_compare_and_hash_by_value():
    pairs = ((2, 0), (1, 5), (3, -2))
    from_tuples = Indexed(pairs, INT)
    from_array = Indexed(np.array(pairs, dtype=np.int32), INT)
    assert from_tuples == from_array
    assert hash(from_tuples) == hash(from_array)
    assert from_tuples != Indexed(((2, 0), (1, 5)), INT)
    assert from_tuples != Indexed(pairs, SHORT)
    assert IndexedBlock(2, (0, 4, 9), INT) == IndexedBlock(2, np.array([0, 4, 9]), INT)
    assert hash(IndexedBlock(2, (0, 4, 9), INT)) == hash(IndexedBlock(2, [0, 4, 9], INT))
    assert IndexedBlock(2, (0, 4, 9), INT) != IndexedBlock(1, (0, 4, 9), INT)
    assert Indexed((), INT) == Indexed(np.empty((0, 2), dtype=np.int64), INT)
    assert from_tuples != IndexedBlock(2, (0, 5, -2), INT)


def test_index_tables_are_stored_once_read_only():
    table = np.array([[1, 0], [2, 4]])
    t = Indexed(table, INT)
    table[0, 0] = 7
    assert t.blocks.tolist() == [[1, 0], [2, 4]]
    assert not t.blocks.flags.writeable
    assert t.blocks.dtype == np.int64
    assert not IndexedBlock(1, [0, 3], INT).displs.flags.writeable
    again = pickle.loads(pickle.dumps(t))
    assert again == t and not again.blocks.flags.writeable
    assert datatype_dumps(t) == ('{"kind":"indexed","blocks":[[1,0],[2,4]],'
                                 '"inner":{"kind":"base","base":"int"}}')


def test_index_tables_of_the_wrong_shape_are_rejected():
    for bad in (((1, 2, 3),), ((1,), (2,)), (("x", 0),), ((2**70, 0),)):
        with pytest.raises(MalformedType):
            Indexed(bad, INT)
    with pytest.raises(MalformedType):
        IndexedBlock(1, ((0, 1),), INT)
    with pytest.raises(MalformedType):
        IndexedBlock(1, 5, INT)


def test_negative_blocklen_in_an_array_table_is_rejected():
    with pytest.raises(MalformedType, match="got -1"):
        commit(Indexed(np.array([[2, 0], [-1, 4]]), INT))


# --- equivalence --------------------------------------------------------


@given(datatypes(), st.integers(0, 3))
def test_equivalence_is_reflexive(t, c):
    assert equivalent(t, c, t, c)


def test_equivalence_ignores_base_kinds():
    assert equivalent(INT, 2, DOUBLE, 1)
    assert equivalent(Contiguous(4, SHORT), 1, DOUBLE, 1)
    assert not equivalent(INT, 2, DOUBLE, 2)


def test_equivalence_is_order_sensitive():
    swapped = Indexed(((1, 1), (1, 0)), INT)
    assert commit(swapped).size == commit(Contiguous(2, INT)).size
    assert not equivalent(swapped, 1, Contiguous(2, INT), 1)


def test_equivalent_distinguishes_gaps():
    assert not equivalent(Vector(2, 1, 2, INT), 1, Contiguous(2, INT), 1)


def test_equivalent_answers_from_units_without_flattening(monkeypatch):
    def no_flatten(*_):
        raise AssertionError("flatten called")

    monkeypatch.setattr(typecore, "flatten", no_flatten)
    tiles = Vector(2, 1, 2, INT)
    assert equivalent(tiles, 320_000, HVector(2, 1, 8, INT), 320_000)
    assert equivalent(tiles, 320_000, Indexed(((1, 0), (1, 2)), INT), 320_000)
    assert equivalent(Contiguous(4, SHORT), 5, DOUBLE, 5)
    # unequal payload sizes differ at once
    assert not equivalent(INT, 640_000, INT, 639_999)
    assert not equivalent(tiles, 2, Contiguous(3, INT), 1)


def test_equivalent_flattens_when_units_differ():
    # equal payloads, different counts or extents: decided on the segments
    assert equivalent(INT, 640_000, Contiguous(640_000, INT), 1)
    assert equivalent(Contiguous(2, INT), 3, Contiguous(3, INT), 2)
    assert not equivalent(Vector(2, 1, 2, INT), 2, Vector(4, 1, 2, INT), 1)
    with pytest.raises(MalformedType):
        equivalent(INT, -1, INT, -1)


# --- validation ---------------------------------------------------------


@pytest.mark.parametrize(
    "bad",
    [
        Contiguous(-1, INT),
        Vector(2, -1, 3, INT),
        HVector(-2, 1, 8, INT),
        Indexed(((-1, 0),), INT),
        IndexedBlock(-3, (0,), INT),
        Composite(((-1, 0, INT),)),
        Resized(0, -8, INT),
        Base("int"),
        Contiguous(2, Vector(1, 1, 1, Resized(0, -1, INT))),
    ],
)
def test_malformed_trees_are_rejected(bad):
    with pytest.raises(MalformedType):
        commit(bad)
    with pytest.raises(MalformedType):
        normalize(bad)
    for name in ENGINES:
        with pytest.raises(MalformedType):
            make_engine(name, bad, 1)


@pytest.mark.parametrize(
    "bad, message",
    [
        (Contiguous(-1, INT), "contiguous count must be >= 0, got -1"),
        (Vector(2, -1, 3, INT), "vector blocklen must be >= 0, got -1"),
        (HVector(-2, 1, 8, INT), "hvector count must be >= 0, got -2"),
        (Indexed(((2, 0), (-1, 4)), INT), "indexed blocklen must be >= 0, got -1"),
        (IndexedBlock(-3, (0,), INT), "indexed_block blocklen must be >= 0, got -3"),
        (Composite(((1, 0, INT), (-1, 0, INT))), "struct member count must be >= 0, got -1"),
        (Resized(0, -8, INT), "resized extent must be >= 0, got -8"),
        (Base("int"), "base kind must be a BaseKind, got 'int'"),
        (Contiguous(2, Vector(1, 1, 1, Resized(0, -1, INT))),
         "resized extent must be >= 0, got -1"),
    ],
    ids=["contiguous", "vector", "hvector", "indexed", "indexed_block", "struct", "resized",
         "base", "nested"],
)
def test_malformed_tree_messages_name_the_field_and_value(bad, message):
    with pytest.raises(MalformedType) as err:
        commit(bad)
    assert str(err.value) == message


def test_bad_outer_node_is_refused_before_its_children_are_derived(monkeypatch):
    derived = []
    real = typecore._layout

    def recording(t):
        derived.append(t)
        return real(t)

    monkeypatch.setattr(typecore, "_layout", recording)
    child = Vector(1000, 1, 2, INT)
    with pytest.raises(MalformedType, match="got -1"):
        commit(Contiguous(-1, child))
    assert child not in derived


def test_flatten_rejects_negative_count():
    with pytest.raises(MalformedType):
        flatten(INT, -1)


_COUNT_USERS = {
    **{name: lambda count, name=name: make_engine(name, INT, count) for name in ENGINES},
    "flatten": lambda count: flatten(INT, count),
    "equivalent": lambda count: equivalent(INT, count, INT, 2),
}


@pytest.mark.parametrize("count", [2.0, 2.5, "2", -1])
@pytest.mark.parametrize("user", list(_COUNT_USERS))
def test_counts_must_be_integers_of_at_least_zero(user, count):
    # one check for every call that takes an instance count; numpy
    # integers pass it, as Python ones do
    with pytest.raises(MalformedType, match="count must be"):
        _COUNT_USERS[user](count)
    _COUNT_USERS[user](np.int64(2))


def test_json_rejects_unknown_kind():
    with pytest.raises(MalformedType):
        datatype_from_json({"kind": "spiral", "count": 2})
    with pytest.raises(MalformedType):
        datatype_from_json(["base"])
    with pytest.raises(MalformedType):
        datatype_from_json({"kind": "vector", "count": 1})


# --- the unit a commit stores on its tree -------------------------------


def _count_derivations(monkeypatch) -> list:
    """The trees `_layout` is called on from outside itself, in order: one
    per derivation, the recursion into subtrees not counted."""
    calls, depth = [], [0]
    real = typecore._layout

    def counting(t):
        if depth[0] == 0:
            calls.append(t)
        depth[0] += 1
        try:
            return real(t)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(typecore, "_layout", counting)
    return calls


def test_each_tree_is_derived_once_through_the_pipeline(monkeypatch):
    calls = _count_derivations(monkeypatch)
    built = build(LayoutSpec(id="block_indexed", n=800, A=2))
    t, count = built.datatype, built.count
    ct = commit(t)
    report = normalize(t)
    assert report.changed
    assert equivalent(ct, count, report.output, count)
    for _ in range(2):
        for name in ENGINES:
            make_engine(name, report.output, count)
            make_engine(name, t, count)
    assert [id(tree) for tree in calls] == [id(t), id(report.output)]
    assert commit(t).flat is ct.flat


_STORED = [
    Vector(3, 2, 4, Indexed(((1, 0), (2, 3)), INT)),
    Indexed(((2, 1), (1, -3)), SHORT),
    IndexedBlock(2, (4, 0), DOUBLE),
    Composite(((2, 0, INT), (1, 12, Resized(-2, 8, SHORT)))),
]


@pytest.mark.parametrize("tree", _STORED)
def test_stored_unit_is_invisible_and_not_copied_by_replace(tree, monkeypatch):
    # fresh top nodes, so no earlier test has committed them
    t, twin = dataclasses.replace(tree), dataclasses.replace(tree)
    seen = (repr(t), hash(t), datatype_to_json(t))
    ct = commit(t)
    assert t == twin and twin == t
    assert (repr(t), hash(t), datatype_to_json(t)) == seen
    assert (repr(twin), hash(twin), datatype_to_json(twin)) == seen
    assert not ct.flat.offsets.flags.writeable and not ct.flat.lengths.flags.writeable
    calls = _count_derivations(monkeypatch)
    commit(t)
    assert calls == []
    copy = dataclasses.replace(t)
    again = commit(copy)
    assert calls == [copy]
    assert again.flat is not ct.flat and again.flat.same_segments(ct.flat)


@given(st.integers(0, 4), datatypes())
def test_tree_over_a_committed_subtree_commits_alike(c, t):
    commit(t)
    wrapped, fresh = commit(Contiguous(c, t)), commit(Contiguous(c, datatype_loads(datatype_dumps(t))))
    assert (wrapped.size, wrapped.lb, wrapped.ub) == (fresh.size, fresh.lb, fresh.ub)
    assert wrapped.flat.same_segments(fresh.flat)


def test_tree_over_a_committed_subtree_reads_its_unit(monkeypatch):
    inner = Indexed(((2, 0), (1, 5), (3, 9)), Vector(2, 1, 3, INT))
    commit(inner)
    expected = commit(Composite(((2, 0, dataclasses.replace(inner)), (1, -40, INT))))
    calls = _count_derivations(monkeypatch)

    def no_placement(*_):
        raise AssertionError("the committed subtree was derived again")

    monkeypatch.setattr(typecore, "_place_blocks", no_placement)
    outer = commit(Composite(((2, 0, inner), (1, -40, INT))))
    assert len(calls) == 1
    assert (outer.size, outer.lb, outer.ub) == (expected.size, expected.lb, expected.ub)
    assert outer.flat.same_segments(expected.flat)


def test_replaced_node_is_not_read_from_the_stored_unit():
    t = Vector(3, 2, 4, INT)
    commit(t)
    wider = commit(dataclasses.replace(t, count=5))
    assert (wider.size, wider.extent) == (40, 72)
    assert wider.flat.segments == [(i * 16, 8) for i in range(5)]


@pytest.mark.parametrize("t", _STORED)
def test_committed_tree_survives_a_pickle_round_trip(t, monkeypatch):
    # the tcp echo process receives its cases pickled
    t = dataclasses.replace(t)
    ct = commit(t)
    calls = _count_derivations(monkeypatch)
    for copy in (pickle.loads(pickle.dumps(t)), pickle.loads(pickle.dumps(ct)).datatype):
        assert copy == t
        again = commit(copy)
        # a pickle holds the fields only, so the copy derives its own unit
        assert calls[-1] is copy
        assert (again.size, again.lb, again.ub, again.extent) == (ct.size, ct.lb, ct.ub, ct.extent)
        assert again.flat.same_segments(ct.flat)
        assert again.payload_bounds == ct.payload_bounds


def test_stored_unit_makes_no_reference_cycle():
    gc.disable()
    try:
        t = Vector(50, 1, 2, Base(BaseKind.INT))
        ct = commit(t)
        assert ct.payload_bounds == (0, 396)
        offsets = weakref.ref(ct.flat.offsets)
        unit = weakref.ref(ct.flat)
        del t, ct
        # freed by reference counting alone, so nothing points back
        assert offsets() is None and unit() is None
    finally:
        gc.enable()
