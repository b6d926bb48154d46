"""Constructor trees, flattening, bounds and equivalence."""

import dataclasses
import gc
import pickle
import weakref

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
    flatten,
)
from typeforge.layouts import LayoutSpec, build
from typeforge.normalizer import normalize
from typeforge.packer import ENGINES, make_engine

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


def _tiled_reference(t, count: int) -> tuple[np.ndarray, np.ndarray]:
    """`count` instances by the definition: every unit segment copied at
    each multiple of the extent, then one canonicalizing pass."""
    ct = commit(t)
    shifts = np.arange(count, dtype=np.int64)[:, None] * ct.extent
    off = (shifts + ct.flat.offsets[None, :]).ravel()
    return canonicalize(off, np.tile(ct.flat.lengths, count))


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
    off, ln = _tiled_reference(t, count)
    flat = flatten(t, count)
    assert flat.offsets.tolist() == off.tolist()
    assert flat.lengths.tolist() == ln.tolist()


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
