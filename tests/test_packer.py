"""Pack and unpack engines: correctness against the byte oracle."""

import gc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import typeforge.packer as packer
import typeforge.typecore as typecore
from treegen import datatypes, oracle_walk
from typeforge import layouts, normalizer
from typeforge.packer import (
    ENGINES,
    CompiledEngine,
    InterpretedEngine,
    RegionTooSmall,
    SizeMismatch,
    make_engine,
    pack,
    unpack,
)
from typeforge.typecore import (
    Base,
    BaseKind,
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


def _fill(n: int) -> bytes:
    return bytes((i * 37 + 11) % 256 for i in range(n))


def _payload_addresses(t, count: int) -> list[int]:
    addrs, _, _, _ = oracle_walk(t)
    ext = commit(t).extent
    return [i * ext + a for i in range(count) for a in addrs]


# --- compiled programs --------------------------------------------------


def test_compile_emits_canonical_ops():
    t = Vector(3, 2, 4, INT)
    p = CompiledEngine(t, 1)
    assert flatten(t, 1).segments == [(0, 8), (16, 8), (32, 8)]
    assert (p.segment_count, p.total_bytes, p.origin, p.span) == (3, 24, 0, 40)
    assert not p.is_contiguous


def test_compile_merges_contiguous_runs():
    assert flatten(INT, 6).segments == [(0, 24)]
    p = CompiledEngine(INT, 6)
    assert p.segment_count == 1
    assert p.is_contiguous


def test_gather_index_enumerates_payload_bytes():
    # the index counts words of the program's word width: bytes here,
    # 4-byte words below
    p = CompiledEngine(Indexed(((1, 0), (2, 3)), Base(BaseKind.BYTE)), 1)
    assert p.word_width == 1
    assert p.gather_index.tolist() == [0, 3, 4]
    p = CompiledEngine(Vector(2, 1, 2, INT), 1)
    assert p.word_width == 4
    assert p.gather_index.tolist() == [0, 2]


def test_pack_strided_elements():
    region = np.arange(10, dtype=np.int32)
    out = pack(Vector(2, 2, 4, INT), 1, region.tobytes())
    assert np.frombuffer(out, dtype=np.int32).tolist() == [0, 1, 4, 5]


def test_negative_offsets_use_window_origin():
    t = Vector(2, 1, -2, INT)
    p = CompiledEngine(t, 1)
    assert (p.origin, p.span) == (-8, 12)
    region = _fill(12)
    # serialization order visits offset 0 first, then -8
    assert pack(t, 1, region) == region[8:12] + region[0:4]


def test_zero_copy_path_returns_buffer_view():
    eng = CompiledEngine(Contiguous(5, INT), 2)
    assert eng.is_contiguous
    region = _fill(eng.span)
    out = eng.pack_message(region)
    assert isinstance(out, memoryview)
    assert bytes(out) == region


# --- engine agreement and round trips -----------------------------------


@given(datatypes(), st.integers(0, 3))
def test_engines_agree_with_byte_oracle(t, count):
    interp = InterpretedEngine(t, count)
    comp = CompiledEngine(t, count)
    assert (interp.origin, interp.span) == (comp.origin, comp.span)
    assert interp.total_bytes == comp.total_bytes

    src = _fill(interp.span)
    addrs = _payload_addresses(t, count)
    expected = bytes(src[a - interp.origin] for a in addrs)
    assert interp.pack_message(src) == expected
    assert bytes(comp.pack_message(src)) == expected

    blank = bytearray(b"\xaa" * interp.span)
    for a in addrs:
        blank[a - interp.origin] = src[a - interp.origin]
    dst_i = bytearray(b"\xaa" * interp.span)
    interp.unpack_message(expected, dst_i)
    dst_c = bytearray(b"\xaa" * comp.span)
    comp.unpack_message(expected, dst_c)
    assert dst_i == blank
    assert dst_c == blank


def test_unpack_leaves_gap_bytes_alone():
    t = Vector(3, 1, 2, INT)
    region = _fill(20)
    payload = pack(t, 1, region)
    dst = bytearray(b"\xee" * len(region))
    unpack(t, 1, payload, dst)
    assert dst[0:4] == region[0:4]
    assert dst[4:8] == b"\xee" * 4
    assert dst[8:12] == region[8:12]
    assert dst[12:16] == b"\xee" * 4
    assert dst[16:20] == region[16:20]


def test_periodic_path_matches_slice_path():
    # a uniform period: the program moves one word per row, and its last
    # period stops short of a full stride
    t = Vector(100, 1, 2, INT)
    p = CompiledEngine(t, 1)
    assert len(flatten(t, 1).segments) == 100
    assert p.pieces is not None and len(p.pieces) == 1
    piece = p.pieces[0]
    assert (piece.rows, piece.period, piece.row_bytes) == (100, 8, 4)
    assert p.span < piece.rows * piece.period
    region = _fill(p.span)
    assert bytes(p.pack_message(region)) == pack(t, 1, region)
    payload = pack(t, 1, region)
    dst = np.zeros(p.span, dtype=np.uint8)
    p.unpack_message(payload, dst)
    ref = bytearray(p.span)
    unpack(t, 1, payload, ref)
    assert dst.tobytes() == bytes(ref)


def test_periodic_path_handles_multi_segment_patterns():
    # two segments per period; the pattern repeats across the outer count
    inner = Indexed(((1, 0), (1, 2)), INT)
    t = HVector(40, 1, 20, inner)
    p = CompiledEngine(t, 1)
    assert len(flatten(t, 1).segments) == 80
    assert [(piece.rows, piece.period) for piece in p.pieces] == [(40, 20)]
    region = _fill(p.span)
    payload = pack(t, 1, region)
    assert bytes(p.pack_message(region)) == payload
    dst = bytearray(b"\xaa" * p.span)
    p.unpack_message(payload, dst)
    ref = bytearray(b"\xaa" * p.span)
    unpack(t, 1, payload, ref)
    assert dst == ref


def test_gather_path_matches_slice_path():
    # irregular displacements defeat period detection and force the
    # indexed path
    blocks = tuple((1, i * (i + 3) // 2) for i in range(100))
    t = Indexed(blocks, INT)
    p = CompiledEngine(t, 1)
    assert len(flatten(t, 1).segments) == 100
    assert p.pieces is None
    assert p.strategy == "gather"
    region = _fill(p.span)
    assert bytes(p.pack_message(region)) == pack(t, 1, region)
    payload = pack(t, 1, region)
    dst = np.zeros(p.span, dtype=np.uint8)
    p.unpack_message(payload, dst)
    ref = bytearray(p.span)
    unpack(t, 1, payload, ref)
    assert dst.tobytes() == bytes(ref)


def test_short_periodic_list_is_one_piece():
    # tiled A=50 at 3.2 KB: 16 instances of a one-segment unit, split from
    # its list (at most `_SHORT_LIST` segments) into the one periodic piece
    # a long tiling is read off its unit as
    built = layouts.build(layouts.LayoutSpec(id="tiled", n=800, A=50))
    p = CompiledEngine(built.committed, built.count)
    strategy, plan, materialized = _planned_from_unit(p)
    assert (p.segment_count, strategy, materialized) == (16, "pieces", True)
    assert [(piece.rows, piece.period, piece.pat) for piece in plan] == [(16, 208, (200,))]
    assert p.copy_key == plan
    for form in _REGION_FORMS:
        _check_against_walker(built.committed, built.count, form)


def test_short_irregular_list_runs_as_lone_pieces():
    # 16 blocks of 64 KB at irregular gaps: more pieces than a long list
    # may have, but a list this short never gathers
    t = Indexed(tuple((16_384, i * 16_384 + i * (i + 3) // 2) for i in range(16)), INT)
    for form in _REGION_FORMS:
        p = _check_against_walker(t, 1, form)
    assert p.strategy == "pieces"
    assert [(piece.rows, piece.pat) for piece in p.pieces] == [(1, (65_536,))] * 16
    _same_as_pack_then_unpack(p, CompiledEngine(t, 1), "bytearray")


def test_pack_zero_count_is_empty():
    assert pack(INT, 0, b"") == b""
    unpack(INT, 0, b"", bytearray())


# --- error handling -----------------------------------------------------


# fragmented (lone pieces), long and periodic, irregular (gathered) and
# contiguous (sent straight from the region): every check below runs for
# every engine on each, and for the compiled engine on each of its paths
_CHECKED = (Vector(3, 2, 4, INT), Vector(100, 1, 2, INT),
            Indexed(tuple((1, i * (i + 3) // 2) for i in range(100)), INT),
            Contiguous(6, INT))


def _checked_engines():
    return [make_engine(name, t, 1) for name in ENGINES for t in _CHECKED]


def test_short_region_is_rejected():
    for eng in _checked_engines():
        short = eng.span - 1
        payload = bytes(eng.total_bytes)
        with pytest.raises(RegionTooSmall):
            eng.pack_message(bytes(short))
        with pytest.raises(RegionTooSmall):
            eng.unpack_message(payload, bytearray(short))


def test_payload_length_is_checked():
    for eng in _checked_engines():
        with pytest.raises(SizeMismatch):
            eng.unpack_message(bytes(eng.total_bytes - 1), bytearray(eng.span))
        with pytest.raises(SizeMismatch):
            eng.unpack_message(bytes(eng.total_bytes + 1), bytearray(eng.span))


def test_read_only_destination_is_rejected():
    for eng in _checked_engines():
        payload = bytes(eng.total_bytes)
        with pytest.raises(TypeError):
            eng.unpack_message(payload, bytes(eng.span))
        frozen = np.zeros(eng.span, dtype=np.uint8)
        frozen.flags.writeable = False
        with pytest.raises(TypeError):
            eng.unpack_message(payload, frozen)


def test_negative_count_is_rejected():
    for name in ENGINES:
        with pytest.raises(MalformedType):
            make_engine(name, INT, -1)
    with pytest.raises(MalformedType):
        pack(INT, -1, b"")
    with pytest.raises(MalformedType):
        unpack(INT, -2, b"", bytearray())


def test_make_engine_names():
    assert isinstance(make_engine("interpreted", INT, 1), InterpretedEngine)
    assert isinstance(make_engine("compiled", INT, 1), CompiledEngine)
    with pytest.raises(ValueError):
        make_engine("jit", INT, 1)


def test_interpreted_engine_never_claims_contiguity():
    assert InterpretedEngine(Contiguous(4, INT), 1).is_contiguous is False
    assert isinstance(InterpretedEngine(Contiguous(4, INT), 1).pack_message(_fill(16)), bytes)


# --- compiled kernels against the interpreted engine --------------------

_KERNEL_KINDS = (BaseKind.BYTE, BaseKind.SHORT, BaseKind.INT, BaseKind.DOUBLE)
_REGION_FORMS = ("bytearray", "ndarray", "odd_memoryview")


def _region(form: str, content: bytes):
    if form == "bytearray":
        return bytearray(content)
    if form == "ndarray":
        return np.frombuffer(bytearray(content), dtype=np.uint8)
    # one byte in, so every word of the region is unaligned
    return memoryview(bytearray(b"\x00" + content))[1:]


def _check_against_walker(t, count: int, form: str) -> CompiledEngine:
    comp = CompiledEngine(t, count)
    interp = InterpretedEngine(t, count)
    src = _fill(comp.span)
    payload = interp.pack_message(src)
    assert bytes(comp.pack_message(_region(form, src))) == payload
    expected = bytearray(b"\xaa" * comp.span)
    interp.unpack_message(payload, expected)
    dst = _region(form, b"\xaa" * comp.span)
    comp.unpack_message(payload, dst)
    assert bytes(dst) == bytes(expected)
    return comp


@st.composite
def _periodic_types(draw):
    kind = draw(st.sampled_from(_KERNEL_KINDS))
    n_blocks = draw(st.integers(1, 4))
    blocks, displ = [], 0
    for _ in range(n_blocks):
        blocklen = draw(st.integers(1, 3))
        blocks.append((blocklen, displ))
        displ += blocklen + draw(st.integers(1, 3))
    inner = Indexed(tuple(blocks), Base(kind))
    # a stride past the pattern's extent, so the last period is shorter
    # than its stride
    period = displ * kind.size + draw(st.integers(0, 5))
    return HVector(draw(st.integers(8, 200)), 1, period, inner)


@given(_periodic_types(), st.integers(1, 3), st.sampled_from(_REGION_FORMS))
def test_periodic_kernel_matches_walker(t, count, form):
    p = _check_against_walker(t, count, form)
    if count == 1 and len(p.offsets) > 64:
        assert p.strategy == "pieces" and len(p.pieces) == 1
        assert p.span < p.pieces[0].rows * p.pieces[0].period


@st.composite
def _gathered_types(draw):
    kind = draw(st.sampled_from(_KERNEL_KINDS))
    # blocks at elements 0 and 3 pin the word width to the element size
    blocks, displ = [(1, 0), (1, 3)], 3
    for _ in range(draw(st.integers(70, 120))):
        displ += draw(st.integers(2, 9))
        blocks.append((draw(st.integers(1, 2)), displ))
    if draw(st.booleans()):
        blocks.reverse()
    return Indexed(tuple(blocks), Base(kind))


@given(_gathered_types(), st.integers(1, 3), st.sampled_from(_REGION_FORMS))
def test_gather_kernel_matches_walker(t, count, form):
    p = _check_against_walker(t, count, form)
    assert p.word_width == t.inner.kind.size


def test_word_width_is_the_widest_common_divisor():
    assert CompiledEngine(Indexed(((2, 0), (2, 6)), Base(BaseKind.SHORT)), 1).word_width == 4
    assert CompiledEngine(Indexed(((1, 0), (1, 3)), Base(BaseKind.DOUBLE)), 1).word_width == 8
    assert CompiledEngine(Indexed(((1, 0), (2, 3)), Base(BaseKind.BYTE)), 1).word_width == 1
    p = CompiledEngine(Indexed(tuple((1, i * (i + 3) // 2) for i in range(100)), INT), 1)
    assert p.strategy == "gather"
    assert len(p.gather_index) == p.total_bytes // p.word_width


def test_strategy_names_the_copy_path():
    # the types the error tests check take every path
    assert [CompiledEngine(t, 1).strategy for t in _CHECKED] == \
        ["pieces", "pieces", "gather", "view"]


def test_piece_records_are_built_once_per_program(monkeypatch):
    built = []
    real = packer._record
    monkeypatch.setattr(packer, "_record", lambda *a: built.append(a) or real(*a))
    # one piece of two fields: a region and a payload record
    eng = CompiledEngine(HVector(40, 1, 20, Indexed(((1, 0), (1, 2)), INT)), 1)
    assert built == []  # nothing is built with the engine
    region = _fill(eng.span)
    payload = bytes(eng.pack_message(region))
    records = eng.piece_records
    assert bytes(eng.pack_message(region)) == payload
    eng.unpack_message(payload, bytearray(eng.span))
    assert eng.piece_records is records
    assert len(built) == 2


def test_single_field_pieces_move_one_item_per_row():
    # an integer word where one fits, else a void
    assert CompiledEngine(Vector(100, 1, 2, INT), 1).piece_records[0][5:7] == \
        (np.dtype("u4"), np.dtype("u4"))
    assert CompiledEngine(Vector(100, 3, 4, INT), 1).piece_records[0][5:7] == \
        (np.dtype("V12"), np.dtype("V12"))


# --- kernels of a periodic piece -----------------------------------------


# the kernel sweep's patterns: one field of each width, two of one width,
# and bucket's and alternating's two fields, the second 4 bytes after the
# first
_SWEEP_PATTERNS = [(w,) for w in (4, 8, 12, 16, 36, 44)] + \
    [(w, w) for w in (4, 8, 12, 16, 36, 44)] + [(4, 12), (36, 44)]


def _forced(t, count: int, kernel: str) -> CompiledEngine:
    """A compiled engine of `t` whose periodic pieces move by `kernel` in
    every direction."""
    eng = CompiledEngine(t, count)
    records, pos = [], 0
    for p in eng.pieces:
        records.append(packer._piece_record(p, p.first - eng.origin, pos, (kernel,) * 3))
        pos += records[-1][2]
    vars(eng)["piece_records"] = tuple(records)
    return eng


@pytest.mark.parametrize("rows", [40, packer._WORD_BLOCK_ROWS + 37])
@pytest.mark.parametrize("pat", _SWEEP_PATTERNS, ids=str)
def test_every_kernel_matches_the_walker_and_leaves_gaps(pat, rows):
    # each pattern starting at region bytes 0, 4 and 2 (so its words are
    # 8, 4 or 2 bytes wide) at two periods, below and above a block of
    # rows: every kernel packs, unpacks and copies across the walker's
    # bytes, and writes no gap byte of a region of 0xAA sentinels
    rel = (0, pat[0] + 4)[: len(pat)]
    cover = rel[-1] + pat[-1]
    for shift in (0, 4, 2):
        unit = Indexed(tuple((n, shift + r) for n, r in zip(pat, rel)), Base(BaseKind.BYTE))
        # the two shortest periods at which the pattern does not repeat
        # itself within a row
        for period in [p for p in (24, 32, 96, 200)
                       if p > cover and (pat[0] != pat[-1] or p != 2 * rel[-1])][:2]:
            t = Resized(0, period, unit)
            ref = InterpretedEngine(t, rows)
            src = (np.arange(ref.span) * 37 + 11).astype(np.uint8)
            payload = bytes(ref.pack_message(src))
            mask = np.zeros(ref.span, dtype=bool)
            for n, r in zip(pat, rel):
                starts = shift + r + period * np.arange(rows)
                mask[(starts[:, None] + np.arange(n)).ravel()] = True
            want = np.where(mask, src, 0xAA)
            for kernel in packer._KERNEL_NAMES:
                eng = _forced(t, rows, kernel)
                assert [(p.rows, p.period, p.rel, p.pat) for p in eng.pieces] == \
                    [(rows, period, rel, pat)]
                assert bytes(eng.pack_message(src)) == payload
                for copy in (lambda dst: eng.unpack_message(payload, dst),
                             lambda dst: eng.unpack_from(_forced(t, rows, kernel), src, dst)):
                    got = np.full(ref.span, 0xAA, dtype=np.uint8)
                    copy(got)
                    assert np.array_equal(got, want), (kernel, shift, period)


def test_renamed_record_copy_leaves_gaps():
    # copying across by record rests on numpy assigning a record from one
    # of another dtype field by field: a numpy that copied it as whole
    # items would carry the source's gap bytes along
    region_rec = packer._record((0, 16, 40), (4, 12, 8), 48)
    renamed = packer._renamed(region_rec)
    assert renamed != region_rec and renamed.descr != region_rec.descr
    src = np.full(10 * 64, 0x11, dtype=np.uint8)
    dst = np.full(10 * 64, 0xAA, dtype=np.uint8)
    np.ndarray((10,), renamed, dst, 0, (64,))[...] = np.ndarray((10,), region_rec, src, 0, (64,))
    row = dst.reshape(10, 64)
    covered = np.zeros(64, dtype=bool)
    covered[[*range(0, 4), *range(16, 28), *range(40, 48)]] = True
    assert (row[:, covered] == 0x11).all()
    assert (row[:, ~covered] == 0xAA).all()


def test_engines_of_one_program_pick_the_same_kernels():
    # a description and its normal form are one program, so they copy by
    # the same kernels, whichever the table gives
    picked = {}
    for lid, A, n in (("tiled", 2, 64_000), ("bucket", 2, 64_000), ("alternating", 10, 64_000),
                      ("alternating_repeated", 2, 64_000), ("block_indexed", 2, 64_000),
                      ("rowcol_struct", 1000, 2560)):
        built = layouts.build(layouts.LayoutSpec(id=lid, n=n, A=A))
        engines = (CompiledEngine(built.committed, built.count),
                   CompiledEngine(built.committed, built.count),
                   CompiledEngine(normalizer.normalize(built.committed).committed_output,
                                  built.count))
        kernels = [[tuple(move[0] for move in r[8]) for r in eng.piece_records if r[8]]
                   for eng in engines]
        assert engines[0].copy_key == engines[2].copy_key
        assert kernels[0] == kernels[1] == kernels[2]
        picked[lid] = kernels[0]
    assert picked == {
        "tiled": [("record", "record", "column")],
        "bucket": [("words", "words", "words")],
        "alternating": [("record", "record", "record")],
        "alternating_repeated": [("record", "record", "staged")],
        "block_indexed": [("words", "words", "words")],
        "rowcol_struct": [("record", "record", "staged")],
    }


@pytest.mark.parametrize("at, rel, pat, period, across", [
    (0, (0, 12, 24), (8, 8, 8), 48, "column"),  # three fields: not swept
    (2, (0, 8), (4, 4), 32, "column"),  # 2-byte words: unpack no faster by words
    (2, (0, 16), (4, 12), 32, "column"),  # bucket's fields, on 2-byte words
    (0, (0, 16), (12, 12), 32, "column"),  # 24 bytes a row: unpack slower by words
    (0, (0,), (4,), 8192, "staged"),  # words far apart, however many fields
    (0, (0, 12), (8, 8), 8192, "staged"),
])
def test_shapes_the_table_gives_no_gain_keep_the_former_kernels(at, rel, pat, period, across):
    # such a shape packs and unpacks by record and is copied across by
    # column, or, for words more than 2048 bytes apart, through a
    # contiguous copy of each column, as before the table
    piece = packer.Piece(4096, period, 0, rel, pat)
    moves = packer._piece_record(piece, at, 0)[8]
    assert tuple(move[0] for move in moves) == ("record", "record", across)


# --- element types of the region ----------------------------------------


_GATHERED = Indexed(tuple((1, i * (i + 3) // 2) for i in range(100)), Base(BaseKind.DOUBLE))


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("dtype", [np.int32, np.float64])
def test_regions_of_wider_elements_count_bytes(engine, dtype):
    # view, lone, periodic and gather programs; every window is a whole
    # number of doubles
    for t in (Contiguous(6, INT), Vector(3, 2, 4, INT), Vector(100, 2, 4, INT), _GATHERED):
        eng = make_engine(engine, t, 1)
        region = np.arange(eng.span // np.dtype(dtype).itemsize, dtype=dtype)
        payload = bytes(eng.pack_message(region))
        assert payload == bytes(eng.pack_message(region.view(np.uint8)))
        dst = np.zeros_like(region)
        eng.unpack_message(np.frombuffer(payload, dtype=np.uint8), dst)
        expected = np.zeros(eng.span, dtype=np.uint8)
        eng.unpack_message(payload, expected)
        assert dst.tobytes() == expected.tobytes()
        with pytest.raises(RegionTooSmall):
            eng.pack_message(region[:-1])


def test_int32_region_is_measured_in_bytes():
    region = np.arange(199, dtype=np.int32)  # 796 bytes, exactly the window
    eng = CompiledEngine(Vector(100, 1, 2, INT), 1)
    assert np.frombuffer(bytes(eng.pack_message(region)), dtype=np.int32).tolist() == \
        list(range(0, 199, 2))


# --- programs from the committed unit -----------------------------------


def _segment_rule(p: CompiledEngine) -> tuple:
    """Strategy and pieces read off the materialized segments by the
    brute-force reference splitter."""
    off, ln = p.offsets, p.lengths
    pieces = _reference_pieces(off, ln)
    if len(off) == 1 and int(ln[0]) == p.total_bytes == p.span:
        return "view", pieces
    return ("pieces" if pieces is not None else "gather"), pieces


def _same_plan(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return [tuple(x) for x in a] == [tuple(x) for x in b]


def _planned_from_unit(p: CompiledEngine) -> tuple:
    """Strategy and pieces, and whether planning built the program's
    segment arrays from its closed form.  The form itself is made first:
    tiling a tiling at a step that does not continue it builds the inner
    unit's list, which is flattening's work, not planning's."""
    p._flat
    built = []
    materialize = typecore.ClosedForm.materialize
    with mock.patch.object(typecore.ClosedForm, "materialize",
                           lambda form: built.append(form) or materialize(form)):
        strategy, pieces = p.strategy, p.pieces
    return strategy, pieces, bool(built)


def _forbid_building_segments(monkeypatch) -> None:
    """Make any explicit list built from a tiling raise."""
    def no_segments(form):
        raise AssertionError("segments built")

    monkeypatch.setattr(typecore.ClosedForm, "materialize", no_segments)


def test_tiled_compile_builds_no_segments(monkeypatch):
    built = layouts.build(layouts.LayoutSpec(id="tiled", n=640_000, A=2))
    assert built.count == 320_000
    _forbid_building_segments(monkeypatch)
    p = CompiledEngine(built.committed, built.count)
    strategy, plan, materialized = _planned_from_unit(p)
    assert strategy == "pieces"
    assert [(piece.rows, piece.period) for piece in plan] == [(320_000, 16)]
    assert not materialized
    monkeypatch.undo()
    assert _segment_rule(p)[0] == "pieces"
    assert _same_plan(plan, _segment_rule(p)[1])


# every catalog layout and alternative description, with its normalized
# form, at the blocksizes the benchmark sweeps
_CATALOG = [(lid, n, A) for lid in layouts.ALL_IDS if lid not in layouts.ROWCOL_IDS
            for A in (2, 10, 1000) for n in (800, 640_000)] + \
    [(lid, 10_240, A) for lid in layouts.ROWCOL_IDS for A in (100, 1000)]


def _catalog_types(lid: str, n: int, A: int) -> list[tuple]:
    spec = layouts.LayoutSpec(id=lid, n=n, A=A, S1=2 if lid == "tiled_struct" else None,
                              S2=3 if lid == "tiled_struct" else None,
                              subtype="tiled" if lid == "contig_subtype" else None,
                              kinds=(BaseKind.CHAR, BaseKind.INT) if lid == "tiled_het" else None)
    try:
        built = layouts.build(spec)
    except layouts.BadParams:
        return []
    return [(built.committed, built.count),
            (normalizer.normalize(built.committed).committed_output, built.count)]


@pytest.mark.parametrize("lid,n,A", _CATALOG)
def test_unit_plans_match_the_segment_rule(lid, n, A):
    for ct, count in _catalog_types(lid, n, A):
        p = CompiledEngine(ct, count)
        strategy, plan, materialized = _planned_from_unit(p)
        assert strategy == _segment_rule(p)[0]
        assert _same_plan(plan, _segment_rule(p)[1])
        if p._flat.form.copies > 1:
            # a tiling longer than `_SHORT_LIST` segments is planned without
            # its segments, whatever its unit and whether or not its copies
            # touch; a shorter one is split from its list
            assert materialized == (p.segment_count <= packer._SHORT_LIST)


@given(datatypes(), st.integers(8, 40))
def test_random_unit_plans_match_the_segment_rule(t, count):
    p = CompiledEngine(t, count)
    strategy, plan, materialized = _planned_from_unit(p)
    if p._flat.form.copies > 1:
        assert materialized == (p.segment_count <= packer._SHORT_LIST)
    assert strategy == _segment_rule(p)[0]
    assert _same_plan(plan, _segment_rule(p)[1])
    assert p.segment_count == len(p.offsets)


# --- pieces against a brute-force reference ------------------------------


def _reference_pieces(offs, lens) -> tuple | None:
    """The pieces of a segment list found by trying everything: from the
    first segment not yet covered, every pattern of g <= 8 segments (each
    within one positive period, the distance to segment g, of the first)
    is followed over the whole rest of the list; the one that repeats in
    the most segments, by whole rows and at least 8 rows, is a piece (the
    shortest pattern on a tie), else that segment alone is.  None past 8
    pieces of a list longer than 64 segments."""
    offs, lens = np.asarray(offs, dtype=np.int64), np.asarray(lens, dtype=np.int64)
    pieces, i, n = [], 0, len(offs)
    while i < n:
        first, length = int(offs[i]), int(lens[i])
        best = (1, length, first, (0,), (length,))
        for g in range(1, min(8, n - i - 1) + 1):
            period = int(offs[i + g]) - first
            rel = tuple(int(o) - first for o in offs[i:i + g])
            pat = tuple(int(x) for x in lens[i:i + g])
            if period <= 0 or any(r < 0 or r + m > period for r, m in zip(rel, pat)):
                continue
            same = (lens[i + g:] == lens[i:n - g]) & (offs[i + g:] - offs[i:n - g] == period)
            rows = (g + (len(same) if same.all() else int(np.argmin(same)))) // g
            if rows >= 8 and rows * g > best[0] * len(best[4]):
                best = (rows, period, first, rel, pat)
        pieces.append(best)
        if len(pieces) > 8 and n > 64:
            return None
        i += best[0] * len(best[4])
    return tuple(pieces)


@st.composite
def _periodic_run(draw) -> tuple[list[int], list[int]]:
    """`rows` copies of a pattern of up to 9 segments at a constant period:
    exactly so, touching back to back, or with one row off."""
    g = draw(st.integers(1, 9))
    rows = draw(st.integers(1, 20))
    kind = draw(st.sampled_from(("periodic", "touching", "one row off")))
    pat = draw(st.lists(st.integers(1, 16), min_size=g, max_size=g))
    if kind == "touching":
        rel = [sum(pat[:j]) for j in range(g)]
        period = sum(pat)
    else:
        rel = draw(st.lists(st.integers(-8, 64), min_size=g, max_size=g))
        period = draw(st.integers(-4, 96))
    first = draw(st.integers(-100, 100))
    offs = [first + rel[j] + r * period for r in range(rows) for j in range(g)]
    lens = pat * rows
    if kind == "one row off":
        row = draw(st.integers(0, rows - 1))
        delta = draw(st.integers(1, 3))
        if draw(st.booleans()):
            offs[row * g:(row + 1) * g] = [o + delta for o in offs[row * g:(row + 1) * g]]
        else:
            lens[row * g] += delta
    return offs, lens


@st.composite
def _segment_lists(draw) -> tuple[list[int], list[int]]:
    """One to three periodic runs, each after a head of up to three lone
    segments, and a tail of up to three."""
    offs, lens = [], []

    def lone():
        for _ in range(draw(st.integers(0, 3))):
            offs.append(draw(st.integers(-200, 200)))
            lens.append(draw(st.integers(1, 16)))

    for _ in range(draw(st.integers(1, 3))):
        lone()
        run_offs, run_lens = draw(_periodic_run())
        offs += run_offs
        lens += run_lens
    lone()
    return offs, lens


@given(_segment_lists())
def test_piece_splitter_matches_the_brute_force_reference(segments):
    offs, lens = segments
    pieces = packer._split_pieces(_explicit(offs, lens))
    assert _same_plan(pieces, _reference_pieces(offs, lens))
    if pieces is None:
        return
    assert len(pieces) <= (packer._PIECES_MAX if len(offs) > packer._SHORT_LIST else len(offs))
    # every piece is a periodic run of 8 rows or more, or one segment
    assert all(p.rows >= 8 or (p.rows, len(p.pat)) == (1, 1) for p in pieces)
    rebuilt = [(p.first + row * p.period + rel, n) for p in pieces
               for row in range(p.rows) for rel, n in zip(p.rel, p.pat)]
    assert rebuilt == list(zip(offs, lens))
    assert all(type(x) is int for p in pieces for x in (p.rows, p.period, p.first) + p.rel + p.pat)


def _explicit(offs, lens) -> "typecore.ClosedForm":
    return typecore.ClosedForm(np.array(offs, dtype=np.int64), np.array(lens, dtype=np.int64))


@st.composite
def _tilings(draw) -> "typecore.ClosedForm":
    """A canonical unit of up to 24 segments, in any order and at any
    gaps, tiled at a stride that makes its copies touch or at a random
    one, over a few copies or thousands.  A unit of more than 8 segments,
    the longest pattern, is longer than the cycle a run is checked over
    in `_run_end`."""
    k = draw(st.integers(1, 24))
    lens = draw(st.lists(st.integers(1, 16), min_size=k, max_size=k))
    ordered = draw(st.booleans())
    offs = [draw(st.integers(-64, 64))]
    for j in range(1, k):
        # in order with gaps, or anywhere but the end of the segment
        # before; either way no two neighbours touch
        end = offs[-1] + lens[j - 1]
        offs.append(end + draw(st.integers(1, 24)) if ordered else
                    draw(st.integers(-64, 128).filter(lambda o, end=end: o != end)))
    reach = offs[-1] + lens[-1] - offs[0]
    touching = k > 1 and draw(st.booleans())
    stride = reach if touching else draw(st.integers(-64, 256).filter(lambda s: s != reach))
    copies = draw(st.one_of(st.integers(2, 400), st.integers(2_200, 5_000)))
    return typecore.ClosedForm(np.array(offs, dtype=np.int64),
                               np.array(lens, dtype=np.int64), copies, stride)


def _even(k: int, copies: int, stride: int, lens=(4,)) -> "typecore.ClosedForm":
    """`k` segments 10 bytes apart, their lengths repeating `lens`, tiled."""
    return typecore.ClosedForm(np.arange(k, dtype=np.int64) * 10,
                               np.resize(np.array(lens, dtype=np.int64), k), copies, stride)


# units of 12 segments: one run through every copy, a run of a two-segment
# pattern, and copies that touch, so that runs break at every join
@example(_even(12, 50, 120))
@example(_even(12, 40, 120, lens=(4, 2)))
@example(_even(12, 3, 114))
@given(_tilings())
def test_tiled_pieces_match_the_brute_force_reference(form):
    # a unit whose copies touch included: its list is a head, one run of
    # the joined pattern and a tail
    offs, lens = form.materialize()
    assert len(offs) == form.segment_count
    assert _same_plan(packer._split_pieces(form), _reference_pieces(offs, lens))


@st.composite
def _windows(draw) -> tuple:
    """A tiling or an explicit list, and a window (i, j) of it whose ends
    lie anywhere, or next to where a tiling's head, body and tail meet."""
    form = draw(st.one_of(_tilings(), _segment_lists().map(lambda s: _explicit(*s))))
    n = form.segment_count
    joined = form.touching
    g0 = len(form.offsets) - joined
    body_end = joined * g0 + (form.copies - joined) * g0
    near = [b + d for b in (0, joined * g0, joined * g0 + g0, body_end, n) for d in (-1, 0, 1)]
    ends = st.one_of(st.integers(0, n), st.sampled_from([e for e in near if 0 <= e <= n]))
    i, j = sorted((draw(ends), draw(ends)))
    if i == j:
        i, j = (i - 1, j) if j == n else (i, j + 1)
    return form, i, j


@given(_windows())
def test_window_is_a_slice_of_the_whole_list(case):
    form, i, j = case
    offs, lens = form.materialize()
    off, ln = form.between(i, j)
    assert np.array_equal(off, offs[i:j]) and np.array_equal(ln, lens[i:j])


def test_joined_tiling_is_planned_without_its_segments():
    # alternating_repeated A=2 at 2.56 MB: 160000 instances whose last
    # segment joins the next one's first
    built = layouts.build(layouts.LayoutSpec(id="alternating_repeated", n=640_000, A=2))
    p = CompiledEngine(built.committed, built.count)
    assert p._flat.form.touching and p.segment_count == 160_001
    strategy, plan, materialized = _planned_from_unit(p)
    assert (strategy, materialized) == ("pieces", False)
    assert [(piece.rows, len(piece.pat)) for piece in plan] == [(1, 1), (159_999, 1), (1, 1)]
    assert _same_plan(plan, _segment_rule(p)[1])


def test_lists_of_more_than_eight_pieces_gather():
    # only a list longer than 64 segments: a shorter one is at most one
    # piece per segment
    offs = np.array([i * (i + 3) for i in range(65)], dtype=np.int64)
    lens = np.ones(65, dtype=np.int64)
    assert len(packer._split_pieces(_explicit(offs[:9], lens[:9]))) == 9
    assert len(packer._split_pieces(_explicit(offs[:64], lens[:64]))) == 64
    assert packer._split_pieces(_explicit(offs, lens)) is None


def test_period_detector_checks_every_segment_of_a_long_list():
    rows = 3 * packer._PERIOD_CHECK_BLOCK // 2 + 5
    offs = (np.arange(rows, dtype=np.int64)[:, None] * 32 + [0, 12]).ravel()
    lens = np.full(2 * rows, 8, dtype=np.int64)
    assert packer._detect_period(_explicit(offs, lens)) == (rows, 32, 0, (0, 12), (8, 8))
    # on both sides of the first block boundaries, and the last segment: the
    # run from segment 0 stops at the last whole row before the change
    head = 2 * packer._PERIOD_MIN_ROWS
    ends, step = [head], packer._RUN_FIRST_BLOCK
    while ends[-1] < packer._PERIOD_CHECK_BLOCK:
        ends.append(ends[-1] + step)
        step *= 4
    for i in (3, head - 1, head, *(e + d for e in ends[1:3] + ends[-1:] for d in (-1, 0)),
              2 * rows - 1):
        moved, longer = offs.copy(), lens.copy()
        moved[i] += 4
        longer[i] += 4
        want = ((i // 2, 32, 0, (0, 12), (8, 8)) if i // 2 >= packer._PERIOD_MIN_ROWS
                else (1, 8, 0, (0,), (8,)))
        assert packer._detect_period(_explicit(moved, lens)) == want, i
        assert packer._detect_period(_explicit(offs, longer)) == want, i


# --- copying straight from a sender's region (unpack_from) --------------


def _any_region(form: str, content: bytes):
    """`_region`, or an int32 array holding `content` (rounded up to whole
    elements with zeros)."""
    if form != "int32":
        return _region(form, content)
    arr = np.zeros(-(-len(content) // 4), dtype=np.int32)
    arr.view(np.uint8)[: len(content)] = np.frombuffer(content, dtype=np.uint8)
    return arr


def _bytes_of(region) -> bytes:
    return bytes(packer._byte_view(region))


def _same_as_pack_then_unpack(src, dst, kind):
    """`dst.unpack_from(src, ...)` leaves what unpacking `src`'s packed
    payload leaves, in a destination of 0xAA sentinels."""
    src_region = _any_region(kind, _fill(src.span))
    want = _any_region(kind, b"\xaa" * dst.span)
    dst.unpack_message(src.pack_message(src_region), want)
    got = _any_region(kind, b"\xaa" * dst.span)
    dst.unpack_from(src, src_region, got)
    assert _bytes_of(got) == _bytes_of(want)
    assert _bytes_of(src_region)[: src.span] == _fill(src.span)


_REGION_KINDS = ("bytearray", "int32", "odd_memoryview")


@pytest.mark.parametrize("kind", _REGION_KINDS)
@pytest.mark.parametrize("engine", ENGINES)
@given(datatypes(), st.integers(0, 3))
def test_unpack_from_matches_pack_then_unpack(kind, engine, t, count):
    eng = make_engine(engine, t, count)
    # the same engine on both sides, and two engines of one type
    _same_as_pack_then_unpack(eng, eng, kind)
    _same_as_pack_then_unpack(make_engine(engine, t, count), eng, kind)
    # a description against its normal form: one program for the compiled
    # engine, so a periodic one copies straight across
    normal = make_engine(engine, normalizer.normalize(t).output, count)
    _same_as_pack_then_unpack(normal, eng, kind)
    _same_as_pack_then_unpack(eng, normal, kind)
    # a different program of the same payload size: the fallback
    other = make_engine(engine, Contiguous(eng.total_bytes, Base(BaseKind.BYTE)), 1)
    _same_as_pack_then_unpack(other, eng, kind)
    _same_as_pack_then_unpack(eng, other, kind)


@pytest.mark.parametrize("kind", _REGION_KINDS)
@pytest.mark.parametrize("t", _CHECKED + (HVector(100, 1, 24, Vector(2, 1, 3, INT)),),
                         ids=["slices", "periodic", "gather", "view", "periodic2"])
def test_unpack_from_on_every_compiled_path(kind, t):
    for count in (1, 3):
        eng = CompiledEngine(t, count)
        _same_as_pack_then_unpack(eng, CompiledEngine(t, count), kind)
        _same_as_pack_then_unpack(InterpretedEngine(t, count), eng, kind)
        _same_as_pack_then_unpack(eng, InterpretedEngine(t, count), kind)


@given(st.one_of(_periodic_types(), _gathered_types()), st.integers(1, 3),
       st.sampled_from(_REGION_KINDS))
def test_unpack_from_matches_the_kernels(t, count, kind):
    _same_as_pack_then_unpack(CompiledEngine(t, count), CompiledEngine(t, count), kind)


def test_direct_periodic_copy_leaves_interior_gaps():
    # bucket A=2: 4 and 12 payload bytes in every 32, with gaps inside the
    # pattern's covered extent; the source's gap bytes must not reach the
    # destination
    built = layouts.build(layouts.LayoutSpec(id="bucket", n=800, A=2))
    src, dst = (CompiledEngine(built.committed, built.count) for _ in range(2))
    assert dst.strategy == "pieces" and len(dst.pieces[0].pat) > 1
    src_region = bytearray(b"\x11" * src.span)
    src.unpack_message(b"\x22" * src.total_bytes, src_region)
    got = bytearray(b"\xaa" * dst.span)
    dst.unpack_from(src, src_region, got)
    assert got.count(b"\x22") == dst.total_bytes
    assert got.count(b"\xaa") == dst.span - dst.total_bytes


def _refuse_payloads(monkeypatch, cls):
    def refuse(*args):
        raise AssertionError("packed or unpacked a payload")

    monkeypatch.setattr(cls, "pack_message", refuse)
    monkeypatch.setattr(cls, "unpack_message", refuse)


@pytest.mark.parametrize("spec,pieces", [
    (layouts.LayoutSpec(id="rowcol_struct", n=400, A=10), [(1, 1), (389, 1)]),
    (layouts.LayoutSpec(id="rowcol_struct", n=700, A=600), [(1, 1), (99, 1)]),
    (layouts.LayoutSpec(id="alternating_repeated", n=800, A=2), [(1, 1), (199, 1), (1, 1)]),
], ids=["rowcol_struct", "rowcol_struct_wide", "alternating_repeated"])
def test_direct_copy_of_several_pieces_leaves_gaps(monkeypatch, spec, pieces):
    # a row and a column (its words 40 and 2400 bytes apart, the second
    # copied through a contiguous column), and a joined tiling (head, run,
    # tail): every piece is copied straight across, and no gap byte is
    # written
    built = layouts.build(spec)
    src, dst = (CompiledEngine(built.committed, built.count) for _ in range(2))
    assert dst.strategy == "pieces"
    assert [(p.rows, len(p.pat)) for p in dst.pieces] == pieces
    for kind in _REGION_KINDS:
        _same_as_pack_then_unpack(src, dst, kind)
    src_region = bytearray(b"\x11" * src.span)
    src.unpack_message(b"\x22" * src.total_bytes, src_region)
    _refuse_payloads(monkeypatch, CompiledEngine)
    got = bytearray(b"\xaa" * dst.span)
    dst.unpack_from(src, src_region, got)
    assert got.count(b"\x22") == dst.total_bytes
    assert got.count(b"\xaa") == dst.span - dst.total_bytes


def test_unpack_from_does_not_pack(monkeypatch):
    # a compiled engine of the same program copies without a payload
    t = Vector(100, 1, 2, INT)
    src, dst = CompiledEngine(t, 1), CompiledEngine(t, 1)
    assert dst.strategy == "pieces"
    _refuse_payloads(monkeypatch, CompiledEngine)
    dst.unpack_from(src, _fill(src.span), bytearray(dst.span))


def _built(spec: layouts.LayoutSpec) -> tuple:
    built = layouts.build(spec)
    return built.datatype, built.count


@pytest.mark.parametrize("t,count", [
    _built(layouts.LayoutSpec(id="tiled_struct", n=80, A=2, S1=1)),
    (Resized(-8, 24, Vector(2, 1, 2, INT)), 3),
    (Resized(0, 0, Vector(2, 1, 2, INT)), 1),
    (Resized(0, 0, Vector(2, 1, 2, INT)), 3),
    (Vector(3, 2, 4, INT), 0),
], ids=["tiled_struct", "negative_lb", "extent_0", "extent_0_overlapping", "count_0"])
def test_interpreted_walk_copies_across_and_leaves_gaps(monkeypatch, t, count):
    # a nested struct, instances placed below the window start, instances
    # that share one place, and no instance: the receiver walks the tree
    # once, region to region, and writes no gap byte
    src, dst = InterpretedEngine(t, count), InterpretedEngine(t, count)
    for kind in _REGION_KINDS:
        _same_as_pack_then_unpack(src, dst, kind)
    src_region = bytearray(b"\x11" * src.span)
    src.unpack_message(b"\x22" * src.total_bytes, src_region)
    payload = np.zeros(dst.span, dtype=bool)
    flat = flatten(dst.committed, count)
    for off, n in zip(flat.offsets.tolist(), flat.lengths.tolist()):
        payload[off - dst.origin : off - dst.origin + n] = True
    _refuse_payloads(monkeypatch, InterpretedEngine)
    got = np.full(dst.span, 0xAA, dtype=np.uint8)
    dst.unpack_from(src, src_region, got)
    assert (got[payload] == 0x22).all() and (got[~payload] == 0xAA).all()


def test_interpreted_copy_key_is_cheap_and_never_crosses_engines(monkeypatch):
    # count-1 block_indexed: one IndexedBlock of 32 000 displacements
    ct = layouts.build(layouts.LayoutSpec(id="block_indexed", n=64_000, A=2)).committed
    engines = [make_engine(name, ct, 1) for name in ENGINES for _ in range(2)]
    interpreted = [e for e in engines if e.name == "interpreted"]
    compiled = [e for e in engines if e.name == "compiled"]
    assert interpreted[0].copy_key[0] == "interpreted"
    assert compiled[0].copy_key is not None
    src_region = _fill(engines[0].span)
    want = bytearray(engines[0].span)
    engines[0].unpack_message(engines[0].pack_message(src_region), want)

    def by_value(*args):
        raise AssertionError("compared index tables by value")

    monkeypatch.setattr(IndexedBlock, "__eq__", by_value)
    for src in engines:
        for dst in engines:
            assert (src.copy_key == dst.copy_key) == (src.name == dst.name)
            got = bytearray(dst.span)
            dst.unpack_from(src, src_region, got)
            assert got == want


def test_copy_key_is_built_on_the_first_transfer():
    for t, count in ((Vector(100, 1, 2, INT), 1), (_CHECKED[2], 2)):
        ct = commit(t)
        src, dst = CompiledEngine(ct, count), CompiledEngine(ct, count)
        assert "copy_key" not in vars(src) and "copy_key" not in vars(dst)
        dst.unpack_from(src, _fill(src.span), bytearray(dst.span))
        assert "copy_key" in vars(dst)
        # only a receiver with a key reads the sender's
        assert ("copy_key" in vars(src)) == (dst.copy_key is not None)


def test_matched_sender_is_remembered_weakly():
    # keys are compared once per sender, a sender of another key still packs
    # and unpacks, and two engines that copied from each other need no
    # cycle collector to be freed
    t = Vector(100, 1, 2, INT)
    a, b, other = CompiledEngine(t, 1), CompiledEngine(t, 1), InterpretedEngine(t, 1)
    src = _fill(a.span)
    want = bytearray(b.span)
    b.unpack_message(a.pack_message(src), want)
    got = bytearray(b.span)
    b.unpack_from(a, src, got)
    a.unpack_from(b, got, bytearray(a.span))

    class Uncomparable:
        def __eq__(self, _):
            raise AssertionError("copy keys compared again")

        __ne__ = __eq__
        __hash__ = None

    vars(a)["copy_key"] = Uncomparable()
    for sender in (a, other, a):
        got = bytearray(b.span)
        b.unpack_from(sender, src, got)
        assert got == want
    gc.disable()
    try:
        freed = weakref.ref(a)
        del a, sender
        assert freed() is None
    finally:
        gc.enable()


def test_copy_key_of_a_periodic_program_stays_small():
    # at most 8 pieces of at most 8 pattern segments, whatever the unit's size
    for lid, n in (("block_indexed", 64_000), ("alternating_repeated", 64_000)):
        built = layouts.build(layouts.LayoutSpec(id=lid, n=n, A=2))
        eng = CompiledEngine(built.committed, built.count)
        assert eng.segment_count > 16_000
        assert eng.strategy == "pieces"
        assert len(eng.copy_key) <= packer._PIECES_MAX
        assert all(len(p.rel) == len(p.pat) <= 8 for p in eng.copy_key)


def _unpack_from_pairs():
    """(src, dst) engine pairs over every checked layout: two engines of
    one copy key copy straight across, every other pair packs and
    unpacks."""
    for t in _CHECKED:
        for src in ENGINES:
            for dst in ENGINES:
                yield make_engine(src, t, 1), make_engine(dst, t, 1)


def test_unpack_from_checks_sizes_and_regions():
    for src, dst in _unpack_from_pairs():
        src_region, dst_region = _fill(src.span), bytearray(dst.span)
        with pytest.raises(RegionTooSmall, match="source"):
            dst.unpack_from(src, src_region[:-1], dst_region)
        with pytest.raises(RegionTooSmall, match="destination"):
            dst.unpack_from(src, src_region, dst_region[:-1])
        with pytest.raises(TypeError):
            dst.unpack_from(src, src_region, bytes(dst.span))
        longer = make_engine(dst.name, Contiguous(dst.total_bytes + 1, Base(BaseKind.BYTE)), 1)
        with pytest.raises(SizeMismatch):
            dst.unpack_from(longer, _fill(longer.span), dst_region)
        with pytest.raises(SizeMismatch):
            longer.unpack_from(src, src_region, bytearray(longer.span))


def test_unpack_from_of_an_empty_payload_moves_nothing():
    for name in ENGINES:
        src, dst = make_engine(name, INT, 0), make_engine(name, INT, 0)
        dst.unpack_from(src, b"", b"")  # read-only, but there is nothing to write
        src, dst = CompiledEngine(INT, 0), make_engine(name, INT, 0)
        dst.unpack_from(src, b"", b"")


def test_committed_type_bounds_are_computed_once():
    ct = commit(Vector(100, 1, 2, INT))
    first = CompiledEngine(ct, 3)
    assert "payload_bounds" in vars(ct)
    flat = ct.flat
    assert ct.payload_bounds == (int(flat.offsets.min()),
                                 int((flat.offsets + flat.lengths).max()))
    assert (CompiledEngine(ct, 3).origin, CompiledEngine(ct, 3).span) == (first.origin, first.span)


def test_gather_index_starts_half_a_page_in():
    # an index allocated next to a region of about its size would otherwise
    # share the region's page offset, and the scatter stalls on 4K aliasing
    # the second index spans eight pages
    for t, count in ((_CHECKED[2], 2),
                     (Indexed(tuple((1, i * (i + 3) // 2) for i in range(4096)), INT), 1)):
        eng = CompiledEngine(t, count)
        assert eng.strategy == "gather"
        assert eng.gather_index.ctypes.data % 4096 == 2048
