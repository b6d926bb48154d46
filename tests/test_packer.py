"""Pack and unpack engines: correctness against the byte oracle."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from treegen import datatypes, oracle_walk
from typeforge.packer import (
    CompiledEngine,
    InterpretedEngine,
    PackProgram,
    RegionTooSmall,
    SizeMismatch,
    compile,
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
    MalformedType,
    Vector,
    commit,
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
    p = compile(Vector(3, 2, 4, INT), 1)
    assert p.ops == [(0, 8), (16, 8), (32, 8)]
    assert (p.total_bytes, p.origin, p.span) == (24, 0, 40)
    assert not p.is_contiguous


def test_compile_merges_contiguous_runs():
    p = compile(INT, 6)
    assert p.ops == [(0, 24)]
    assert p.is_contiguous


def test_gather_index_enumerates_payload_bytes():
    p = compile(Vector(2, 1, 2, INT), 1)
    assert p.gather_index().tolist() == [0, 1, 2, 3, 8, 9, 10, 11]


def test_pack_strided_elements():
    region = np.arange(10, dtype=np.int32)
    out = pack(Vector(2, 2, 4, INT), 1, region.tobytes())
    assert np.frombuffer(out, dtype=np.int32).tolist() == [0, 1, 4, 5]


def test_negative_offsets_use_window_origin():
    t = Vector(2, 1, -2, INT)
    p = compile(t, 1)
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
    # more segments than the slice-copy limit, uniform period: the program
    # moves whole columns with 2-d slices, and its last period stops short
    # of a full stride
    t = Vector(100, 1, 2, INT)
    p = compile(t, 1)
    assert len(p.ops) == 100
    assert p.periodic_plan() is not None
    rows, period, _, _, _, row_bytes, _ = p.periodic_plan()
    assert (rows, period, row_bytes) == (100, 8, 4)
    assert p.span < rows * period
    region = _fill(p.span)
    compiled = CompiledEngine(t, 1)
    assert bytes(compiled.pack_message(region)) == pack(t, 1, region)
    payload = pack(t, 1, region)
    dst = np.zeros(p.span, dtype=np.uint8)
    compiled.unpack_message(payload, dst)
    ref = bytearray(p.span)
    unpack(t, 1, payload, ref)
    assert dst.tobytes() == bytes(ref)


def test_periodic_path_handles_multi_segment_patterns():
    # two segments per period; the pattern repeats across the outer count
    inner = Indexed(((1, 0), (1, 2)), INT)
    t = HVector(40, 1, 20, inner)
    p = compile(t, 1)
    assert len(p.ops) == 80
    plan = p.periodic_plan()
    assert plan is not None and (plan[0], plan[1]) == (40, 20)
    region = _fill(p.span)
    compiled = CompiledEngine(t, 1)
    payload = pack(t, 1, region)
    assert bytes(compiled.pack_message(region)) == payload
    dst = bytearray(b"\xaa" * p.span)
    compiled.unpack_message(payload, dst)
    ref = bytearray(b"\xaa" * p.span)
    unpack(t, 1, payload, ref)
    assert dst == ref


def test_gather_path_matches_slice_path():
    # irregular displacements defeat period detection and force the
    # indexed path
    blocks = tuple((1, i * (i + 3) // 2) for i in range(100))
    t = Indexed(blocks, INT)
    p = compile(t, 1)
    assert len(p.ops) == 100
    assert p.periodic_plan() is None
    assert p.periodic_plan() is None
    region = _fill(p.span)
    compiled = CompiledEngine(t, 1)
    assert bytes(compiled.pack_message(region)) == pack(t, 1, region)
    payload = pack(t, 1, region)
    dst = np.zeros(p.span, dtype=np.uint8)
    compiled.unpack_message(payload, dst)
    ref = bytearray(p.span)
    unpack(t, 1, payload, ref)
    assert dst.tobytes() == bytes(ref)


def test_pack_zero_count_is_empty():
    assert pack(INT, 0, b"") == b""
    unpack(INT, 0, b"", bytearray())


# --- error handling -----------------------------------------------------


# fragmented (slice copies), long and periodic, and contiguous (sent
# straight from the region)
_CHECKED = (Vector(3, 2, 4, INT), Vector(100, 1, 2, INT), Contiguous(6, INT))


def test_short_region_is_rejected():
    for t in _CHECKED:
        eng = CompiledEngine(t, 1)
        short = eng.span - 1
        payload = bytes(eng.total_bytes)
        with pytest.raises(RegionTooSmall):
            pack(t, 1, bytes(short))
        with pytest.raises(RegionTooSmall):
            eng.pack_message(bytes(short))
        with pytest.raises(RegionTooSmall):
            unpack(t, 1, payload, bytearray(short))
        with pytest.raises(RegionTooSmall):
            eng.unpack_message(payload, bytearray(short))


def test_payload_length_is_checked():
    for t in _CHECKED:
        eng = CompiledEngine(t, 1)
        with pytest.raises(SizeMismatch):
            unpack(t, 1, bytes(eng.total_bytes - 1), bytearray(eng.span))
        with pytest.raises(SizeMismatch):
            eng.unpack_message(bytes(eng.total_bytes + 1), bytearray(eng.span))


def test_read_only_destination_is_rejected():
    for t in _CHECKED:
        eng = CompiledEngine(t, 1)
        payload = bytes(eng.total_bytes)
        with pytest.raises(TypeError):
            unpack(t, 1, payload, bytes(eng.span))
        with pytest.raises(TypeError):
            eng.unpack_message(payload, bytes(eng.span))
        frozen = np.zeros(eng.span, dtype=np.uint8)
        frozen.flags.writeable = False
        with pytest.raises(TypeError):
            eng.unpack_message(payload, frozen)


def test_negative_count_is_rejected():
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


def _check_against_walker(t, count: int, form: str) -> PackProgram:
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
    return comp.program


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
        assert p.strategy == "periodic"
        assert p.span < p.periodic_plan()[0] * p.periodic_plan()[1]


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
    assert compile(Indexed(((2, 0), (2, 6)), Base(BaseKind.SHORT)), 1).word_width == 4
    assert compile(Indexed(((1, 0), (1, 3)), Base(BaseKind.DOUBLE)), 1).word_width == 8
    assert compile(Indexed(((1, 0), (2, 3)), Base(BaseKind.BYTE)), 1).word_width == 1
    p = compile(Indexed(tuple((1, i * (i + 3) // 2) for i in range(100)), INT), 1)
    assert p.strategy == "gather"
    assert len(p.gather_index(p.word_width)) == p.total_bytes // p.word_width


def test_strategy_names_the_copy_path():
    assert compile(Contiguous(6, INT), 1).strategy == "view"
    assert compile(Vector(3, 2, 4, INT), 1).strategy == "slices"
    assert compile(Vector(100, 1, 2, INT), 1).strategy == "periodic"


def test_periodic_records_are_built_once_per_program(monkeypatch):
    import typeforge.packer as packer

    built = []
    real = packer._record
    monkeypatch.setattr(packer, "_record", lambda *a: built.append(a) or real(*a))
    eng = CompiledEngine(Vector(100, 1, 2, INT), 1)
    assert built == []  # nothing is built with the engine
    region = _fill(eng.span)
    payload = bytes(eng.pack_message(region))
    records = eng.program.periodic_records()
    assert bytes(eng.pack_message(region)) == payload
    eng.unpack_message(payload, bytearray(eng.span))
    assert eng.program.periodic_records() is records
    assert len(built) == 2
