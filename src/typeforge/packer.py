"""Pack and unpack engines over flattened layouts.

Two engines with identical observable behavior:

* interpreted: walks the constructor tree instance by instance, copying one
  contiguous run at a time.  Runs shorter than 16 bytes are moved with a
  per-byte loop.  Deliberately naive; it models a library that performs no
  cross-constructor analysis, so deeply fragmented descriptions pay their
  full per-block overhead.
* compiled: one-time translation of the canonical segment list into a copy
  program executed with bulk (vectorized) moves.

Both read gaps never and write gaps never, so sentinel bytes between
segments survive a round trip untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .typecore import (
    Base,
    Composite,
    Contiguous,
    Datatype,
    CommittedType,
    FlatLayout,
    HVector,
    Indexed,
    IndexedBlock,
    MalformedType,
    Resized,
    Vector,
    commit,
    flatten,
    window,
)

# below this, bulk copy setup costs more than moving bytes one at a time
_BYTE_LOOP_LIMIT = 16
# programs up to this many ops run as python slice copies; larger ones
# switch to two-dimensional slicing or a precomputed gather/scatter index
_SLICE_OP_LIMIT = 64
# a periodic program needs at least this many repetitions of its pattern
# before two-dimensional slicing is worth detecting
_PERIOD_MIN_ROWS = 8
# patterns longer than this are left to the gather index
_PERIOD_PATTERN_MAX = 8


class RegionTooSmall(ValueError):
    """Raised when a source or destination region cannot hold the layout."""


class SizeMismatch(ValueError):
    """Raised when packed data length does not match the layout payload."""


def _check_region(buf, origin: int, length: int, what: str) -> None:
    have = len(buf)
    if have < length:
        raise RegionTooSmall(
            f"{what} region holds {have} bytes, layout spans {length} "
            f"(window starts at byte {origin})"
        )


# --- compiled engine ----------------------------------------------------


@dataclass(eq=False)
class PackProgram:
    """Copy program: canonical segments in serialization order.

    Offsets are absolute layout offsets; subtract `origin` to index the
    region.  `total_bytes` is the packed payload size and `span` the region
    window length.
    """

    offsets: np.ndarray
    lengths: np.ndarray
    total_bytes: int
    origin: int
    span: int
    _gather: np.ndarray | None = field(default=None, repr=False)
    _periodic: tuple | None = field(default=None, repr=False)
    _periodic_known: bool = field(default=False, repr=False)

    @property
    def ops(self) -> list[tuple[int, int]]:
        return list(zip(self.offsets.tolist(), self.lengths.tolist()))

    @property
    def is_contiguous(self) -> bool:
        return len(self.offsets) == 1 and int(self.lengths[0]) == self.total_bytes == self.span

    def gather_index(self) -> np.ndarray:
        """Region index of every packed byte, built once on demand."""
        if self._gather is None:
            rel = self.offsets - self.origin
            starts = np.repeat(rel, self.lengths)
            pos = np.arange(self.total_bytes, dtype=np.int64)
            seg_base = np.repeat(np.cumsum(self.lengths) - self.lengths, self.lengths)
            self._gather = starts + (pos - seg_base)
        return self._gather

    def periodic_plan(self) -> tuple | None:
        """Uniform-period description of the segment list, if one exists.

        Detects whether the segments are `rows` repetitions of one short
        pattern shifted by a constant byte period, with every pattern
        segment inside its own period window.  Returns (rows, period,
        rel_offsets, seg_lengths, out_prefix, row_bytes, first_offset) or
        None; the result is cached either way.
        """
        if self._periodic_known:
            return self._periodic
        self._periodic_known = True
        offs = self.offsets
        lens = self.lengths
        n = len(offs)
        for g in range(1, _PERIOD_PATTERN_MAX + 1):
            if n % g or n // g < _PERIOD_MIN_ROWS:
                continue
            rows = n // g
            period = int(offs[g] - offs[0])
            if period <= 0:
                continue
            l2 = lens.reshape(rows, g)
            if not (l2 == l2[0]).all():
                continue
            o2 = offs.reshape(rows, g)
            steps = period * np.arange(rows, dtype=np.int64)[:, None]
            if not (o2 == o2[0][None, :] + steps).all():
                continue
            rel = (o2[0] - offs[0]).astype(np.int64)
            pat = l2[0].astype(np.int64)
            if (rel < 0).any() or (rel + pat > period).any():
                continue
            prefix = np.cumsum(pat) - pat
            self._periodic = (rows, period, rel, pat, prefix, int(pat.sum()),
                              int(offs[0]))
            break
        return self._periodic


def compile(t: Datatype | CommittedType, count: int) -> PackProgram:
    ct = commit(t)
    flat = flatten(ct, count)
    origin, span = window(ct, count)
    return PackProgram(
        offsets=flat.offsets,
        lengths=flat.lengths,
        total_bytes=flat.total_size,
        origin=origin,
        span=span,
    )


def _as_u8(buf) -> np.ndarray:
    return np.frombuffer(buf, dtype=np.uint8) if not isinstance(buf, np.ndarray) else buf


def _strided_rows(buf: np.ndarray, start: int, rows: int, period: int, ln: int) -> np.ndarray:
    """(rows, ln) view of one pattern segment across every period.

    The window is sliced to exactly the bytes the strided view addresses,
    so the view never reaches past the region even when the last period's
    trailing gap is not part of it.
    """
    window = buf[start : start + (rows - 1) * period + ln]
    return np.lib.stride_tricks.as_strided(window, (rows, ln), (period, 1))


def _pack_periodic(p: PackProgram, plan: tuple, src: np.ndarray) -> np.ndarray:
    rows, period, rel, pat, prefix, row_bytes, first = plan
    base = first - p.origin
    out = np.empty(p.total_bytes, dtype=np.uint8)
    o2 = out.reshape(rows, row_bytes)
    for j in range(len(rel)):
        a, b, ln = int(rel[j]), int(prefix[j]), int(pat[j])
        o2[:, b : b + ln] = _strided_rows(src, base + a, rows, period, ln)
    return out


def _unpack_periodic(p: PackProgram, plan: tuple, data: np.ndarray, dst: np.ndarray) -> None:
    rows, period, rel, pat, prefix, row_bytes, first = plan
    base = first - p.origin
    d2 = data.reshape(rows, row_bytes)
    for j in range(len(rel)):
        a, b, ln = int(rel[j]), int(prefix[j]), int(pat[j])
        _strided_rows(dst, base + a, rows, period, ln)[:] = d2[:, b : b + ln]


def pack_compiled_buffer(p: PackProgram, src):
    """Pack with a compiled program; returns a buffer-backed object, which
    for a single-segment program is a view into `src`."""
    _check_region(src, p.origin, p.span, "source")
    n_ops = len(p.offsets)
    if n_ops == 0:
        return b""
    mv = memoryview(src)
    if n_ops == 1:
        start = int(p.offsets[0]) - p.origin
        return mv[start : start + int(p.lengths[0])]
    if n_ops <= _SLICE_OP_LIMIT:
        out = bytearray(p.total_bytes)
        pos = 0
        for off, ln in zip(p.offsets.tolist(), p.lengths.tolist()):
            start = off - p.origin
            out[pos : pos + ln] = mv[start : start + ln]
            pos += ln
        return out
    plan = p.periodic_plan()
    if plan is not None:
        return _pack_periodic(p, plan, _as_u8(src))
    return np.take(_as_u8(src), p.gather_index())


def unpack_compiled(p: PackProgram, data, dst) -> None:
    if len(data) != p.total_bytes:
        raise SizeMismatch(
            f"packed data holds {len(data)} bytes, layout payload is {p.total_bytes}"
        )
    _check_region(dst, p.origin, p.span, "destination")
    n_ops = len(p.offsets)
    if n_ops == 0:
        return
    if n_ops <= _SLICE_OP_LIMIT:
        mv = memoryview(data)
        out = memoryview(dst)
        pos = 0
        for off, ln in zip(p.offsets.tolist(), p.lengths.tolist()):
            start = off - p.origin
            out[start : start + ln] = mv[pos : pos + ln]
            pos += ln
        return
    dst_arr = _as_u8(dst)
    if not dst_arr.flags.writeable:
        raise TypeError("destination region is read-only")
    plan = p.periodic_plan()
    if plan is not None:
        _unpack_periodic(p, plan, _as_u8(data), dst_arr)
        return
    dst_arr[p.gather_index()] = _as_u8(data)


# --- interpreted engine -------------------------------------------------
#
# Node plans mirror the tree one to one.  The only lookahead is that a
# constructor whose inner type is a bare base kind emits its block as a
# single run, which is the granularity the constructor itself describes.


def _prep(t: Datatype):
    if isinstance(t, Base):
        return ("run", 0, t.kind.size)
    if isinstance(t, Resized):
        return _prep(t.inner)

    def ext_of(node: Datatype) -> int:
        return commit(node).extent

    if isinstance(t, Contiguous):
        if isinstance(t.inner, Base):
            return ("run", 0, t.count * t.inner.kind.size)
        return ("loop", t.count, ext_of(t.inner), _prep(t.inner))
    if isinstance(t, (Vector, HVector)):
        inner_ext = ext_of(t.inner)
        stride = t.stride_bytes if isinstance(t, HVector) else t.stride * inner_ext
        if isinstance(t.inner, Base):
            return (
                "runs",
                tuple((i * stride, t.blocklen * t.inner.kind.size) for i in range(t.count)),
            )
        block = ("loop", t.blocklen, inner_ext, _prep(t.inner))
        return ("places", tuple(i * stride for i in range(t.count)), block)
    if isinstance(t, Indexed):
        inner_ext = ext_of(t.inner)
        if isinstance(t.inner, Base):
            es = t.inner.kind.size
            return ("runs", tuple((d * inner_ext, bl * es) for bl, d in t.blocks))
        plan = _prep(t.inner)
        return (
            "ragged",
            tuple((d * inner_ext, bl) for bl, d in t.blocks),
            inner_ext,
            plan,
        )
    if isinstance(t, IndexedBlock):
        inner_ext = ext_of(t.inner)
        if isinstance(t.inner, Base):
            es = t.inner.kind.size
            return ("runs", tuple((d * inner_ext, t.blocklen * es) for d in t.displs))
        plan = _prep(t.inner)
        return (
            "ragged",
            tuple((d * inner_ext, t.blocklen) for d in t.displs),
            inner_ext,
            plan,
        )
    if isinstance(t, Composite):
        parts = []
        for count, displ, member in t.members:
            if isinstance(member, Base):
                parts.append(("run", displ, count * member.kind.size))
            else:
                parts.append(("loop_at", displ, count, ext_of(member), _prep(member)))
        return ("struct", tuple(parts))
    raise MalformedType(f"not a datatype node: {t!r}")


def _pack_walk(plan, src, base: int, out: bytearray, pos: int) -> int:
    tag = plan[0]
    if tag == "run":
        off = base + plan[1]
        n = plan[2]
        if n >= _BYTE_LOOP_LIMIT:
            out[pos : pos + n] = src[off : off + n]
        else:
            for i in range(n):
                out[pos + i] = src[off + i]
        return pos + n
    if tag == "runs":
        for displ, n in plan[1]:
            off = base + displ
            if n >= _BYTE_LOOP_LIMIT:
                out[pos : pos + n] = src[off : off + n]
            else:
                for i in range(n):
                    out[pos + i] = src[off + i]
            pos += n
        return pos
    if tag == "loop":
        _, count, ext, inner = plan
        for i in range(count):
            pos = _pack_walk(inner, src, base + i * ext, out, pos)
        return pos
    if tag == "places":
        _, shifts, inner = plan
        for shift in shifts:
            pos = _pack_walk(inner, src, base + shift, out, pos)
        return pos
    if tag == "ragged":
        _, blocks, ext, inner = plan
        for displ, bl in blocks:
            for i in range(bl):
                pos = _pack_walk(inner, src, base + displ + i * ext, out, pos)
        return pos
    if tag == "struct":
        for part in plan[1]:
            if part[0] == "run":
                pos = _pack_walk(part, src, base, out, pos)
            else:
                _, displ, count, ext, inner = part
                for i in range(count):
                    pos = _pack_walk(inner, src, base + displ + i * ext, out, pos)
        return pos
    raise AssertionError(f"unknown plan tag {tag!r}")


def _unpack_walk(plan, data, base: int, dst, pos: int) -> int:
    tag = plan[0]
    if tag == "run":
        off = base + plan[1]
        n = plan[2]
        if n >= _BYTE_LOOP_LIMIT:
            dst[off : off + n] = data[pos : pos + n]
        else:
            for i in range(n):
                dst[off + i] = data[pos + i]
        return pos + n
    if tag == "runs":
        for displ, n in plan[1]:
            off = base + displ
            if n >= _BYTE_LOOP_LIMIT:
                dst[off : off + n] = data[pos : pos + n]
            else:
                for i in range(n):
                    dst[off + i] = data[pos + i]
            pos += n
        return pos
    if tag == "loop":
        _, count, ext, inner = plan
        for i in range(count):
            pos = _unpack_walk(inner, data, base + i * ext, dst, pos)
        return pos
    if tag == "places":
        _, shifts, inner = plan
        for shift in shifts:
            pos = _unpack_walk(inner, data, base + shift, dst, pos)
        return pos
    if tag == "ragged":
        _, blocks, ext, inner = plan
        for displ, bl in blocks:
            for i in range(bl):
                pos = _unpack_walk(inner, data, base + displ + i * ext, dst, pos)
        return pos
    if tag == "struct":
        for part in plan[1]:
            if part[0] == "run":
                pos = _unpack_walk(part, data, base, dst, pos)
            else:
                _, displ, count, ext, inner = part
                for i in range(count):
                    pos = _unpack_walk(inner, data, base + displ + i * ext, dst, pos)
        return pos
    raise AssertionError(f"unknown plan tag {tag!r}")


def _pack_with_plan(ct: CommittedType, plan, count: int, src) -> bytes:
    origin, span = window(ct, count)
    _check_region(src, origin, span, "source")
    total = ct.size * count
    if total == 0:
        return b""
    out = bytearray(total)
    mv = memoryview(src)
    pos = 0
    for i in range(count):
        pos = _pack_walk(plan, mv, i * ct.extent - origin, out, pos)
    assert pos == total
    return bytes(out)


def _unpack_with_plan(ct: CommittedType, plan, count: int, data, dst) -> None:
    total = ct.size * count
    if len(data) != total:
        raise SizeMismatch(f"packed data holds {len(data)} bytes, layout payload is {total}")
    if total == 0:
        return
    origin, span = window(ct, count)
    _check_region(dst, origin, span, "destination")
    mv = memoryview(data)
    dmv = memoryview(dst)
    if dmv.readonly:
        raise TypeError("destination region is read-only")
    pos = 0
    for i in range(count):
        pos = _unpack_walk(plan, mv, i * ct.extent - origin, dmv, pos)
    assert pos == total


def pack(t: Datatype | CommittedType, count: int, src) -> bytes:
    """Pack `count` instances from `src` with the interpreted engine."""
    if count < 0:
        raise MalformedType(f"count must be >= 0, got {count}")
    ct = commit(t)
    return _pack_with_plan(ct, _prep(ct.datatype), count, src)


def unpack(t: Datatype | CommittedType, count: int, data, dst) -> None:
    """Scatter packed payload back into `dst`, leaving gap bytes alone."""
    if count < 0:
        raise MalformedType(f"count must be >= 0, got {count}")
    ct = commit(t)
    _unpack_with_plan(ct, _prep(ct.datatype), count, data, dst)


# --- engine objects for the transport layer -----------------------------


class InterpretedEngine:
    name = "interpreted"

    def __init__(self, t: Datatype | CommittedType, count: int):
        self.committed = commit(t)
        self.count = count
        self.total_bytes = self.committed.size * count
        self.origin, self.span = window(self.committed, count)
        self._plan = _prep(self.committed.datatype)
        self.is_contiguous = False  # never shortcuts; that is the point

    def pack_message(self, region) -> bytes:
        return _pack_with_plan(self.committed, self._plan, self.count, region)

    def unpack_message(self, data, region) -> None:
        _unpack_with_plan(self.committed, self._plan, self.count, data, region)


class CompiledEngine:
    name = "compiled"

    def __init__(self, t: Datatype | CommittedType, count: int):
        self.committed = commit(t)
        self.count = count
        self.program = compile(self.committed, count)
        self.total_bytes = self.program.total_bytes
        self.origin = self.program.origin
        self.span = self.program.span
        self.is_contiguous = self.program.is_contiguous

    def pack_message(self, region):
        return pack_compiled_buffer(self.program, region)

    def unpack_message(self, data, region) -> None:
        unpack_compiled(self.program, data, region)


ENGINES = ("interpreted", "compiled")


def make_engine(name: str, t: Datatype | CommittedType, count: int):
    if name == "interpreted":
        return InterpretedEngine(t, count)
    if name == "compiled":
        return CompiledEngine(t, count)
    raise ValueError(f"unknown engine {name!r}; expected one of {ENGINES}")
