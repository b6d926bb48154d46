"""Pack and unpack engines over flattened layouts.

Two engines with identical observable behavior, each with one copy routine
that takes the direction as an argument, so packing and unpacking cannot
drift apart:

* interpreted: one walker (`_walk`) steps through the constructor tree
  instance by instance, copying one contiguous run at a time between the
  region and the packed payload.  Runs shorter than 16 bytes are moved
  with a per-byte loop.  Deliberately naive; it models a library that
  performs no cross-constructor analysis, so deeply fragmented
  descriptions pay their full per-block overhead.
* compiled: one-time translation of the canonical segment list into a copy
  program executed with bulk (vectorized) moves.  A layout that is one
  contiguous run filling its window is sent straight from the region.

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


def _check_payload(data, total: int) -> None:
    if len(data) != total:
        raise SizeMismatch(f"packed data holds {len(data)} bytes, layout payload is {total}")


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


def _periodic_copy(p: PackProgram, plan: tuple, region: np.ndarray, packed: np.ndarray,
                   packing: bool) -> None:
    rows, period, rel, pat, prefix, row_bytes, first = plan
    base = first - p.origin
    p2 = packed.reshape(rows, row_bytes)
    for j in range(len(rel)):
        a, b, ln = int(rel[j]), int(prefix[j]), int(pat[j])
        strided = _strided_rows(region, base + a, rows, period, ln)
        if packing:
            p2[:, b : b + ln] = strided
        else:
            strided[:] = p2[:, b : b + ln]


def _run_program(p: PackProgram, region, data=None):
    """The compiled copy in either direction.  Without `data`, pack `region`
    and return a buffer-backed payload; with `data`, unpack it into
    `region`.  Short programs copy slice by slice, long ones by
    two-dimensional slices when periodic, else through the gather index."""
    packing = data is None
    if not packing:
        _check_payload(data, p.total_bytes)
    _check_region(region, p.origin, p.span, "source" if packing else "destination")
    n_ops = len(p.offsets)
    if n_ops == 0:
        return b""
    if n_ops <= _SLICE_OP_LIMIT:
        out = bytearray(p.total_bytes) if packing else None
        reg = memoryview(region)
        packed = memoryview(out if packing else data)
        pos = 0
        for off, ln in zip(p.offsets.tolist(), p.lengths.tolist()):
            start = off - p.origin
            if packing:
                packed[pos : pos + ln] = reg[start : start + ln]
            else:
                reg[start : start + ln] = packed[pos : pos + ln]
            pos += ln
        return out
    reg = _as_u8(region)
    if not packing and not reg.flags.writeable:
        raise TypeError("destination region is read-only")
    plan = p.periodic_plan()
    if plan is not None:
        packed = np.empty(p.total_bytes, dtype=np.uint8) if packing else _as_u8(data)
        _periodic_copy(p, plan, reg, packed, packing)
        return packed
    if packing:
        return np.take(reg, p.gather_index())
    reg[p.gather_index()] = _as_u8(data)


# --- interpreted engine -------------------------------------------------
#
# Node plans mirror the tree one to one, in three shapes:
#
#   ("runs", ((displ, nbytes), ...))          contiguous byte runs
#   ("blocks", ((displ, n), ...), ext, plan)  n inner instances, `ext` apart,
#                                             at each byte displacement
#   ("struct", (plan, ...))                   members in order
#
# The only lookahead is that a constructor whose inner type is a bare base
# kind emits each of its blocks as one run, which is the granularity the
# constructor itself describes.


def _prep(t: Datatype):
    if isinstance(t, Base):
        return ("runs", ((0, t.kind.size),))
    if isinstance(t, Resized):
        return _prep(t.inner)
    if isinstance(t, Composite):
        return ("struct", tuple(_placed(member, _extent(member), ((displ, count),))
                                for count, displ, member in t.members))
    if not isinstance(t, (Contiguous, Vector, HVector, Indexed, IndexedBlock)):
        raise MalformedType(f"not a datatype node: {t!r}")
    ext = _extent(t.inner)
    if isinstance(t, Contiguous):
        blocks = ((0, t.count),)
    elif isinstance(t, Vector):
        blocks = tuple((i * t.stride * ext, t.blocklen) for i in range(t.count))
    elif isinstance(t, HVector):
        blocks = tuple((i * t.stride_bytes, t.blocklen) for i in range(t.count))
    elif isinstance(t, Indexed):
        blocks = tuple((d * ext, bl) for bl, d in t.blocks)
    else:
        blocks = tuple((d * ext, t.blocklen) for d in t.displs)
    return _placed(t.inner, ext, blocks)


def _extent(t: Datatype) -> int:
    return t.kind.size if isinstance(t, Base) else commit(t).extent


def _placed(inner: Datatype, ext: int, blocks: tuple) -> tuple:
    """Plan for `n` consecutive instances of `inner`, `ext` apart, at each
    (displ, n) of `blocks`."""
    if isinstance(inner, Base):
        return ("runs", tuple((d, n * ext) for d, n in blocks))
    return ("blocks", blocks, ext, _prep(inner))


def _walk(plan, src, dst, base: int, pos: int, packing: bool) -> int:
    """Copy one instance's runs between the region, at `base` plus each
    run's displacement, and the packed payload, at `pos`; returns the
    payload position after the last run.  Packing reads the region and
    writes the payload, unpacking the other way round."""
    tag = plan[0]
    if tag == "runs":
        for displ, n in plan[1]:
            if packing:
                s, d = base + displ, pos
            else:
                s, d = pos, base + displ
            if n >= _BYTE_LOOP_LIMIT:
                dst[d : d + n] = src[s : s + n]
            else:
                for i in range(n):
                    dst[d + i] = src[s + i]
            pos += n
        return pos
    if tag == "blocks":
        _, blocks, ext, inner = plan
        for displ, n in blocks:
            for i in range(n):
                pos = _walk(inner, src, dst, base + displ + i * ext, pos, packing)
        return pos
    if tag == "struct":
        for part in plan[1]:
            pos = _walk(part, src, dst, base, pos, packing)
        return pos
    raise AssertionError(f"unknown plan tag {tag!r}")


def pack(t: Datatype | CommittedType, count: int, src) -> bytes:
    """Pack `count` instances from `src` with the interpreted engine."""
    return InterpretedEngine(t, count).pack_message(src)


def unpack(t: Datatype | CommittedType, count: int, data, dst) -> None:
    """Scatter packed payload back into `dst`, leaving gap bytes alone."""
    InterpretedEngine(t, count).unpack_message(data, dst)


# --- engine objects for the transport layer -----------------------------


class InterpretedEngine:
    name = "interpreted"

    def __init__(self, t: Datatype | CommittedType, count: int):
        if count < 0:
            raise MalformedType(f"count must be >= 0, got {count}")
        self.committed = commit(t)
        self.count = count
        self.total_bytes = self.committed.size * count
        self.origin, self.span = window(self.committed, count)
        self._plan = _prep(self.committed.datatype)
        self.is_contiguous = False  # never shortcuts; that is the point

    def pack_message(self, region) -> bytes:
        return self._copy(region)

    def unpack_message(self, data, region) -> None:
        self._copy(region, data)

    def _copy(self, region, data=None):
        """The interpreted copy in either direction.  Without `data`, pack
        the instances out of `region` and return the payload; with `data`,
        unpack it into `region`, leaving gap bytes alone."""
        packing = data is None
        if not packing:
            _check_payload(data, self.total_bytes)
        _check_region(region, self.origin, self.span,
                      "source" if packing else "destination")
        if self.total_bytes == 0:
            return b""
        reg = memoryview(region)
        if packing:
            out = bytearray(self.total_bytes)
            src, dst = reg, out
        elif reg.readonly:
            raise TypeError("destination region is read-only")
        else:
            src, dst = memoryview(data), reg
        pos = 0
        ext = self.committed.extent
        for i in range(self.count):
            pos = _walk(self._plan, src, dst, i * ext - self.origin, pos, packing)
        assert pos == self.total_bytes
        return bytes(out) if packing else None


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
        """Payload of `region`; a view into it when the layout is one
        contiguous run that fills the window."""
        if self.is_contiguous:
            _check_region(region, self.origin, self.span, "source")
            return memoryview(region)[: self.span]
        return _run_program(self.program, region)

    def unpack_message(self, data, region) -> None:
        if self.is_contiguous:
            _check_payload(data, self.total_bytes)
            _check_region(region, self.origin, self.span, "destination")
            memoryview(region)[: self.span] = data
            return
        _run_program(self.program, region, data)


ENGINES = ("interpreted", "compiled")


def make_engine(name: str, t: Datatype | CommittedType, count: int):
    if name == "interpreted":
        return InterpretedEngine(t, count)
    if name == "compiled":
        return CompiledEngine(t, count)
    raise ValueError(f"unknown engine {name!r}; expected one of {ENGINES}")
