"""Constructor trees for derived datatypes and their flattened byte layouts.

A datatype is an immutable tree built from a small set of constructors over
fixed-width base kinds.  Committing a tree derives its payload size, its
bounds (lb, ub) and the canonical flat layout of one instance.  Flattening
`count` instances tiles the single-instance layout at multiples of the
extent, so two descriptions are interchangeable exactly when their
flattened segment lists agree byte for byte.

Committing a tree derives these once.  The result is the canonical unit
(`FlatLayout`, which carries the size, lb and extent), stored on the tree
node itself, so a later `commit`, `normalize`, `equivalent`, `window` or
engine of the same tree object reads it instead of walking the tree again,
and a tree that holds a committed subtree reads that subtree's unit too.
Nodes are frozen and their index tables read-only, so a stored unit cannot
go stale; the unit's arrays are read-only as well.  The store holds only
the unit, never the `CommittedType` (whose `datatype` points back at the
tree), so tree and unit form no reference cycle and are freed together.
The store is not a field: equality, hashing, `repr`, JSON,
`dataclasses.replace`, pickles and copies ignore it, and a replaced,
unpickled or copied node derives afresh.

Tiling is closed-form: a segment list is held as explicit arrays or as
`count` copies of a unit list `stride` bytes apart (`ClosedForm`), and its
arrays are built only when read, whole (`materialize`) or a window of them
(`between`).  A canonical unit can join the next copy only where its last
segment touches the next one's first; such a tiling is a head, one
periodic run of the joined pattern and a tail, and a single touching
segment is one run.  A Contiguous, Vector or HVector level tiles its inner
form without building the copies; one whose step continues an inner tiling
fuses with it, so `HVector(64000, 1, 80, Vector(5, 2, 4, INT))` and 320000
instances of `Resized(0, 16, Contiguous(2, INT))` hold one form, and only
a step that does not builds the inner tiling's list.  Segment counts and
payload bounds are read off the form; `equivalent` compares two tilings of
as many copies at one stride by their units, and any other two lists a
window at a time.  `bounds` reads (lb, ub) from the tree, or from a
committed node's stored unit, without building segments.  So commit,
normalization and comparison of a regular description grow with the size
of the description, not with its instance count; irregular indexed
tables, struct members, the packer's gather index and the byte oracle
build the lists they read.

An indexed node stores its table once, as a read-only int64 array that
commit, the normalizer and the packer's planner all read without
converting it entry by entry; the JSON codec hands a table to the
constructor as read, and the constructor checks its shape and range.  A
table that is c / k copies of its first k <= 4 rows, each one shift on,
has period k (`table_period`, found once per node and stored next to its
unit): commit places only those k rows and tiles them, and the
normalizer's regular-stride pass reads the same period.  Block placement
is closed-form too: over an inner unit of one segment as long as its
extent (a base kind, say), block j is the single run (displ_j,
blocklen_j x extent), so no instance is expanded only to be merged back.

This module is the one place that knows the node kinds.  Committing
checks each node's own fields (`_check`) in the walk that derives the
layout, before it descends to the node's children, so a bad node is
refused before anything below it allocates; the JSON codec reads each
node's dataclass fields in order through one table of kind names; and
`vector_stride`, `extent` and `ONE_CHILD` give the normalizer and the
packer the vector byte-stride rule, the extent and the one-child kinds.
"""

from __future__ import annotations

import enum
import json
import operator
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import NamedTuple, Union

import numpy as np


class MalformedType(ValueError):
    """Raised when a constructor tree violates a structural constraint."""


class BaseKind(enum.Enum):
    """Fixed-width primitive kinds.  Values are (wire name, size, alignment)."""

    BYTE = ("byte", 1, 1)
    CHAR = ("char", 1, 1)
    SHORT = ("short", 2, 2)
    INT = ("int", 4, 4)
    DOUBLE = ("double", 8, 8)

    @property
    def wire_name(self) -> str:
        return self.value[0]

    @property
    def size(self) -> int:
        return self.value[1]

    @property
    def alignment(self) -> int:
        return self.value[2]

    @classmethod
    def from_name(cls, name: str) -> "BaseKind":
        for kind in cls:
            if isinstance(name, str) and kind.wire_name == name.lower():
                return kind
        raise MalformedType(f"unknown base kind: {name!r}")


# names of the attributes under which `commit` stores a tree's unit,
# `table_period` an indexed node's period, and `block_table` an
# IndexedBlock's blocklens, on the node
_UNIT = "_committed_unit"
_PERIOD = "_table_period"
_BLOCKLENS = "_table_blocklens"


class _Node:
    """What every constructor node shares: a pickle or a copy of a node
    holds its fields only, not the unit `commit` stored on it, so the copy
    derives its own.  `Indexed` and `IndexedBlock`, which also store a
    period (`table_period`) and blocklens, pickle and copy through their
    own `__reduce__`, which passes their fields alone."""

    __slots__ = ()

    def __getstate__(self):
        state = dict(vars(self))
        state.pop(_UNIT, None)
        return state


@dataclass(frozen=True)
class Base(_Node):
    kind: BaseKind


@dataclass(frozen=True)
class Contiguous(_Node):
    count: int
    inner: "Datatype"


@dataclass(frozen=True)
class Vector(_Node):
    """`count` blocks of `blocklen` inner instances, block-to-block stride
    measured in units of the inner extent."""

    count: int
    blocklen: int
    stride: int
    inner: "Datatype"


@dataclass(frozen=True)
class HVector(_Node):
    """Like Vector but the stride is given directly in bytes."""

    count: int
    blocklen: int
    stride_bytes: int
    inner: "Datatype"


def _table(values, row: tuple[int, ...], what: str) -> np.ndarray:
    """`values` as a new read-only int64 array whose rows have shape
    `row`; an empty sequence gives an empty table."""
    try:
        arr = np.array(values, dtype=np.int64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedType(f"{what} must be int64 integers: {exc}") from exc
    if arr.size == 0:
        arr = np.empty((0, *row), dtype=np.int64)
    if arr.ndim != 1 + len(row) or arr.shape[1:] != row:
        shape = str(("n", *row)).replace("'", "")
        raise MalformedType(f"{what} need shape {shape}, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Indexed(_Node):
    """Blocks of varying length at displacements in units of the inner extent.

    `blocks` holds one (blocklen, displ) row per block in serialization
    order; displacements may be unsorted or negative.  Any sequence of
    pairs is accepted and stored once, as a read-only (n, 2) int64 array.
    Equality and hashing are by value.
    """

    blocks: np.ndarray
    inner: "Datatype"

    def __post_init__(self):
        object.__setattr__(self, "blocks", _table(self.blocks, (2,), "indexed blocks"))

    def __eq__(self, other):
        if type(other) is not Indexed:
            return NotImplemented
        return bool(np.array_equal(self.blocks, other.blocks)) and self.inner == other.inner

    def __hash__(self):
        return hash((Indexed, self.blocks.tobytes(), self.inner))

    def __reduce__(self):
        return Indexed, (self.blocks, self.inner)


@dataclass(frozen=True, eq=False)
class IndexedBlock(_Node):
    """Constant-length blocks at displacements in units of the inner extent.

    `displs` is stored once, as a read-only int64 array; equality and
    hashing are by value."""

    blocklen: int
    displs: np.ndarray
    inner: "Datatype"

    def __post_init__(self):
        object.__setattr__(self, "displs", _table(self.displs, (), "indexed_block displs"))

    def __eq__(self, other):
        if type(other) is not IndexedBlock:
            return NotImplemented
        return (self.blocklen == other.blocklen
                and bool(np.array_equal(self.displs, other.displs))
                and self.inner == other.inner)

    def __hash__(self):
        return hash((IndexedBlock, self.blocklen, self.displs.tobytes(), self.inner))

    def __reduce__(self):
        return IndexedBlock, (self.blocklen, self.displs, self.inner)


@dataclass(frozen=True)
class Composite(_Node):
    """Struct-like constructor: members are (count, byte displacement, type)."""

    members: tuple[tuple[int, int, "Datatype"], ...]


@dataclass(frozen=True)
class Resized(_Node):
    """Overrides lb and extent of the inner type without touching its payload.

    Only instance spacing for count > 1 changes; the single-instance
    segments stay where the inner type put them.
    """

    lb: int
    extent: int
    inner: "Datatype"


Datatype = Union[Base, Contiguous, Vector, HVector, Indexed, IndexedBlock, Composite, Resized]

# every constructor and its JSON kind name
_KIND_NAMES = {
    Base: "base",
    Contiguous: "contiguous",
    Vector: "vector",
    HVector: "hvector",
    Indexed: "indexed",
    IndexedBlock: "indexed_block",
    Composite: "struct",
    Resized: "resized",
}
_NODE_KINDS = {name: cls for cls, name in _KIND_NAMES.items()}

# the constructors with one child, `inner`
ONE_CHILD = (Contiguous, Vector, HVector, Indexed, IndexedBlock, Resized)

# the fields each constructor requires to be >= 0, besides the Indexed
# length column and the struct member counts
_NON_NEGATIVE = {
    Contiguous: ("count",),
    Vector: ("count", "blocklen"),
    HVector: ("count", "blocklen"),
    IndexedBlock: ("blocklen",),
    Resized: ("extent",),
}

_EMPTY = np.empty(0, dtype=np.int64)


class ClosedForm(NamedTuple):
    """A canonical segment list in closed form: `copies` copies of the
    unit list (`offsets`, `lengths`), copy i shifted by i * `stride`
    bytes.  One copy is an explicit list.  A tiling (two copies or more)
    has a non-empty unit, and never a unit of one segment that touches the
    next copy, which is one run instead (`_tile`)."""

    offsets: np.ndarray
    lengths: np.ndarray
    copies: int = 1
    stride: int = 0

    @property
    def touching(self) -> bool:
        """Whether each copy's last segment runs into the next copy's
        first, the only join tiling a canonical unit can make."""
        return self.copies > 1 and (self.offsets.item(-1) + self.lengths.item(-1)
                                    == self.offsets.item(0) + self.stride)

    @property
    def segment_count(self) -> int:
        if self.copies == 1:
            return len(self.offsets)
        return self.copies * len(self.offsets) - (self.copies - 1) * self.touching

    def runs(self) -> tuple[tuple, tuple, int, tuple]:
        """The list as a head, `rows` repetitions of a pattern `stride`
        bytes apart, and a tail, each part an (offsets, lengths) pair; row
        i of the pattern is shifted by i * `stride`.

        Copies that do not touch are the unit repeated.  Copies that touch
        join each copy's last segment with the next one's first: the head
        is the unit less its last segment, the pattern that joined segment
        followed by the unit's inner segments one copy on, and the tail the
        last copy's last segment.  An explicit list is all head."""
        off, ln, copies, stride = self
        if copies == 1:
            return (off, ln), (_EMPTY, _EMPTY), 0, (_EMPTY, _EMPTY)
        if not self.touching:
            return (_EMPTY, _EMPTY), (off, ln), copies, (_EMPTY, _EMPTY)
        pattern = (np.concatenate((off[-1:], off[1:-1] + stride)),
                   np.concatenate((ln[-1:] + ln[0], ln[1:-1])))
        tail = (off[-1:] + (copies - 1) * stride, ln[-1:])
        return (off[:-1], ln[:-1]), pattern, copies - 1, tail

    def between(self, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Segments `i` to `j` - 1 as (offsets, lengths) arrays, for
        `i` < `j` <= `segment_count`: slices of an explicit list, and of a
        tiling the parts of `runs` they fall in, the pattern built only for
        the rows they cover."""
        off, ln, copies, stride = self
        if copies == 1:
            return off[i:j], ln[i:j]
        head, (p_off, p_len), rows, tail = self.runs()
        h, g = len(head[0]), len(p_off)
        end = h + rows * g
        parts = [(head[0][i:j], head[1][i:j])] if i < h else []
        lo, hi = max(i, h) - h, min(j, end) - h
        if lo < hi:
            first, last = lo // g, (hi - 1) // g + 1
            cut = slice(lo - first * g, hi - first * g)
            body = np.arange(first, last, dtype=np.int64)[:, None] * stride + p_off
            lens = p_len[None, :].repeat(last - first, axis=0)
            parts.append((body.ravel()[cut], lens.ravel()[cut]))
        if j > end:
            parts.append((tail[0][max(i - end, 0):j - end], tail[1][max(i - end, 0):j - end]))
        if len(parts) == 1:
            return parts[0]
        return tuple(np.concatenate(column) for column in zip(*parts))

    def materialize(self) -> tuple[np.ndarray, np.ndarray]:
        """The list as explicit (offsets, lengths) arrays."""
        return self.between(0, self.segment_count)


_NO_SEGMENTS = ClosedForm(_EMPTY, _EMPTY)


class FlatLayout:
    """Canonical (offset, length) byte segments of `count` instances.

    Segments are kept in serialization order; only runs that are adjacent
    in that order get merged, so order survives canonicalization.  `extent`
    is the span `count` instances occupy (count times the type extent) and
    `lb` is the lower bound of the first instance.

    The list is held in closed form (`form`): explicit arrays, or copies
    of a unit list at a constant stride.  `segment_count`,
    `payload_bounds` and `same_segments` read the closed form; `offsets`
    and `lengths`, read-only arrays, are built on their first read.
    """

    def __init__(self, form: ClosedForm, total_size: int, extent: int, lb: int):
        form.offsets.flags.writeable = form.lengths.flags.writeable = False
        self.form = form
        self.total_size = total_size
        self.extent = extent
        self.lb = lb

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        off, ln = self.form.materialize()
        off.flags.writeable = ln.flags.writeable = False
        return off, ln

    @property
    def offsets(self) -> np.ndarray:
        return self.form.offsets if self.form.copies == 1 else self._arrays[0]

    @property
    def lengths(self) -> np.ndarray:
        return self.form.lengths if self.form.copies == 1 else self._arrays[1]

    @property
    def segment_count(self) -> int:
        return self.form.segment_count

    @property
    def segments(self) -> list[tuple[int, int]]:
        return list(zip(self.offsets.tolist(), self.lengths.tolist()))

    @property
    def overlapping(self) -> bool:
        if self.segment_count < 2:
            return False
        order = np.argsort(self.offsets, kind="stable")
        off = self.offsets[order]
        end = off + self.lengths[order]
        return bool(np.any(end[:-1] > off[1:]))

    @cached_property
    def payload_bounds(self) -> tuple[int, int]:
        """(lowest, end) byte of the segments, or (lb, lb) when there are
        none: the unit's, widened by the reach of its copies.  Computed
        once per layout, so once per committed tree, whatever number of
        committed types and engines read it."""
        off, ln, copies, stride = self.form
        if len(off) == 0:
            return self.lb, self.lb
        reach = (copies - 1) * stride
        return int(off.min()) + min(reach, 0), int((off + ln).max()) + max(reach, 0)

    def same_segments(self, other: "FlatLayout") -> bool:
        """Whether both lists hold the same segments in the same order.
        Two lists of as many copies at one stride compare their units; any
        other two compare `_CHECK_ENTRIES` segments at a time
        (`ClosedForm.between`), so no tiling is built whole."""
        a, b = self.form, other.form
        if (a.copies, a.stride) == (b.copies, b.stride):
            # two tilings of as many copies at one stride hold one list
            # exactly when they hold one unit
            return np.array_equal(a.offsets, b.offsets) and np.array_equal(a.lengths, b.lengths)
        n = a.segment_count
        if n != b.segment_count:
            return False
        for lo in range(0, n, _CHECK_ENTRIES):
            hi = min(lo + _CHECK_ENTRIES, n)
            (a_off, a_len), (b_off, b_len) = a.between(lo, hi), b.between(lo, hi)
            if not (np.array_equal(a_off, b_off) and np.array_equal(a_len, b_len)):
                return False
        return True


@dataclass(frozen=True)
class CommittedType:
    """A validated tree plus its derived size, bounds and unit layout."""

    datatype: Datatype
    size: int
    lb: int
    ub: int
    extent: int
    flat: FlatLayout = field(repr=False)

    @cached_property
    def payload_bounds(self) -> tuple[int, int]:
        """(lowest, end) byte of the unit's segments, or (lb, lb) when it
        has none, read from the unit (`FlatLayout.payload_bounds`), which
        every committed type of one tree shares."""
        return self.flat.payload_bounds


def canonicalize(off: np.ndarray, ln: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop empty segments and merge runs adjacent in serialization order."""
    if len(off) == 0:
        return _EMPTY, _EMPTY
    keep = ln > 0
    if not keep.all():
        off, ln = off[keep], ln[keep]
        if len(off) == 0:
            return _EMPTY, _EMPTY
    if len(off) == 1:
        return off, ln
    starts = np.empty(len(off), dtype=bool)
    starts[0] = True
    np.not_equal(off[:-1] + ln[:-1], off[1:], out=starts[1:])
    if starts.all():
        return off, ln
    # integer sums, so merged lengths stay exact at any size
    return off[starts], np.add.reduceat(ln, np.flatnonzero(starts))


def _tile(form: ClosedForm, count: int, stride: int) -> ClosedForm:
    """`count` copies of a canonical segment list, copy i shifted by
    i * `stride`, in closed form.

    A canonical list has no empty segment and no neighbours that touch, so
    the only join tiling can make is one copy's last segment with the next
    copy's first (`ClosedForm.runs`), and the copies of a unit are
    canonical as they stand.  A single segment that touches the next copy becomes one
    run of `count` times its length.  A step that continues a tiling (the
    tiling's copies times its stride) fuses the two levels into one tiling
    of the inner unit; any other step tiles the tiling's explicit list.
    """
    off, ln, copies, step = form
    if count == 0 or len(off) == 0:
        return _NO_SEGMENTS
    if count == 1:
        return form
    if copies > 1:
        if stride == copies * step:
            return ClosedForm(off, ln, copies * count, step)
        off, ln = form.materialize()
    if len(off) == 1 and ln[0] == stride:
        return ClosedForm(off, ln * count)
    return ClosedForm(off, ln, count, stride)


def _place_blocks(
    blocklens: np.ndarray,
    displs: np.ndarray,
    inner: tuple[np.ndarray, np.ndarray],
    inner_extent: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Lay out ragged blocks: block j holds blocklens[j] inner instances
    starting at byte displacement displs[j], instances spaced by the inner
    extent.  Serialization order is block order, then instance order.

    An inner unit of one segment as long as its extent fills each block
    densely, so block j is the single run (displs[j] + offset, blocklens[j]
    times the extent), with no instance expanded.
    """
    in_off, in_ln = inner
    if len(in_off) == 1 and in_ln[0] == inner_extent:
        return canonicalize(displs + in_off[0], blocklens * inner_extent)
    total = int(blocklens.sum())
    if total == 0:
        return _EMPTY, _EMPTY
    base = np.repeat(displs, blocklens)
    intra = np.arange(total, dtype=np.int64)
    run_starts = np.repeat(np.cumsum(blocklens) - blocklens, blocklens)
    instance_off = base + (intra - run_starts) * inner_extent
    out_off = (instance_off[:, None] + in_off[None, :]).ravel()
    out_len = np.tile(in_ln, total)
    return canonicalize(out_off, out_len)


def block_bounds(blocklens: np.ndarray, displs: np.ndarray, lb: int, ub: int) -> tuple[int, int]:
    """Bounds of indexed blocks without building their segments: block j
    holds blocklens[j] instances of an inner type with bounds (lb, ub),
    the first at byte displs[j], and spans from that instance's lb to its
    last instance's ub.  Empty blocks do not count."""
    live = blocklens > 0
    if not live.all():
        if not live.any():
            return 0, 0
        blocklens, displs = blocklens[live], displs[live]
    return (int(displs.min()) + lb,
            int((displs + (blocklens - 1) * (ub - lb)).max()) + ub)


# (size, lb, ub) of a node with no placed instances
_NOTHING = (0, 0, 0)


def block_table(t: Indexed | IndexedBlock, ext: int = 1,
                rows: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(blocklens, displacements) of an indexed node's blocks, or of its
    first `rows` blocks, read from its stored table, displacements in units
    of `ext` bytes.  Nothing is copied but displacements scaled by an `ext`
    other than 1: the rest are read-only views of the table, and an
    IndexedBlock's blocklens slices of one broadcast of its blocklen over
    the whole table, made on the first call and stored on the node."""
    if isinstance(t, Indexed):
        lens, displs = t.blocks[:rows, 0], t.blocks[:rows, 1]
    else:
        lens = getattr(t, _BLOCKLENS, None)
        if lens is None:
            lens = np.broadcast_to(np.int64(t.blocklen), t.displs.shape)
            object.__setattr__(t, _BLOCKLENS, lens)
        lens, displs = lens[:rows], t.displs[:rows]
    return lens, displs if ext == 1 else displs * ext


# longest period `table_period` looks for; and how much a full check
# compares at a time: table entries in `table_period` (a multiple of both
# row widths), segments in `FlatLayout.same_segments`
_PERIOD_MAX = 4
_CHECK_ENTRIES = 32768


def table_period(t: Indexed | IndexedBlock) -> tuple[int, int] | None:
    """(k, shift) for the smallest k in 1..4 such that the node's table of
    c >= max(3, 2k) rows, c a multiple of k, is c / k copies of its first
    k rows, copy m shifted by m * shift displacement units; None if there
    is no such k.

    A candidate k is refused from the first 2k and the last k rows before
    the whole table is compared, so an irregular table costs O(1); the
    whole table is compared `_CHECK_ENTRIES` entries at a time, each row
    against the one k before it, so no temporary is larger than one such
    block.  The result is stored on the node, next to its committed unit."""
    found = getattr(t, _PERIOD, False)
    if found is False:
        found = _find_period(t.blocks if isinstance(t, Indexed) else t.displs)
        object.__setattr__(t, _PERIOD, found)
    return found


def _find_period(table: np.ndarray) -> tuple[int, int] | None:
    """`table_period` of a stored table: (blocklen, displ) rows, or
    displacements alone."""
    c = len(table)
    if c < 3:
        return None
    rows = table.reshape(c, -1)
    width = rows.shape[1]
    # every candidate's first 2k and last k rows
    head, tail = rows[:2 * _PERIOD_MAX].tolist(), rows[-_PERIOD_MAX:].tolist()
    for k in range(1, _PERIOD_MAX + 1):
        if c % k or c < 2 * k:
            continue
        shift = head[k][-1] - head[0][-1]
        if (head[k:2 * k] == _shifted(head[:k], shift)
                and tail[-k:] == _shifted(head[:k], (c // k - 1) * shift)
                and _repeats(rows.reshape(-1), k * width, [0] * (width - 1) + [shift])):
            return k, shift
    return None


def _shifted(rows: list[list[int]], by: int) -> list[list[int]]:
    """Table rows, as lists, with `by` added to each displacement (the
    last entry of a row)."""
    return [row[:-1] + [row[-1] + by] for row in rows]


def _repeats(flat: np.ndarray, lag: int, step: list[int]) -> bool:
    """Whether every entry of the flattened table `flat` from 2 * `lag` on
    is the entry `lag` before it plus the step of its column (`step`, one
    row's worth), compared `_CHECK_ENTRIES` entries at a time."""
    steps = np.tile(np.array(step, dtype=np.int64), min(len(flat), _CHECK_ENTRIES) // len(step))
    for lo in range(2 * lag, len(flat), _CHECK_ENTRIES):
        hi = min(lo + _CHECK_ENTRIES, len(flat))
        if not bool((flat[lo:hi] - flat[lo - lag:hi - lag] == steps[:hi - lo]).all()):
            return False
    return True


def _unit_blocks(t: Indexed | IndexedBlock, ext: int) -> tuple[np.ndarray, np.ndarray, int, int]:
    """An indexed node's blocks as (blocklens, displs, copies, step):
    `copies` copies of the blocks (blocklens, displs), displacements in
    bytes, copy m shifted by m * `step` bytes.  A table of period k
    (`table_period`) is its first k rows, c / k times; any other table is
    itself, once."""
    period = table_period(t)
    if period is None:
        return (*block_table(t, ext), 1, 0)
    k, shift = period
    lens, displs = block_table(t, ext, k)
    c = len(t.blocks if isinstance(t, Indexed) else t.displs)
    return lens, displs, c // k, shift * ext


def vector_stride(t: Vector | HVector, ext: int) -> int:
    """Byte stride between the blocks of a vector node whose inner type
    has extent `ext`."""
    return t.stride_bytes if isinstance(t, HVector) else t.stride * ext


def _wrapped_bounds(t: Datatype, inner: tuple[int, int, int], table=None) -> tuple[int, int, int]:
    """(size, lb, ub) of a one-child node whose child has (size, lb, ub)
    `inner`; `table` is an indexed node's `_unit_blocks`, if already made.

    Each placed inner instance contributes [displ + inner lb, displ + inner
    ub], so a Resized inner widens or narrows the bounds without moving
    payload.  Constructors with no placed instances have lb = ub = 0.  An
    indexed node's bounds are those of its unit blocks widened by the reach
    of their copies, so a periodic table is not scanned.
    """
    size, lb, ub = inner
    if isinstance(t, Resized):
        return size, t.lb, t.lb + t.extent
    if inner == _NOTHING:
        return _NOTHING
    ext = ub - lb
    if isinstance(t, Contiguous):
        if t.count == 0:
            return _NOTHING
        return size * t.count, lb, (t.count - 1) * ext + ub
    if isinstance(t, (Vector, HVector)):
        if t.count == 0 or t.blocklen == 0:
            return _NOTHING
        reach = (t.count - 1) * vector_stride(t, ext)
        return (size * t.blocklen * t.count, lb + min(reach, 0),
                (t.blocklen - 1) * ext + ub + max(reach, 0))
    blocklens, displs, copies, step = table if table is not None else _unit_blocks(t, ext)
    if not (blocklens > 0).any():
        return _NOTHING
    lo, hi = block_bounds(blocklens, displs, lb, ub)
    reach = (copies - 1) * step
    return size * int(blocklens.sum()) * copies, lo + min(reach, 0), hi + max(reach, 0)


def _struct_bounds(t: Composite, members: list[tuple[int, int, int]]) -> tuple[int, int, int]:
    """(size, lb, ub) of a struct whose members have (size, lb, ub)
    `members`; members with no placed instances do not count."""
    size, lo, hi = 0, None, None
    for (count, displ, _), (msize, mlb, mub) in zip(t.members, members):
        if count > 0 and (msize, mlb, mub) != _NOTHING:
            ext = mub - mlb
            size += msize * count
            m_lo, m_hi = displ + mlb, displ + (count - 1) * ext + mub
            lo = m_lo if lo is None else min(lo, m_lo)
            hi = m_hi if hi is None else max(hi, m_hi)
    return _NOTHING if lo is None else (size, lo, hi)


def _size_bounds(t: Datatype) -> tuple[int, int, int]:
    """(size, lb, ub) of one instance; a committed node's are read from its
    stored unit."""
    if isinstance(t, Base):
        return t.kind.size, 0, t.kind.size
    unit = _stored_unit(t)
    if unit is not None:
        return unit.total_size, unit.lb, unit.lb + unit.extent
    if isinstance(t, Composite):
        return _struct_bounds(t, [_size_bounds(m) for _, _, m in t.members])
    if isinstance(t, ONE_CHILD):
        return _wrapped_bounds(t, _size_bounds(t.inner))
    raise MalformedType(f"not a datatype node: {t!r}")


def bounds(t: Datatype | CommittedType) -> tuple[int, int]:
    """(lb, ub) of one instance, as `commit` derives them, from a walk of
    the tree alone: no segment is built, so the cost is the tree's size."""
    if isinstance(t, CommittedType):
        return t.lb, t.ub
    _, lb, ub = _size_bounds(t)
    return lb, ub


def extent(t: Datatype | CommittedType) -> int:
    """Extent of one instance, ub - lb, read as `bounds` reads them."""
    lb, ub = bounds(t)
    return ub - lb


def _stored_unit(t) -> FlatLayout | None:
    """The unit `commit` stored on node `t`, or None."""
    return getattr(t, _UNIT, None)


def _layout(t: Datatype) -> tuple[ClosedForm, int, int, int]:
    """Return (segments, size, lb, ub) for one instance of `t`, with
    bounds by `_wrapped_bounds` and `_struct_bounds`; a committed
    subtree's are read from its stored unit.  Each node is checked before
    its children are derived, so a bad node is refused before anything
    below it allocates.  Contiguous, Vector, HVector and Resized levels
    keep the closed form (`_tile`).  An indexed table of period k
    (`table_period`) places its first k rows from the inner unit's explicit
    list and tiles them, c / k copies one shift apart; any other table's
    blocks, and struct members, are placed from their inner units'
    explicit lists."""
    unit = _stored_unit(t)
    if unit is not None:
        return unit.form, unit.total_size, unit.lb, unit.lb + unit.extent
    _check(t)
    if isinstance(t, Base):
        size = t.kind.size
        return (ClosedForm(np.array([0], dtype=np.int64), np.array([size], dtype=np.int64)),
                size, 0, size)

    if isinstance(t, Composite):
        parts = [_layout(member) for _, _, member in t.members]
        size, lb, ub = _struct_bounds(t, [part[1:] for part in parts])
        parts_off: list[np.ndarray] = []
        parts_len: list[np.ndarray] = []
        for (count, displ, _), (form, msize, mlb, mub) in zip(t.members, parts):
            if count > 0 and (msize, mlb, mub) != _NOTHING:
                m_off, m_ln = _tile(form, count, mub - mlb).materialize()
                parts_off.append(m_off + displ)
                parts_len.append(m_ln)
        out_off, out_ln = canonicalize(
            np.concatenate(parts_off) if parts_off else _EMPTY,
            np.concatenate(parts_len) if parts_len else _EMPTY,
        )
        return ClosedForm(out_off, out_ln), size, lb, ub

    form, *inner = _layout(t.inner)
    ext = inner[2] - inner[1]
    table = _unit_blocks(t, ext) if isinstance(t, (Indexed, IndexedBlock)) else None
    size, lb, ub = _wrapped_bounds(t, tuple(inner), table)
    if isinstance(t, Resized):
        return form, size, lb, ub
    if (size, lb, ub) == _NOTHING:
        return _NO_SEGMENTS, 0, 0, 0
    if isinstance(t, Contiguous):
        form = _tile(form, t.count, ext)
    elif isinstance(t, (Vector, HVector)):
        form = _tile(_tile(form, t.blocklen, ext), t.count, vector_stride(t, ext))
    else:
        lens, displs, copies, step = table
        form = _tile(ClosedForm(*_place_blocks(lens, displs, form.materialize(), ext)), copies, step)
    return form, size, lb, ub


def _kind_name(t: Datatype) -> str:
    try:
        return _KIND_NAMES[type(t)]
    except KeyError:
        raise MalformedType(f"not a datatype node: {t!r}") from None


def _check(t: Datatype) -> None:
    """Refuse node `t` if it is no constructor or one of its own fields is
    out of range; the message names the field and its value."""
    kind = _kind_name(t)
    if isinstance(t, Base):
        if not isinstance(t.kind, BaseKind):
            raise MalformedType(f"base kind must be a BaseKind, got {t.kind!r}")
        return
    for name in _NON_NEGATIVE.get(type(t), ()):
        _at_least_zero(kind, name, getattr(t, name))
    if isinstance(t, Indexed) and len(t.blocks):
        # the unit rows of a periodic table hold every length it has
        _at_least_zero(kind, "blocklen", _unit_blocks(t, 1)[0].min())
    elif isinstance(t, Composite):
        for count, _, _ in t.members:
            _at_least_zero(kind, "member count", count)


def _at_least_zero(kind: str, name: str, value) -> None:
    if value < 0:
        raise MalformedType(f"{kind} {name} must be >= 0, got {value}")


def checked_count(count) -> int:
    """`count` as an int, if it is an integer (numpy's included) of at
    least 0; anything else raises MalformedType."""
    try:
        count = operator.index(count)
    except TypeError:
        raise MalformedType(f"count must be an integer, got {count!r}") from None
    if count < 0:
        raise MalformedType(f"count must be >= 0, got {count}")
    return count


def commit(t: Datatype | CommittedType) -> CommittedType:
    """Validate a tree and derive size, bounds, extent and the unit layout,
    in one walk that checks each node before it derives the node's children.

    The first commit of a tree object derives its unit and stores it on
    the node; every later commit of that object reads it, so committing
    twice is a no-op for a raw tree as for a `CommittedType`.  The tree's
    fields are never changed, and the stored unit holds no reference back
    to the tree (see the module docstring).
    """
    if isinstance(t, CommittedType):
        return t
    unit = _stored_unit(t)
    if unit is None:
        form, size, lb, ub = _layout(t)
        unit = FlatLayout(form, size, ub - lb, lb)
        object.__setattr__(t, _UNIT, unit)
    return CommittedType(t, unit.total_size, unit.lb, unit.lb + unit.extent, unit.extent, unit)


def flatten(t: Datatype | CommittedType, count: int = 1) -> FlatLayout:
    """Canonical segments of `count` instances, instance i shifted by
    i * extent, in closed form (`_tile`).  Canonicalization may merge
    across instance boundaries.  One instance is the committed unit
    itself, so its arrays are built at most once."""
    count = checked_count(count)
    ct = commit(t)
    if count == 1:
        return ct.flat
    if count == 0:
        return FlatLayout(_NO_SEGMENTS, 0, 0, 0)
    return FlatLayout(_tile(ct.flat.form, count, ct.extent), ct.size * count,
                      ct.extent * count, ct.lb)


def window(t: Datatype | CommittedType, count: int) -> tuple[int, int]:
    """Byte window (origin, length) a region must provide for `count`
    instances: layout offset x lives at region index x - origin.  Bounds
    markers and payload both count, so a Resized lower bound above the
    payload still leaves room for the payload."""
    ct = commit(t)
    if count == 0 or ct.size == 0 and ct.lb == 0 and ct.ub == 0:
        return 0, 0
    c_lo, c_hi = ct.payload_bounds
    origin = min(ct.lb, c_lo)
    hi = max(ct.ub, c_hi) + (count - 1) * ct.extent
    return origin, hi - origin


def equivalent(
    t1: Datatype | CommittedType,
    count1: int,
    t2: Datatype | CommittedType,
    count2: int,
) -> bool:
    """True when both descriptions touch the same bytes in the same order.

    Equality is taken over canonical segments, so base kinds inside the
    trees do not matter once their byte footprints coincide.  Unequal
    payload sizes differ at once, and equal counts of units with the same
    extent and the same segments agree without tiling either side.
    """
    count1, count2 = checked_count(count1), checked_count(count2)
    ct1, ct2 = commit(t1), commit(t2)
    if ct1.size * count1 != ct2.size * count2:
        return False
    if count1 == count2 and ct1.extent == ct2.extent and ct1.flat.same_segments(ct2.flat):
        return True
    return flatten(ct1, count1).same_segments(flatten(ct2, count2))


# --- JSON codec ---------------------------------------------------------
#
# Node encoding, one object per constructor:
#   {"kind": "base", "base": "int"}
#   {"kind": "contiguous", "count": c, "inner": ...}
#   {"kind": "vector", "count": c, "blocklen": b, "stride": s, "inner": ...}
#   {"kind": "hvector", "count": c, "blocklen": b, "stride_bytes": s, "inner": ...}
#   {"kind": "indexed", "blocks": [[blocklen, displ], ...], "inner": ...}
#   {"kind": "indexed_block", "blocklen": b, "displs": [...], "inner": ...}
#   {"kind": "struct", "members": [[count, displ_bytes, node], ...]}
#   {"kind": "resized", "lb": l, "extent": e, "inner": ...}
# Strides and displacements of vector/indexed/indexed_block are in units of
# the inner extent; hvector strides and struct displacements are bytes.


def datatype_to_json(t: Datatype) -> dict:
    """The node's JSON object: its kind name, then its fields in order."""
    out: dict = {"kind": _kind_name(t)}
    if isinstance(t, Base):
        out["base"] = t.kind.wire_name
    elif isinstance(t, Composite):
        out["members"] = [[c, d, datatype_to_json(m)] for c, d, m in t.members]
    else:
        for f in fields(t):
            value = getattr(t, f.name)
            if f.name == "inner":
                value = datatype_to_json(value)
            elif isinstance(value, np.ndarray):
                value = value.tolist()
            out[f.name] = value
    return out


def datatype_from_json(obj: dict) -> Datatype:
    """The node a `datatype_to_json` object describes.  Index tables go to
    the constructor as given, which checks their shape and range."""
    if not isinstance(obj, dict) or not isinstance(obj.get("kind"), str):
        raise MalformedType(f"datatype JSON must be an object with a string 'kind': {obj!r}")
    kind = obj["kind"]
    cls = _NODE_KINDS.get(kind)
    if cls is None:
        raise MalformedType(f"unknown datatype kind: {kind!r}")
    try:
        if cls is Base:
            return Base(BaseKind.from_name(obj["base"]))
        if cls is Composite:
            return Composite(tuple(
                (int(c), int(d), datatype_from_json(m)) for c, d, m in obj["members"]))
        args = []
        for f in fields(cls):
            value = obj[f.name]
            if f.name == "inner":
                value = datatype_from_json(value)
            elif f.type != "np.ndarray":
                value = int(value)
            args.append(value)
        return cls(*args)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedType(f"bad {kind!r} node: {exc}") from exc


def datatype_dumps(t: Datatype) -> str:
    return json.dumps(datatype_to_json(t), separators=(",", ":"))


def datatype_loads(text: str) -> Datatype:
    return datatype_from_json(json.loads(text))
