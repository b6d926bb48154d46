"""Pack and unpack engines over flattened layouts.

Every engine is an `_Engine`, which commits the type once, holds the
payload size and region window, and owns the one copy routine, `_copy`,
for both directions: it checks the payload size, the region size and a
writable destination, returns `b""` for an empty payload and sends a layout
that fills its window in one run (`is_contiguous`) straight from the
region.  So packing and unpacking cannot drift apart, and no engine skips
a check.  An engine supplies only `_move`, the copy of a non-empty payload:

* interpreted: one walker (`_walk`) steps through the constructor tree
  instance by instance, copying each contiguous run with one slice, from
  the region to the packed payload, from the payload to the region, or
  from one region to the same place in another.  Deliberately naive; it
  models a library that performs no cross-constructor analysis, so deeply
  fragmented descriptions pay their full per-block overhead.
* compiled: a copy program for `count` instances of the committed type,
  executed with bulk (vectorized) moves.  The program is a view, a tuple of
  pieces or the gather (`CompiledEngine.strategy`).  It is compiled from the
  closed form of its segment list (`typecore.flatten`): its segment count
  and its pieces follow from the form, which the splitter reads through
  windows (`ClosedForm.between`), so the canonical segment list is built
  only for the paths that read it whole:
  - view: a layout that is one contiguous run filling its window is sent
    straight from the region;
  - pieces: the segment list split greedily into pieces
    (`CompiledEngine.pieces`), each either a lone segment, moved with one
    slice, or `rows` repetitions of a pattern of up to 8 segments at a
    uniform byte period.  The region is viewed as `rows` rows `period`
    bytes apart and the payload as the same fields back to back, and a
    periodic piece moves in each direction by one of three kernels, picked
    once per program from a constant table of the pattern's shape
    (`_KERNELS`): record (one assignment of whole records, a field of the
    pattern per record field, or one item per row for a pattern of one
    segment), blocked word columns (each field split into aligned integer
    words, the columns copied a block of rows at a time) or a strided
    column per field (staged through a contiguous copy of it where that is
    faster).  A tiling whose instances join is a head, one periodic run
    and a tail; one row plus one column is two pieces.  A list of at most
    64 segments always runs as pieces, at most one per segment; a longer
    one only when it splits into at most 8;
  - gather: anything else moves as words of width w, the widest of 8, 4, 2
    and 1 bytes that divides every segment's region offset and length,
    through an index of `total_bytes / w` word positions.

`unpack_from(src, src_region, region)` copies the payload another engine
would pack from its region straight into this engine's region, with the
checks of that pack and of this unpack.  When both engines have the same
`copy_key`, it copies region to region in one pass, with no payload in
between (`_move_across`); otherwise it packs and unpacks.  An engine
supplies only the key and the pass:

* interpreted: the key is the engine's name, the tree and the count, and
  the pass is one walk of the tree, each run copied with one slice from
  the sender's region to the same place in the receiver's.  Keys compare
  the trees by identity first, so two engines of one committed type never
  compare index tables by value.
* compiled: the key is the pieces, measured from the window origin.  A
  direct copy moves one slice per lone piece and each periodic piece by
  the kernel the table gives it for copying across.  Its records never
  carry the gap bytes between fields along: a record is copied into the
  same record under other field names, which numpy assigns field by
  field (`_renamed`), and never into an identical one.  A view or a gather
  has no key (a view is already sent straight from the region, and a
  gather would still build the payload with `np.take`), so it packs and
  unpacks.  The key is built on the first transfer.

A compiled program of at most `_RUNS_MAX` segments also lists them as
slices of the region in payload order (`CompiledEngine.runs`, one for a
view), so a transport can move the payload straight between a socket and
the region (`run_views`); the interpreted engine lists none, and always
packs and unpacks.

Both read gaps never and write gaps never, so sentinel bytes between
segments survive a round trip untouched.  Regions and payloads may be any
C-contiguous buffer; both engines count and move them as bytes, whatever
their element type.  `make_engine` builds an engine by its `name`.
"""

from __future__ import annotations

import weakref
from functools import cached_property, reduce
from itertools import accumulate, repeat
from operator import or_
from typing import NamedTuple

import numpy as np

from .typecore import (
    Base,
    ClosedForm,
    Composite,
    Contiguous,
    Datatype,
    CommittedType,
    FlatLayout,
    HVector,
    Resized,
    Vector,
    block_table,
    checked_count,
    commit,
    extent,
    flatten,
    vector_stride,
    window,
)

# a list of at most this many segments always runs as pieces, at most one
# per segment; a longer one runs as pieces only when it splits into at most
# `_PIECES_MAX`, and otherwise gathers
_SHORT_LIST = 64
# a periodic piece needs at least this many repetitions of its pattern
# before a strided copy is worth using
_PERIOD_MIN_ROWS = 8
# longest pattern a periodic piece may repeat
_PERIOD_PATTERN_MAX = 8
# most pieces of a list longer than `_SHORT_LIST` segments
_PIECES_MAX = 8
# segments compared in the first and in every later step when following
# a periodic run
_RUN_FIRST_BLOCK = 256
_PERIOD_CHECK_BLOCK = 1 << 16
# most segments a program lists as region runs (`CompiledEngine.runs`): a
# socket call gathers at most IOV_MAX buffers (1024 on Linux), one of them
# the frame header
_RUNS_MAX = 1023
# a gather index starts this many bytes past a page boundary (see
# CompiledEngine.gather_index)
_INDEX_PAGE_OFFSET = 2048
_PAGE = 4096


class RegionTooSmall(ValueError):
    """Raised when a source or destination region cannot hold the layout."""


class SizeMismatch(ValueError):
    """Raised when packed data length does not match the layout payload."""


def _byte_view(buf) -> memoryview:
    """`buf` as a flat memoryview of bytes, whatever its element type; a
    buffer that is not C-contiguous raises TypeError."""
    view = memoryview(buf)
    return view if view.format == "B" and view.ndim == 1 else view.cast("B")


_U8 = np.dtype(np.uint8)


def _as_u8(buf) -> np.ndarray:
    # an identity test: any other uint8 dtype object takes the frombuffer path
    if isinstance(buf, np.ndarray) and buf.dtype is _U8 and buf.ndim == 1:
        return buf
    return np.frombuffer(_byte_view(buf), dtype=np.uint8)


class _Engine:
    """The contract every engine keeps.  A subclass names itself (`name`)
    and supplies `_move`; it may set `is_contiguous` for a layout that is
    one run filling its window, which `_copy` then sends as a view, and a
    `copy_key` with `_move_across` to copy straight between regions."""

    name: str
    is_contiguous = False
    # equal for two engines that copy straight between their regions
    # (`unpack_from`); None for an engine that packs and unpacks
    copy_key = None
    # slices of the region holding the payload, in payload order, for a
    # transport to move it straight between a socket and the region
    # (`run_views`); None for an engine that packs and unpacks
    runs = None
    # weak reference to the last engine `unpack_from` found to have this
    # engine's `copy_key`: keys never change, so it is not compared again,
    # and a weak one, so two engines that copy from each other form no cycle
    _same_key = None

    def __init__(self, t: Datatype | CommittedType, count: int):
        count = checked_count(count)
        self.committed = commit(t)
        self.count = count
        self.total_bytes = self.committed.size * count
        self.origin, self.span = window(self.committed, count)

    def pack_message(self, region):
        """Payload of `region`; a view into it when the layout is one
        contiguous run that fills the window."""
        return self._copy(region)

    def unpack_message(self, data, region) -> None:
        """Scatter `data` into `region`, leaving gap bytes alone."""
        self._copy(region, data)

    def unpack_from(self, src: "_Engine", src_region, region) -> None:
        """Copy the payload `src` would pack from `src_region` into
        `region`, with the checks of that pack and of this unpack: from an
        engine of the same `copy_key`, in one pass from region to region
        (`_move_across`); from any other engine, by packing and unpacking."""
        if self._same_key is None or self._same_key() is not src:
            key = self.copy_key
            if key is None or src.copy_key != key:
                self.unpack_message(src.pack_message(src_region), region)
                return
            self._same_key = weakref.ref(src)
        src._checked(src_region)
        if self._checked(region, src.total_bytes) is not None:
            self._move_across(src_region, region)

    def run_views(self, region, have: int | None = None) -> list[memoryview]:
        """Byte views of `region`'s `runs`, in payload order, after the
        checks of a pack (`have` None) or of an unpack of `have` bytes
        (`_checked`).  Only an engine with `runs` has them."""
        view = self._checked(region, have)
        if view is None:
            return []
        return list(map(_byte_view(view).__getitem__, self.runs))

    def _checked(self, region, have: int | None = None) -> memoryview | None:
        """The checks of every copy.  `have` is the size of the payload to
        unpack, or None to pack.  Raises SizeMismatch for a payload of the
        wrong size, RegionTooSmall for a region short of the window and
        TypeError for a read-only destination; returns the region's view,
        or None when the payload is empty and there is nothing to move."""
        packing = have is None
        if not packing and have != self.total_bytes:
            raise SizeMismatch(f"packed data holds {have} bytes, "
                               f"layout payload is {self.total_bytes}")
        view = memoryview(region)
        if view.nbytes < self.span:
            raise RegionTooSmall(
                f"{'source' if packing else 'destination'} region holds {view.nbytes} "
                f"bytes, layout spans {self.span} (window starts at byte {self.origin})"
            )
        if self.total_bytes == 0:
            return None
        if not packing and view.readonly:
            raise TypeError("destination region is read-only")
        return view

    def _copy(self, region, data=None):
        """The copy in either direction.  Without `data`, pack `region` and
        return the payload; with `data`, unpack it into `region`."""
        packing = data is None
        view = self._checked(region, None if packing else memoryview(data).nbytes)
        if view is None:
            return b""
        if self.is_contiguous:
            window_bytes = _byte_view(view)[: self.span]
            if packing:
                return window_bytes
            window_bytes[:] = _byte_view(data)
            return None
        return self._move(region, data)

    def _move(self, region, data):
        """Pack a non-empty payload out of `region` and return it, or, given
        `data`, unpack it into `region`; sizes are already checked."""
        raise NotImplementedError

    def _move_across(self, src_region, region) -> None:
        """Copy a non-empty payload's bytes from `src_region` to the same
        positions of `region`, and no other byte; both regions are already
        checked, and the engines share a `copy_key`."""
        raise NotImplementedError


# --- interpreted engine -------------------------------------------------
#
# Node plans mirror the tree one to one, in three shapes:
#
#   ("runs", ((displ, nbytes), ...))           contiguous byte runs
#   ("blocks", ((displ, n, step), ...), plan)  n inner instances, `step`
#                                              bytes apart, from each
#                                              byte displacement
#   ("struct", (plan, ...))                    members in order
#
# Plans are made from committed trees only, so every node is a checked
# constructor; strides and extents are read by typecore's rules
# (`vector_stride`, `extent`).
#
# The only lookahead is that a constructor whose inner type is a bare base
# kind emits each of its blocks as one run, which is the granularity the
# constructor itself describes, and that a vector of single instances is
# one strided block of them, as a contiguous count is.  The walker visits
# the instances of one block in one loop, so every instance costs one loop
# step whatever its depth, and only a block or a struct member costs a
# call.


def _prep(t: Datatype):
    if isinstance(t, Base):
        return ("runs", ((0, t.kind.size),))
    if isinstance(t, Resized):
        return _prep(t.inner)
    if isinstance(t, Composite):
        return ("struct", tuple(_placed(member, extent(member), ((displ, count),))
                                for count, displ, member in t.members))
    ext = extent(t.inner)
    if isinstance(t, Contiguous):
        blocks = ((0, t.count),)
    elif isinstance(t, (Vector, HVector)):
        stride = vector_stride(t, ext)
        if t.blocklen == 1 and not isinstance(t.inner, Base):
            return ("blocks", ((0, t.count, stride),), _prep(t.inner))
        blocks = tuple((i * stride, t.blocklen) for i in range(t.count))
    else:
        lens, displs = block_table(t, ext)
        blocks = tuple(zip(displs.tolist(), lens.tolist()))
    return _placed(t.inner, ext, blocks)


def _placed(inner: Datatype, ext: int, blocks: tuple) -> tuple:
    """Plan for `n` consecutive instances of `inner`, `ext` apart, at each
    (displ, n) of `blocks`."""
    if isinstance(inner, Base):
        return ("runs", tuple((d, n * ext) for d, n in blocks))
    return ("blocks", tuple((d, n, ext) for d, n in blocks), _prep(inner))


def _walk(plan, src, dst, bases, pos: int, way: str) -> int:
    """Copy the runs of one instance of `plan` at each region base of
    `bases`, instance by instance, and return the payload position after
    the last run.  `way` is "pack" (region `src` to payload `dst`, from
    `pos` on), "unpack" (payload `src` to region `dst`) or "across" (region
    `src` to the same positions of region `dst`, with no payload, so `pos`
    is returned as given)."""
    tag = plan[0]
    if tag == "runs":
        runs = plan[1]
        if way == "pack":
            for base in bases:
                for displ, n in runs:
                    s = base + displ
                    dst[pos : pos + n] = src[s : s + n]
                    pos += n
        elif way == "unpack":
            for base in bases:
                for displ, n in runs:
                    d = base + displ
                    dst[d : d + n] = src[pos : pos + n]
                    pos += n
        else:
            for base in bases:
                for displ, n in runs:
                    at = base + displ
                    dst[at : at + n] = src[at : at + n]
        return pos
    if tag == "blocks":
        _, blocks, inner = plan
        for base in bases:
            for displ, n, step in blocks:
                start = base + displ
                group = range(start, start + n * step, step) if step else repeat(start, n)
                pos = _walk(inner, src, dst, group, pos, way)
        return pos
    if tag == "struct":
        for base in bases:
            for part in plan[1]:
                pos = _walk(part, src, dst, (base,), pos, way)
        return pos
    raise AssertionError(f"unknown plan tag {tag!r}")


class InterpretedEngine(_Engine):
    """Walks the constructor tree for every message, even a contiguous
    one: it never sends the region itself, which is the point."""

    name = "interpreted"

    def __init__(self, t: Datatype | CommittedType, count: int):
        super().__init__(t, count)
        # `count` instances, one extent apart, from the window origin
        self._plan = ("blocks", ((-self.origin, count, self.committed.extent),),
                      _prep(self.committed.datatype))
        # the tree and the count place every run; keys compare the tree by
        # identity first, so two engines of one type never compare tables
        self.copy_key = (self.name, self.committed.datatype, count)

    def _move(self, region, data):
        reg = _byte_view(region)
        if data is None:
            out = bytearray(self.total_bytes)
            pos = _walk(self._plan, reg, out, (0,), 0, "pack")
        else:
            pos = _walk(self._plan, _byte_view(data), reg, (0,), 0, "unpack")
        assert pos == self.total_bytes
        return bytes(out) if data is None else None

    def _move_across(self, src_region, region) -> None:
        _walk(self._plan, _byte_view(src_region), _byte_view(region), (0,), 0,
              "across")


# --- compiled engine ----------------------------------------------------


class Piece(NamedTuple):
    """`rows` repetitions, `period` bytes apart from `first`, of a pattern
    of segments at byte offsets `rel` within a row, of lengths `pat`.  A
    lone segment is a piece of one row and one segment."""

    rows: int
    period: int
    first: int
    rel: tuple[int, ...]
    pat: tuple[int, ...]

    @property
    def segments(self) -> int:
        return self.rows * len(self.pat)

    @property
    def row_bytes(self) -> int:
        return sum(self.pat)


class CompiledEngine(_Engine):
    """Copy program for `count` instances of a committed type.

    Offsets are absolute layout offsets; subtract `origin` to index the
    region.  The segment arrays are built on first use, and only by the
    paths that read them; the segment count and the pieces come from the
    closed form of the list, so building the engine of a tiling and
    choosing its copy path cost the size of the unit, not the instance
    count.
    What a copy reads (pieces, record dtypes, word width, gather index) is
    built on the first copy that needs it.
    """

    name = "compiled"

    @cached_property
    def _flat(self) -> FlatLayout:
        """The program's canonical segments in closed form; their arrays
        are built only by the paths that read `offsets` and `lengths`."""
        return flatten(self.committed, self.count)

    @property
    def offsets(self) -> np.ndarray:
        return self._flat.offsets

    @property
    def lengths(self) -> np.ndarray:
        return self._flat.lengths

    @property
    def segment_count(self) -> int:
        """Canonical segments of the program, read off its closed form."""
        return self._flat.segment_count

    @cached_property
    def is_contiguous(self) -> bool:
        return self.segment_count == 1 and self.total_bytes == self.span

    @cached_property
    def runs(self) -> tuple[slice, ...] | None:
        """The segments as slices of the region, in payload order: one for
        a view.  None for a program of more than `_RUNS_MAX` segments,
        whose list is not built for them."""
        if self.segment_count > _RUNS_MAX:
            return None
        starts = (self.offsets - self.origin).tolist()
        return tuple(map(slice, starts, map(int.__add__, starts, self.lengths.tolist())))

    @property
    def strategy(self) -> str:
        """The copy path this program runs, read off `pieces`: "view" (the
        region itself is the payload), "pieces" (one slice per lone piece
        and one kernel's move per periodic one) or "gather" (one indexed
        word copy)."""
        return "view" if self.is_contiguous else "gather" if self.pieces is None else "pieces"

    @cached_property
    def word_width(self) -> int:
        """Widest of 8, 4, 2 and 1 bytes that divides every segment's
        region offset and every length, so the gather can move whole
        words of that width."""
        return _word(int(np.bitwise_or.reduce(self.offsets - self.origin)
                         | np.bitwise_or.reduce(self.lengths)))

    @cached_property
    def gather_index(self) -> np.ndarray:
        """Region index, in `word_width`-byte words, of every packed word.

        The index starts half a page past a page boundary.  An index and a
        region of about the same whole number of pages, allocated one
        after the other, otherwise start at nearly the same page offset,
        and a scatter whose index starts just below its region's offset
        stalls on 4K aliasing: rowcol A=2, n=10240 scattered in 18–19 µs
        with the index 16–32 bytes below the region's page offset and in
        14–15.5 µs elsewhere (one core).  A region of megabytes starts 16
        bytes past a page boundary, far from the index's offset."""
        w = self.word_width
        rel = (self.offsets - self.origin) // w
        lens = self.lengths // w
        starts = np.repeat(rel, lens)
        pos = np.arange(self.total_bytes // w, dtype=np.int64)
        seg_base = np.repeat(np.cumsum(lens) - lens, lens)
        raw = np.empty(pos.nbytes + _PAGE, dtype=np.uint8)
        at = (_INDEX_PAGE_OFFSET - raw.ctypes.data) % _PAGE
        index = raw[at : at + pos.nbytes].view(np.int64)
        np.add(starts, pos - seg_base, out=index)
        return index

    @cached_property
    def pieces(self) -> tuple[Piece, ...] | None:
        """The segment list as pieces, each a periodic run or a lone
        segment, split from its closed form (`_split_pieces`): any number
        of a list of at most `_SHORT_LIST` segments, at most `_PIECES_MAX`
        of a longer one, else None, and the program gathers."""
        return _split_pieces(self._flat.form)

    @cached_property
    def piece_records(self) -> tuple[tuple, ...]:
        """Per piece, (region offset, payload offset, payload bytes, rows,
        period, region dtype, payload dtype, fields, moves), from
        `_piece_record`; both dtypes are None and the fields and moves
        empty for a lone segment, which moves as one slice.  Only a program
        of pieces has them, and they are built on its first copy, so each
        periodic piece's kernels are picked once per program."""
        out, pos = [], 0
        for p in self.pieces:
            out.append(_piece_record(p, p.first - self.origin, pos))
            pos += out[-1][2]
        return tuple(out)

    @cached_property
    def _lone_only(self) -> bool:
        """Whether every piece is a lone segment.  A copy of such a program
        views its region and payload as memoryviews of bytes, which slice
        fastest, and packs into a bytearray; any other views them as uint8
        arrays, which numpy views as records fastest, and packs into an
        uninitialized array."""
        return all(p.rows == 1 for p in self.pieces)

    @cached_property
    def copy_key(self) -> tuple | None:
        """What a copy between two regions follows: the pieces, measured
        from the window origin.  Equal for two programs that move every
        payload byte between the same region positions, in the same order,
        and never more pieces than segments, nor more than `_PIECES_MAX`
        for a list longer than `_SHORT_LIST`.  None for a view or a gather,
        which pack and unpack."""
        if self.is_contiguous or self.pieces is None:
            return None
        return tuple(p._replace(first=p.first - self.origin) for p in self.pieces)

    def _move_across(self, src_region, region) -> None:
        """One slice per lone piece, and one move per periodic piece, by
        the kernel its record picked for copying across."""
        view = _byte_view if self._lone_only else _as_u8
        src, dst = view(src_region), view(region)
        for at, _, size, rows, _, _, _, _, moves in self.piece_records:
            if moves:
                _run_move(moves[_ACROSS], rows, src, dst)
            else:
                dst[at : at + size] = src[at : at + size]

    def _move(self, region, data):
        packing = data is None
        if self.pieces is None:
            # whole words, any trailing partial word of the region cut
            reg, w = _as_u8(region), self.word_width
            words = reg[: len(reg) - len(reg) % w].view(f"u{w}")
            if packing:
                return np.take(words, self.gather_index).view(np.uint8)
            words[self.gather_index] = _as_u8(data).view(words.dtype)
            return None
        # per piece, one slice or one move by the piece's kernel for this
        # direction: row i of the region, `period` bytes apart, is record i
        # of the payload
        n = self.total_bytes
        if self._lone_only:
            reg, out = _byte_view(region), bytearray(n) if packing else None
            packed = _byte_view(data if out is None else out)
        else:
            reg, out = _as_u8(region), np.empty(n, dtype=np.uint8) if packing else None
            packed = _as_u8(data) if out is None else out
        way, src, dst = (_PACK, reg, packed) if packing else (_UNPACK, packed, reg)
        for at, pos, size, rows, _, _, _, _, moves in self.piece_records:
            if moves:
                _run_move(moves[way], rows, src, dst)
            elif packing:
                packed[pos : pos + size] = reg[at : at + size]
            else:
                reg[at : at + size] = packed[pos : pos + size]
        return out


def _split_pieces(form: ClosedForm) -> tuple[Piece, ...] | None:
    """`CompiledEngine.pieces` of a segment list in closed form, split
    greedily: from the first segment not yet covered, the longest periodic
    piece that starts there, else that segment alone (`_detect_period`).
    None when a list of more than `_SHORT_LIST` segments needs more than
    `_PIECES_MAX` pieces.  A longer list is read only through windows
    (`ClosedForm.between`), and a tiling's periodic body only over one
    cycle of its unit (`_run_end`), so a tiling is split without building
    its list; a list of at most `_SHORT_LIST` segments is split from its
    materialized list."""
    pieces, i, n = [], 0, form.segment_count
    if form.copies > 1 and n <= _SHORT_LIST:
        # a short tiling is split from its list: each window of it would
        # rebuild the tiling's runs
        form = ClosedForm(*form.materialize())
    while i < n:
        if len(pieces) == _PIECES_MAX and n > _SHORT_LIST:
            return None
        pieces.append(_detect_period(form, i))
        i += pieces[-1].segments
    return tuple(pieces)


def _detect_period(form: ClosedForm, start: int = 0) -> Piece:
    """The longest periodic piece of the segment list starting at segment
    `start`: a pattern of at most `_PERIOD_PATTERN_MAX` segments, each
    within one positive byte period of the first, repeated at that period
    in at least `_PERIOD_MIN_ROWS` whole rows.  Of the patterns covering
    the most segments, the shortest; when no pattern repeats, the segment
    at `start` alone, a piece of one row.

    A pattern of `g` segments repeats while every segment has the length
    of the one `g` before it and lies `period` bytes after it.  The first
    rows are compared in Python, so a wrong candidate fails within a few
    segments, and a run that holds is followed with `_run_end`.  Once a
    piece is found, a longer pattern is followed only if it also holds at
    the first segment past that piece, which it must to cover more; a
    piece that reaches the end of the list ends the search.  So a list
    that is one periodic run, or a run between a head and a tail, costs
    one pass.
    """
    n = form.segment_count
    off, lens = form.between(start, min(start + _PERIOD_MIN_ROWS * _PERIOD_PATTERN_MAX, n))
    o, ln = off.tolist(), lens.tolist()
    best = None
    for g in range(1, _PERIOD_PATTERN_MAX + 1):
        head = _PERIOD_MIN_ROWS * g
        if len(o) < head:
            break
        period = o[g] - o[0]
        if period <= 0:
            continue
        if best is not None:
            if (n - start) // g * g <= best.segments:
                continue
            # the segment past the piece and the one `g` before it
            past = start + best.segments
            off, lens = form.between(past - g, past + 1)
            if lens.item(-1) != lens.item(0) or off.item(-1) - off.item(0) != period:
                continue
        if any(ln[j] != ln[j - g] or o[j] - o[j - g] != period for j in range(g, head)):
            continue
        rel = tuple(x - o[0] for x in o[:g])
        pat = tuple(ln[:g])
        if any(r < 0 or r + m > period for r, m in zip(rel, pat)):
            continue
        rows = (_run_end(form, g, period, start + g, start + head) - start) // g
        if best is None or rows * g > best.segments:
            best = Piece(rows, period, o[0], rel, pat)
            if start + best.segments == n:
                break
    return best or Piece(1, ln[0], o[0], (0,), (ln[0],))


def _run_end(form: ClosedForm, g: int, period: int, lo: int, start: int) -> int:
    """The first segment from `start` on that does not have the length of
    the one `g` before it or does not lie `period` bytes after it, or the
    list's length, given that every segment from `lo` to `start` - 1 does.

    Within the periodic body of a tiling, `g0` segments per row, whether
    a segment passes depends only on its position modulo `g0` once the one
    `g` before it lies in the body too.  So one whole cycle of `g0`
    segments passing there stands for the rest of the body, and only the
    tail after it is checked (`_scan`)."""
    if form.copies > 1:
        joined = form.touching
        g0 = len(form.offsets) - joined
        head = joined * g0
        body_end = head + (form.copies - joined) * g0
        cycle_end = max(lo, head + g) + g0
        if cycle_end <= body_end:
            if start < cycle_end:
                end = _scan(form, g, period, start, cycle_end)
                if end < cycle_end:
                    return end
            start = max(start, body_end)
    return _scan(form, g, period, start, form.segment_count)


def _scan(form: ClosedForm, g: int, period: int, start: int, stop: int) -> int:
    """`_run_end` over segments `start` to `stop` - 1 of the list, or
    `stop` if all pass: checked a block at a time, from `_RUN_FIRST_BLOCK`
    segments growing fourfold up to `_PERIOD_CHECK_BLOCK`, so a run that
    breaks soon costs little and a long list's temporaries stay in
    cache."""
    step = _RUN_FIRST_BLOCK
    while start < stop:
        end = min(start + step, stop)
        off, ln = form.between(start - g, end)
        same = (ln[g:] == ln[:-g]) & (off[g:] - off[:-g] == period)
        if not same.all():
            return start + int(np.argmin(same))
        start, step = end, min(4 * step, _PERIOD_CHECK_BLOCK)
    return stop


_WORD_TYPES = {w: np.dtype(f"u{w}") for w in (1, 2, 4, 8)}


def _field(n: int) -> np.dtype:
    """A segment of `n` bytes as one item: an integer word of 1, 2, 4 or 8
    bytes, else a void."""
    return _WORD_TYPES[n] if n in _WORD_TYPES else np.dtype(f"V{n}")


def _record(offsets, lengths, itemsize: int) -> np.dtype:
    return np.dtype({
        "names": [f"f{j}" for j in range(len(offsets))],
        "formats": [f"V{int(n)}" for n in lengths],
        "offsets": [int(x) for x in offsets],
        "itemsize": int(itemsize),
    })


def _renamed(rec: np.dtype) -> np.dtype:
    """`rec` with other field names: numpy assigns a record of it from one
    of `rec` field by field, as it does between any two record dtypes that
    differ, and so never copies the gap bytes between fields, which it may
    do between two identical ones (`test_renamed_record_copy_leaves_gaps`
    pins this)."""
    if rec.names is None:
        return rec
    return np.dtype({"names": [f"g{j}" for j in range(len(rec.names))],
                     "formats": [rec.fields[name][0] for name in rec.names],
                     "offsets": [rec.fields[name][1] for name in rec.names],
                     "itemsize": rec.itemsize})


# --- kernels of a periodic piece ----------------------------------------
#
# A periodic piece moves, in each direction, by one of three kernels, each a
# set of columns of `rows` items, one strided view on each side:
#
#   record  one column of whole records: the region record and the payload
#           record (packing, unpacking), or the region record and the same
#           record under other field names (across, `_renamed`); numpy moves
#           the fields one after another in chunks of 128 rows.  A pattern
#           of one segment is one item per row (`_field`).
#   words   every field split into the widest aligned words of 8, 4, 2 or 1
#           bytes (`_words`), the columns copied `_WORD_BLOCK_ROWS` rows at a
#           time, so every column of a block after the first finds the
#           block's rows in cache.
#   column  one column per field, an item per row (`_field`); staged, each
#           column goes through a contiguous copy of it.

_KERNEL_NAMES = ("record", "words", "column", "staged")
_PACK, _UNPACK, _ACROSS = range(3)
_WORD_BLOCK_ROWS = 8192

# The kernel of a periodic piece in each direction, by the pattern's shape.
# Each row is a box of shapes: (directions, fields, bytes in the widest
# field, payload bytes per row, period bytes, word alignment of the
# direction's source and destination (`_word`), rows), each a range of
# values with both ends included, and the kernel for the shapes in it.  The
# first row that holds a shape gives its kernel; a shape in no row packs
# and unpacks by record and is copied across by column, as before the
# table (one and the same move for a pattern of one field).  The sweep
# measured patterns of one and two fields, so only the row kept from
# before takes more.  Seeded from the kernel sweep of
# `scripts/bench_layers.py`; figures are medians of its three runs in
# `BENCH_23.json`, 2.56 MB of payload, one core:
#   - words, in every direction, for two fields of at most 12 bytes at
#     most 32 bytes apart on 4-byte words, from `_FEW_ROWS` rows on
#     (bucket's and block's A=2): fields of 4 and 12 bytes 32 bytes apart
#     pack in 582-730 us against 1039-1046 by record and unpack in 646-826
#     against 978-1000; two of 8 bytes 32 apart pack in 598-600 against
#     1356-1397 and unpack in 664-668 against 1365-1378.  Words also win
#     for two 4-byte fields up to 96 bytes apart (unpack 995-1010 us
#     against 1345-1423 at 96) and pack them faster on 2-byte words, where
#     they do not unpack clearly faster (96 bytes apart: 1604 us against
#     1359 by record); no catalog layout has those shapes, so they keep
#     the record;
#   - record across for two fields of 13 bytes or more up to 2048 bytes
#     apart (alternating's A=10): 406-418 us against 570-576 by column for
#     36 and 44 bytes 96 bytes apart, with the gaps untouched (`_renamed`);
#   - staged across for one field of 13-16 bytes at most 24 bytes apart
#     (alternating_repeated's A=2, 16 bytes 24 apart: 533-544 us against
#     713-807 by column), and for fields of at most 8 bytes more than
#     2048 bytes apart, as before for words of 1, 2, 4 or 8 bytes (rowcol
#     A=1000's, 4-byte words 4000 apart: 52-55 us against 58-60 by
#     column);
#   - under `_FEW_ROWS` rows, what each copy sets up outweighs the gains:
#     at 3.2 KB fields of 4 and 12 bytes 32 bytes apart pack in 9.2 us by
#     words against 6.5 by record.
# The table is a constant, so two engines of one program pick the same
# kernels.
_FEW_ROWS = 1024
_ALL = (_PACK, _UNPACK, _ACROSS)
_MANY = 1 << 62
_KERNELS = (
    (_ALL, (2, 2), (1, _MANY), (1, 16), (1, 32), (4, 8), (_FEW_ROWS, _MANY), "words"),
    ((_ACROSS,), (2, 2), (13, _MANY), (1, _MANY), (1, 2048), (1, 8), (1, _MANY), "record"),
    ((_ACROSS,), (1, 1), (13, 16), (1, _MANY), (1, 24), (1, 8), (_FEW_ROWS, _MANY), "staged"),
    ((_ACROSS,), (1, _MANY), (1, 8), (1, _MANY), (2049, _MANY), (1, 8), (1, _MANY), "staged"),
)


def _kernel(way: int, shape: tuple[int, ...]) -> str:
    """The kernel `_KERNELS` gives direction `way` of a periodic piece of
    `shape`: (pattern segments, bytes in the widest, payload bytes per row,
    period, word alignment (`_word`), rows)."""
    for ways, *box, kernel in _KERNELS:
        if way in ways and all(lo <= x <= hi for x, (lo, hi) in zip(shape, box)):
            return kernel
    return "column" if way == _ACROSS else "record"


def _word(bits: int) -> int:
    """The widest of 8, 4, 2 and 1 bytes that divides `bits`, the OR of
    byte offsets, lengths and strides: the widest word that all of them
    are whole numbers of."""
    bits |= 8
    return bits & -bits


def _words(src, dst, lengths, step: int) -> tuple[tuple[int, int, int], ...]:
    """(source offset, destination offset, width) of every word of
    segments at byte offsets `src` and `dst` of lengths `lengths`, each
    word the widest of 8, 4, 2 and 1 bytes that fits the segment and
    divides both its offsets and `step`, every stride of the two sides."""
    out = []
    for s, d, n in zip(src, dst, lengths):
        i = 0
        while i < n:
            w = min(_word((s + i) | (d + i) | step), 1 << ((n - i).bit_length() - 1))
            out.append((s + i, d + i, w))
            i += w
    return tuple(out)


def _piece_record(p: Piece, at: int, pos: int, kernels: tuple[str, ...] | None = None) -> tuple:
    """`CompiledEngine.piece_records` of piece `p`, whose rows start `at`
    bytes into the region and whose payload `pos` bytes into the payload.

    A pattern of one segment is one item per row (`_field`), the region and
    the payload dtype alike.  Otherwise both dtypes have one void field per
    pattern segment: the region record places field j at its offset within
    the period and is only as long as the bytes the pattern covers, so a
    strided view of `rows` records never reaches past the window; the
    payload record places the fields back to back.  The fields are (offset
    within the period, item) of each pattern segment.

    The moves are, for packing, unpacking and copying across in that
    order, (kernel, source step, destination step, columns), each column
    (source offset, source dtype, destination offset, destination dtype),
    as `_run_move` copies them.  Each kernel is `_kernel`'s for the
    direction, or the one `kernels` names (the kernel sweep of
    `scripts/bench_layers.py`)."""
    size = p.rows * p.row_bytes
    if p.rows == 1:
        return (at, pos, size, 1, p.period, None, None, (), ())
    fields = tuple(zip(p.rel, map(_field, p.pat)))
    prefix = tuple(accumulate(p.pat[:-1], initial=0))
    if len(fields) == 1:
        region_rec = packed_rec = fields[0][1]
    else:
        region_rec = _record(p.rel, p.pat, max(r + n for r, n in zip(p.rel, p.pat)))
        packed_rec = _record(prefix, p.pat, p.row_bytes)
    region = [at + r for r in p.rel]
    payload = [pos + q for q in prefix]
    sides = ((region, p.period, region_rec, payload, p.row_bytes, packed_rec),
             (payload, p.row_bytes, packed_rec, region, p.period, region_rec),
             (region, p.period, region_rec, region, p.period, None))
    moves = []
    for way, (src, s_step, s_rec, dst, d_step, d_rec) in enumerate(sides):
        kernel = kernels[way] if kernels else _kernel(way, (
            len(p.pat), max(p.pat), p.row_bytes, p.period,
            _word(reduce(or_, (*src, *dst, *p.pat), s_step | d_step)), p.rows))
        if kernel == "record":
            cols = ((src[0], s_rec, dst[0], _renamed(s_rec) if d_rec is None else d_rec),)
        elif kernel == "words":
            cols = tuple((s, _field(w), d, _field(w))
                         for s, d, w in _words(src, dst, p.pat, s_step | d_step))
        else:
            cols = tuple((s, f, d, f) for s, d, (_, f) in zip(src, dst, fields))
        moves.append((kernel, s_step, d_step, cols))
    return (at, pos, size, p.rows, p.period, region_rec, packed_rec, fields, tuple(moves))


def _run_move(move: tuple, rows: int, src: np.ndarray, dst: np.ndarray) -> None:
    """Copy `rows` rows of one periodic piece from `src` to `dst` by one
    of its moves (`_piece_record`)."""
    kernel, s_step, d_step, cols = move
    if kernel == "words" and rows > _WORD_BLOCK_ROWS:
        pairs = [(np.ndarray((rows,), s_dt, src, s_at, (s_step,)),
                  np.ndarray((rows,), d_dt, dst, d_at, (d_step,)))
                 for s_at, s_dt, d_at, d_dt in cols]
        for lo in range(0, rows, _WORD_BLOCK_ROWS):
            hi = lo + _WORD_BLOCK_ROWS
            for a, b in pairs:
                b[lo:hi] = a[lo:hi]
        return
    for s_at, s_dt, d_at, d_dt in cols:
        col = np.ndarray((rows,), s_dt, src, s_at, (s_step,))
        np.ndarray((rows,), d_dt, dst, d_at, (d_step,))[...] = \
            col.copy() if kernel == "staged" else col


# --- engines by name ----------------------------------------------------

_ENGINE_TYPES = {cls.name: cls for cls in (InterpretedEngine, CompiledEngine)}
ENGINES = tuple(_ENGINE_TYPES)


def make_engine(name: str, t: Datatype | CommittedType, count: int) -> _Engine:
    cls = _ENGINE_TYPES.get(name)
    if cls is None:
        raise ValueError(f"unknown engine {name!r}; expected one of {ENGINES}")
    return cls(t, count)


def pack(t: Datatype | CommittedType, count: int, src) -> bytes:
    """Pack `count` instances from `src` with the interpreted engine."""
    return InterpretedEngine(t, count).pack_message(src)


def unpack(t: Datatype | CommittedType, count: int, data, dst) -> None:
    """Scatter packed payload back into `dst`, leaving gap bytes alone."""
    InterpretedEngine(t, count).unpack_message(data, dst)
