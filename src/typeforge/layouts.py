"""Catalog of benchmark layouts and their alternative descriptions.

One table, `_LAYOUTS`, describes every layout, in catalog order.  Its
entry for a layout id holds:

  build   (spec, params, elem_size, base) -> (tree, count): the layout's
          description over base elements of `elem_size` bytes, after its
          own parameter checks, and how many instances cover the region;
  unit    (spec, params) -> elements per block instance, or None when the
          layout has no block unit;
  family  the ids of its alternative-description family, the reference
          first, or None.

Every layout is parameterized by a unit block size A and derived stride
parameters.  Two fixed parameter variants are supported:

  variant 1: B = A+2,  B1 = A+1,  B2 = A+3,  A1 = A-1,  A2 = A+1
  variant 2: B = 3A,   B1 = 2A,   B2 = 4A,   A1 = A/2,  A2 = 3A/2  (A even)

plus an "explicit" variant that starts every stride at zero; a stride the
spec sets wins under every variant.  `n` is the total element count of
the region a built layout covers (for the heterogeneous tile, where
elements mix kinds, `n` counts payload bytes).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .typecore import (
    Base,
    BaseKind,
    CommittedType,
    Composite,
    Contiguous,
    Datatype,
    HVector,
    Indexed,
    IndexedBlock,
    Resized,
    Vector,
    commit,
)


class BadParams(ValueError):
    """Raised when layout parameters violate a documented constraint."""


CONTIGUOUS = "contiguous"
TILED = "tiled"
BLOCK = "block"
BUCKET = "bucket"
ALTERNATING = "alternating"
TILED_HET = "tiled_het"
CONTIG_SUBTYPE = "contig_subtype"
TILED_STRUCT = "tiled_struct"
TILED_VECTOR = "tiled_vector"
VECTOR_TILED = "vector_tiled"
BLOCK_INDEXED = "block_indexed"
ALTERNATING_INDEXED = "alternating_indexed"
ALTERNATING_REPEATED = "alternating_repeated"
ALTERNATING_STRUCT = "alternating_struct"
ROWCOL_FULLY_INDEXED = "rowcol_fully_indexed"
ROWCOL_CONTIG_INDEXED = "rowcol_contig_indexed"
ROWCOL_STRUCT = "rowcol_struct"

BASIC_IDS = (TILED, BLOCK, BUCKET, ALTERNATING)
ROWCOL_IDS = (ROWCOL_FULLY_INDEXED, ROWCOL_CONTIG_INDEXED, ROWCOL_STRUCT)

VARIANT_EXPLICIT = "explicit"


@dataclass(frozen=True)
class LayoutSpec:
    """Declarative description of one catalog layout instance.

    Unset stride fields are derived from `variant`; S1/S2 are repetition
    counts (the struct tiling split, and S1 doubles as the fixed inner
    repetition of the nested-vector description, default 5).  `kinds` is
    only used by the heterogeneous tile, `subtype` only by the
    contiguous-of-subtype family.
    """

    id: str
    n: int
    A: int = 0
    basetype: BaseKind = BaseKind.INT
    variant: int | str = 1
    B: Optional[int] = None
    A1: Optional[int] = None
    A2: Optional[int] = None
    B1: Optional[int] = None
    B2: Optional[int] = None
    S1: Optional[int] = None
    S2: Optional[int] = None
    subtype: Optional[str] = None
    kinds: Optional[tuple[BaseKind, ...]] = None


@dataclass(frozen=True)
class Params:
    """Fully derived stride parameters for one spec."""

    A: int
    B: int
    A1: int
    A2: int
    B1: int
    B2: int


@dataclass(frozen=True)
class BuiltLayout:
    """A built layout: its committed description, the instance count, and
    the region it covers in elements of `elem_size` bytes."""

    committed: CommittedType
    count: int
    elem_size: int
    total_extent_elems: int
    spec: LayoutSpec

    @property
    def datatype(self) -> Datatype:
        return self.committed.datatype


def _built(t: Datatype | CommittedType, count: int, es: int, spec: LayoutSpec) -> BuiltLayout:
    """Commit `t` once and record the region `count` instances cover."""
    ct = commit(t)
    return BuiltLayout(ct, count, es, count * ct.extent // es, spec)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise BadParams(msg)


def derive_params(spec: LayoutSpec) -> Params:
    """Resolve A-derived strides according to the spec's variant."""
    a = spec.A
    if spec.variant == 1:
        _require(a >= 2, f"variant 1 requires A >= 2, got A={a}")
        p = Params(A=a, B=a + 2, A1=a - 1, A2=a + 1, B1=a + 1, B2=a + 3)
    elif spec.variant == 2:
        _require(a >= 2 and not a % 2, f"variant 2 requires even A >= 2, got A={a}")
        p = Params(A=a, B=3 * a, A1=a // 2, A2=3 * a // 2, B1=2 * a, B2=4 * a)
    elif spec.variant == VARIANT_EXPLICIT:
        p = Params(A=a, B=0, A1=0, A2=0, B1=0, B2=0)
    else:
        raise BadParams(f"unknown variant: {spec.variant!r}")
    p = replace(p, **{name: getattr(spec, name) for name in ("B", "A1", "A2", "B1", "B2")
                      if getattr(spec, name) is not None})
    if spec.id in (ALTERNATING_REPEATED, ALTERNATING_STRUCT):
        # the repeated family pins the second gap to the block it follows,
        # so consecutive pairs tile densely at the seam
        p = replace(p, B2=p.A2)
    return p


def _divisible(n: int, k: int, what: str) -> int:
    _require(k > 0, f"{what}: unit size must be positive, got {k}")
    _require(n % k == 0, f"{what}: n={n} is not divisible by the unit of {k} elements")
    return n // k


def _blocks(spec: LayoutSpec, p: Params) -> int:
    """How many of the layout's block units `spec.n` holds."""
    return _divisible(spec.n, _LAYOUTS[spec.id].unit(spec, p), spec.id)


def _struct_split(spec: LayoutSpec) -> tuple[int, int]:
    """tiled_struct's S1 and S2, 1:1 by default."""
    return (spec.S1 if spec.S1 is not None else 1,
            spec.S2 if spec.S2 is not None else 1)


def _inner_repeats(spec: LayoutSpec) -> int:
    """vector_tiled's inner repetition S1, 5 by default."""
    return spec.S1 if spec.S1 is not None else 5


def _tile_unit(spec: LayoutSpec, p: Params) -> int:
    return p.A


def _block_unit(spec: LayoutSpec, p: Params) -> int:
    return 2 * p.A


def _pair_unit(spec: LayoutSpec, p: Params) -> int:
    return p.A1 + p.A2


def _pair_displs(pairs: int, period: int, second: int) -> np.ndarray:
    """(pairs, 2) displacements of two blocks per period, the second
    `second` after the first."""
    return np.arange(pairs, dtype=np.int64)[:, None] * period + np.array((0, second))


def make_tiled_heterogeneous(A: int, kinds: tuple[BaseKind, ...] | list[BaseKind]) -> Datatype:
    """One tile unit of A elements per kind, members at naturally aligned
    displacements, extent rounded up to the widest member alignment."""
    _require(A >= 1, f"tiled_het requires A >= 1, got A={A}")
    _require(len(kinds) > 0, "tiled_het requires at least one member kind")
    members = []
    cursor = 0
    for kind in kinds:
        align = kind.alignment
        cursor = (cursor + align - 1) // align * align
        members.append((A, cursor, Base(kind)))
        cursor += A * kind.size
    max_align = max(k.alignment for k in kinds)
    extent = (cursor + max_align - 1) // max_align * max_align
    struct: Datatype = Composite(tuple(members))
    # the struct's own extent runs from its first member to the end of
    # its last, which is `cursor`
    if extent != cursor:
        struct = Resized(0, extent, struct)
    return struct


# --- builders: (spec, params, elem_size, base) -> (tree, count) ---------


def _contiguous(spec, p, es, base):
    return base, spec.n


def _tiled(spec, p, es, base):
    _require(p.A >= 1, f"tiled requires A >= 1, got A={p.A}")
    _require(p.B > p.A, f"tiled requires B > A, got B={p.B}, A={p.A}")
    return Resized(0, p.B * es, Contiguous(p.A, base)), _blocks(spec, p)


def _block(spec, p, es, base):
    _require(p.A >= 1, f"block requires A >= 1, got A={p.A}")
    _require(p.B1 >= p.A and p.B2 >= p.A, f"block requires B1,B2 >= A, got {p}")
    _require(p.B1 != p.B2, f"block requires B1 != B2, got B1=B2={p.B1}")
    return Resized(0, (p.B1 + p.B2) * es, IndexedBlock(p.A, (0, p.B1), base)), _blocks(spec, p)


def _bucket(spec, p, es, base):
    _require(p.A1 >= 1 and p.A2 >= 1, f"bucket requires A1,A2 >= 1, got {p}")
    _require(p.A1 != p.A2, f"bucket requires A1 != A2, got A1=A2={p.A1}")
    _require(p.B >= max(p.A1, p.A2), f"bucket requires B >= max(A1,A2), got {p}")
    return Resized(0, 2 * p.B * es, Indexed(((p.A1, 0), (p.A2, p.B)), base)), _blocks(spec, p)


def _alternating(spec, p, es, base):
    _require(p.A1 >= 1 and p.A2 >= 1, f"alternating requires A1,A2 >= 1, got {p}")
    _require(
        p.B1 >= p.A1 and p.B2 >= p.A2,
        f"alternating requires B1 >= A1 and B2 >= A2, got {p}",
    )
    block = Resized(0, (p.B1 + p.B2) * es, Indexed(((p.A1, 0), (p.A2, p.B1)), base))
    return block, _blocks(spec, p)


def _tiled_het(spec, p, es, base):
    unit = commit(make_tiled_heterogeneous(spec.A, spec.kinds or ()))
    return unit, _divisible(spec.n, unit.size, "tiled_het (n in bytes)")


def _contig_subtype(spec, p, es, base):
    _require(
        spec.subtype in BASIC_IDS,
        f"contig_subtype requires subtype in the basic families, got {spec.subtype!r}",
    )
    inner = build(replace(spec, id=spec.subtype))
    return Contiguous(inner.count, inner.datatype), 1


def _tiled_struct(spec, p, es, base):
    s1, s2 = _struct_split(spec)
    _require(s1 >= 1 and s2 >= 1, f"tiled_struct requires S1,S2 >= 1, got ({s1},{s2})")
    _require(p.B >= p.A >= 1, f"tiled_struct requires B >= A >= 1, got {p}")
    tile = Resized(0, p.B * es, Contiguous(p.A, base))
    tree = Composite(((1, 0, Contiguous(s1, tile)), (1, s1 * p.B * es, Contiguous(s2, tile))))
    return tree, _blocks(spec, p)


def _tiled_vector(spec, p, es, base):
    _require(p.B > p.A >= 1, f"tiled_vector requires B > A >= 1, got {p}")
    blocks = _blocks(spec, p)
    return Resized(0, blocks * p.B * es, Vector(blocks, p.A, p.B, base)), 1


def _vector_tiled(spec, p, es, base):
    s = _inner_repeats(spec)
    _require(s >= 1, f"vector_tiled requires S >= 1, got {s}")
    _require(p.B > p.A >= 1, f"vector_tiled requires B > A >= 1, got {p}")
    return HVector(_blocks(spec, p), 1, s * p.B * es, Vector(s, p.A, p.B, base)), 1


def _block_indexed(spec, p, es, base):
    _require(p.B1 >= p.A and p.B2 >= p.A, f"block_indexed requires B1,B2 >= A, got {p}")
    _require(p.B1 != p.B2, f"block_indexed requires B1 != B2, got B1=B2={p.B1}")
    displs = _pair_displs(_blocks(spec, p), p.B1 + p.B2, p.B1).ravel()
    return IndexedBlock(p.A, displs, base), 1


def _alternating_indexed(spec, p, es, base):
    _require(
        p.B1 >= p.A1 and p.B2 >= p.A2,
        f"alternating_indexed requires B1 >= A1 and B2 >= A2, got {p}",
    )
    pairs = _blocks(spec, p)
    blocks = np.empty((pairs, 2, 2), dtype=np.int64)
    blocks[:, :, 0] = (p.A1, p.A2)
    blocks[:, :, 1] = _pair_displs(pairs, p.B1 + p.B2, p.B1)
    return Indexed(blocks.reshape(-1, 2), base), 1


def _alternating_struct(spec, p, es, base):
    # B2 == A2, so all interior blocks line up on a dense grid that a
    # single vector can describe; only the rim blocks need members
    k = _pair_unit(spec, p)
    c = _blocks(spec, p)
    period = p.B1 + p.A2
    members = [(1, 0, Contiguous(p.A1, base))]
    if c > 1:
        members.append((1, p.B1 * es, Vector(c - 1, k, period, base)))
    members.append((1, ((c - 1) * period + p.B1) * es, Contiguous(p.A2, base)))
    return Composite(tuple(members)), 1


def _rowcol(spec: LayoutSpec) -> tuple[int, int]:
    """A and n of a row-column layout: the first row of A elements, then
    column 0 of each later row, n elements in all."""
    _require(spec.A >= 1, f"rowcol requires A >= 1, got A={spec.A}")
    _require(spec.n >= spec.A, f"rowcol requires n >= A, got n={spec.n}, A={spec.A}")
    return spec.A, spec.n


def _later_rows(a: int, n: int) -> np.ndarray:
    return np.arange(1, n - a + 1, dtype=np.int64) * a


def _rowcol_fully_indexed(spec, p, es, base):
    a, n = _rowcol(spec)
    return IndexedBlock(1, np.concatenate((np.arange(a), _later_rows(a, n))), base), 1


def _rowcol_contig_indexed(spec, p, es, base):
    a, n = _rowcol(spec)
    blocks = np.ones((n - a + 1, 2), dtype=np.int64)
    blocks[0] = (a, 0)
    blocks[1:, 1] = _later_rows(a, n)
    return Indexed(blocks, base), 1


def _rowcol_struct(spec, p, es, base):
    a, n = _rowcol(spec)
    members: list[tuple[int, int, Datatype]] = [(1, 0, Contiguous(a, base))]
    if n > a:
        members.append((1, a * es, Vector(n - a, 1, a, base)))
    return Composite(tuple(members)), 1


class _Layout(NamedTuple):
    """One catalog entry: builder, block unit and family, as the module
    docstring describes."""

    build: Callable[[LayoutSpec, Optional[Params], int, Base], tuple[Datatype, int]]
    unit: Optional[Callable[[LayoutSpec, Params], int]] = None
    family: Optional[tuple[Optional[str], ...]] = None


_REPEATED = (ALTERNATING_REPEATED, ALTERNATING_STRUCT)

# every layout in catalog order; a family's None stands for the spec's subtype
_LAYOUTS: dict[str, _Layout] = {
    CONTIGUOUS: _Layout(_contiguous, lambda spec, p: 1),
    TILED: _Layout(_tiled, _tile_unit),
    BLOCK: _Layout(_block, _block_unit),
    BUCKET: _Layout(_bucket, _pair_unit),
    ALTERNATING: _Layout(_alternating, _pair_unit),
    TILED_HET: _Layout(_tiled_het),
    CONTIG_SUBTYPE: _Layout(
        _contig_subtype, lambda spec, p: unit_elems(replace(spec, id=spec.subtype or "")),
        (None, CONTIG_SUBTYPE)),
    TILED_STRUCT: _Layout(
        _tiled_struct, lambda spec, p: sum(_struct_split(spec)) * p.A, (TILED, TILED_STRUCT)),
    TILED_VECTOR: _Layout(_tiled_vector, _tile_unit, (TILED, TILED_VECTOR)),
    VECTOR_TILED: _Layout(
        _vector_tiled, lambda spec, p: _inner_repeats(spec) * p.A, (TILED, VECTOR_TILED)),
    BLOCK_INDEXED: _Layout(_block_indexed, _block_unit, (BLOCK, BLOCK_INDEXED)),
    ALTERNATING_INDEXED: _Layout(
        _alternating_indexed, _pair_unit, (ALTERNATING, ALTERNATING_INDEXED)),
    ALTERNATING_REPEATED: _Layout(_alternating, _pair_unit, _REPEATED),
    ALTERNATING_STRUCT: _Layout(_alternating_struct, _pair_unit, _REPEATED),
    ROWCOL_FULLY_INDEXED: _Layout(_rowcol_fully_indexed, family=ROWCOL_IDS),
    ROWCOL_CONTIG_INDEXED: _Layout(_rowcol_contig_indexed, family=ROWCOL_IDS),
    ROWCOL_STRUCT: _Layout(_rowcol_struct, family=ROWCOL_IDS),
}

ALL_IDS = tuple(_LAYOUTS)


def unit_elems(spec: LayoutSpec) -> int:
    """Elements consumed per block instance (the k of the layout family)."""
    p = derive_params(spec) if spec.id != CONTIGUOUS else None
    unit = _LAYOUTS[spec.id].unit if spec.id in _LAYOUTS else None
    if unit is None:
        raise BadParams(f"no block unit for layout {spec.id!r}")
    return unit(spec, p)


def build(spec: LayoutSpec) -> BuiltLayout:
    """Construct the datatype and instance count for a layout spec.

    Rejects parameter sets whose element count does not divide into whole
    blocks; nothing is silently truncated.
    """
    es = spec.basetype.size
    base = Base(spec.basetype)
    _require(spec.n >= 1, f"{spec.id}: n must be positive, got {spec.n}")
    # the plain run and the heterogeneous tile take no strides
    p = derive_params(spec) if spec.id not in (CONTIGUOUS, TILED_HET) else None
    if spec.id not in _LAYOUTS:
        raise BadParams(f"unknown layout id: {spec.id!r}")
    tree, count = _LAYOUTS[spec.id].build(spec, p, es, base)
    # the heterogeneous tile counts n, and the region, in bytes
    return _built(tree, count, 1 if spec.id == TILED_HET else es, spec)


def build_alternatives(spec: LayoutSpec) -> list[BuiltLayout]:
    """Reference description first, then every alternative of the family."""
    family = _LAYOUTS[spec.id].family if spec.id in _LAYOUTS else None
    if family is None:
        raise BadParams(f"layout {spec.id!r} has no alternative-description family")
    return [build(replace(spec, id=(spec.subtype or "") if i is None else i)) for i in family]


# --- JSON codec ---------------------------------------------------------


def spec_to_json(spec: LayoutSpec) -> dict:
    """The spec's fields in order, base kinds by wire name; a field that is
    None, and A when it is 0, is left out."""
    out: dict = {}
    for f in fields(LayoutSpec):
        value = getattr(spec, f.name)
        if value is None or f.name == "A" and not value:
            continue
        if isinstance(value, BaseKind):
            value = value.wire_name
        elif isinstance(value, tuple):
            value = [k.wire_name for k in value]
        out[f.name] = value
    return out


def _kinds(names) -> tuple[BaseKind, ...] | None:
    return tuple(BaseKind.from_name(k) for k in names) if names else None


def _optional_int(value) -> int | None:
    return None if value is None else int(value)


# how `spec_from_json` reads each field that is not stored as given
_SPEC_READERS = {
    "id": str, "n": int, "A": int, "basetype": BaseKind.from_name, "kinds": _kinds,
    **dict.fromkeys(("B", "A1", "A2", "B1", "B2", "S1", "S2"), _optional_int),
}


def spec_from_json(obj: dict) -> LayoutSpec:
    """The spec a `spec_to_json` object describes; a field it leaves out
    takes its default."""
    if not isinstance(obj, dict) or "id" not in obj:
        raise BadParams(f"layout spec JSON must be an object with an 'id': {obj!r}")
    try:
        return LayoutSpec(**{
            f.name: _SPEC_READERS.get(f.name, lambda value: value)(obj[f.name])
            for f in fields(LayoutSpec) if f.name in obj})
    except (TypeError, ValueError) as exc:
        raise BadParams(f"bad layout spec JSON: {exc}") from exc


def spec_dumps(spec: LayoutSpec) -> str:
    return json.dumps(spec_to_json(spec), separators=(",", ":"))
