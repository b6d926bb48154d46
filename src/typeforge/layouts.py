"""Catalog of benchmark layouts and their alternative descriptions.

Every layout is parameterized by a unit block size A and derived stride
parameters.  Two fixed parameter variants are supported:

  variant 1: B = A+2,  B1 = A+1,  B2 = A+3,  A1 = A-1,  A2 = A+1
  variant 2: B = 3A,   B1 = 2A,   B2 = 4A,   A1 = A/2,  A2 = 3A/2  (A even)

plus an "explicit" variant that takes every parameter as given.  `n` is the
total element count of the region a built layout covers (for the
heterogeneous tile, where elements mix kinds, `n` counts payload bytes).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from typing import Optional

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

ALL_IDS = (
    CONTIGUOUS,
    TILED,
    BLOCK,
    BUCKET,
    ALTERNATING,
    TILED_HET,
    CONTIG_SUBTYPE,
    TILED_STRUCT,
    TILED_VECTOR,
    VECTOR_TILED,
    BLOCK_INDEXED,
    ALTERNATING_INDEXED,
    ALTERNATING_REPEATED,
    ALTERNATING_STRUCT,
    ROWCOL_FULLY_INDEXED,
    ROWCOL_CONTIG_INDEXED,
    ROWCOL_STRUCT,
)

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


def derive_params(spec: LayoutSpec) -> Params:
    """Resolve A-derived strides according to the spec's variant."""
    a = spec.A
    if spec.variant == 1:
        if a < 2:
            raise BadParams(f"variant 1 requires A >= 2, got A={a}")
        p = Params(A=a, B=a + 2, A1=a - 1, A2=a + 1, B1=a + 1, B2=a + 3)
    elif spec.variant == 2:
        if a < 2 or a % 2:
            raise BadParams(f"variant 2 requires even A >= 2, got A={a}")
        p = Params(A=a, B=3 * a, A1=a // 2, A2=3 * a // 2, B1=2 * a, B2=4 * a)
    elif spec.variant == VARIANT_EXPLICIT:
        p = Params(
            A=a,
            B=spec.B if spec.B is not None else 0,
            A1=spec.A1 if spec.A1 is not None else 0,
            A2=spec.A2 if spec.A2 is not None else 0,
            B1=spec.B1 if spec.B1 is not None else 0,
            B2=spec.B2 if spec.B2 is not None else 0,
        )
    else:
        raise BadParams(f"unknown variant: {spec.variant!r}")
    # explicit overrides win over derived values for hybrid specs
    if spec.variant != VARIANT_EXPLICIT:
        overrides = {
            name: getattr(spec, name)
            for name in ("B", "A1", "A2", "B1", "B2")
            if getattr(spec, name) is not None
        }
        if overrides:
            p = replace(p, **overrides)
    if spec.id in (ALTERNATING_REPEATED, ALTERNATING_STRUCT):
        # the repeated family pins the second gap to the block it follows,
        # so consecutive pairs tile densely at the seam
        p = replace(p, B2=p.A2)
    return p


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise BadParams(msg)


def _divisible(n: int, k: int, what: str) -> int:
    _require(k > 0, f"{what}: unit size must be positive, got {k}")
    _require(n % k == 0, f"{what}: n={n} is not divisible by the unit of {k} elements")
    return n // k


def _repetitions(spec: LayoutSpec) -> tuple[int, int]:
    """S1 and S2 with their defaults: tiled_struct splits 1:1, and
    vector_tiled repeats its inner vector S1 = 5 times."""
    default_s1 = 5 if spec.id == VECTOR_TILED else 1
    return (spec.S1 if spec.S1 is not None else default_s1,
            spec.S2 if spec.S2 is not None else 1)


def unit_elems(spec: LayoutSpec) -> int:
    """Elements consumed per block instance (the k of the layout family)."""
    p = derive_params(spec) if spec.id != CONTIGUOUS else None
    if spec.id == CONTIGUOUS:
        return 1
    if spec.id in (TILED, TILED_VECTOR):
        return p.A
    if spec.id in (BLOCK, BLOCK_INDEXED):
        return 2 * p.A
    if spec.id in (BUCKET, ALTERNATING, ALTERNATING_INDEXED, ALTERNATING_REPEATED, ALTERNATING_STRUCT):
        return p.A1 + p.A2
    if spec.id == TILED_STRUCT:
        s1, s2 = _repetitions(spec)
        return (s1 + s2) * p.A
    if spec.id == VECTOR_TILED:
        return _repetitions(spec)[0] * p.A
    if spec.id == CONTIG_SUBTYPE:
        return unit_elems(replace(spec, id=spec.subtype or ""))
    raise BadParams(f"no block unit for layout {spec.id!r}")


def _tiled_block(p: Params, es: int, base: Datatype) -> Datatype:
    _require(p.A >= 1, f"tiled requires A >= 1, got A={p.A}")
    _require(p.B > p.A, f"tiled requires B > A, got B={p.B}, A={p.A}")
    return Resized(0, p.B * es, Contiguous(p.A, base))


def _block_block(p: Params, es: int, base: Datatype) -> Datatype:
    _require(p.A >= 1, f"block requires A >= 1, got A={p.A}")
    _require(p.B1 >= p.A and p.B2 >= p.A, f"block requires B1,B2 >= A, got {p}")
    _require(p.B1 != p.B2, f"block requires B1 != B2, got B1=B2={p.B1}")
    return Resized(0, (p.B1 + p.B2) * es, IndexedBlock(p.A, (0, p.B1), base))


def _bucket_block(p: Params, es: int, base: Datatype) -> Datatype:
    _require(p.A1 >= 1 and p.A2 >= 1, f"bucket requires A1,A2 >= 1, got {p}")
    _require(p.A1 != p.A2, f"bucket requires A1 != A2, got A1=A2={p.A1}")
    _require(p.B >= max(p.A1, p.A2), f"bucket requires B >= max(A1,A2), got {p}")
    return Resized(0, 2 * p.B * es, Indexed(((p.A1, 0), (p.A2, p.B)), base))


def _alternating_block(p: Params, es: int, base: Datatype) -> Datatype:
    _require(p.A1 >= 1 and p.A2 >= 1, f"alternating requires A1,A2 >= 1, got {p}")
    _require(
        p.B1 >= p.A1 and p.B2 >= p.A2,
        f"alternating requires B1 >= A1 and B2 >= A2, got {p}",
    )
    return Resized(0, (p.B1 + p.B2) * es, Indexed(((p.A1, 0), (p.A2, p.B1)), base))


_BASIC_BLOCKS = {
    TILED: _tiled_block,
    BLOCK: _block_block,
    BUCKET: _bucket_block,
    ALTERNATING: _alternating_block,
    ALTERNATING_REPEATED: _alternating_block,
}


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


def build(spec: LayoutSpec) -> BuiltLayout:
    """Construct the datatype and instance count for a layout spec.

    Rejects parameter sets whose element count does not divide into whole
    blocks; nothing is silently truncated.
    """
    es = spec.basetype.size
    base = Base(spec.basetype)
    _require(spec.n >= 1, f"{spec.id}: n must be positive, got {spec.n}")

    if spec.id == CONTIGUOUS:
        return _built(base, spec.n, es, spec)

    if spec.id == TILED_HET:
        kinds = spec.kinds or ()
        unit = commit(make_tiled_heterogeneous(spec.A, kinds))
        count = _divisible(spec.n, unit.size, "tiled_het (n in bytes)")
        return _built(unit, count, 1, spec)

    p = derive_params(spec)

    if spec.id in (TILED, BLOCK, BUCKET, ALTERNATING, ALTERNATING_REPEATED):
        block = _BASIC_BLOCKS[spec.id](p, es, base)
        k = unit_elems(spec)
        count = _divisible(spec.n, k, spec.id)
        return _built(block, count, es, spec)

    if spec.id == CONTIG_SUBTYPE:
        _require(
            spec.subtype in (TILED, BLOCK, BUCKET, ALTERNATING),
            f"contig_subtype requires subtype in the basic families, got {spec.subtype!r}",
        )
        inner_spec = replace(spec, id=spec.subtype)
        inner = build(inner_spec)
        dt = Contiguous(inner.count, inner.datatype)
        return _built(dt, 1, es, spec)

    if spec.id == TILED_STRUCT:
        s1, s2 = _repetitions(spec)
        _require(s1 >= 1 and s2 >= 1, f"tiled_struct requires S1,S2 >= 1, got ({s1},{s2})")
        _require(p.B >= p.A >= 1, f"tiled_struct requires B >= A >= 1, got {p}")
        tile = Resized(0, p.B * es, Contiguous(p.A, base))
        dt = Composite(
            (
                (1, 0, Contiguous(s1, tile)),
                (1, s1 * p.B * es, Contiguous(s2, tile)),
            )
        )
        count = _divisible(spec.n, unit_elems(spec), "tiled_struct")
        return _built(dt, count, es, spec)

    if spec.id == TILED_VECTOR:
        _require(p.B > p.A >= 1, f"tiled_vector requires B > A >= 1, got {p}")
        blocks = _divisible(spec.n, unit_elems(spec), "tiled_vector")
        dt = Resized(0, blocks * p.B * es, Vector(blocks, p.A, p.B, base))
        return _built(dt, 1, es, spec)

    if spec.id == VECTOR_TILED:
        s = _repetitions(spec)[0]
        _require(s >= 1, f"vector_tiled requires S >= 1, got {s}")
        _require(p.B > p.A >= 1, f"vector_tiled requires B > A >= 1, got {p}")
        outer = _divisible(spec.n, unit_elems(spec), "vector_tiled")
        dt = HVector(outer, 1, s * p.B * es, Vector(s, p.A, p.B, base))
        return _built(dt, 1, es, spec)

    if spec.id == BLOCK_INDEXED:
        _require(p.B1 >= p.A and p.B2 >= p.A, f"block_indexed requires B1,B2 >= A, got {p}")
        _require(p.B1 != p.B2, f"block_indexed requires B1 != B2, got B1=B2={p.B1}")
        pairs = _divisible(spec.n, unit_elems(spec), "block_indexed")
        dt = IndexedBlock(p.A, _pair_displs(pairs, p.B1 + p.B2, p.B1).ravel(), base)
        return _built(dt, 1, es, spec)

    if spec.id == ALTERNATING_INDEXED:
        _require(
            p.B1 >= p.A1 and p.B2 >= p.A2,
            f"alternating_indexed requires B1 >= A1 and B2 >= A2, got {p}",
        )
        pairs = _divisible(spec.n, unit_elems(spec), "alternating_indexed")
        blocks = np.empty((pairs, 2, 2), dtype=np.int64)
        blocks[:, :, 0] = (p.A1, p.A2)
        blocks[:, :, 1] = _pair_displs(pairs, p.B1 + p.B2, p.B1)
        dt = Indexed(blocks.reshape(-1, 2), base)
        return _built(dt, 1, es, spec)

    if spec.id == ALTERNATING_STRUCT:
        # B2 == A2, so all interior blocks line up on a dense grid that a
        # single vector can describe; only the rim blocks need members
        k = unit_elems(spec)
        c = _divisible(spec.n, k, "alternating_struct")
        period = p.B1 + p.A2
        members = [(1, 0, Contiguous(p.A1, base))]
        if c > 1:
            members.append((1, p.B1 * es, Vector(c - 1, k, period, base)))
        members.append((1, ((c - 1) * period + p.B1) * es, Contiguous(p.A2, base)))
        dt = Composite(tuple(members))
        return _built(dt, 1, es, spec)

    if spec.id in ROWCOL_IDS:
        _require(spec.A >= 1, f"rowcol requires A >= 1, got A={spec.A}")
        _require(spec.n >= spec.A, f"rowcol requires n >= A, got n={spec.n}, A={spec.A}")
        a, n = spec.A, spec.n
        # the first row, then column 0 of each later row
        rows = np.arange(1, n - a + 1, dtype=np.int64) * a
        if spec.id == ROWCOL_FULLY_INDEXED:
            dt: Datatype = IndexedBlock(1, np.concatenate((np.arange(a), rows)), base)
        elif spec.id == ROWCOL_CONTIG_INDEXED:
            blocks = np.ones((len(rows) + 1, 2), dtype=np.int64)
            blocks[0] = (a, 0)
            blocks[1:, 1] = rows
            dt = Indexed(blocks, base)
        else:
            members: list[tuple[int, int, Datatype]] = [(1, 0, Contiguous(a, base))]
            if n > a:
                members.append((1, a * es, Vector(n - a, 1, a, base)))
            dt = Composite(tuple(members))
        return _built(dt, 1, es, spec)

    raise BadParams(f"unknown layout id: {spec.id!r}")


def build_alternatives(spec: LayoutSpec) -> list[BuiltLayout]:
    """Reference description first, then every alternative of the family."""
    if spec.id == CONTIG_SUBTYPE:
        return [build(replace(spec, id=spec.subtype or "")), build(spec)]
    if spec.id == TILED_STRUCT:
        return [build(replace(spec, id=TILED)), build(spec)]
    if spec.id in (TILED_VECTOR, VECTOR_TILED):
        return [build(replace(spec, id=TILED)), build(spec)]
    if spec.id == BLOCK_INDEXED:
        return [build(replace(spec, id=BLOCK)), build(spec)]
    if spec.id == ALTERNATING_INDEXED:
        return [build(replace(spec, id=ALTERNATING)), build(spec)]
    if spec.id in (ALTERNATING_REPEATED, ALTERNATING_STRUCT):
        return [
            build(replace(spec, id=ALTERNATING_REPEATED)),
            build(replace(spec, id=ALTERNATING_STRUCT)),
        ]
    if spec.id in ROWCOL_IDS:
        return [build(replace(spec, id=i)) for i in ROWCOL_IDS]
    raise BadParams(f"layout {spec.id!r} has no alternative-description family")


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
