"""Rewrites a datatype tree into a cheaper description of the same layout.

Every rewrite preserves the node's payload segments and its (lb, ub)
bounds exactly, so a rewritten subtree can sit inside any enclosing
constructor without shifting anything.  The driver applies the passes in a
fixed order to a fixpoint:

  fold-resized, collapse-dense, fuse-nested-vectors, struct-to-indexed,
  indexed-to-block, regular-stride-detection, adjacent-block-merge

Cost is measured as canonical segments per instance plus description size,
where the description size charges one unit per node plus one per stored
list entry (a displacement table of length n costs n, which is what makes
explicitly indexed descriptions expensive).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .typecore import (
    Base,
    CommittedType,
    Composite,
    Contiguous,
    Datatype,
    HVector,
    Indexed,
    IndexedBlock,
    ONE_CHILD,
    Resized,
    Vector,
    block_table,
    bounds,
    canonicalize,
    commit,
    extent,
    table_period,
    vector_stride,
)

_MAX_ITERATIONS = 32

# canonical preference for equal-cost descriptions, narrower first
_KIND_RANK = {
    Base: 0,
    Contiguous: 1,
    Vector: 2,
    HVector: 3,
    IndexedBlock: 4,
    Indexed: 5,
    Composite: 6,
    Resized: 7,
}


@dataclass(frozen=True)
class NormalizationReport:
    input: Datatype
    output: Datatype
    passes: tuple[str, ...]
    iterations: int
    input_cost: int
    output_cost: int
    changed: bool
    # the output, committed here for its cost; the commit stores its unit
    # on the output tree, so a later `commit(output)` (or an engine or
    # `equivalent` of it) reads that unit too, and this field only saves
    # callers the call
    committed_output: CommittedType = field(repr=False, compare=False)


def descr_size(t: Datatype) -> int:
    """Description size: one per node plus one per stored list entry."""
    if isinstance(t, Base):
        return 1
    if isinstance(t, (Contiguous, Vector, HVector, Resized)):
        return 1 + descr_size(t.inner)
    if isinstance(t, Indexed):
        return 1 + len(t.blocks) + descr_size(t.inner)
    if isinstance(t, IndexedBlock):
        return 1 + len(t.displs) + descr_size(t.inner)
    if isinstance(t, Composite):
        return 1 + sum(1 + descr_size(m) for _, _, m in t.members)
    raise TypeError(f"not a datatype node: {t!r}")


def cost(t: Datatype | CommittedType) -> int:
    """Canonical segments of one instance, counted on the committed unit's
    closed form, plus description size."""
    ct = commit(t)
    return ct.flat.segment_count + descr_size(ct.datatype)


def _wrap_bounds(node: Datatype, lb: int, ub: int) -> Datatype:
    """Give `node` exactly the bounds (lb, ub), folding nested resizes."""
    if bounds(node) == (lb, ub):
        return node
    if isinstance(node, Resized):
        node = node.inner
    return Resized(lb, ub - lb, node)


# --- passes -------------------------------------------------------------
# Each takes one node whose children are already rewritten and returns a
# replacement or None.  Replacements must keep payload and bounds intact.


def _fold_resized(t: Datatype) -> Datatype | None:
    if not isinstance(t, Resized):
        return None
    if isinstance(t.inner, Resized):
        return Resized(t.lb, t.extent, t.inner.inner)
    lb, ub = bounds(t.inner)
    if t.lb == lb and t.extent == ub - lb:
        return t.inner
    return None


def _collapse_dense(t: Datatype) -> Datatype | None:
    if isinstance(t, Contiguous):
        if t.count == 1:
            return t.inner
        if isinstance(t.inner, Contiguous):
            return Contiguous(t.count * t.inner.count, t.inner.inner)
        return None
    if isinstance(t, Vector):
        if t.count == 1 or t.stride == t.blocklen:
            return Contiguous(t.count * t.blocklen, t.inner)
        return None
    if isinstance(t, HVector):
        ext = extent(t.inner)
        if t.count == 1:
            return Contiguous(t.blocklen, t.inner)
        if ext > 0 and t.stride_bytes % ext == 0:
            return Vector(t.count, t.blocklen, t.stride_bytes // ext, t.inner)
        return None
    return None


def _fuse_nested_vectors(t: Datatype) -> Datatype | None:
    if not isinstance(t, (Vector, HVector)) or t.blocklen != 1:
        return None
    inner = t.inner
    if not isinstance(inner, (Vector, HVector)):
        return None
    if inner.count < 1 or inner.blocklen < 1:
        return None
    inner_stride_bytes = vector_stride(inner, extent(inner.inner))
    outer_stride_bytes = vector_stride(t, extent(inner))
    if inner_stride_bytes < 0 or outer_stride_bytes < 0:
        return None
    # fusable exactly when the outer step lands where the inner pattern
    # would have continued
    if outer_stride_bytes != inner.count * inner_stride_bytes:
        return None
    if isinstance(inner, HVector):
        return HVector(t.count * inner.count, inner.blocklen, inner.stride_bytes, inner.inner)
    return Vector(t.count * inner.count, inner.blocklen, inner.stride, inner.inner)


def _strip_to_common(member: Datatype, u: Datatype | None) -> tuple[Datatype, int] | None:
    """View a member as `c` consecutive instances of a unit type."""
    if isinstance(member, Contiguous):
        unit, mult = member.inner, member.count
    else:
        unit, mult = member, 1
    if u is not None and unit != u:
        return None
    return unit, mult


def _struct_to_indexed(t: Datatype) -> Datatype | None:
    if not isinstance(t, Composite):
        return None
    members = [(c, d, m) for c, d, m in t.members if c > 0]
    if not members:
        return None
    if len(members) == 1 and members[0][1] == 0:
        c, _, m = members[0]
        return Contiguous(c, m)
    unit: Datatype | None = None
    blocks: list[tuple[int, int]] = []
    for c, d, m in members:
        stripped = _strip_to_common(m, unit)
        if stripped is None:
            return None
        unit = stripped[0]
        blocks.append((c * stripped[1], d))
    ext = extent(unit)
    if ext <= 0:
        return None
    if any(d % ext for _, d in blocks):
        return None
    candidate = Indexed(tuple((bl, d // ext) for bl, d in blocks), unit)
    if descr_size(candidate) > descr_size(t):
        return None
    return candidate


def _indexed_to_block(t: Datatype) -> Datatype | None:
    if not isinstance(t, Indexed) or not len(t.blocks):
        return None
    # the first k rows of a table of period k hold every length it has
    period = table_period(t)
    lens = block_table(t, rows=period[0] if period else None)[0]
    if not (lens == lens[0]).all():
        return None
    return IndexedBlock(int(lens[0]), block_table(t)[1], t.inner)


def _regular_stride(t: Datatype) -> Datatype | None:
    """A table of period 1 (`table_period`) starting at displacement 0
    becomes a vector; one of period k = 2..4 with at least 2k + 1 rows
    becomes a contiguous run of a k-block unit."""
    if not isinstance(t, (Indexed, IndexedBlock)):
        return None
    period = table_period(t)
    if period is None:
        return None
    k, shift = period
    lens, displs = block_table(t)
    c = len(displs)
    if displs[0] != 0:
        return None
    if k == 1:
        return Vector(c, int(lens[0]), shift, t.inner)
    if c < 2 * k + 1:
        return None
    if isinstance(t, IndexedBlock):
        unit: Datatype = IndexedBlock(t.blocklen, t.displs[:k], t.inner)
    else:
        unit = Indexed(t.blocks[:k], t.inner)
    unit = _wrap_bounds(unit, 0, shift * extent(t.inner))
    candidate = _wrap_bounds(Contiguous(c // k, unit), *bounds(t))
    return candidate if descr_size(candidate) < descr_size(t) else None


def _merge_adjacent_blocks(t: Datatype) -> Datatype | None:
    if not isinstance(t, (Indexed, IndexedBlock)):
        return None
    # blocks are runs of inner instances: drop empty ones and merge those
    # adjacent in serialization order, as segments are
    lens, displs = block_table(t)
    displs, lens = canonicalize(displs, lens)
    if not len(displs):
        return None
    if len(displs) == 1 and displs[0] == 0:
        candidate: Datatype = Contiguous(int(lens[0]), t.inner)
    elif (lens == lens[0]).all():
        candidate = IndexedBlock(int(lens[0]), displs, t.inner)
    else:
        candidate = Indexed(np.column_stack((lens, displs)), t.inner)
    if candidate == t:
        return None
    after, before = descr_size(candidate), descr_size(t)
    if after > before:
        return None
    if after == before and _KIND_RANK[type(candidate)] >= _KIND_RANK[type(t)]:
        return None
    return candidate


_PASSES = (
    ("fold-resized", _fold_resized),
    ("collapse-dense", _collapse_dense),
    ("fuse-nested-vectors", _fuse_nested_vectors),
    ("struct-to-indexed", _struct_to_indexed),
    ("indexed-to-block", _indexed_to_block),
    ("regular-stride", _regular_stride),
    ("merge-adjacent", _merge_adjacent_blocks),
)


def _rewrite(t: Datatype, fn) -> tuple[Datatype, bool]:
    """Apply `fn` bottom-up; identical subtrees are reused, not rebuilt."""
    if isinstance(t, Base):
        node, changed = t, False
    elif isinstance(t, ONE_CHILD):
        inner, changed = _rewrite(t.inner, fn)
        node = replace(t, inner=inner) if changed else t
    else:
        members = []
        changed = False
        for c, d, m in t.members:
            new_m, ch = _rewrite(m, fn)
            members.append((c, d, new_m))
            changed = changed or ch
        node = Composite(tuple(members)) if changed else t
    replacement = fn(node)
    if replacement is None:
        return node, changed
    return replacement, True


def normalize(t: Datatype | CommittedType) -> NormalizationReport:
    """Drive the passes to a fixpoint and report what happened.  The input
    is committed once, which validates it before rewriting and prices it."""
    ct = commit(t)
    t = ct.datatype
    current = t
    applied: list[str] = []
    iterations = 0
    for _ in range(_MAX_ITERATIONS):
        iterations += 1
        round_changed = False
        for name, fn in _PASSES:
            current, changed = _rewrite(current, fn)
            if changed:
                applied.append(name)
                round_changed = True
        if not round_changed:
            break
    changed = current is not t and current != t
    out_ct = commit(current) if changed else ct
    in_cost = cost(ct)
    return NormalizationReport(
        input=t,
        output=current,
        passes=tuple(applied),
        iterations=iterations,
        input_cost=in_cost,
        output_cost=cost(out_ct) if changed else in_cost,
        changed=changed,
        committed_output=out_ct,
    )


def normalize_type(t: Datatype) -> Datatype:
    return normalize(t).output
