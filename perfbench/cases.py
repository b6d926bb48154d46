"""Set-up and byte checks of a workload's layouts, through the library's
public calls only."""

from __future__ import annotations

from dataclasses import dataclass

from typeforge import layouts, normalizer, packer, typecore
from typeforge.layouts import BadParams, BuiltLayout, LayoutSpec

from oracle import LayoutOracle, seeded_region
from workloads import Point

# the interpreted engine walks this many runs in well under 0.1 s; bigger
# layouts are compared between engines at SCALED_N elements instead
WALK_LIMIT = 12_000
SCALED_N = 800


@dataclass
class Member:
    """One description of a point's layout, ready to send.

    `eng` packs the given description and is the ping side's engine; `eng2`
    is the pong side's: a second engine for the given description, or for
    its normalized rewrite when the point is a family point.
    """

    point: Point
    built: BuiltLayout
    ct: typecore.CommittedType
    norm: normalizer.NormalizationReport
    eng: object
    eng2: object
    same_as_ref: bool  # typecore.equivalent against the reference (see prepare)

    @property
    def count(self) -> int:
        return self.built.count


def prepare(point: Point, tr) -> list[Member]:
    """Build, commit, normalize, check equivalence and make engines for
    every description of one point; the reference description comes first
    and is checked against its normalized rewrite, every other description
    against the reference.  A point whose parameters do not divide yields
    nothing, as the experiments skip it."""
    spec = LayoutSpec(id=point.layout, n=point.n, A=point.A)
    try:
        if point.family:
            built = tr.call("layouts.build_alternatives", layouts.build_alternatives, spec)
        else:
            built = [tr.call("layouts.build", layouts.build, spec)]
    except BadParams:
        return []
    out: list[Member] = []
    for b in built:
        ct = tr.call("typecore.commit", typecore.commit, b.datatype)
        norm = tr.call("normalizer.normalize", normalizer.normalize, b.datatype)
        tr.note({"cost_in": norm.input_cost, "cost_out": norm.output_cost,
                 "iterations": norm.iterations})
        ref_t, ref_count = (out[0].ct, out[0].count) if out else (norm.output, b.count)
        same = tr.call("typecore.equivalent", typecore.equivalent, ct, b.count, ref_t, ref_count)
        eng = tr.call("packer.make_engine", packer.make_engine, point.engine, ct, b.count)
        other = norm.output if point.family else ct
        eng2 = tr.call("packer.make_engine", packer.make_engine, point.engine, other, b.count)
        out.append(Member(point, b, ct, norm, eng, eng2, bool(same)))
    return out


def _scaled(m: Member) -> tuple[object, int]:
    """The member's description at full size if the interpreted engine can
    walk it quickly, else the same description over SCALED_N elements."""
    if m.count * len(m.ct.flat.offsets) <= WALK_LIMIT:
        return m.ct, m.count
    small = layouts.build(LayoutSpec(id=m.built.spec.id, n=SCALED_N, A=m.point.A))
    return small.datatype, small.count


def engines_agree(m: Member, seed: int) -> bool:
    """Interpreted and compiled engines pack the same bytes and leave the
    same destination region behind."""
    t, count = _scaled(m)
    walker = packer.make_engine("interpreted", t, count)
    compiled = packer.make_engine("compiled", t, count)
    if (walker.origin, walker.span) != (compiled.origin, compiled.span):
        return False
    src = seeded_region(walker.span, seed, 7)
    a = bytes(walker.pack_message(src))
    if a != bytes(compiled.pack_message(src)):
        return False
    dst_a = seeded_region(walker.span, seed, 8)
    dst_b = bytearray(dst_a)
    walker.unpack_message(a, dst_a)
    compiled.unpack_message(a, dst_b)
    return dst_a == dst_b


def check_member(m: Member, seed: int, oracle: LayoutOracle) -> dict[str, bool]:
    """Byte checks of one member against the flatten oracle.  Each entry
    is one checked operation."""
    out = {}
    src = seeded_region(m.eng.span, seed, 5)
    expected = oracle.payload(src)
    for name, eng in (("pack", m.eng), ("pack_other", m.eng2)):
        same_window = (eng.origin, eng.span) == (m.eng.origin, m.eng.span)
        out[name] = same_window and oracle.packed_ok(eng.pack_message(src), src)
        dst = seeded_region(m.eng.span, seed, 6)
        before = bytes(dst)
        eng.unpack_message(expected.tobytes(), dst)
        out["un" + name] = oracle.unpacked_ok(dst, expected, before)
    out["engines_agree"] = engines_agree(m, seed)
    out["normalized_equivalent"] = bool(
        typecore.equivalent(m.norm.output, m.count, m.ct, m.count))
    out["equivalent_to_reference"] = m.same_as_ref
    return out
