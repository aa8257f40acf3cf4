"""Point-plane incidences in projective 3-space and the reduction to them.

The centerpiece is claim_reduction: fix a nonzero quadratic length r, turn
every segment of that length into a rigid motion, push the motions through
the projective embedding, and compare the resulting point-plane incidence
count against the planar axial-symmetry count it is supposed to encode.
The incidence count always exceeds the off-axis pair count by an on-axis
contribution (segments fixed or swapped by the mirror itself); the witness
enumerates that contribution independently and reports whether it explains
the difference exactly.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .counting import bisector_table, max_collinear_cocircular, segment_classes
from .field import FieldElement, FieldSpec
from .geometry import Line, Point, PointSet, Segment, reflect
from .kinematic import ProjPlane, ProjPoint, kappa, phi_left, r_tau_plane
from .motions import RigidMotion, motion_between_segments


class EmptySegmentClassError(ValueError):
    pass


class ReductionUnavailableError(RuntimeError):
    pass


def _ceil_sqrt(n: int) -> int:
    s = math.isqrt(n)
    return s if s * s == n else s + 1


def count_incidences(points: Sequence[ProjPoint], planes: Sequence[ProjPlane], method: str = "sweep") -> int:
    """Exact #{(p, pi): p on pi} by full sweep or by plane-key deduplication."""
    if method == "sweep":
        return sum(1 for p in points for plane in planes if plane.contains(p))
    if method != "hash":
        raise ValueError(f"unknown method {method!r}")
    buckets: dict[tuple, list] = {}
    for plane in planes:
        entry = buckets.setdefault(plane.key, [plane, 0])
        entry[1] += 1
    total = 0
    for plane, mult in buckets.values():
        total += mult * sum(1 for p in points if plane.contains(p))
    return total


def max_collinear(points: Sequence[ProjPoint], spec: FieldSpec) -> int:
    """Largest number of the given projective points on one projective line.

    Per anchor point, the others are grouped by the line they span with the
    anchor.  The group key is the residual of the point after eliminating the
    anchor's pivot, identified up to scale by the differences of its
    coordinates' discrete logs against its leading nonzero one.
    """
    distinct = {p.key: p for p in points}
    pts = [distinct[k] for k in sorted(distinct)]
    if len(pts) < 2:
        return len(pts)
    qm1 = spec.q - 1
    best = 1
    for a in pts:
        pivot = next(i for i, c in enumerate(a.coords) if c)
        through: dict[tuple, int] = {}
        for b in pts:
            if b is a:
                continue
            f = b.coords[pivot] / a.coords[pivot]
            v = [x - f * y for x, y in zip(b.coords, a.coords)]
            base = next(x.log for x in v if x)
            key = tuple((x.log - base) % qm1 if x else qm1 for x in v)
            through[key] = through.get(key, 0) + 1
        best = max(best, 1 + max(through.values()))
    return best


class IncidenceInstance:
    """A finite point family and plane family, with the collinearity bound."""

    __slots__ = ("spec", "points", "planes", "k")

    def __init__(self, spec: FieldSpec, points: Iterable[ProjPoint], planes: Iterable[ProjPlane]):
        self.spec = spec
        self.points = tuple(sorted({p.key: p for p in points}.values(), key=lambda p: p.key))
        self.planes = tuple(sorted({pl.key: pl for pl in planes}.values(), key=lambda pl: pl.key))
        self.k = max_collinear(self.points, spec)

    def incidence_count(self) -> int:
        return count_incidences(self.points, self.planes)

    def to_json(self) -> dict:
        return {
            "field": self.spec.to_json(),
            "points": [p.to_json() for p in self.points],
            "planes": [pl.to_json() for pl in self.planes],
            "k": self.k,
        }


@dataclass(eq=False)
class RudnevRatio:
    """Observed incidences against the sqrt(|P|)|Pi| + k|Pi| shape."""

    incidences: int
    n_points: int
    n_planes: int
    k: int
    sqrt_ceiling: int
    surrogate_ratio: Fraction
    float_ratio: float
    duality_swapped: bool
    char_squared: int
    within_char_bound: bool

    def to_json(self) -> dict:
        return {
            "incidences": self.incidences,
            "n_points": self.n_points,
            "n_planes": self.n_planes,
            "k": self.k,
            "sqrt_ceiling": self.sqrt_ceiling,
            "surrogate_ratio": [self.surrogate_ratio.numerator, self.surrogate_ratio.denominator],
            "float_ratio": self.float_ratio,
            "duality_swapped": self.duality_swapped,
            "char_squared": self.char_squared,
            "within_char_bound": self.within_char_bound,
        }


def rudnev_ratio(points: Sequence[ProjPoint], planes: Sequence[ProjPlane], spec: FieldSpec) -> RudnevRatio:
    """Incidence ratio with the fewer of the two families in the point role.

    The surrogate ratio replaces sqrt(|P|) by its integer ceiling, keeping the
    arithmetic exact; the float ratio is reported alongside it.
    """
    if not planes:
        raise ValueError("the plane family must be nonempty")
    incidences = count_incidences(points, planes)
    swapped = len(points) > len(planes)
    if swapped:
        pts = [ProjPoint(pl.coeffs) for pl in planes]
        pls = [ProjPlane(p.coords) for p in points]
    else:
        pts, pls = list(points), list(planes)
    k = max_collinear(pts, spec)
    n, m = len(pts), len(pls)
    ceiling = _ceil_sqrt(n)
    denom = ceiling * m + k * m
    surrogate = Fraction(incidences, denom) if denom else Fraction(0)
    float_denom = math.sqrt(n) * m + k * m
    return RudnevRatio(
        incidences=incidences,
        n_points=n,
        n_planes=m,
        k=k,
        sqrt_ceiling=ceiling,
        surrogate_ratio=surrogate,
        float_ratio=incidences / float_denom if float_denom else 0.0,
        duality_swapped=swapped,
        char_squared=spec.p ** 2,
        within_char_bound=n < spec.p ** 2,
    )


def axial_pair_count(A: PointSet, r: FieldElement) -> int:
    """Ordered pairs of equal-length segments that mirror across a common axis.

    The axis is the shared perpendicular bisector of the head pair and the
    tail pair; coincident heads or tails are excluded, which is exactly the
    endpoints-off-axis convention.  Both exclusions come from the bisector
    table: its key is -1 on coincident points, and on head pairs at distance
    0, whose locus mirrors nothing.
    """
    if not r:
        raise ValueError("a nonzero quadratic length is required")
    table = bisector_table(A)
    heads, tails = np.nonzero(table.dist == r.index)
    head_keys = table.keys[np.ix_(heads, heads)]
    tail_keys = table.keys[np.ix_(tails, tails)]
    return int(np.count_nonzero((head_keys >= 0) & (head_keys == tail_keys)))


@dataclass(frozen=True)
class EpsilonTerm:
    """Degenerate-segment contribution to the reflection energy."""

    value: int
    bound: int
    within_bound: bool

    def to_json(self) -> dict:
        return {"value": self.value, "bound": self.bound, "within_bound": self.within_bound}


def epsilon_term(A: PointSet) -> EpsilonTerm:
    """Mirror pairs of zero-length segments, grouped by the shared axis.

    Group the ordered reflection pairs of A by their bisector; within one
    group, count the ordered pairs whose heads are at quadratic distance 0,
    the diagonal included.  Over a field without isotropic vectors this is
    just the nonzero-distance pair count.

    A point heads at most one pair of a group, the one to its mirror image,
    so the count is, over the head pairs (a, c) at distance 0, the number of
    axes that both a and c mirror onto points of A.
    """
    table = bisector_table(A)
    axes = [set(row[row >= 0].tolist()) for row in table.keys]
    value = sum(len(axes[a] & axes[c]) for a, c in zip(*np.nonzero(table.dist == 0)))
    m = max_collinear_cocircular(A).m
    bound = 2 * m * len(A) ** 2
    return EpsilonTerm(value, bound, value <= bound)


def _field_embedding(spec: FieldSpec) -> tuple[FieldSpec, Callable[[FieldElement], FieldElement]]:
    """The quadratic extension together with a field embedding into it.

    Degree one embeds by constants; otherwise the base generator goes to the
    canonically first root of the base modulus inside the extension.
    """
    ext = FieldSpec(spec.p, 2 * spec.r)
    if spec.r == 1:
        return ext, lambda x: ext.element(x.coeffs[0])

    def evaluate(coeffs: Sequence[int], at: FieldElement) -> FieldElement:
        acc = ext.zero()
        for c in reversed(coeffs):
            acc = acc * at + ext.element(c)
        return acc

    root = next(alpha for alpha in ext.elements() if not evaluate(spec.modulus, alpha))
    return ext, lambda x: evaluate(x.coeffs, root)


def _lift_point_set(A: PointSet) -> tuple[PointSet, Callable[[FieldElement], FieldElement]]:
    ext, embed = _field_embedding(A.spec)
    lifted = PointSet(ext, [Point(embed(p.x), embed(p.y)) for p in A])
    if len(lifted) != len(A):
        raise AssertionError("field embedding must be injective on the set")
    return lifted, embed


def _pairwise_fixed_points(motions: Sequence[RigidMotion]) -> set:
    fixed = set()
    for i, g in enumerate(motions):
        g_inv = g.inverse()
        for h in motions[i + 1:]:
            z = g_inv.compose(h).fixed_point()
            if z is not None:
                fixed.add(z)
    return fixed


def _find_valid_axis(motions: Sequence[RigidMotion], spec: FieldSpec) -> Optional[Line]:
    """First canonical non-isotropic line avoiding every pairwise fixed point."""
    return _scan_axis(_pairwise_fixed_points(motions), spec)


def _scan_axis(fixed, spec: FieldSpec) -> Optional[Line]:
    """First canonical non-isotropic line through none of the given points.

    The invalid lines are exactly the lines through a fixed point, so instead
    of sweeping all q^2 + q lines the scan walks the canonical order family
    by family: for normal (1, m) the blocked intercepts are {z.x + m*z.y},
    for the trailing normal (0, 1) they are {z.y}.
    """
    one, zero = spec.one(), spec.zero()
    for m in spec.elements():
        if not (one + m * m):
            # isotropic normal, never a reflection axis
            continue
        blocked = {(z.x + m * z.y).index for z in fixed}
        if len(blocked) < spec.q:
            c = next(e for e in spec.elements() if e.index not in blocked)
            return Line(one, m, c)
    blocked = {z.y.index for z in fixed}
    if len(blocked) < spec.q:
        c = next(e for e in spec.elements() if e.index not in blocked)
        return Line(zero, one, c)
    return None


def _on_axis_pair_count(A: PointSet, r: FieldElement) -> int:
    """The incidences no off-axis pair produces, read off the apex histograms.

    Each equal-leg triple with legs of length r yields two mirrored segment
    pairs sharing an endpoint, and every segment mirrors to itself across its
    own spanning line; together: 2*T_r + |S_r|.  Equal nonzero legs force a
    non-isotropic base, so an apex a heading h_a segments of length r carries
    h_a(h_a - 1) of those triples.
    """
    segs = segment_classes(A).class_for(r)
    heads = Counter(s.head for s in segs)
    return 2 * sum(h * (h - 1) for h in heads.values()) + len(segs)


@dataclass(eq=False)
class ReductionWitness:
    """Everything needed to replay one segment-class reduction."""

    base_field: FieldSpec
    work_field: FieldSpec
    lifted: bool
    r: FieldElement
    s_r: Segment
    axis: Line
    g_motions: tuple
    h_motions: tuple
    points: tuple
    planes: tuple
    i_ax: int
    i_on_axis: int
    incidences: int
    equal: bool
    verdict: str
    k: int
    m_curve: int
    max_class_size: int
    erdos_ceiling: int

    def to_json(self) -> dict:
        return {
            "base_field": self.base_field.to_json(),
            "work_field": self.work_field.to_json(),
            "lifted": self.lifted,
            "r": self.r.to_json(),
            "s_r": self.s_r.to_json(),
            "axis": self.axis.to_json(),
            "g_motions": [g.to_json() for g in self.g_motions],
            "h_motions": [h.to_json() for h in self.h_motions],
            "points": [p.to_json() for p in self.points],
            "planes": [pl.to_json() for pl in self.planes],
            "i_ax": self.i_ax,
            "i_on_axis": self.i_on_axis,
            "incidences": self.incidences,
            "equal": self.equal,
            "verdict": self.verdict,
            "k": self.k,
            "m_curve": self.m_curve,
            "max_class_size": self.max_class_size,
            "erdos_ceiling": self.erdos_ceiling,
        }


def claim_reduction(A: PointSet, r: FieldElement) -> ReductionWitness:
    """Reduce one segment class to a projective point-plane incidence count.

    Fixes the canonically first segment s_r, forms the motion g per segment x
    with g(x) = s_r, picks the first valid mirror axis (no pairwise motion
    quotient may fix a point of it), reflects the segments across the axis to
    get the point family, pushes the axial-rotation plane around by the
    motions to get the plane family, then counts.  When no axis over the base
    field is valid the whole construction moves to the quadratic extension,
    which leaves every count in the witness unchanged.
    """
    if not r:
        raise ValueError("a nonzero quadratic length is required")
    base_segs = segment_classes(A).class_for(r)
    if not base_segs:
        raise EmptySegmentClassError(f"no segments of length {r!r}")

    work_A, work_r, lifted = A, r, False
    segs = base_segs
    s_r = segs[0]
    g_motions = tuple(motion_between_segments(x, s_r) for x in segs)
    fixed = _pairwise_fixed_points(g_motions)
    axis = _scan_axis(fixed, work_A.spec)
    if axis is None:
        work_A, embed = _lift_point_set(A)
        work_r = embed(r)
        lifted = True
        segs = segment_classes(work_A).class_for(work_r)
        if len(segs) != len(base_segs):
            raise AssertionError("lifting must preserve the segment class")
        s_r = segs[0]
        g_motions = tuple(motion_between_segments(x, s_r) for x in segs)
        # The lifted motions are the embedded base motions (each is the unique
        # motion between its segments, and the construction is rational), so
        # their pairwise fixed points are the embedded base fixed points.
        fixed = {Point(embed(z.x), embed(z.y)) for z in fixed}
        axis = _scan_axis(fixed, work_A.spec)
        if axis is None:
            raise ReductionUnavailableError(
                f"no valid axis over {work_A.spec!r} for r={r!r}, |S_r|={len(segs)}"
            )

    mirrored = [Segment(reflect(axis, s.head), reflect(axis, s.tail)) for s in segs]
    h_motions = tuple(motion_between_segments(y, s_r) for y in mirrored)
    points = tuple(kappa(h) for h in h_motions)
    base_plane = r_tau_plane(axis)
    planes = tuple(phi_left(g).apply_plane(base_plane) for g in g_motions)

    spec = work_A.spec
    if len({p.key for p in points}) != len(segs):
        raise AssertionError("projective points must be pairwise distinct")
    if len({pl.key for pl in planes}) != len(segs):
        raise AssertionError("planes must be pairwise distinct")
    for p in points:
        x0, x1 = p.coords[0], p.coords[1]
        if not (x0 * x0 + x1 * x1):
            raise AssertionError("points must avoid the exceptional locus")
    # Axis validity makes both sides of the plane-coincidence criterion false
    # for every distinct pair.  A non-identity quotient is an axial rotation
    # iff it fixes a point of the axis, so the left side fails because no
    # pairwise fixed point lies on the axis; the right side fails because the
    # plane keys were just checked pairwise distinct.
    for z in fixed:
        if axis.contains(z):
            raise AssertionError("valid axis cannot yield an axial quotient")

    incidences = count_incidences(points, planes)
    i_ax = axial_pair_count(work_A, work_r)
    i_on_axis = _on_axis_pair_count(work_A, work_r)
    equal = incidences == i_ax
    verdict = "explained" if incidences == i_ax + i_on_axis else "unexplained"

    # Class sizes and the curve occupancy maximum are invariant under the
    # base-rational embedding, so they are read off the base set either way.
    class_sizes = [len(v) for rr, v in segment_classes(A).classes.items() if rr]
    n = len(A)
    return ReductionWitness(
        base_field=A.spec,
        work_field=spec,
        lifted=lifted,
        r=work_r,
        s_r=s_r,
        axis=axis,
        g_motions=g_motions,
        h_motions=h_motions,
        points=points,
        planes=planes,
        i_ax=i_ax,
        i_on_axis=i_on_axis,
        incidences=incidences,
        equal=equal,
        verdict=verdict,
        k=max_collinear(points, spec),
        m_curve=max_collinear_cocircular(A).m,
        max_class_size=max(class_sizes, default=0),
        erdos_ceiling=_ceil_sqrt(n ** 3),
    )
