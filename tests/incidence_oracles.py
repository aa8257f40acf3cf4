"""Object-level oracles for the incidence stage.

These are the loops ``claim_reduction`` and ``rudnev_ratio`` ran before the
index kernel: ``ProjPlane.contains`` over every (point, plane) pair, with a
plane-deduplicating variant; the log-keyed ``max_collinear``; the motion
objects' pairwise fixed points and the axis scan over a set of ``Point``s;
the plane spanned lazily by the axial rotation image; the field embedding
and the lifted point set;
and the whole reduction built from those pieces, which returns the witness
JSON the index kernel must reproduce byte for byte.  ``witness_families``
builds a witness's motion, point and plane objects from its index rows.
"""

import math
from collections import Counter
from fractions import Fraction

from bisector_oracles import class_for, loop_axial_pair_count, object_segment_classes
from findist.counting import max_collinear_cocircular
from findist.field import FieldSpec
from findist.geometry import Line, Point, PointSet, Segment, reflect
from findist.incidence import _field_embedding
from findist.kinematic import ProjPlane, ProjPoint, kappa, phi_left
from findist.motions import RigidMotion, motion_between_segments
from motion_oracles import apply_plane, fixed_point, iter_r_tau


def witness_families(w):
    """The witness's g_motions, h_motions, points and planes, as objects over its work field."""
    element = w.work_field.from_index

    def objects(make, columns):
        return tuple(make(*map(element, row)) for row in zip(*(c.tolist() for c in columns)))

    return {
        "g_motions": objects(RigidMotion, w.g),
        "h_motions": objects(RigidMotion, w.h),
        "points": objects(lambda *coords: ProjPoint(coords), w.point_rows.T),
        "planes": objects(lambda *coeffs: ProjPlane(coeffs), w.plane_rows.T),
    }


def count_incidences(points, planes, method="sweep"):
    """Exact #{(p, pi): p on pi} by full sweep or by plane-key deduplication."""
    if method == "sweep":
        return sum(1 for p in points for plane in planes if plane.contains(p))
    if method != "hash":
        raise ValueError(f"unknown method {method!r}")
    buckets = {}
    for plane in planes:
        entry = buckets.setdefault(plane.key, [plane, 0])
        entry[1] += 1
    return sum(mult * sum(1 for p in points if plane.contains(p)) for plane, mult in buckets.values())


def max_collinear(points, spec):
    """Per anchor, group the others by their residual's discrete logs against its leading coordinate."""
    distinct = {p.key: p for p in points}
    pts = [distinct[k] for k in sorted(distinct)]
    if len(pts) < 2:
        return len(pts)
    qm1 = spec.q - 1
    best = 1
    for a in pts:
        pivot = next(i for i, c in enumerate(a.coords) if c)
        through = {}
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

    def __init__(self, spec, points, planes):
        self.spec = spec
        self.points = tuple(sorted({p.key: p for p in points}.values(), key=lambda p: p.key))
        self.planes = tuple(sorted({pl.key: pl for pl in planes}.values(), key=lambda pl: pl.key))
        self.k = max_collinear(self.points, spec)

    def incidence_count(self):
        return count_incidences(self.points, self.planes)

    def to_json(self):
        return {
            "field": self.spec.to_json(),
            "points": [p.to_json() for p in self.points],
            "planes": [pl.to_json() for pl in self.planes],
            "k": self.k,
        }


def rudnev_surrogate(points, planes, spec):
    """(incidences, n, m, k, surrogate) with the fewer family in the point role."""
    incidences = count_incidences(points, planes)
    if len(points) > len(planes):
        points, planes = [ProjPoint(pl.coeffs) for pl in planes], [ProjPlane(p.coords) for p in points]
    n, m = len(points), len(planes)
    k = max_collinear(points, spec)
    s = math.isqrt(n)
    ceiling = s if s * s == n else s + 1
    denom = (ceiling + k) * m
    return incidences, n, m, k, Fraction(incidences, denom) if denom else Fraction(0)


def pairwise_fixed_points(motions):
    fixed = set()
    for i, g in enumerate(motions):
        g_inv = g.inverse()
        for h in motions[i + 1:]:
            z = fixed_point(g_inv.compose(h))
            if z is not None:
                fixed.add(z)
    return fixed


def scan_axis(fixed, spec):
    """First canonical non-isotropic line through none of the given Points."""
    one, zero = spec.one(), spec.zero()
    for m in spec.elements():
        if not (one + m * m):
            continue
        blocked = {(z.x + m * z.y).index for z in fixed}
        if len(blocked) < spec.q:
            return Line(one, m, next(e for e in spec.elements() if e.index not in blocked))
    blocked = {z.y.index for z in fixed}
    if len(blocked) < spec.q:
        return Line(zero, one, next(e for e in spec.elements() if e.index not in blocked))
    return None


def lazy_span_plane(axis):
    """The plane of the axial rotation image: eliminate members until rank 3, then solve."""
    spec = axis.n1.spec
    members = iter_r_tau(axis)
    basis, pivots = [], []
    for m in members:
        row = list(kappa(m).coords)
        for b, piv in zip(basis, pivots):
            if row[piv]:
                f = row[piv]
                row = [x - f * y for x, y in zip(row, b)]
        piv = next((i for i, x in enumerate(row) if x), None)
        if piv is None:
            continue
        inv = row[piv].inverse()
        row = [inv * x for x in row]
        for i, b in enumerate(basis):
            if b[piv]:
                f = b[piv]
                basis[i] = [x - f * y for x, y in zip(b, row)]
        basis.append(row)
        pivots.append(piv)
        if len(basis) == 3:
            break
    if len(basis) != 3:
        raise AssertionError("axial rotation image must span a plane")
    # the reduced basis solves for the pivot coordinates in terms of the free one
    free = next(c for c in range(4) if c not in pivots)
    coeffs = [spec.zero()] * 4
    coeffs[free] = spec.one()
    for b, piv in zip(basis, pivots):
        coeffs[piv] = -b[free]
    return ProjPlane(coeffs)


def field_embedding(spec):
    """The quadratic extension and the embedding's index array, by Horner on field objects one element at a time."""
    ext = FieldSpec(spec.p, 2 * spec.r)

    def evaluate(coeffs, at):
        acc = ext.zero()
        for c in reversed(coeffs):
            acc = acc * at + ext.element(c)
        return acc

    root = next(alpha for alpha in ext.elements() if not evaluate(spec.modulus, alpha))
    return ext, [evaluate(e.coeffs, root).index for e in spec.elements()]


def lift_point_set(A):
    """A's copy over the quadratic extension, with the embedding."""
    ext, into = _field_embedding(A.spec)

    def embed(x):
        return ext.from_index(int(into[x.index]))

    lifted = PointSet(ext, [Point(embed(p.x), embed(p.y)) for p in A])
    assert len(lifted) == len(A)
    return lifted, embed


def on_axis_pair_count(segs):
    heads = Counter(s.head for s in segs)
    return 2 * sum(h * (h - 1) for h in heads.values()) + len(segs)


def reduction_json(A, r):
    """The witness JSON of the reduction of S_r, built from motion and projective objects."""
    base_segs = class_for(A, r)
    work_A, work_r, lifted = A, r, False
    segs = base_segs
    g_motions = [motion_between_segments(x, segs[0]) for x in segs]
    fixed = pairwise_fixed_points(g_motions)
    axis = scan_axis(fixed, A.spec)
    if axis is None:
        work_A, embed = lift_point_set(A)
        work_r, lifted = embed(r), True
        segs = class_for(work_A, work_r)
        assert len(segs) == len(base_segs)
        g_motions = [motion_between_segments(x, segs[0]) for x in segs]
        axis = scan_axis(pairwise_fixed_points(g_motions), work_A.spec)
        assert axis is not None
    s_r = segs[0]
    mirrored = [Segment(reflect(axis, s.head), reflect(axis, s.tail)) for s in segs]
    h_motions = [motion_between_segments(y, s_r) for y in mirrored]
    points = [kappa(h) for h in h_motions]
    base_plane = lazy_span_plane(axis)
    planes = [apply_plane(phi_left(g), base_plane) for g in g_motions]
    incidences = count_incidences(points, planes)
    i_ax = loop_axial_pair_count(work_A, work_r)
    i_on_axis = on_axis_pair_count(segs)
    class_sizes = [len(v) for rr, v in object_segment_classes(A).items() if rr]
    return {
        "base_field": A.spec.to_json(),
        "work_field": work_A.spec.to_json(),
        "lifted": lifted,
        "r": work_r.to_json(),
        "s_r": s_r.to_json(),
        "axis": axis.to_json(),
        "g_motions": [g.to_json() for g in g_motions],
        "h_motions": [h.to_json() for h in h_motions],
        "points": [p.to_json() for p in points],
        "planes": [pl.to_json() for pl in planes],
        "i_ax": i_ax,
        "i_on_axis": i_on_axis,
        "incidences": incidences,
        "equal": incidences == i_ax,
        "verdict": "explained" if incidences == i_ax + i_on_axis else "unexplained",
        "k": max_collinear(points, work_A.spec),
        "m_curve": max_collinear_cocircular(A).m,
        "max_class_size": max(class_sizes, default=0),
        "erdos_ceiling": math.isqrt(len(A) ** 3 - 1) + 1 if len(A) else 0,
    }
