"""Point-plane incidences in projective 3-space and the reduction to them.

The centerpiece is claim_reduction: fix a nonzero quadratic length r, turn
every segment of that length into a rigid motion, push the motions through
the projective embedding, and compare the resulting point-plane incidence
count against the planar axial-symmetry count it is supposed to encode.
The incidence count always exceeds the off-axis pair count by an on-axis
contribution (segments fixed or swapped by the mirror itself); the witness
enumerates that contribution independently and reports whether it explains
the difference exactly.

It runs on the field's index kernel, with motions as (u, v, s, t) index
columns and point and plane families as (N, 4) arrays of canonical rows.
The witness holds those columns; its objects and its line occupancy k are
built on first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain
from typing import Sequence

import numpy as np

from .counting import _index_coords, _per_set, bisector_table, max_collinear_cocircular, segment_classes
from .field import FieldElement, FieldSpec, _index_field
from .geometry import Line, Point, PointSet, Segment
from .kinematic import ProjPlane, ProjPoint, _canonical_rows, _kappa_rows, r_tau_plane
from .motions import RigidMotion

# Cells (rows x columns) in one block of a pairwise kernel: it bounds their
# temporaries whatever the family sizes, N in the thousands included.
CHUNK_CELLS = 1 << 16


class EmptySegmentClassError(ValueError):
    pass


class ReductionUnavailableError(RuntimeError):
    pass


def _ceil_sqrt(n: int) -> int:
    s = math.isqrt(n)
    return s if s * s == n else s + 1


def _row_blocks(n_rows: int, n_cols: int):
    """Consecutive row ranges with at most CHUNK_CELLS cells each (one row at least)."""
    step = max(1, CHUNK_CELLS // max(n_cols, 1))
    return ((lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step))


def _rows(family: Sequence) -> np.ndarray:
    """The (N, 4) index array of ProjPoints or ProjPlanes."""
    return np.array([x.key for x in family], dtype=np.int64).reshape(-1, 4)


def _distinct_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows, in lexicographic order."""
    rows = rows[np.lexsort(rows.T[::-1])]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[keep]


def count_incidences(points: np.ndarray, planes: np.ndarray, spec: FieldSpec) -> int:
    """Exact #{(X, P): X . P = 0} over (N, 4) point and (M, 4) plane index arrays, a block of points at a time."""
    F = _index_field(spec)
    total = 0
    for lo, hi in _row_blocks(len(points), len(planes)):
        t0, t1, t2, t3 = (F.mul(points[lo:hi, i, None], planes[:, i]) for i in range(4))
        total += int(np.count_nonzero(F.add(F.add(t0, t1), F.add(t2, t3)) == 0))
    return total


def max_collinear(points: np.ndarray, spec: FieldSpec) -> int:
    """Largest number of the given projective points on one projective line.

    ``points`` holds canonical coordinate indices, one point per row; a
    repeated row counts once.  Per anchor a with pivot p (its leading 1),
    the points b on one line through a have proportional residuals
    b - b_p * a.  Scaled to a leading 1 and read without coordinate p, which
    is 0, a residual keys its line as one int below q^3: 0 for a itself, at
    least 1 for every other point.  The answer is 1 plus the longest run.
    """
    pts = _distinct_rows(points)
    n = len(pts)
    if n < 2:
        return n
    F, q = _index_field(spec), spec.q
    pivot = np.argmax(pts != 0, axis=1)
    cols = np.arange(4)
    longest = 0
    for lo, hi in _row_blocks(n, n):
        piv = pivot[lo:hi, None]
        scale = pts[:, pivot[lo:hi]].T
        residual = F.sub(pts[None, :, :], F.mul(scale[..., None], pts[lo:hi, None, :]))
        lead = np.take_along_axis(residual, np.argmax(residual != 0, axis=2)[..., None], axis=2)
        residual = F.div(residual, np.where(lead == 0, 1, lead))
        # the three coordinates other than the pivot, most significant first
        weight = np.where(cols == piv, 0, q ** np.maximum(2 - cols + (cols > piv), 0))
        keys = np.sort((residual * weight[:, None, :]).sum(axis=2), axis=1)
        starts = np.ones(keys.shape, dtype=bool)
        starts[:, 1:] = keys[:, 1:] != keys[:, :-1]
        runs = np.diff(np.append(np.flatnonzero(starts), keys.size))
        longest = max(longest, int(runs.max()))
    return 1 + longest


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
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["surrogate_ratio"] = [self.surrogate_ratio.numerator, self.surrogate_ratio.denominator]
        return out


def _ratio_from_counts(incidences: int, n: int, m: int, k: int, spec: FieldSpec,
                       swapped: bool = False) -> RudnevRatio:
    """The ratio for n points, at most k of them on a line, and m planes.

    The surrogate ratio replaces sqrt(n) by its integer ceiling, keeping the
    arithmetic exact; the float ratio is reported alongside it.
    """
    ceiling = _ceil_sqrt(n)
    # the float denominator keeps this association: its rounding is part of the reports
    denom, float_denom = (ceiling + k) * m, math.sqrt(n) * m + k * m
    surrogate = Fraction(incidences, denom) if denom else Fraction(0)
    float_ratio = incidences / float_denom if float_denom else 0.0
    return RudnevRatio(incidences, n, m, k, ceiling, surrogate, float_ratio, swapped, spec.p ** 2, n < spec.p ** 2)


def rudnev_ratio(points: Sequence[ProjPoint], planes: Sequence[ProjPlane], spec: FieldSpec) -> RudnevRatio:
    """Incidence ratio of two families, with the fewer of them in the point role.

    ``ReductionWitness.ratio`` gives a witness's ratio from its own counts.
    """
    if not planes:
        raise ValueError("the plane family must be nonempty")
    pts, pls = _rows(points), _rows(planes)
    incidences = count_incidences(pts, pls, spec)
    if len(pts) > len(pls):
        return _ratio_from_counts(incidences, len(pls), len(pts), max_collinear(pls, spec), spec, True)
    return _ratio_from_counts(incidences, len(pts), len(pls), max_collinear(pts, spec), spec)


def _axial_counts(A: PointSet) -> np.ndarray:
    """Every class's axial pair count by length index, with epsilon_term's value in bin 0.

    The heads M_L of the pairs with bisector key L are the points L mirrors
    onto A.  Reflection is an isometry, so each (a, b) in M_L x M_L is the
    mirrored segment pair (a, b), (sigma_L a, sigma_L b) of length d(a, b).
    Lines with equal |M_L| gather dist[M_L x M_L] together, in blocks.
    """
    table = bisector_table(A)
    n, q = len(A), A.spec.q
    mirrored = table.keys >= 0
    # a point heads at most one pair per line, so each group's heads are distinct
    lines, heads = np.divmod(np.sort(table.keys[mirrored] * n + np.nonzero(mirrored)[0]), n)
    starts = np.flatnonzero(np.diff(lines, prepend=-1))
    sizes = np.diff(starts, append=len(lines))
    bins = np.zeros(q, dtype=np.int64)
    for size in np.flatnonzero(np.bincount(sizes)).tolist():
        members = heads[starts[sizes == size][:, None] + np.arange(size)]
        for lo, hi in _row_blocks(len(members), size * size):
            block = members[lo:hi]
            bins += np.bincount(table.dist[block[:, :, None], block[:, None, :]].ravel(), minlength=q)
    return bins


def axial_pair_count(A: PointSet, r: FieldElement) -> int:
    """Ordered pairs of equal-length segments that mirror across a common axis.

    The axis is the shared perpendicular bisector of the head pair and the
    tail pair; coincident heads or tails are excluded, which is exactly the
    endpoints-off-axis convention.  Read off ``_axial_counts``.
    """
    if not r:
        raise ValueError("a nonzero quadratic length is required")
    return int(_per_set(A, _axial_counts)[r.index])


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
    the diagonal included: the zero bin of ``_axial_counts``.  Over a field
    without isotropic vectors it is just the nonzero-distance pair count.
    """
    value = int(_per_set(A, _axial_counts)[0])
    m = max_collinear_cocircular(A).m
    bound = 2 * m * len(A) ** 2
    return EpsilonTerm(value, bound, value <= bound)


@lru_cache(maxsize=None)
def _field_embedding(spec: FieldSpec) -> tuple[FieldSpec, np.ndarray]:
    """The quadratic extension, and the index of each base element's image under a field embedding.

    Degree one embeds by constants, which keep their index; otherwise the
    base generator goes to the canonically first root of the base modulus
    inside the extension.
    """
    ext = FieldSpec(spec.p, 2 * spec.r)
    if spec.r == 1:
        return ext, np.arange(spec.q, dtype=np.int64)

    def evaluate(coeffs: Sequence[int], at: FieldElement) -> FieldElement:
        acc = ext.zero()
        for c in reversed(coeffs):
            acc = acc * at + ext.element(c)
        return acc

    root = next(alpha for alpha in ext.elements() if not evaluate(spec.modulus, alpha))
    return ext, np.array([evaluate(e.coeffs, root).index for e in spec.elements()], dtype=np.int64)


def _transporters(F, segs: tuple, target: tuple) -> tuple:
    """Columns (u, v, s, t) of the motions taking each segment onto the target segment.

    ``segs`` holds head x, head y, tail x, tail y index columns and ``target``
    the same four indices.  As in ``motion_between_segments``, the rotation is
    w2 / w1 for the displacements w1 of a segment and w2 of the target, a
    rotation only if their lengths agree, and the shift takes head to head.
    """
    hx, hy, tx, ty = segs
    ax, ay, bx, by = (np.int64(c) for c in target)
    w1x, w1y = F.sub(tx, hx), F.sub(ty, hy)
    w2x, w2y = F.sub(bx, ax), F.sub(by, ay)
    r = F.add(F.mul(w1x, w1x), F.mul(w1y, w1y))
    u = F.div(F.add(F.mul(w2x, w1x), F.mul(w2y, w1y)), r)
    v = F.div(F.sub(F.mul(w2y, w1x), F.mul(w2x, w1y)), r)
    s = F.sub(ax, F.sub(F.mul(u, hx), F.mul(v, hy)))
    t = F.sub(ay, F.add(F.mul(v, hx), F.mul(u, hy)))
    if not np.all(F.add(F.mul(u, u), F.mul(v, v)) == 1):
        raise AssertionError("transporters must rotate: a segment differs in length from the target")
    return u, v, s, t


def _pairwise_fixed_points(F, q: int, motions: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The distinct fixed points of g_i^-1 g_j over the pairs i < j, as (x, y) index columns.

    g_i^-1 g_j has rotation (u, v) = conj(R_i) R_j and translation
    t = conj(R_i)(w_j - w_i).  For u != 1 its fixed point solves (I - R) z = t:
    with a = 1 - u and det = a^2 + v^2, z = (a t_x - v t_y, v t_x + a t_y) / det.
    With u = 1 it is a translation (never the identity: the motions are
    distinct) and fixes nothing.  Points are keyed x*q + y, a block at a time.
    """
    u, v, s, t = motions
    n = len(u)
    found = [np.zeros(0, dtype=np.int64)]
    for lo, hi in _row_blocks(n, n):
        i, j = np.nonzero(np.arange(lo, hi)[:, None] < np.arange(n))
        ru = F.add(F.mul(u[i + lo], u[j]), F.mul(v[i + lo], v[j]))
        i, j, ru = i[ru != 1] + lo, j[ru != 1], ru[ru != 1]
        ui, vi = u[i], v[i]
        rv = F.sub(F.mul(ui, v[j]), F.mul(vi, u[j]))
        dx, dy = F.sub(s[j], s[i]), F.sub(t[j], t[i])
        tx, ty = F.add(F.mul(ui, dx), F.mul(vi, dy)), F.sub(F.mul(ui, dy), F.mul(vi, dx))
        a = F.sub(np.int64(1), ru)
        det = F.add(F.mul(a, a), F.mul(rv, rv))
        zx = F.div(F.sub(F.mul(a, tx), F.mul(rv, ty)), det)
        zy = F.div(F.add(F.mul(rv, tx), F.mul(a, ty)), det)
        found.append(np.unique(zx * q + zy, return_counts=True)[0])
    keys = np.unique(np.concatenate(found), return_counts=True)[0]
    return keys // q, keys % q


def _scan_axis(fixed, spec: FieldSpec):
    """First canonical non-isotropic line through none of the points ``fixed`` = (x, y) index columns.

    The scan walks the canonical order one family of parallel lines at a
    time, with a length-q mask of the intercepts the points block: {x + m*y}
    for the normal (1, m), and {y} for the trailing normal (0, 1).
    """
    F, q = _index_field(spec), spec.q
    fx, fy = fixed
    one, zero = spec.one(), spec.zero()
    # an isotropic normal is never a reflection axis; None stands for (0, 1)
    for m in chain((e for e in spec.elements() if one + e * e), [None]):
        blocked = np.zeros(q, dtype=bool)
        blocked[fy if m is None else F.add(fx, F.mul(np.int64(m.index), fy))] = True
        if not blocked.all():
            c = spec.from_index(int(np.argmin(blocked)))
            return Line(zero, one, c) if m is None else Line(one, m, c)
    return None


def _reflect_columns(F, axis: Line, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reflection across a non-isotropic axis: z - 2((n.z - c)/(n.n)) n."""
    n1, n2, c = (np.int64(e.index) for e in (axis.n1, axis.n2, axis.c))
    nn = F.add(F.mul(n1, n1), F.mul(n2, n2))
    k = F.div(F.sub(F.add(F.mul(n1, x), F.mul(n2, y)), c), nn)
    k = F.add(k, k)
    return F.sub(x, F.mul(k, n1)), F.sub(y, F.mul(k, n2))


def _phi_planes(F, plane: ProjPlane, motions: tuple) -> np.ndarray:
    """The image plane of ``plane`` under phi_left(g) for each motion g, as canonical rows.

    Plane coefficients move by the inverse transpose, and phi_left(g)^-1 is
    phi_left(g^-1) up to scale, so the image is the row P * phi_left(g^-1).
    With (h0, h1, h2, h3) = kappa(g^-1) and the standard form's lam = -1 that
    row is (P.h, -P0 h1 + P1 h0 - P2 h3 + P3 h2, P2 h0 - P3 h1, P2 h1 + P3 h0).
    """
    u, v, s, t = motions
    inverse = (u, F.sub(np.int64(0), v),
               F.sub(np.int64(0), F.add(F.mul(u, s), F.mul(v, t))), F.sub(F.mul(v, s), F.mul(u, t)))
    h0, h1, h2, h3 = _kappa_rows(F, inverse).T
    p0, p1, p2, p3 = (np.int64(c.index) for c in plane.coeffs)
    rows = np.stack([
        F.add(F.add(F.mul(p0, h0), F.mul(p1, h1)), F.add(F.mul(p2, h2), F.mul(p3, h3))),
        F.add(F.sub(F.mul(p1, h0), F.mul(p0, h1)), F.sub(F.mul(p3, h2), F.mul(p2, h3))),
        F.sub(F.mul(p2, h0), F.mul(p3, h1)),
        F.add(F.mul(p2, h1), F.mul(p3, h0)),
    ], axis=1)
    return _canonical_rows(F, rows)


# The witness JSON's keys, in order.
_WITNESS_KEYS = (
    "base_field", "work_field", "lifted", "r", "s_r", "axis", "g_motions", "h_motions", "points", "planes",
    "i_ax", "i_on_axis", "incidences", "equal", "verdict", "k", "m_curve", "max_class_size", "erdos_ceiling",
)


@dataclass(eq=False)
class ReductionWitness:
    """Everything needed to replay one segment-class reduction.

    The families are kept as the index columns they were counted on: the
    motions ``g`` and ``h`` as (u, v, s, t) columns, the point and plane
    families as canonical (N, 4) rows over ``work_field``.  The object tuples
    ``g_motions``, ``h_motions``, ``points`` and ``planes`` and the line
    occupancy ``k`` are built on first read.
    """

    base_field: FieldSpec
    work_field: FieldSpec
    lifted: bool
    r: FieldElement
    s_r: Segment
    axis: Line
    g: tuple
    h: tuple
    point_rows: np.ndarray
    plane_rows: np.ndarray
    i_ax: int
    i_on_axis: int
    incidences: int
    equal: bool
    verdict: str
    m_curve: int
    max_class_size: int
    erdos_ceiling: int

    def _objects(self, make, columns) -> tuple:
        element = self.work_field.from_index
        return tuple(make(*map(element, row)) for row in zip(*(c.tolist() for c in columns)))

    @cached_property
    def g_motions(self) -> tuple:
        return self._objects(RigidMotion, self.g)

    @cached_property
    def h_motions(self) -> tuple:
        return self._objects(RigidMotion, self.h)

    @cached_property
    def points(self) -> tuple:
        return self._objects(lambda *coords: ProjPoint(coords), self.point_rows.T)

    @cached_property
    def planes(self) -> tuple:
        return self._objects(lambda *coeffs: ProjPlane(coeffs), self.plane_rows.T)

    @cached_property
    def k(self) -> int:
        """The most points of the family on one projective line."""
        return max_collinear(self.point_rows, self.work_field)

    def ratio(self) -> RudnevRatio:
        """The Rudnev ratio of the witness's families, from its own counts.

        Both families have |S_r| members, so they are never swapped.
        """
        return _ratio_from_counts(self.incidences, len(self.point_rows), len(self.plane_rows), self.k, self.work_field)

    def to_json(self) -> dict:
        def encode(value):
            if isinstance(value, tuple):
                return [x.to_json() for x in value]
            return value.to_json() if hasattr(value, "to_json") else value

        return {name: encode(getattr(self, name)) for name in _WITNESS_KEYS}


def _segment_columns(heads, tails, x: np.ndarray, y: np.ndarray) -> tuple:
    """(head x, head y, tail x, tail y) columns of the given pairs, ordered by ``Segment.key``."""
    segs = (x[heads], y[heads], x[tails], y[tails])
    order = np.lexsort(segs[::-1])
    return tuple(c[order] for c in segs)


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
    table = bisector_table(A)
    heads, tails = np.nonzero(table.dist == r.index)
    if not len(heads):
        raise EmptySegmentClassError(f"no segments of length {r!r}")
    x, y = _index_coords(A)
    spec, work_r, lifted = A.spec, r, False
    F = _index_field(spec)
    segs = _segment_columns(heads, tails, x, y)
    g = _transporters(F, segs, [c[0] for c in segs])
    fixed = _pairwise_fixed_points(F, spec.q, g)
    axis = _scan_axis(fixed, spec)
    if axis is None:
        spec, into = _field_embedding(A.spec)
        work_r, lifted, F = spec.from_index(int(into[r.index])), True, _index_field(spec)
        # g_i^-1 g_j takes segment j onto segment i whatever s_r is, so the
        # lifted fixed points are the embedded base ones
        fixed = (into[fixed[0]], into[fixed[1]])
        axis = _scan_axis(fixed, spec)
        if axis is None:
            raise ReductionUnavailableError(f"no valid axis over {spec!r} for r={r!r}, |S_r|={len(heads)}")
        segs = _segment_columns(heads, tails, into[x], into[y])
        g = _transporters(F, segs, [c[0] for c in segs])

    hx, hy, tx, ty = segs
    target = [c[0] for c in segs]
    mirrored = _reflect_columns(F, axis, hx, hy) + _reflect_columns(F, axis, tx, ty)
    h = _transporters(F, mirrored, target)
    points = _kappa_rows(F, h)
    planes = _phi_planes(F, r_tau_plane(axis), g)

    if len(_distinct_rows(points)) != len(points):
        raise AssertionError("projective points must be pairwise distinct")
    if len(_distinct_rows(planes)) != len(planes):
        raise AssertionError("planes must be pairwise distinct")
    if np.any(F.add(F.mul(points[:, 0], points[:, 0]), F.mul(points[:, 1], points[:, 1])) == 0):
        raise AssertionError("points must avoid the exceptional locus")
    # Axis validity makes both sides of the plane-coincidence criterion false
    # for every distinct pair.  A non-identity quotient is an axial rotation
    # iff it fixes a point of the axis, so the left side fails because no
    # pairwise fixed point lies on the axis; the right side fails because the
    # plane keys were just checked pairwise distinct.
    n1, n2, c = (np.int64(e.index) for e in (axis.n1, axis.n2, axis.c))
    if np.any(F.add(F.mul(n1, fixed[0]), F.mul(n2, fixed[1])) == c):
        raise AssertionError("valid axis cannot yield an axial quotient")

    incidences = count_incidences(points, planes, spec)
    # The axial and on-axis counts, the class sizes and the curve occupancy
    # maximum are invariant under the base-rational embedding, so they are
    # read off the base set either way.
    i_ax = axial_pair_count(A, r)
    # 2 per equal-leg triple with legs r (h(h - 1) at an apex heading h of
    # S_r), plus each segment mirrored across its own spanning line
    apex = np.bincount(heads, minlength=len(A))
    i_on_axis = int(2 * apex @ (apex - 1) + len(heads))
    element = spec.from_index

    return ReductionWitness(
        base_field=A.spec, work_field=spec, lifted=lifted, r=work_r,
        s_r=Segment(Point(element(target[0]), element(target[1])), Point(element(target[2]), element(target[3]))),
        axis=axis, g=g, h=h, point_rows=points, plane_rows=planes,
        i_ax=i_ax, i_on_axis=i_on_axis, incidences=incidences, equal=incidences == i_ax,
        verdict="explained" if incidences == i_ax + i_on_axis else "unexplained",
        m_curve=max_collinear_cocircular(A).m,
        max_class_size=int(segment_classes(A).sizes[1:].max(initial=0)),
        erdos_ceiling=_ceil_sqrt(len(A) ** 3),
    )
