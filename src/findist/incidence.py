"""Point-plane incidences in projective 3-space and the reduction to them.

The centerpiece is claim_reductions: for each nonzero quadratic length r, turn
every segment of that length into a rigid motion, push the motions through
the projective embedding, and compare the resulting point-plane incidence
count against the planar axial-symmetry count it is supposed to encode,
for all classes of a set in one batched pass.
The incidence count always exceeds the off-axis pair count by an on-axis
contribution (segments fixed or swapped by the mirror itself); the witness
enumerates that contribution independently and reports whether it explains
the difference exactly.

It runs on the field's index kernel, with motions as (u, v, s, t) index
columns and point and plane families as (N, 4) arrays of canonical rows.
The witness holds those columns and writes its JSON from them; its line
occupancy k is built on first read.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from typing import NamedTuple, Sequence

import numpy as np

from . import field
from .counting import _index_coords, _per_set, bisector_table, max_collinear_cocircular, pinned_profile, segment_classes
from .field import FieldElement, FieldSpec, _index_field
from .geometry import Line, Point, PointSet, Segment
from .projective_rows import _canonical_rows, _kappa_rows, _r_tau_planes


class EmptySegmentClassError(ValueError):
    pass


class ReductionUnavailableError(RuntimeError):
    pass


def _ceil_sqrt(n: int) -> int:
    s = math.isqrt(n)
    return s if s * s == n else s + 1


def _rows(family: Sequence) -> np.ndarray:
    """The (N, 4) index array of ProjPoints or ProjPlanes."""
    return np.array([x.key for x in family], dtype=np.int64).reshape(-1, 4)


def _distinct_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows, in lexicographic order."""
    rows = rows[np.lexsort(rows.T[::-1])]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[keep]


def _hits(F, points: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """#{(X, P): X . P = 0} of each leading block, points (..., h, 4) against planes (..., s, 4)."""
    t0, t1, t2, t3 = (F.mul(points[..., :, None, i], planes[..., None, :, i]) for i in range(4))
    return np.count_nonzero(F.add(F.add(t0, t1), F.add(t2, t3)) == 0, axis=(-2, -1))


def count_incidences(points: np.ndarray, planes: np.ndarray, spec: FieldSpec) -> int:
    """Exact #{(X, P): X . P = 0} over (N, 4) point and (M, 4) plane index arrays, a block of points at a time."""
    F = _index_field(spec)
    return sum(int(_hits(F, points[lo:hi], planes)) for lo, hi in field.blocks(len(points), len(planes)))


def _class_blocks(first: np.ndarray, size: np.ndarray):
    """Blocks (classes, rows (k, h), cols (k, s)): row indices of k classes of size s, at most CHUNK_CELLS cells."""
    for s in np.flatnonzero(np.bincount(size)).tolist():
        group = np.flatnonzero(size == s)
        for k, end in field.blocks(len(group), s * s):
            start = first[group[k:end], None]
            for lo, hi in field.blocks(s, s):
                yield group[k:end], start + np.arange(lo, hi), start + np.arange(s)


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
    for lo, hi in field.blocks(n, n):
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


class RudnevRatio(NamedTuple):
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
        out = self._asdict()
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
    Lines with equal |M_L| gather dist[M_L x M_L] together (``_class_blocks``).
    """
    table = bisector_table(A)
    n, q = len(A), A.spec.q
    mirrored = table.keys >= 0
    # a point heads at most one pair per line, so each group's heads are distinct
    lines, heads = np.divmod(np.sort(table.keys[mirrored] * n + np.nonzero(mirrored)[0]), n)
    starts = np.flatnonzero(np.diff(lines, prepend=-1))
    sizes = np.diff(starts, append=len(lines))
    bins = np.zeros(q, dtype=np.int64)
    for _, rows, cols in _class_blocks(starts, sizes):
        bins += np.bincount(table.dist[heads[rows][:, :, None], heads[cols][:, None, :]].ravel(), minlength=q)
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


class EpsilonTerm(NamedTuple):
    """Degenerate-segment contribution to the reflection energy."""

    value: int
    bound: int
    within_bound: bool


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

    The base generator goes to the canonically first root of the base
    modulus inside the extension, where the base digits are constants
    (indices below p): Horner's rule on the extension's index kernel, for
    every candidate root and then every base element at once.
    """
    ext = FieldSpec(spec.p, 2 * spec.r)
    F = _index_field(ext)

    def horner(coeffs, at):
        return reduce(lambda acc, c: F.add(F.mul(acc, at), c), coeffs[::-1], np.int64(0))

    root = np.argmax(horner(spec.modulus, np.arange(ext.q)) == 0)
    return ext, horner(np.arange(spec.q) // spec.p ** np.arange(spec.r)[:, None] % spec.p, root)


def _transporters(F, segs: tuple, target: tuple) -> tuple:
    """Columns (u, v, s, t) of the motions taking each segment onto its target, both (hx, hy, tx, ty) columns.

    As in ``motion_between_segments``, the rotation is w2 / w1 for the
    displacements w1 of a segment and w2 of its target, a rotation only if
    their lengths agree (``_rotates``), and the shift takes head to head.
    """
    hx, hy, tx, ty = segs
    ax, ay, bx, by = target
    w1x, w1y = F.sub(tx, hx), F.sub(ty, hy)
    w2x, w2y = F.sub(bx, ax), F.sub(by, ay)
    r = F.add(F.mul(w1x, w1x), F.mul(w1y, w1y))
    u = F.div(F.add(F.mul(w2x, w1x), F.mul(w2y, w1y)), r)
    v = F.div(F.sub(F.mul(w2y, w1x), F.mul(w2x, w1y)), r)
    s = F.sub(ax, F.sub(F.mul(u, hx), F.mul(v, hy)))
    t = F.sub(ay, F.add(F.mul(v, hx), F.mul(u, hy)))
    return u, v, s, t


def _rotates(F, motions: tuple) -> np.ndarray:
    """Which (u, v, s, t) rows have u^2 + v^2 = 1."""
    u, v = motions[:2]
    return F.add(F.mul(u, u), F.mul(v, v)) == 1


def _normals(F, q: int) -> tuple[np.ndarray, np.ndarray]:
    """The (n1, n2) columns of the canonical non-isotropic line normals in order: (1, m) by m, then (0, 1)."""
    e = np.arange(q)
    m = e[F.add(np.int64(1), F.mul(e, e)) != 0]
    return np.append(np.ones_like(m), 0), np.append(m, 1)


def _every_line_blocked(keys: np.ndarray, q: int, n: int) -> np.ndarray:
    """Which classes 0..n-1 have more than q^2 - q of the distinct points (class*q + x)*q + y in ``keys``."""
    return np.bincount(keys // (q * q), minlength=n) > q * q - q  # fewer than q, a base line's, stay free


def _first_free(F, q: int, normals: tuple, keys: np.ndarray, n: int) -> np.ndarray:
    """Each class's first line k*q + c, n1[k]*x + n2[k]*y = c, through none of its points, or -1.

    ``keys`` are distinct points (class*q + x)*q + y of classes 0..n-1.  A class ``_every_line_blocked`` names
    gets -1 unscanned; the rest scan a block of normals at a time while open: O(points + classes * q) memory.
    """
    n1, n2 = normals
    free, todo = np.full(n, -1), ~_every_line_blocked(keys, q, n)
    keys = keys[todo[keys // (q * q)]]
    cls, x, y = keys // (q * q), keys // q % q, keys % q
    for lo, hi in field.blocks(len(n1), max(len(keys), n * q)):
        if not todo.any():
            break
        k = np.arange(lo, hi)
        lines = np.zeros((n, len(k) * q), dtype=bool)
        c = F.add(n1[k] * x[:, None], F.mul(n2[k], y[:, None]))  # n1 is 0 or 1, which an index product keeps
        lines.reshape(-1)[(cls[:, None] * len(k) + k - lo) * q + c] = True
        now = todo & ~lines.all(axis=1)
        free[now] = lo * q + np.argmin(lines[now], axis=1)
        todo &= ~now
        cls, x, y = (col[todo[cls]] for col in (cls, x, y))
    return free


def _pairwise_fixed_points(F, q: int, motions: tuple, first: np.ndarray, size: np.ndarray) -> tuple:
    """The distinct fixed points of g_i^-1 g_j over the pairs i < j of each class, and its first free base line.

    With g: z -> R z + w, R = u + iv, g_i^-1 g_j fixes z iff (R_i - R_j) z =
    w_j - w_i, so z = (w_j - w_i) conj(R_i - R_j) / N, N = |R_i - R_j|^2 =
    2 - 2 Re(conj(R_i) R_j).  N = 0 makes it a translation, which fixes nothing.
    A class that ``_every_line_blocked`` names skips its later pair blocks and the line scan: any subset
    of pairs that blocks every line gives the same lifted witness, and ``_certified`` checks the points found.
    """
    u, v, s, t = motions
    found, blocked = [np.zeros(0, dtype=np.int64)], np.zeros(len(size), dtype=bool)
    for classes, rows, cols in _class_blocks(first, size):
        if blocked[classes[0]]:  # a class spread over several blocks is alone in each
            continue
        pair = rows[:, :, None] < cols[:, None, :]
        ends = (classes[:, None, None], rows[:, :, None], cols[:, None, :])
        cls, i, j = (np.broadcast_to(c, pair.shape)[pair] for c in ends)
        du, dv = F.sub(u[i], u[j]), F.sub(v[i], v[j])
        norm = F.add(F.mul(du, du), F.mul(dv, dv))
        cls, i, j, du, dv, norm = (c[norm != 0] for c in (cls, i, j, du, dv, norm))
        ds, dt = F.sub(s[j], s[i]), F.sub(t[j], t[i])
        zx = F.div(F.add(F.mul(ds, du), F.mul(dt, dv)), norm)
        zy = F.div(F.sub(F.mul(dt, du), F.mul(ds, dv)), norm)
        keys = (cls * q + zx) * q + zy
        if rows[0, 0] > first[classes[0]]:  # a later block of a spread class joins its points so far
            keys = np.concatenate([found.pop(), keys])
        found.append(np.unique(keys, return_counts=True)[0])  # without counts np.unique imports numpy.ma
        blocked[classes] = _every_line_blocked(found[-1], q, len(size))[classes]
    keys = np.concatenate(found)
    return (keys // (q * q), keys // q % q, keys % q), _first_free(F, q, _normals(F, q), keys, len(size))


def _certified(fixed: tuple, into: np.ndarray, c0: int, n_classes: int) -> np.ndarray:
    """Which classes have no fixed point whose embedded x is c0: all, for c0 outside a field embedding's image."""
    return np.bincount(fixed[0][into[fixed[1]] == c0], minlength=n_classes) == 0


def _reflect_columns(F, axis: tuple, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reflection across non-isotropic axes (n1, n2, c), one per row: z - 2((n.z - c)/(n.n)) n."""
    n1, n2, c = axis
    nn = F.add(F.mul(n1, n1), F.mul(n2, n2))
    k = F.div(F.sub(F.add(F.mul(n1, x), F.mul(n2, y)), c), nn)
    k = F.add(k, k)
    return F.sub(x, F.mul(k, n1)), F.sub(y, F.mul(k, n2))


def _phi_planes(F, plane: tuple, motions: tuple) -> np.ndarray:
    """The image of the plane (P0, P1, P2, P3) of each row under phi_left(g) for its motion g, as canonical rows.

    Plane coefficients move by the inverse transpose, and phi_left(g)^-1 is
    phi_left(g^-1) up to scale, so the image is the row P * phi_left(g^-1).
    With (h0, h1, h2, h3) = kappa(g^-1) and the standard form's lam = -1 that
    row is (P.h, -P0 h1 + P1 h0 - P2 h3 + P3 h2, P2 h0 - P3 h1, P2 h1 + P3 h0).
    """
    u, v, s, t = motions
    inverse = (u, F.sub(np.int64(0), v),
               F.sub(np.int64(0), F.add(F.mul(u, s), F.mul(v, t))), F.sub(F.mul(v, s), F.mul(u, t)))
    h0, h1, h2, h3 = _kappa_rows(F, inverse).T
    p0, p1, p2, p3 = plane
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


class ReductionWitness:
    """Everything needed to replay one segment-class reduction.

    The data are kept as the indices they were computed on: ``r``, ``s_r``
    (hx, hy, tx, ty) and ``axis`` (n1, n2, c) over ``work_field``, the
    motions ``g`` and ``h`` as (u, v, s, t) columns, the point and plane
    families as canonical (N, 4) rows.  ``r``, ``s_r``, ``axis`` and the line
    occupancy ``k`` are built on first read, so a lifted reduction builds no
    extension element until then.  ``to_json`` writes each family from its
    rows as its motion, point or plane objects would, so no run loads the
    motion or kinematic modules.
    """

    base_field: FieldSpec
    work_field: FieldSpec
    lifted: bool
    r_index: int
    s_r_key: tuple
    axis_key: tuple
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

    def __init__(self, **fields):
        self.__dict__.update(fields)

    @cached_property
    def r(self) -> FieldElement:
        return self.work_field.from_index(self.r_index)

    @cached_property
    def s_r(self) -> Segment:
        ax, ay, bx, by = map(self.work_field.from_index, self.s_r_key)
        return Segment(Point(ax, ay), Point(bx, by))

    @cached_property
    def axis(self) -> Line:
        return Line(*map(self.work_field.from_index, self.axis_key))

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
        # each family from its canonical rows, as its objects would write it
        element = self.work_field.from_index
        families = {"g_motions": self.g, "h_motions": self.h, "points": self.point_rows.T, "planes": self.plane_rows.T}

        def encode(name):
            if name in families:
                return [[element(i).to_json() for i in row] for row in zip(*(c.tolist() for c in families[name]))]
            value = getattr(self, name)
            return value.to_json() if hasattr(value, "to_json") else value

        return {name: encode(name) for name in _WITNESS_KEYS}


def _only(keep: np.ndarray, cls: np.ndarray, *columns) -> tuple:
    """The kept classes' rows: class ids renumbered in order, then each column."""
    if keep.all():
        return (cls,) + columns
    rows = keep[cls]
    return ((np.cumsum(keep) - 1)[cls[rows]],) + tuple(c[rows] for c in columns)


def _repeating(cls: np.ndarray, rows: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The classes in which some (N, 4) row repeats."""
    return np.flatnonzero(np.bincount(_distinct_rows(np.column_stack([cls, rows]))[:, 0], minlength=len(size)) < size)


def _class_rows(F, x: np.ndarray, y: np.ndarray, cls: np.ndarray, heads: np.ndarray, tails: np.ndarray,
                size: np.ndarray) -> tuple:
    """The segments by class, then Segment.key: (class, hx, hy, tx, ty) and the motion (u, v, s, t) onto the first."""
    segs = (x[heads], y[heads], x[tails], y[tails])
    order = np.lexsort(segs[::-1] + (cls,))
    row_class, segs = cls[order], tuple(c[order] for c in segs)
    first = np.cumsum(size) - size
    return (row_class, *segs, *_transporters(F, segs, tuple(c[first][row_class] for c in segs)))


def claim_reductions(A: PointSet, lengths: Sequence[FieldElement]) -> list:
    """Reduce the segment class of each distinct nonzero length to a projective point-plane incidence count.

    Per class: take the motions g with g(x) = s_r, the first segment; pick the
    first mirror axis no pairwise quotient fixes a point of; reflect for the
    points, move the axial-rotation plane by the g for the planes; count.
    A class whose fixed points block every base line is reduced over the
    quadratic extension with the axis x = p: the constants embed as
    themselves and index p, the generator, lies in no proper subfield, so
    each line x = into[b] before it is blocked by the embedded point that
    blocked x = b, and x = p holds none (``_certified`` checks ``into``).
    Each stage runs once per work field over all its classes.  Returns each
    class's witness or the ReductionUnavailableError or AssertionError it raised.
    """
    if not all(lengths):
        raise ValueError("a nonzero quadratic length is required")
    dist, n = bisector_table(A).dist, len(A)
    ids = np.full(A.spec.q, -1)
    ids[[r.index for r in lengths]] = np.arange(len(lengths))
    heads, tails = np.nonzero(ids[dist] >= 0)
    cls = ids[dist[heads, tails]]
    sizes = np.bincount(cls, minlength=len(lengths))
    if not sizes.all():
        raise EmptySegmentClassError(f"no segments of length {lengths[int(np.argmin(sizes))]!r}")
    # the embedding changes no count below, so the base set gives them; the
    # on-axis count is 2 n_{a,r}(n_{a,r} - 1) summed over the apexes a, plus
    # |S_r|; the float weights are exact below 2^53
    profile = pinned_profile(A)
    apex_pairs = np.bincount(profile.r, weights=profile.n * (profile.n - 1), minlength=A.spec.q).astype(np.int64)
    i_on_axis = (2 * apex_pairs[[r.index for r in lengths]] + sizes).tolist()
    axial, out = _per_set(A, _axial_counts), [None] * len(lengths)
    shared = dict(base_field=A.spec, m_curve=max_collinear_cocircular(A).m, erdos_ceiling=_ceil_sqrt(n ** 3),
                  max_class_size=int(segment_classes(A).sizes[1:].max(initial=0)))
    spec, (x, y) = A.spec, _index_coords(A)
    F, q = _index_field(spec), spec.q
    rows = _class_rows(F, x, y, cls, heads, tails, sizes)
    fixed, free = _pairwise_fixed_points(F, q, rows[5:], np.cumsum(sizes) - sizes, sizes)
    base, lifted, line = free >= 0, free < 0, free[free >= 0]
    stages = [(spec, None, base, (*(n[line // q] for n in _normals(F, q)), line % q), _only(base, *fixed),
               _only(base, *rows))]
    if lifted.any() and q * q > field.Q_MAX:
        for k in np.flatnonzero(lifted).tolist():
            out[k] = ReductionUnavailableError(f"no valid axis over {spec!r} for r={lengths[k]!r}, |S_r|={sizes[k]}; "
                                               f"the lift to q = {q}^2 exceeds the limit {field.Q_MAX}")
    elif lifted.any():
        ext, into = _field_embedding(spec)
        keep = lifted & _certified(fixed, into, spec.p, len(lengths))
        for k in np.flatnonzero(lifted & ~keep).tolist():
            out[k] = ReductionUnavailableError(f"no valid axis over {ext!r} for r={lengths[k]!r}, |S_r|={sizes[k]}: "
                                               f"a fixed point embeds on x = {spec.p}, the certified axis")
        rows = _class_rows(_index_field(ext), into[x], into[y], *_only(keep, cls, heads, tails), sizes[keep])
        axis = np.full((3, np.count_nonzero(keep)), [[1], [0], [spec.p]])
        stages.append((ext, into, keep, tuple(axis), (np.zeros(0, dtype=np.int64),) * 3, rows))
    for spec, into, keep, axis_cols, (fc, fx, fy), (row_class, hx, hy, tx, ty, *g) in stages:
        if not keep.any():
            continue
        F, done, size = _index_field(spec), np.flatnonzero(keep), sizes[keep]
        first = np.cumsum(size) - size
        line = tuple(col[row_class] for col in axis_cols)
        h = _transporters(F, _reflect_columns(F, line, hx, hy) + _reflect_columns(F, line, tx, ty),
                          tuple(col[first][row_class] for col in (hx, hy, tx, ty)))
        points = _kappa_rows(F, h)
        planes = _phi_planes(F, tuple(_r_tau_planes(F, axis_cols)[row_class].T), g)
        # Axis validity makes both sides of the plane-coincidence criterion false
        # for every distinct pair.  A non-identity quotient is an axial rotation
        # iff it fixes a point of the axis, so the left side fails because no
        # pairwise fixed point lies on the axis (for a lifted class, checked by
        # ``_certified``); the right side fails because the plane keys were just
        # checked pairwise distinct.
        n1, n2, c = (col[fc] for col in axis_cols)
        for bad, message in (
            (row_class[~(_rotates(F, g) & _rotates(F, h))],
             "transporters must rotate: a segment differs in length from the target"),
            (_repeating(row_class, points, size), "projective points must be pairwise distinct"),
            (_repeating(row_class, planes, size), "planes must be pairwise distinct"),
            (row_class[F.add(F.mul(points[:, 0], points[:, 0]), F.mul(points[:, 1], points[:, 1])) == 0],
             "points must avoid the exceptional locus"),
            (fc[F.add(F.mul(n1, fx), F.mul(n2, fy)) == c], "valid axis cannot yield an axial quotient"),
        ):
            for k in set(done[bad].tolist()):
                out[k] = out[k] or AssertionError(message)
        blocks = [(k, _hits(F, points[rows], planes[cols])) for k, rows, cols in _class_blocks(first, size)]
        incidences = np.bincount(*map(np.concatenate, zip(*blocks)), minlength=len(done)).astype(np.int64)
        for k, axis, lo, hi, count in zip(done.tolist(), zip(*(col.tolist() for col in axis_cols)), first.tolist(),
                                          (first + size).tolist(), incidences.tolist()):
            r, i_ax = lengths[k].index, int(axial[lengths[k].index])
            out[k] = out[k] or ReductionWitness(
                **shared, work_field=spec, lifted=into is not None, r_index=r if into is None else int(into[r]),
                s_r_key=tuple(int(col[lo]) for col in (hx, hy, tx, ty)), axis_key=axis,
                g=tuple(col[lo:hi] for col in g), h=tuple(col[lo:hi] for col in h), point_rows=points[lo:hi],
                plane_rows=planes[lo:hi], i_ax=i_ax, i_on_axis=i_on_axis[k], incidences=count, equal=count == i_ax,
                verdict="explained" if count == i_ax + i_on_axis[k] else "unexplained",
            )
    return out


def claim_reduction(A: PointSet, r: FieldElement) -> ReductionWitness:
    """``claim_reductions`` of one class."""
    (witness,) = claim_reductions(A, [r])
    if isinstance(witness, Exception):
        raise witness
    return witness
