"""Exact counting statistics for planar point sets over odd-characteristic fields.

Distance spectra, segment class sizes, isosceles triples, bisector
energies, the identity checks relating them, and the greedy curve-pruning
passes.  Every quantity is an exact integer obtained by finite enumeration
on the field's index kernel; every pair-level count is read off one
distance table per point set.  The naive object loops live in the test
suite as oracles, which these counts must agree with.

Tuple counts are ordered throughout: a quadruple and its swap are two
quadruples.
"""

from __future__ import annotations

from math import comb
from typing import Callable, Iterator, NamedTuple, Optional, Union

import numpy as np

from .field import FieldElement, FieldSpec, _index_field, blocks
from .geometry import Circle, Line, Point, PointSet


def _per_set(A: PointSet, compute: Callable):
    """compute(A), evaluated once per point set and kept in its cache."""
    try:
        return A._cache[compute]
    except KeyError:
        value = A._cache[compute] = compute(A)
        return value


def _index_coords(A: PointSet) -> tuple[np.ndarray, np.ndarray]:
    """The coordinates of A's points as read-only index arrays, in the order of ``A.points``, once per point set."""
    return _per_set(A, _coordinate_indices)


def _coordinate_indices(A: PointSet) -> tuple[np.ndarray, np.ndarray]:
    x = np.array([p.x.index for p in A.points], dtype=np.int64)
    y = np.array([p.y.index for p in A.points], dtype=np.int64)
    x.flags.writeable = y.flags.writeable = False
    return x, y


class DistanceStats(NamedTuple):
    """Counts of the distance spectra.

    pind and pind_nonzero are the most lengths one apex has, with and without
    0; nonzero_pairs counts the ordered pairs at a nonzero length, and
    distinct_distances the lengths some pair has.
    """

    pind: int
    pind_nonzero: int
    nonzero_pairs: int
    distinct_distances: int


def distance_stats(A: PointSet) -> DistanceStats:
    """The distance spectra: pind is the most lengths one apex has in the pinned-distance profile."""
    pind = int(np.bincount(pinned_profile(A).apex).max(initial=0))
    # every spectrum holds d(a, a) = 0
    return DistanceStats(pind, max(pind - 1, 0), int(np.count_nonzero(bisector_table(A).dist)),
                         int(np.count_nonzero(segment_classes(A).sizes)))


class SegmentClasses(NamedTuple):
    """Ordered pairs of A-points grouped by quadratic length, as class sizes.

    ``sizes[r]`` counts the pairs at length index r, one bin per element of
    the field; the zero class keeps the diagonal pairs (a, a).  The quadruple
    count q_value sums squared class sizes over nonzero lengths only.
    """

    spec: FieldSpec
    sizes: np.ndarray
    q_value: int

    def nonzero_sizes(self) -> list[tuple[FieldElement, int]]:
        """(r, |S_r|) for every nonzero length some pair has, in index order."""
        lengths = np.flatnonzero(self.sizes[1:]) + 1
        return [(self.spec.from_index(r), int(self.sizes[r])) for r in lengths.tolist()]

    def largest(self) -> Optional[FieldElement]:
        """The nonzero length with the most pairs, the least index among equals; None if no pair has one."""
        if not self.sizes[1:].any():
            return None
        return self.spec.from_index(int(np.argmax(self.sizes[1:])) + 1)  # argmax takes the first maximum


def segment_classes(A: PointSet) -> SegmentClasses:
    """The segment class sizes of A, counted off the bisector table's distance matrix once per point set."""
    return _per_set(A, _segment_classes)


def _segment_classes(A: PointSet) -> SegmentClasses:
    sizes = np.bincount(bisector_table(A).dist.ravel(), minlength=A.spec.q)
    return SegmentClasses(A.spec, sizes, int(sizes[1:] @ sizes[1:]))


class PinnedProfile(NamedTuple):
    """The pinned-distance profile n_{a,r} = #{b in A : d(a, b) = r}, as columns.

    One entry per apex index a and length index r with n_{a,r} > 0, by apex
    and then r; each apex's first entry is r = 0, which holds a itself.
    """

    apex: np.ndarray
    r: np.ndarray
    n: np.ndarray


def pinned_profile(A: PointSet) -> PinnedProfile:
    """The pinned-distance profile of A, computed once per point set."""
    return _per_set(A, _pinned_profile)


def _pinned_profile(A: PointSet) -> PinnedProfile:
    # the runs of equal entries in each sorted row of the distance matrix
    rows = np.sort(bisector_table(A).dist, axis=1)
    starts = np.ones(rows.shape, dtype=bool)
    starts[:, 1:] = rows[:, 1:] != rows[:, :-1]
    first = np.flatnonzero(starts)
    return PinnedProfile(first // max(len(A), 1), rows.ravel()[first], np.diff(first, append=rows.size))


def isotropic_line_counts(A: PointSet) -> np.ndarray:
    """Per square root i of -1, the points of A on the line x + i*y = c through each point, once per point set.

    One row per root, in ``sqrt`` order, and none when -1 is not a square.
    """
    return _per_set(A, _isotropic_line_counts)


def _isotropic_line_counts(A: PointSet) -> np.ndarray:
    F = _index_field(A.spec)
    x, y = _index_coords(A)
    lines = (F.add(x, F.mul(i.index, y)) for i in (-A.spec.one()).sqrt())
    return np.array([np.bincount(c)[c] for c in lines], dtype=np.int64)


class IsoscelesCounts(NamedTuple):
    """Ordered triples (apex, b, b') with equal legs and non-isotropic base.

    t requires the common leg length to be nonzero, t_all does not.
    """

    t: int
    t_all: int


def isosceles_count(A: PointSet) -> IsoscelesCounts:
    """The isosceles triples of A, counted once per point set."""
    return _per_set(A, _isosceles_count)


def _isosceles_count(A: PointSet) -> IsoscelesCounts:
    """Count isosceles triples off the pinned-distance profile.

    Equal nonzero legs force a non-isotropic base, so an apex adds
    n_{a,r}(n_{a,r} - 1) for each nonzero r.  Zero legs add only the cross
    pairs on the two isotropic lines through the apex, 2 (n_1 - 1)(n_2 - 1)
    for lines holding n_1 and n_2 points, and those lines exist only when -1
    is a square.
    """
    profile = pinned_profile(A)
    legs = profile.n[profile.r != 0]
    t = int(legs @ (legs - 1))
    others = isotropic_line_counts(A) - 1
    return IsoscelesCounts(t, t + 2 * int(others[0] @ others[1]) if len(others) else t)


class BisectorTable(NamedTuple):
    """The pair tables of A, indexed in the order of ``A.points``.

    ``dist[i, j]`` is the index of d(a_i, a_j).  ``keys[i, j]`` is the
    canonical equidistant_line(a_i, a_j) as an int: m*q + c for the line
    x + m*y = c and q^2 + c for y = c, so integer order is ``all_lines``
    order.  It is -1 on the diagonal and wherever d(a_i, a_j) = 0, where the
    locus is isotropic and mirrors nothing; everywhere else a_j is the
    reflection of a_i across that line.
    """

    dist: np.ndarray
    keys: np.ndarray


def bisector_table(A: PointSet) -> BisectorTable:
    """The distance and bisector-key tables of A, computed once per point set."""
    return _per_set(A, _bisector_table)


def _bisector_table(A: PointSet) -> BisectorTable:
    F, q = _index_field(A.spec), A.spec.q
    x, y = _index_coords(A)
    # equidistant_line(a, b) is 2(b - a).z = |b|^2 - |a|^2, with a the row point
    dx, dy = F.sub(x[None, :], x[:, None]), F.sub(y[None, :], y[:, None])
    dist = F.add(F.mul(dx, dx), F.mul(dy, dy))
    norm = F.add(F.mul(x, x), F.mul(y, y))
    flat = dx == 0
    lead = np.where(flat, dy, dx)
    lead = F.add(lead, lead)
    c = F.div(F.sub(norm[None, :], norm[:, None]), np.where(lead == 0, 1, lead))
    m = F.div(dy, np.where(flat, 1, dx))
    keys = np.where(flat, q * q + c, m * q + c)
    keys[dist == 0] = -1
    return BisectorTable(dist, keys)


class BisectorStats(NamedTuple):
    """Per-line symmetry counts and their second moments.

    b_star counts off-line points whose mirror image lands back in A (zero on
    isotropic lines, where no reflection exists).  b adds the degenerately
    symmetric pairs: on-line points anchoring a partner at quadratic distance
    0.  cone_count is |A| intersected with the zero cone at the origin, and
    n_isotropic = max(cone_count - 1, 0) is the partner count the affine
    relation b = i * n_isotropic + b_star predicts; the relation is recorded
    per line, never assumed.

    The per-line counts are arrays over ``line_keys``, the bisector-table
    keys of every line holding a point of A or a reflection pair, ascending;
    every other line has all counts zero.
    """

    b_energy: int
    b_star_energy: int
    cone_count: int
    n_isotropic: int
    relation_universal: bool
    line_keys: np.ndarray
    incidence: np.ndarray
    b: np.ndarray
    b_star: np.ndarray


def bisector_stats(A: PointSet) -> BisectorStats:
    """Bisector counts of A on every line, computed once per point set.

    A pair at nonzero distance mirrors across exactly its bisector, so b_star
    of a line is the number of bisector-table keys naming it.  The lines
    through each point, q + 1 of them, give the incidences, and each carries
    the point's partner count (the other points at distance 0) into the
    anchored part b - b_star.
    """
    return _per_set(A, _bisector_stats)


def _bisector_stats(A: PointSet) -> BisectorStats:
    F, q = _index_field(A.spec), A.spec.q
    x, y = _index_coords(A)
    table, profile = bisector_table(A), pinned_profile(A)
    partners = profile.n[profile.r == 0] - 1
    # the q + 1 lines through each point: x + m*y = c for every slope m, and y = c
    slopes = np.arange(q)
    sloped = slopes * q + F.add(x[:, None], F.mul(slopes, y[:, None]))
    through = np.hstack([sloped, q * q + y[:, None]]).ravel()
    reflected = table.keys[table.keys >= 0]
    # unique's sort path (return_counts), as in _curve_scan: its hash path and
    # the argsort behind return_inverse each page in hundreds of KB of numpy code
    lines, _ = np.unique(np.concatenate([reflected, through]), return_counts=True)
    b_star = np.bincount(np.searchsorted(lines, reflected), minlength=len(lines))
    placed = np.searchsorted(lines, through)
    incidence = np.bincount(placed, minlength=len(lines))
    anchored = np.bincount(placed, weights=np.repeat(partners, q + 1), minlength=len(lines)).astype(np.int64)
    b = b_star + anchored
    cone = int(np.count_nonzero(F.add(F.mul(x, x), F.mul(y, y)) == 0))
    n_isotropic = max(cone - 1, 0)
    universal = bool(np.all(anchored == incidence * n_isotropic))
    return BisectorStats(int(b @ b), int(b_star @ b_star), cone, n_isotropic, universal, lines, incidence, b, b_star)


class CurveOccupancy(NamedTuple):
    """Maximum number of A-points on one line / one nonzero-radius circle."""

    m: int
    m_line: int
    m_circle: int


def _points_from_pairs(pairs: np.ndarray) -> np.ndarray:
    """The m with C(m, 2) = pairs, exactly: 1 + 8 C(m, 2) = (2m - 1)^2."""
    return (1 + np.rint(np.sqrt(1 + 8 * pairs)).astype(np.int64)) // 2


def _curve_scan(A: PointSet, heavy_cube: int) -> tuple[CurveOccupancy, list]:
    """Curve occupancy of A by the index kernel, and the curves holding m points with m^3 > heavy_cube.

    Every pair of points keys its line by the canonical (n1, n2, c), so a line
    through m points carries C(m, 2) pairs.  Circles are keyed by (centre,
    r^2) and counted exactly by ``_circle_sweep`` or ``_circle_scan``,
    whichever ``_sweep_is_cheaper`` picks for (q, n).  The heavy list holds
    (-m, kind, key) with kind 0 for lines and 1 for circles, sorted.
    """
    n = len(A)
    if n < 2:
        return CurveOccupancy(n, n, 0), []
    spec = A.spec
    F, q = _index_field(spec), spec.q
    x, y = _index_coords(A)
    first, second = np.triu_indices(n, 1)
    heavy: dict = {}

    # lines: x + n2*y = c when the pair differs in y, else y = c
    dy = F.sub(y[second], y[first])
    flat = dy == 0
    n2 = np.where(flat, 1, F.div(F.sub(x[first], x[second]), np.where(flat, 1, dy)))
    c = np.where(flat, y[first], F.add(x[first], F.mul(n2, y[first])))
    keys, pairs = np.unique((np.where(flat, 0, q) + n2) * q + c, return_counts=True)
    m = _points_from_pairs(pairs)
    m_line = int(m.max())
    _collect(heavy, 0, keys, m, heavy_cube)

    if _sweep_is_cheaper(q, n):
        m_circle = _circle_sweep(F, q, x, y, heavy_cube, heavy)
    else:
        m_circle = _circle_scan(F, q, x, y, first, second, heavy_cube, heavy)
    listed = sorted((-count, kind, key) for (kind, key), count in heavy.items())
    return CurveOccupancy(max(m_line, m_circle), m_line, m_circle), listed


def _collect(heavy: dict, kind: int, keys: np.ndarray, m: np.ndarray, heavy_cube: int) -> None:
    over = m**3 > heavy_cube
    for key, count in zip(keys[over].tolist(), m[over].tolist()):
        heavy[kind, key] = max(heavy.get((kind, key), 0), count)


def _sweep_is_cheaper(q: int, n: int) -> bool:
    """Whether the centre sweep's q^2 (n + q) cells cost less than the scan's C(n, 3) triples and n - 2 anchors."""
    # ns per cell, per triple and per anchor on a 2-core x86_64 host (BENCH_14.json)
    return 5 * q * q * (n + q) <= 140 * comb(n, 3) + 90_000 * (n - 2)


def _circle_sweep(F, q: int, x: np.ndarray, y: np.ndarray, heavy_cube: int, heavy: dict) -> int:
    """m_circle by the centre sweep; the circles with m^3 > heavy_cube go into heavy."""
    # for a block of centre rows z_x, bin (z_x q + z_y) q + d, the circle's
    # key, counts the points at d = (z_x - a_x)^2 + (z_y - a_y)^2 from z; the
    # r^2 = 0 bins are dropped, and a count below 3 is no circle.  A row holds
    # q (n + q) cells: its d table and its q^2 bins.
    n = len(x)
    centres = np.arange(q)[:, None]
    dx, dy = F.sub(centres, x), F.sub(centres, y)
    sx, sy = F.mul(dx, dx), F.mul(dy, dy)
    m_circle = 0
    for lo, hi in blocks(q, q * (n + q)):
        rows = (hi - lo) * q
        d = F.add(sx[lo:hi, None, :], sy).reshape(rows, n)
        d += np.arange(rows)[:, None] * q
        counts = np.bincount(d.ravel(), minlength=rows * q)
        counts[::q] = 0
        top = int(counts.max())
        m_circle = max(m_circle, top)
        if top**3 > heavy_cube:
            bins = np.flatnonzero(counts >= 3)
            _collect(heavy, 1, bins + lo * q * q, counts[bins], heavy_cube)
    return m_circle if m_circle >= 3 else 0


def _circle_scan(F, q: int, x, y, first, second, heavy_cube: int, heavy: dict) -> int:
    """m_circle by the per-anchor triple scan; the circles with m^3 > heavy_cube go into heavy."""
    # (first, second) = np.triu_indices(n, 1).  Every non-collinear triple
    # keys its circle by (centre, r^2), skipping r^2 = 0; such a circle is a
    # nondegenerate conic, with no three points collinear.  Per anchor a,
    # both partners come after a, so memory stays O(n^2) and a circle through
    # m points shows C(m - 1, 2) pairs at its first point.  With u, v the
    # partners relative to a, the centre offset w solves 2u.w = |u|^2 and
    # 2v.w = |v|^2.
    n = len(x)
    m_circle = 0
    row_start = np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1))))
    for a in range(n - 2):
        j, k = first[row_start[a + 1]:], second[row_start[a + 1]:]
        ux, uy = F.sub(x, x[a]), F.sub(y, y[a])
        norm = F.add(F.mul(ux, ux), F.mul(uy, uy))
        cross = F.sub(F.mul(ux[j], uy[k]), F.mul(uy[j], ux[k]))
        j, k, cross = j[cross != 0], k[cross != 0], cross[cross != 0]
        den = F.add(cross, cross)
        wx = F.div(F.sub(F.mul(norm[j], uy[k]), F.mul(norm[k], uy[j])), den)
        wy = F.div(F.sub(F.mul(ux[j], norm[k]), F.mul(ux[k], norm[j])), den)
        r2 = F.add(F.mul(wx, wx), F.mul(wy, wy))
        live = r2 != 0
        if not live.any():
            continue
        cx, cy = F.add(wx[live], x[a]), F.add(wy[live], y[a])
        keys, pairs = np.unique((cx * q + cy) * q + r2[live], return_counts=True)
        m = 1 + _points_from_pairs(pairs)
        m_circle = max(m_circle, int(m.max()))
        _collect(heavy, 1, keys, m, heavy_cube)
    return m_circle


def max_collinear_cocircular(A: PointSet) -> CurveOccupancy:
    """Exact curve occupancy maxima, read off the set's one curve scan.

    A circle holding fewer than three points counts as none, but such a
    circle cannot beat the best line either.
    """
    return _per_set(A, _own_scan)[0]


def _own_scan(A: PointSet) -> tuple[CurveOccupancy, list]:
    """The curve scan of A at |A|^2, which occupancy and pruning both read through ``_per_set``."""
    return _curve_scan(A, len(A) ** 2)


def verify_identities(A: PointSet) -> list[dict]:
    """Exact checks of the counting identities; one JSON-ready record each.

    Every lhs/rhs is an integer.  The equality forms use the diagonal-exact
    right sides; the looser stated variants are kept as inequalities with the
    slack recorded.
    """
    # Imported here: incidence builds on this module for its own statistics.
    from .incidence import axial_pair_count, epsilon_term

    n = len(A)
    stats = distance_stats(A)
    classes = segment_classes(A)
    iso = isosceles_count(A)
    bstats = bisector_stats(A)
    occupancy = max_collinear_cocircular(A)

    # the apex histograms, one row of the distance table each, and not the
    # pinned profile: the cone second moment checks T against this count
    dist, q = bisector_table(A).dist, A.spec.q
    cells, counts = np.unique(np.arange(n)[:, None] * q + dist, return_counts=True)
    cone_second_moment = int(np.sum(counts[cells % q != 0] ** 2))
    max_cone0 = int(np.count_nonzero(dist == 0, axis=1).max(initial=0))

    d_count = stats.nonzero_pairs
    report = []

    lhs = cone_second_moment
    rhs = iso.t + d_count
    report.append({
        "name": "cone-second-moment-exact",
        "lhs": lhs, "rhs": rhs, "relation": "==", "pass": lhs == rhs,
    })
    rhs_stated = iso.t + n ** 2
    report.append({
        "name": "cone-second-moment-stated",
        "lhs": lhs, "rhs": rhs_stated, "relation": "<=", "pass": lhs <= rhs_stated,
        "gap": n ** 2 - d_count,
    })

    rhs = n * (iso.t + d_count)
    report.append({
        "name": "distance-quadruple-bound",
        "lhs": classes.q_value, "rhs": rhs, "relation": "<=",
        "pass": classes.q_value <= rhs, "equality": classes.q_value == rhs,
    })

    lhs = n * (n - 2 * occupancy.m_line + 1) ** 2
    rhs = (stats.pind_nonzero + 1) * (iso.t + n ** 2)
    report.append({
        "name": "pinned-line-bound",
        "lhs": lhs, "rhs": rhs, "relation": "<=", "pass": lhs <= rhs,
        "max_zero_cone_occupancy": max_cone0,
    })

    lhs = iso.t ** 2
    rhs = n ** 2 * bstats.b_star_energy
    report.append({
        "name": "isosceles-energy-bound",
        "lhs": lhs, "rhs": rhs, "relation": "<=", "pass": lhs <= rhs,
    })

    axial_total = sum(axial_pair_count(A, r) for r, _ in classes.nonzero_sizes())
    eps = epsilon_term(A)
    rhs = axial_total + eps.value
    report.append({
        "name": "reflection-energy-decomposition",
        "lhs": bstats.b_star_energy, "rhs": rhs, "relation": "==",
        "pass": bstats.b_star_energy == rhs,
    })
    return report


def prune_curve(A: PointSet, curve: Union[Line, Circle]) -> tuple[PointSet, dict]:
    """Drop the points on one curve and recount the isosceles triples."""
    B = PointSet(A.spec, [p for p in A if not curve.contains(p)])
    t_before = isosceles_count(A).t
    t_after = isosceles_count(B).t
    bound = t_after + 8 * len(A) ** 2
    check = {
        "name": "prune-curve-triple-bound",
        "lhs": t_before, "rhs": bound, "relation": "<=",
        "pass": t_before <= bound,
    }
    return B, check


def _ceil_cbrt(n: int) -> int:
    k = 0
    while k ** 3 < n:
        k += 1
    return k


def prune_budget(n: int) -> int:
    """The most steps ``prune_steps`` may take on n points: ceil(n^(1/3)) + 1."""
    return _ceil_cbrt(n) + 1


def _heavy_curves(S: PointSet, orig_sq: int) -> list:
    """Curves holding m points of S with m^3 > orig_sq, heaviest first, lines before circles, then by key.

    Defined for orig_sq >= |S|^2, which ``prune_steps`` always passes (S is a
    subset of the set it started from): the set's own scan lists every curve
    with m^3 > |S|^2, sorted, and keeping those over orig_sq keeps the order.
    """
    return [_curve(S.spec, kind, key) for neg_m, kind, key in _per_set(S, _own_scan)[1] if (-neg_m) ** 3 > orig_sq]


def _curve(spec: FieldSpec, kind: int, key: int) -> Union[Line, Circle]:
    """The line (kind 0) or circle (kind 1) a curve-scan key names."""
    q = spec.q
    u, v, w = (spec.from_index(i) for i in (key // (q * q), key // q % q, key % q))
    return Line(u, v, w) if kind == 0 else Circle(Point(u, v), w)


def prune_steps(A: PointSet) -> Iterator[tuple[Union[Line, Circle], PointSet, dict]]:
    """Greedily strip curves holding more than |A|^(2/3) of the current set, one step at a time.

    Yields (curve, pruned set, triple-bound check) per step.  The threshold
    stays fixed at the original size; n > |A|^(2/3) is decided as the exact
    integer comparison n^3 > |A|^2.  Heaviest curve first, lines before
    circles, canonical key as the final tie-break.
    """
    orig_sq = len(A) ** 2
    current = A
    while True:
        heavy = _heavy_curves(current, orig_sq)
        if not heavy:
            return
        current, check = prune_curve(current, heavy[0])
        yield heavy[0], current, check


def prune_heavy(A: PointSet) -> tuple[PointSet, int]:
    """The set left after every ``prune_steps`` step, and the number of steps."""
    current, steps = A, 0
    for _, current, _ in prune_steps(A):
        steps += 1
    if steps > prune_budget(len(A)):
        raise AssertionError(f"pruning took {steps} steps on {len(A)} points")
    return current, steps
