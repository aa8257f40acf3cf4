"""Exact counting statistics for planar point sets over odd-characteristic fields.

Distance spectra, segment classes, isosceles triples, bisector energies, the
identity checks relating them, and the greedy curve-pruning passes.  Every
quantity is an exact integer obtained by finite enumeration; the fast paths
are independent second computations of the same number and the test suite
insists that they agree with the naive loops.

Tuple counts are ordered throughout: a quadruple and its swap are two
quadruples.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .field import FieldElement
from .geometry import (
    Circle,
    Line,
    Point,
    PointSet,
    Segment,
    all_lines,
    curve_through,
    distance,
    equidistant_line,
    line_through,
    reflect,
)


@dataclass(eq=False)
class DistanceStats:
    """Pinned distance spectra: per-point sets, their union, and pair counts."""

    per_point: dict
    distances: frozenset
    pind: int
    pind_nonzero: int
    nonzero_pairs: int

    def per_point_nonzero(self, a: Point) -> frozenset:
        return frozenset(r for r in self.per_point[a] if r)


def _apex_histogram(points: Iterable[Point], a: Point) -> dict:
    hist: dict[FieldElement, int] = {}
    for b in points:
        r = distance(a, b)
        hist[r] = hist.get(r, 0) + 1
    return hist


def distance_stats(A: PointSet) -> DistanceStats:
    """Full pair enumeration of the distance multiset."""
    per_point = {}
    union: set[FieldElement] = set()
    pind = 0
    pind_nonzero = 0
    nonzero_pairs = 0
    for a in A:
        hist = _apex_histogram(A, a)
        spectrum = frozenset(hist)
        per_point[a] = spectrum
        union |= spectrum
        pind = max(pind, len(spectrum))
        nonzero = sum(1 for r in spectrum if r)
        pind_nonzero = max(pind_nonzero, nonzero)
        nonzero_pairs += sum(n for r, n in hist.items() if r)
    return DistanceStats(per_point, frozenset(union), pind, pind_nonzero, nonzero_pairs)


@dataclass(eq=False)
class SegmentClasses:
    """Ordered pairs of A-points grouped by quadratic length.

    The zero class keeps the diagonal pairs (a, a); the quadruple count
    q_value sums squared class sizes over nonzero lengths only.
    """

    classes: dict
    q_value: int

    def class_for(self, r: FieldElement) -> tuple:
        return self.classes.get(r, ())

    def nonzero_items(self):
        return [(r, segs) for r, segs in sorted(self.classes.items(), key=lambda kv: kv[0].index) if r]


def segment_classes(A: PointSet) -> SegmentClasses:
    grouped: dict[FieldElement, list[Segment]] = {}
    for a in A:
        for b in A:
            grouped.setdefault(distance(a, b), []).append(Segment(a, b))
    classes = {r: tuple(sorted(segs, key=lambda s: s.key)) for r, segs in grouped.items()}
    q_value = sum(len(segs) ** 2 for r, segs in classes.items() if r)
    return SegmentClasses(classes, q_value)


@dataclass(frozen=True)
class IsoscelesCounts:
    """Ordered triples (apex, b, b') with equal legs and non-isotropic base.

    t requires the common leg length to be nonzero, t_all does not.
    """

    t: int
    t_all: int


def _isosceles_slow(A: PointSet) -> IsoscelesCounts:
    t = t_all = 0
    for a in A:
        for b in A:
            leg = distance(a, b)
            for b2 in A:
                if distance(a, b2) != leg or not distance(b, b2):
                    continue
                t_all += 1
                if leg:
                    t += 1
    return IsoscelesCounts(t, t_all)


def _isosceles_apex_chunk(A: PointSet, apexes: Iterable[Point]) -> tuple[int, int]:
    # Equal nonzero legs force a non-isotropic base, so the nonzero part of the
    # histogram counts straight off; zero legs contribute only cross pairs on
    # the two isotropic rays through the apex.
    roots = (-A.spec.one()).sqrt()
    t = extra = 0
    for a in apexes:
        hist = _apex_histogram(A, a)
        t += sum(n * (n - 1) for r, n in hist.items() if r)
        if roots:
            n1 = n2 = 0
            for b in A:
                if b == a:
                    continue
                w = b - a
                if w.norm_sq():
                    continue
                if w.y == roots[0] * w.x:
                    n1 += 1
                else:
                    n2 += 1
            extra += 2 * n1 * n2
    return t, extra


def isosceles_count(A: PointSet, method: str = "fast", partitions: int = 1) -> IsoscelesCounts:
    """Count isosceles triples; both strategies are exact and must agree.

    partitions > 1 splits the apex loop across a thread pool and combines the
    chunk totals additively; the result is independent of the split.
    """
    if method == "slow":
        return _isosceles_slow(A)
    if method != "fast":
        raise ValueError(f"unknown method {method!r}")
    if partitions <= 1 or len(A) <= 1:
        t, extra = _isosceles_apex_chunk(A, A.points)
    else:
        chunks = [A.points[i::partitions] for i in range(partitions)]
        with ThreadPoolExecutor(max_workers=partitions) as pool:
            parts = list(pool.map(lambda chunk: _isosceles_apex_chunk(A, chunk), chunks))
        t = sum(p[0] for p in parts)
        extra = sum(p[1] for p in parts)
    return IsoscelesCounts(t, t + extra)


@dataclass(frozen=True)
class LineBisectorRecord:
    line: Line
    incidence: int
    b: int
    b_star: int


@dataclass(eq=False)
class BisectorStats:
    """Per-line symmetry counts and their second moments.

    b_star counts off-line points whose mirror image lands back in A (zero on
    isotropic lines, where no reflection exists).  b adds the degenerately
    symmetric pairs: on-line points anchoring a partner at quadratic distance
    0.  cone_count is |A| intersected with the zero cone at the origin, and
    n_isotropic = max(cone_count - 1, 0) is the partner count the affine
    relation b = i * n_isotropic + b_star predicts; the relation is recorded
    per line, never assumed.
    """

    entries: dict
    b_energy: int
    b_star_energy: int
    cone_count: int
    n_isotropic: int
    method: str
    relation_universal: Optional[bool]

    def record_for(self, line: Line) -> LineBisectorRecord:
        rec = self.entries.get(line.key)
        if rec is None:
            return LineBisectorRecord(line, 0, 0, 0)
        return rec

    def relation_holds(self, rec: LineBisectorRecord) -> bool:
        return rec.b == rec.incidence * self.n_isotropic + rec.b_star


def _cone_count(A: PointSet) -> int:
    return sum(1 for a in A if not a.norm_sq())


def _isotropic_partner_counts(A: PointSet) -> dict:
    counts = {}
    for a in A:
        hits = sum(1 for b in A if b != a and not distance(a, b))
        if hits:
            counts[a] = hits
    return counts


def _finish_stats(entries: dict, A: PointSet, method: str, universal: Optional[bool]) -> BisectorStats:
    b_energy = sum(rec.b ** 2 for rec in entries.values())
    b_star_energy = sum(rec.b_star ** 2 for rec in entries.values())
    cone = _cone_count(A)
    return BisectorStats(entries, b_energy, b_star_energy, cone, max(cone - 1, 0), method, universal)


def _sweep_bisector_stats(A: PointSet) -> BisectorStats:
    cone = _cone_count(A)
    n_value = max(cone - 1, 0)
    partners = _isotropic_partner_counts(A)
    entries = {}
    universal = True
    for line in all_lines(A.spec):
        inc = sum(1 for p in A if line.contains(p))
        if line.is_isotropic():
            b_star = 0
        else:
            b_star = sum(1 for p in A if not line.contains(p) and reflect(line, p) in A)
        anchored = sum(hits for a, hits in partners.items() if line.contains(a))
        rec = LineBisectorRecord(line, inc, b_star + anchored, b_star)
        entries[line.key] = rec
        if rec.b != inc * n_value + b_star:
            universal = False
    return _finish_stats(entries, A, "sweep", universal)


def _locus_bisector_stats(A: PointSet) -> BisectorStats:
    # Only bisectors of A-pairs carry reflections, and only lines through an
    # isotropically-partnered point carry anchored pairs; enumerate those two
    # families instead of sweeping the whole plane.
    spec = A.spec
    reflections: dict[tuple, int] = {}
    anchored: dict[tuple, int] = {}
    lines: dict[tuple, Line] = {}
    for a in A:
        for b in A:
            if a == b or not distance(a, b):
                continue
            locus = equidistant_line(a, b)
            reflections[locus.key] = reflections.get(locus.key, 0) + 1
            lines[locus.key] = locus
    one, zero = spec.one(), spec.zero()
    for a, hits in _isotropic_partner_counts(A).items():
        through = [Line(one, m, a.x + m * a.y) for m in spec.elements()]
        through.append(Line(zero, one, a.y))
        for line in through:
            anchored[line.key] = anchored.get(line.key, 0) + hits
            lines.setdefault(line.key, line)
    entries = {}
    for key, line in lines.items():
        inc = sum(1 for p in A if line.contains(p))
        b_star = reflections.get(key, 0)
        extra = anchored.get(key, 0)
        entries[key] = LineBisectorRecord(line, inc, b_star + extra, b_star)
    return _finish_stats(entries, A, "bisectors", None)


def bisector_stats(A: PointSet, method: str = "sweep") -> BisectorStats:
    if method == "sweep":
        return _sweep_bisector_stats(A)
    if method == "bisectors":
        return _locus_bisector_stats(A)
    raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True)
class CurveOccupancy:
    """Maximum number of A-points on one line / one nonzero-radius circle."""

    m: int
    m_line: int
    m_circle: int


def _line_occupancies(A: PointSet) -> dict:
    hits: dict[tuple, set] = {}
    curves: dict[tuple, Line] = {}
    pts = A.points
    for i, a in enumerate(pts):
        for b in pts[i + 1:]:
            line = line_through(a, b)
            hits.setdefault(line.key, set()).update((a, b))
            curves[line.key] = line
    return {key: (curves[key], members) for key, members in hits.items()}


def _circle_occupancies(A: PointSet) -> dict:
    hits: dict[tuple, set] = {}
    curves: dict[tuple, Circle] = {}
    pts = A.points
    for i, a in enumerate(pts):
        for j in range(i + 1, len(pts)):
            for k in range(j + 1, len(pts)):
                circle = curve_through((a, pts[j], pts[k]))
                if circle is None or not circle.radius_sq:
                    continue
                hits.setdefault(circle.key, set()).update((a, pts[j], pts[k]))
                curves[circle.key] = circle
    return {key: (curves[key], members) for key, members in hits.items()}


def max_collinear_cocircular(A: PointSet) -> CurveOccupancy:
    """Exact curve occupancy maxima by pair/triple hash accumulation.

    A circle holding fewer than three points never appears in the triple
    accumulation, but such a circle cannot beat the best line either.
    """
    if len(A) < 2:
        return CurveOccupancy(len(A), len(A), 0)
    m_line = max(len(members) for _, members in _line_occupancies(A).values())
    circle_hits = _circle_occupancies(A)
    m_circle = max((len(members) for _, members in circle_hits.values()), default=0)
    return CurveOccupancy(max(m_line, m_circle), m_line, m_circle)


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

    cone_second_moment = 0
    max_cone0 = 0
    for a in A:
        hist = _apex_histogram(A, a)
        cone_second_moment += sum(cnt ** 2 for r, cnt in hist.items() if r)
        max_cone0 = max(max_cone0, hist.get(A.spec.zero(), 0))

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

    axial_total = sum(axial_pair_count(A, r) for r, _ in classes.nonzero_items())
    eps = epsilon_term(A)
    rhs = axial_total + eps.value
    report.append({
        "name": "reflection-energy-decomposition",
        "lhs": bstats.b_star_energy, "rhs": rhs, "relation": "==",
        "pass": bstats.b_star_energy == rhs,
    })
    return report


def _triple_count(A: PointSet) -> int:
    return isosceles_count(A, method="slow").t


def prune_curve(A: PointSet, curve: Union[Line, Circle]) -> tuple[PointSet, dict]:
    """Drop the points on one curve and recount the isosceles triples."""
    B = PointSet(A.spec, [p for p in A if not curve.contains(p)])
    t_before = _triple_count(A)
    t_after = _triple_count(B)
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


def _heavy_curves(S: PointSet, orig_sq: int) -> list:
    candidates = []
    for kind, table in ((0, _line_occupancies(S)), (1, _circle_occupancies(S))):
        for key, (curve, members) in table.items():
            if len(members) ** 3 > orig_sq:
                candidates.append((-len(members), kind, key, curve))
    candidates.sort(key=lambda item: item[:3])
    return [item[3] for item in candidates]


def prune_heavy(A: PointSet) -> tuple[PointSet, int]:
    """Greedily strip curves holding more than |A|^(2/3) of the current set.

    The threshold stays fixed at the original size; n > |A|^(2/3) is decided
    as the exact integer comparison n^3 > |A|^2.  Heaviest curve first, lines
    before circles, canonical key as the final tie-break.
    """
    orig_sq = len(A) ** 2
    current = A
    steps = 0
    while True:
        heavy = _heavy_curves(current, orig_sq)
        if not heavy:
            break
        curve = heavy[0]
        current = PointSet(current.spec, [p for p in current if not curve.contains(p)])
        steps += 1
    if steps > _ceil_cbrt(len(A)) + 1:
        raise AssertionError(f"pruning took {steps} steps on {len(A)} points")
    return current, steps
