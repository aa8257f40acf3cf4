"""Object-level oracles for the bisector table and everything read from it.

These are the loops the package ran before the bisector table: a reflection
sweep over all q^2 + q lines, the bisector-locus enumeration, the per-pair
``equidistant_line`` keys behind the axial pair count, the grouped loop of
the epsilon term, the apex-histogram passes of ``distance_stats`` and
``verify_identities``, and the grouping of every ordered pair into its
segment class.  Each builds its lines with the geometry module's own
constructors.  The isotropic vectors, the nonzero v with v.v = 0, are the
displacements of the pairs the table marks -1.

The object views of the package's count records live here too: the
per-point spectra and their union behind ``distance_stats``, and the per-line
records behind ``bisector_stats``, keyed by ``Line.key``.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from findist.counting import _per_set, bisector_stats, bisector_table, segment_classes
from findist.field import FieldSpec
from findist.geometry import Line, Point, Segment, all_lines, distance, equidistant_line, reflect


class LineBisectorRecord(NamedTuple):
    line: Line
    incidence: int
    b: int
    b_star: int


def line_from_key(spec: FieldSpec, key: int) -> Line:
    """The line a bisector-table key encodes."""
    q = spec.q
    if key < q * q:
        return Line(spec.one(), spec.from_index(key // q), spec.from_index(key % q))
    return Line(spec.zero(), spec.one(), spec.from_index(key - q * q))


def per_point(A) -> dict:
    """a -> the lengths d(a, b) over b in A, from the rows of A's distance table."""
    return _per_set(A, _per_point)


def _per_point(A):
    element, rows = A.spec.from_index, bisector_table(A).dist.tolist()
    return {a: frozenset(map(element, set(row))) for a, row in zip(A.points, rows)}


def distances(A) -> frozenset:
    """Every length some pair of A has, from its segment class sizes."""
    return frozenset(map(A.spec.from_index, np.flatnonzero(segment_classes(A).sizes).tolist()))


def per_point_nonzero(A, a) -> frozenset:
    return frozenset(r for r in per_point(A)[a] if r)


def entries(A) -> dict:
    """Line.key -> record for every line in ``bisector_stats(A).line_keys``, in ``all_lines`` order."""
    return _per_set(A, _entries)


def _entries(A):
    stats = bisector_stats(A)
    columns = (stats.line_keys, stats.incidence, stats.b, stats.b_star)
    records = (
        LineBisectorRecord(line_from_key(A.spec, key), inc, b, b_star)
        for key, inc, b, b_star in zip(*(col.tolist() for col in columns))
    )
    return {rec.line.key: rec for rec in records}


def record_for(A, line: Line) -> LineBisectorRecord:
    """The record of any line: all counts zero off ``line_keys``."""
    return entries(A).get(line.key, LineBisectorRecord(line, 0, 0, 0))


def relation_holds(stats, rec: LineBisectorRecord) -> bool:
    return rec.b == rec.incidence * stats.n_isotropic + rec.b_star


@dataclass(eq=False)
class OracleBisectorStats:
    entries: dict
    b_energy: int
    b_star_energy: int
    cone_count: int
    n_isotropic: int
    relation_universal: object


def _object_segment_classes(A):
    grouped = {}
    for a in A:
        for b in A:
            grouped.setdefault(distance(a, b), []).append(Segment(a, b))
    return {r: tuple(sorted(segs, key=lambda s: s.key)) for r, segs in grouped.items()}


def object_segment_classes(A):
    """r -> the ordered pairs at quadratic distance r, by ``Segment.key``; the zero class keeps (a, a).

    Kept in A's cache like the package's own per-set tables, since the
    oracles below ask for one class at a time.
    """
    return _per_set(A, _object_segment_classes)


def class_for(A, r):
    return object_segment_classes(A).get(r, ())


def cone_count(A):
    return sum(1 for a in A if not a.norm_sq())


def isotropic_partner_counts(A):
    counts = {}
    for a in A:
        hits = sum(1 for b in A if b != a and not distance(a, b))
        if hits:
            counts[a] = hits
    return counts


def _finish(entries, A, universal):
    b_energy = sum(rec.b ** 2 for rec in entries.values())
    b_star_energy = sum(rec.b_star ** 2 for rec in entries.values())
    cone = cone_count(A)
    return OracleBisectorStats(entries, b_energy, b_star_energy, cone, max(cone - 1, 0), universal)


def sweep_bisector_stats(A):
    """Reflect every point across every one of the q^2 + q lines."""
    n_value = max(cone_count(A) - 1, 0)
    partners = isotropic_partner_counts(A)
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
    return _finish(entries, A, universal)


def locus_bisector_stats(A):
    """Only the bisectors of A-pairs and the lines through partnered points."""
    spec = A.spec
    reflections, anchored, lines = {}, {}, {}
    for a in A:
        for b in A:
            if a == b or not distance(a, b):
                continue
            locus = equidistant_line(a, b)
            reflections[locus.key] = reflections.get(locus.key, 0) + 1
            lines[locus.key] = locus
    one, zero = spec.one(), spec.zero()
    for a, hits in isotropic_partner_counts(A).items():
        through = [Line(one, m, a.x + m * a.y) for m in spec.elements()]
        through.append(Line(zero, one, a.y))
        for line in through:
            anchored[line.key] = anchored.get(line.key, 0) + hits
            lines.setdefault(line.key, line)
    entries = {}
    for key, line in lines.items():
        inc = sum(1 for p in A if line.contains(p))
        b_star = reflections.get(key, 0)
        entries[key] = LineBisectorRecord(line, inc, b_star + anchored.get(key, 0), b_star)
    return _finish(entries, A, None)


def bisector_keys(A):
    """(a, b) -> Line.key of equidistant_line(a, b), for distinct pairs with a non-isotropic locus."""
    keys = {}
    for a in A:
        for b in A:
            if a == b:
                continue
            locus = equidistant_line(a, b)
            if locus.is_isotropic():
                continue
            keys[(a, b)] = locus.key
    return keys


def loop_distance_stats(A):
    """(per-point spectra, union, pind, pind_nonzero, nonzero pairs) from one apex histogram per point."""
    per_point, union = {}, set()
    pind = pind_nonzero = nonzero_pairs = 0
    for a in A:
        hist = {}
        for b in A:
            r = distance(a, b)
            hist[r] = hist.get(r, 0) + 1
        spectrum = frozenset(hist)
        per_point[a] = spectrum
        union |= spectrum
        pind = max(pind, len(spectrum))
        pind_nonzero = max(pind_nonzero, sum(1 for r in spectrum if r))
        nonzero_pairs += sum(n for r, n in hist.items() if r)
    return per_point, frozenset(union), pind, pind_nonzero, nonzero_pairs


def apex_moments(A):
    """(cone second moment, largest zero-distance count) from one apex histogram per point."""
    second_moment = max_cone0 = 0
    for a in A:
        hist = {}
        for b in A:
            r = distance(a, b)
            hist[r] = hist.get(r, 0) + 1
        second_moment += sum(count ** 2 for r, count in hist.items() if r)
        max_cone0 = max(max_cone0, hist.get(A.spec.zero(), 0))
    return second_moment, max_cone0


def loop_axial_pair_count(A, r):
    segs = class_for(A, r)
    keys = bisector_keys(A)
    count = 0
    for s1 in segs:
        for s2 in segs:
            if s1.head == s2.head or s1.tail == s2.tail:
                continue
            head_key = keys.get((s1.head, s2.head))
            if head_key is None:
                continue
            if head_key == keys.get((s1.tail, s2.tail)):
                count += 1
    return count


def loop_epsilon_value(A):
    groups = {}
    for a in A:
        for b in A:
            if a == b or not distance(a, b):
                continue
            groups.setdefault(equidistant_line(a, b).key, []).append((a, b))
    value = 0
    for pairs in groups.values():
        for a, _ in pairs:
            value += sum(1 for c, _ in pairs if not distance(a, c))
    return value


def brute_axial_pairs(A, r):
    """Line sweep oracle: mirror each segment across every candidate axis."""
    segs = class_for(A, r)
    members = {(s.head, s.tail) for s in segs}
    count = 0
    for axis in all_lines(A.spec):
        if axis.is_isotropic():
            continue
        for s in segs:
            if axis.contains(s.head) or axis.contains(s.tail):
                continue
            mirrored = (reflect(axis, s.head), reflect(axis, s.tail))
            if mirrored != (s.head, s.tail) and mirrored in members:
                count += 1
    return count


def is_zero(v: Point) -> bool:
    return not v.x and not v.y


def is_isotropic_vector(v: Point) -> bool:
    if is_zero(v):
        raise ValueError("the zero vector is not classified as isotropic or not")
    return not v.norm_sq()


def isotropic_vectors(spec: FieldSpec) -> list[Point]:
    """All nonzero v with v·v = 0, in canonical order; empty when q ≡ 3 (mod 4)."""
    roots = (-spec.one()).sqrt()
    if not roots:
        return []
    out = []
    for t in spec.elements():
        if not t:
            continue
        for i in roots:
            out.append(Point(t, i * t))
    return sorted(out, key=lambda p: p.key)
