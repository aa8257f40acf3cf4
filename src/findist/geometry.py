"""Plane geometry over F_q with the quadratic distance d(x,y) = (x1-y1)^2 + (x2-y2)^2.

The distance is a quadratic form, not a metric: for q ≡ 1 (mod 4) it vanishes on
nonzero isotropic vectors, and all the degenerate cases downstream flow from that.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .field import FieldElement, FieldSpec


class UndefinedBisectorError(ValueError):
    """Perpendicular bisector requested for a pair at isotropic distance."""


class IsotropicAxisError(ValueError):
    """Reflection requested across an isotropic line."""


class Point:
    __slots__ = ("x", "y")

    def __init__(self, x: FieldElement, y: FieldElement):
        self.x = x
        self.y = y

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Point) and self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        return hash((self.x, self.y))

    def __repr__(self) -> str:
        return f"({self.x!r}, {self.y!r})"

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def scaled(self, k: FieldElement) -> "Point":
        return Point(self.x * k, self.y * k)

    def dot(self, other: "Point") -> FieldElement:
        return self.x * other.x + self.y * other.y

    def norm_sq(self) -> FieldElement:
        return self.dot(self)

    @property
    def key(self) -> tuple[int, int]:
        return (self.x.index, self.y.index)

    def to_json(self):
        return [self.x.to_json(), self.y.to_json()]


def point(spec: FieldSpec, x, y) -> Point:
    return Point(spec.element(x), spec.element(y))


def distance(a: Point, b: Point) -> FieldElement:
    dx = a.x - b.x
    dy = a.y - b.y
    return dx * dx + dy * dy


class Segment:
    """Ordered pair of points; length means the quadratic distance."""

    __slots__ = ("head", "tail")

    def __init__(self, head: Point, tail: Point):
        self.head = head
        self.tail = tail

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Segment) and self.head == other.head and self.tail == other.tail

    def __hash__(self) -> int:
        return hash((self.head, self.tail))

    def __repr__(self) -> str:
        return f"Segment({self.head!r} -> {self.tail!r})"

    def length_sq(self) -> FieldElement:
        return distance(self.head, self.tail)

    @property
    def key(self):
        return self.head.key + self.tail.key

    def to_json(self):
        return [self.head.to_json(), self.tail.to_json()]


class Line:
    """Locus n·x = c, stored with the first nonzero coordinate of n scaled to 1."""

    __slots__ = ("n1", "n2", "c")

    def __init__(self, n1: FieldElement, n2: FieldElement, c: FieldElement):
        if not n1 and not n2:
            raise ValueError("line normal must be nonzero")
        scale = (n1 if n1 else n2).inverse()
        self.n1 = n1 * scale
        self.n2 = n2 * scale
        self.c = c * scale

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Line)
            and self.n1 == other.n1
            and self.n2 == other.n2
            and self.c == other.c
        )

    def __hash__(self) -> int:
        return hash((self.n1, self.n2, self.c))

    def __repr__(self) -> str:
        return f"Line({self.n1!r}*x + {self.n2!r}*y = {self.c!r})"

    def contains(self, p: Point) -> bool:
        return self.n1 * p.x + self.n2 * p.y == self.c

    def normal(self) -> Point:
        return Point(self.n1, self.n2)

    def is_isotropic(self) -> bool:
        # the direction is isotropic iff the normal is: n2^2 + n1^2 = same form
        return not self.normal().norm_sq()

    def points(self, spec: FieldSpec) -> list[Point]:
        out = []
        if self.n1:
            # x = (c - n2*y) / n1 with n1 = 1 canonical
            for y in spec.elements():
                out.append(Point(self.c - self.n2 * y, y))
        else:
            for x in spec.elements():
                out.append(Point(x, self.c))
        return out

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.n1.index, self.n2.index, self.c.index)

    def to_json(self):
        return {"n": [self.n1.to_json(), self.n2.to_json()], "c": self.c.to_json()}


class Circle:
    __slots__ = ("center", "radius_sq")

    def __init__(self, center: Point, radius_sq: FieldElement):
        self.center = center
        self.radius_sq = radius_sq

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Circle)
            and self.center == other.center
            and self.radius_sq == other.radius_sq
        )

    def __hash__(self) -> int:
        return hash((self.center, self.radius_sq))

    def __repr__(self) -> str:
        return f"Circle(center={self.center!r}, r2={self.radius_sq!r})"

    def contains(self, p: Point) -> bool:
        return distance(self.center, p) == self.radius_sq

    @property
    def key(self):
        return self.center.key + (self.radius_sq.index,)

    def to_json(self):
        return {"center": self.center.to_json(), "radius_sq": self.radius_sq.to_json()}


class PointSet:
    """Deduplicated point set with canonical iteration order.

    A PointSet never changes, so ``_cache`` can hold quantities derived from
    its points; ``counting`` fills it on first use.
    """

    __slots__ = ("spec", "points", "_members", "_cache")

    def __init__(self, spec: FieldSpec, points: Iterable[Point]):
        members = frozenset(points)
        self.spec = spec
        self.points = tuple(sorted(members, key=lambda p: p.key))
        self._members = members
        self._cache: dict = {}

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points)

    def __contains__(self, p: Point) -> bool:
        return p in self._members

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PointSet) and self.spec == other.spec and self._members == other._members

    def __hash__(self) -> int:
        return hash((self.spec, self._members))

    def __repr__(self) -> str:
        return f"PointSet(q={self.spec.q}, n={len(self)})"

    def to_json(self) -> dict:
        return {"field": self.spec.to_json(), "points": [p.to_json() for p in self.points]}

    @staticmethod
    def from_json(obj: dict) -> "PointSet":
        """The set a ``to_json`` blob describes; ValueError names the first malformed point."""
        spec = FieldSpec.from_json(obj["field"])
        points = obj["points"]
        if not isinstance(points, list):
            raise ValueError(f"points must be a list of [x, y] pairs, got {points!r}")
        pts = []
        for i, xy in enumerate(points):
            if not (isinstance(xy, list) and len(xy) == 2):
                raise ValueError(f"point {i} must be an [x, y] pair, got {xy!r}")
            pts.append(Point(*(_coordinate_from_json(spec, c, i) for c in xy)))
        return PointSet(spec, pts)


def _coordinate_from_json(spec: FieldSpec, value, i: int) -> FieldElement:
    """An element written as an integer or, over F_{p^r}, as a list of at most r integers."""
    coeffs = value if isinstance(value, list) else [value]
    if not 0 < len(coeffs) <= spec.r or any(type(c) is not int for c in coeffs):
        raise ValueError(f"point {i}: a coordinate over F_{spec.q} must be an integer or a list of "
                         f"1..{spec.r} integers, got {value!r}")
    return spec.element(coeffs)


def equidistant_line(a: Point, b: Point) -> Line:
    """Locus of points equidistant from two distinct points: 2(b-a)·x = |b|^2 - |a|^2.

    Defined for every distinct pair.  When d(a, b) = 0 the normal is
    isotropic and the locus degenerates to the line through a and b.
    """
    if a == b:
        raise UndefinedBisectorError(f"coincident points {a!r}")
    spec = a.x.spec
    two = spec.element(2)
    d = b - a
    return Line(two * d.x, two * d.y, b.norm_sq() - a.norm_sq())


def bisector(a: Point, b: Point) -> Line:
    """Perpendicular bisector of a pair at non-isotropic distance."""
    if not distance(a, b):
        raise UndefinedBisectorError(f"d({a!r},{b!r}) = 0")
    return equidistant_line(a, b)


def reflect(line: Line, p: Point) -> Point:
    """Reflection across a non-isotropic line: x - 2((n·x - c)/(n·n)) n."""
    n = line.normal()
    nn = n.norm_sq()
    if not nn:
        raise IsotropicAxisError(f"{line!r} is isotropic")
    two = p.x.spec.element(2)
    t = two * (n.dot(p) - line.c) / nn
    return p - n.scaled(t)


def line_through(a: Point, b: Point) -> Line:
    if a == b:
        raise ValueError("need two distinct points")
    d = b - a
    n1, n2 = d.y, -d.x
    return Line(n1, n2, n1 * a.x + n2 * a.y)


def curve_through(points: Sequence[Point]):
    """Line through 2 distinct points, or circle through 3; None if the 3 are collinear."""
    if len(points) == 2:
        return line_through(points[0], points[1])
    if len(points) != 3:
        raise ValueError("curve_through expects 2 or 3 points")
    p1, p2, p3 = points
    if len({p1, p2, p3}) < 3:
        raise ValueError("points must be distinct")
    # circumcenter z solves 2(p2-p1)·z = |p2|^2-|p1|^2 and 2(p3-p1)·z = |p3|^2-|p1|^2
    spec = p1.x.spec
    two = spec.element(2)
    a11, a12 = two * (p2.x - p1.x), two * (p2.y - p1.y)
    a21, a22 = two * (p3.x - p1.x), two * (p3.y - p1.y)
    b1 = p2.norm_sq() - p1.norm_sq()
    b2 = p3.norm_sq() - p1.norm_sq()
    det = a11 * a22 - a12 * a21
    if not det:
        return None
    inv = det.inverse()
    z = Point((b1 * a22 - b2 * a12) * inv, (a11 * b2 - a21 * b1) * inv)
    return Circle(z, distance(z, p1))


def all_points(spec: FieldSpec) -> Iterator[Point]:
    for x in spec.elements():
        for y in spec.elements():
            yield Point(x, y)


def all_lines(spec: FieldSpec) -> Iterator[Line]:
    """All q^2 + q lines, canonical forms in a fixed documented order.

    First the lines x + m*y = c ordered by (m, c) index, then the horizontal
    family y = c ordered by c.
    """
    one, zero = spec.one(), spec.zero()
    for m in spec.elements():
        for c in spec.elements():
            yield Line(one, m, c)
    for c in spec.elements():
        yield Line(zero, one, c)


def origin(spec: FieldSpec) -> Point:
    return Point(spec.zero(), spec.zero())
