"""Orientation-preserving rigid motions x -> R x + w with R = [[u,-v],[v,u]], u^2+v^2 = 1.

The rotation matrices form SO_2(F_q), a cyclic group of order q - chi(-1); the full
motion group SF has order q^2 * |SO_2|.  On segments of equal nonzero quadratic length
the group acts simply transitively, which is what ``motion_between_segments`` exploits.
"""

from __future__ import annotations

from typing import Iterator

from .field import FieldElement, FieldSpec
from .geometry import Point, Segment


class SpecMismatchError(ValueError):
    """Rotation data does not satisfy u^2 + v^2 = 1."""


class NoTransporterError(ValueError):
    """No rigid motion maps the source segment to the target."""


class Rotation:
    __slots__ = ("u", "v")

    def __init__(self, u: FieldElement, v: FieldElement):
        if u * u + v * v != u.spec.one():
            raise SpecMismatchError(f"u^2+v^2 != 1 for ({u!r}, {v!r})")
        self.u = u
        self.v = v

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Rotation) and self.u == other.u and self.v == other.v

    def __hash__(self) -> int:
        return hash((self.u, self.v))

    def __repr__(self) -> str:
        return f"Rotation({self.u!r}, {self.v!r})"

    def __mul__(self, other: "Rotation") -> "Rotation":
        return Rotation(
            self.u * other.u - self.v * other.v,
            self.u * other.v + self.v * other.u,
        )

    def inverse(self) -> "Rotation":
        return Rotation(self.u, -self.v)

    def apply(self, p: Point) -> Point:
        return Point(self.u * p.x - self.v * p.y, self.v * p.x + self.u * p.y)

    @property
    def key(self) -> tuple[int, int]:
        return (self.u.index, self.v.index)


def so2_order(spec: FieldSpec) -> int:
    return spec.q - spec.chi_minus_one()


def enumerate_rotations(spec: FieldSpec) -> list[Rotation]:
    """All rotations, sorted by (u, v) canonical index."""
    out = []
    one = spec.one()
    for u in spec.elements():
        for v in (one - u * u).sqrt():
            out.append(Rotation(u, v))
    out.sort(key=lambda r: r.key)
    if len(out) != so2_order(spec):
        raise AssertionError(f"found {len(out)} rotations, expected {so2_order(spec)}")
    return out


class RigidMotion:
    """x -> (u x1 - v x2 + s, v x1 + u x2 + t)."""

    __slots__ = ("u", "v", "s", "t")

    def __init__(self, u: FieldElement, v: FieldElement, s: FieldElement, t: FieldElement):
        if u * u + v * v != u.spec.one():
            raise SpecMismatchError(f"u^2+v^2 != 1 for ({u!r}, {v!r})")
        self.u = u
        self.v = v
        self.s = s
        self.t = t

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RigidMotion)
            and (self.u, self.v, self.s, self.t) == (other.u, other.v, other.s, other.t)
        )

    def __hash__(self) -> int:
        return hash((self.u, self.v, self.s, self.t))

    def __repr__(self) -> str:
        return f"RigidMotion({self.u!r}, {self.v!r}, {self.s!r}, {self.t!r})"

    @property
    def spec(self) -> FieldSpec:
        return self.u.spec

    def apply(self, p: Point) -> Point:
        return Point(
            self.u * p.x - self.v * p.y + self.s,
            self.v * p.x + self.u * p.y + self.t,
        )

    def compose(self, other: "RigidMotion") -> "RigidMotion":
        """self after other (function composition)."""
        return RigidMotion(
            self.u * other.u - self.v * other.v,
            self.u * other.v + self.v * other.u,
            self.u * other.s - self.v * other.t + self.s,
            self.v * other.s + self.u * other.t + self.t,
        )

    def inverse(self) -> "RigidMotion":
        return RigidMotion(
            self.u,
            -self.v,
            -(self.u * self.s + self.v * self.t),
            self.v * self.s - self.u * self.t,
        )

    @property
    def key(self) -> tuple[int, int, int, int]:
        return (self.u.index, self.v.index, self.s.index, self.t.index)

    def to_json(self) -> list:
        return [x.to_json() for x in (self.u, self.v, self.s, self.t)]

    @staticmethod
    def from_json(spec: FieldSpec, obj) -> "RigidMotion":
        u, v, s, t = (spec.element(x) for x in obj)
        return RigidMotion(u, v, s, t)

    @staticmethod
    def identity(spec: FieldSpec) -> "RigidMotion":
        return RigidMotion(spec.one(), spec.zero(), spec.zero(), spec.zero())


def all_motions(spec: FieldSpec) -> Iterator[RigidMotion]:
    for rot in enumerate_rotations(spec):
        for s in spec.elements():
            for t in spec.elements():
                yield RigidMotion(rot.u, rot.v, s, t)


def motion_between_segments(src: Segment, dst: Segment) -> RigidMotion:
    """The unique motion with g(src.head) = dst.head and g(src.tail) = dst.tail."""
    r = src.length_sq()
    if r != dst.length_sq():
        raise NoTransporterError("segments have different quadratic lengths")
    if not r:
        raise NoTransporterError("transporter is only unique for nonzero lengths")
    w1 = src.tail - src.head
    w2 = dst.tail - dst.head
    inv = r.inverse()
    u = (w2.x * w1.x + w2.y * w1.y) * inv
    v = (w2.y * w1.x - w2.x * w1.y) * inv
    rot = Rotation(u, v)
    shift = dst.head - rot.apply(src.head)
    g = RigidMotion(u, v, shift.x, shift.y)
    if g.apply(src.head) != dst.head or g.apply(src.tail) != dst.tail:
        raise AssertionError("transporter does not map src onto dst")
    return g
