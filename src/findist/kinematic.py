"""Embedding of the rigid motion group into projective 3-space.

A motion (u, v, s, t) maps to a projective point whose first two coordinates
never satisfy X0^2 + X1^2 = 0; removing that exceptional locus makes the map a
bijection.  The formulas here are square-root free and split into two charts
because the single chart [2(u+1) : 2v : ...] degenerates to the zero vector at
u = -1.  Left translation becomes the projective map ``phi_left``, which is
what turns transporter sets into lines and axial rotation sets into planes.
``projective_rows`` holds kappa and the R_tau planes on index columns, which
the incidence reduction and the algebra checks' kinematic check run on; the
object-level constructions of those lemmas are the oracles in
``tests/motion_oracles.py``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence

from .field import FieldElement, FieldSpec, _index_field
from .geometry import IsotropicAxisError, Line
from .motions import RigidMotion
from .projective_rows import _r_tau_planes


class NotInImageError(ValueError):
    """The projective point lies on the exceptional locus X0^2 + X1^2 = 0."""


def _canonicalize(coords: Sequence[FieldElement]) -> tuple[FieldElement, ...]:
    for c in coords:
        if c:
            inv = c.inverse()
            return tuple(inv * x for x in coords)
    raise ValueError("homogeneous coordinates cannot all vanish")


class ProjPoint:
    __slots__ = ("coords",)

    def __init__(self, coords: Sequence[FieldElement]):
        if len(coords) != 4:
            raise ValueError("expected 4 homogeneous coordinates")
        self.coords = _canonicalize(coords)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ProjPoint) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __repr__(self) -> str:
        return "[" + ":".join(repr(c) for c in self.coords) + "]"

    @property
    def key(self) -> tuple[int, ...]:
        return tuple(c.index for c in self.coords)

    def to_json(self) -> list:
        return [c.to_json() for c in self.coords]


class ProjPlane:
    """Coefficients (c0..c3) of the incidence form c . X = 0, canonically scaled."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[FieldElement]):
        if len(coeffs) != 4:
            raise ValueError("expected 4 plane coefficients")
        self.coeffs = _canonicalize(coeffs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ProjPlane) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return "Plane(" + ", ".join(repr(c) for c in self.coeffs) + ")"

    def contains(self, p: ProjPoint) -> bool:
        acc = self.coeffs[0].spec.zero()
        for c, x in zip(self.coeffs, p.coords):
            acc = acc + c * x
        return not acc

    @property
    def key(self) -> tuple[int, ...]:
        return tuple(c.index for c in self.coeffs)

    def to_json(self) -> list:
        return [c.to_json() for c in self.coeffs]


def _mat_mul(a, b):
    return tuple(
        tuple(
            sum((a[i][k] * b[k][j] for k in range(1, 4)), a[i][0] * b[0][j])
            for j in range(4)
        )
        for i in range(4)
    )


def _mat_vec(m, v):
    return tuple(
        sum((m[i][k] * v[k] for k in range(1, 4)), m[i][0] * v[0]) for i in range(4)
    )


def _identity_matrix(spec: FieldSpec):
    one, zero = spec.one(), spec.zero()
    return tuple(
        tuple(one if i == j else zero for j in range(4)) for i in range(4)
    )


def _row_reduce(rows):
    """Reduced row echelon form by Gauss-Jordan: (rows, pivot columns), the zero rows last."""
    work = [list(r) for r in rows]
    pivots: list[int] = []
    for col in range(len(work[0]) if work else 0):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = work[rank][col].inverse()
        work[rank] = [inv * x for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[rank])]
        pivots.append(col)
    return work, pivots


def _mat_inverse(m, spec: FieldSpec):
    """The inverse of a 4x4 matrix, reduced from (m | I); None when m is singular."""
    work, pivots = _row_reduce([list(row) + list(idrow) for row, idrow in zip(m, _identity_matrix(spec))])
    if pivots[:4] != [0, 1, 2, 3]:
        return None
    return tuple(tuple(row[4:]) for row in work)


class ProjMap:
    """An invertible 4x4 matrix up to scale, acting on points by X -> MX."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        rows = tuple(tuple(row) for row in matrix)
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise ValueError("expected a 4x4 matrix")
        spec = rows[0][0].spec
        if _mat_inverse(rows, spec) is None:
            raise ValueError("projective map must be invertible")
        flat = [x for row in rows for x in row]
        scaled = _canonicalize(flat)
        self.matrix = tuple(tuple(scaled[4 * i + j] for j in range(4)) for i in range(4))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ProjMap) and self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash(self.matrix)

    def __repr__(self) -> str:
        return f"ProjMap({self.matrix!r})"

    @property
    def spec(self) -> FieldSpec:
        return self.matrix[0][0].spec

    def apply(self, p: ProjPoint) -> ProjPoint:
        return ProjPoint(_mat_vec(self.matrix, p.coords))

    def compose(self, other: "ProjMap") -> "ProjMap":
        return ProjMap(_mat_mul(self.matrix, other.matrix))


def _chart_a(g: RigidMotion) -> tuple[FieldElement, ...]:
    """Raw coordinates [2(u+1) : 2v : s(u+1)+tv : sv-t(u+1)]; vanishes at u = -1."""
    spec = g.spec
    one = spec.one()
    two = one + one
    w = g.u + one
    return (two * w, two * g.v, g.s * w + g.t * g.v, g.s * g.v - g.t * w)


def _chart_b(g: RigidMotion) -> tuple[FieldElement, ...]:
    """Raw coordinates [2v : 2(1-u) : sv+t(1-u) : s(1-u)-tv]; vanishes at u = 1."""
    spec = g.spec
    one = spec.one()
    two = one + one
    w = one - g.u
    return (two * g.v, two * w, g.s * g.v + g.t * w, g.s * w - g.t * g.v)


def kappa(g: RigidMotion) -> ProjPoint:
    """The projective point of a motion; total because the charts cover u = +-1."""
    spec = g.spec
    if g.u != -spec.one():
        return ProjPoint(_chart_a(g))
    return ProjPoint(_chart_b(g))


def kappa_even(g: RigidMotion) -> "EvenCliffordElement":
    """The even Clifford representative (X0, X1, X2, X3) of kappa(g)."""
    # imported here: nothing else in this module needs the Clifford algebra
    from .clifford import EvenCliffordElement, QuadraticFormSpec

    form = QuadraticFormSpec.standard(g.spec)
    x = kappa(g).coords
    return EvenCliffordElement(form, x[0], x[1], x[2], x[3])


def kappa_inv(p: ProjPoint) -> RigidMotion:
    x0, x1, x2, x3 = p.coords
    n = x0 * x0 + x1 * x1
    if not n:
        raise NotInImageError(f"{p!r} lies on the exceptional locus")
    inv = n.inverse()
    two = x0.spec.one() + x0.spec.one()
    return RigidMotion(
        (x0 * x0 - x1 * x1) * inv,
        two * (x0 * x1) * inv,
        two * (x1 * x3 + x0 * x2) * inv,
        two * (x1 * x2 - x0 * x3) * inv,
    )


def all_proj_points(spec: FieldSpec) -> Iterator[ProjPoint]:
    """Canonical representatives of projective 3-space, leading coordinate first."""
    elements = list(spec.elements())
    one, zero = spec.one(), spec.zero()
    for lead in range(4):
        prefix = (zero,) * lead + (one,)
        tail = 3 - lead
        def rest(depth, acc):
            if depth == 0:
                yield ProjPoint(prefix + acc)
                return
            for e in elements:
                yield from rest(depth - 1, acc + (e,))
        yield from rest(tail, ())


def phi_left(g: RigidMotion) -> ProjMap:
    """Projective map with kappa(g . x) = phi_left(g)(kappa(x)) for all motions x."""
    h = kappa_even(g)
    lam = h.form.lam
    h0, h1, h2, h3 = h.coeffs
    zero = h0.spec.zero()
    return ProjMap(
        (
            (h0, lam * h1, zero, zero),
            (h1, h0, zero, zero),
            (h2, lam * h3, h0, -(lam * h1)),
            (h3, h2, -h1, h0),
        )
    )


# cached per axis; an isotropic axis raises on every call
@lru_cache(maxsize=None)
def r_tau_plane(axis: Line) -> ProjPlane:
    """The plane spanned by the image of the rotations about points of the axis: ``_r_tau_planes`` of one axis."""
    if axis.is_isotropic():
        raise IsotropicAxisError(f"{axis!r} is isotropic")
    spec = axis.n1.spec
    (row,) = _r_tau_planes(_index_field(spec), axis.key).tolist()
    return ProjPlane(tuple(map(spec.from_index, row)))
