"""Object-level constructions of the kinematic lemmas.

The paper's reduction rests on these facts about the rigid motion group and
its projective embedding: the motions taking x to y form a transporter set
whose image under kappa spans a projective line, the rotations about the
points of an axis form a set R_tau whose image spans a plane, the
composition of two reflections is a motion in R_tau, and right translation
acts on projective 3-space as ``phi_right``.  The package's runs reach the
embedding only through the index kernels in ``findist.projective_rows``, so
these enumerations live here, where the tests hold the kernels and the
lemmas to them, with the motion and map operations only the tests apply:
a motion on a segment, its fixed point, a projective map on a plane, and
the identity tests of a rotation, a motion and a map.
"""

from __future__ import annotations

from typing import Iterator, Optional

from findist.field import FieldSpec
from findist.geometry import IsotropicAxisError, Line, Point, Segment, origin, reflect
from findist.kinematic import (
    ProjMap,
    ProjPlane,
    ProjPoint,
    _identity_matrix,
    _mat_inverse,
    _mat_vec,
    _row_reduce,
    all_proj_points,
    kappa,
    kappa_even,
)
from findist.motions import RigidMotion, Rotation, enumerate_rotations, so2_order


def is_identity_rotation(rot: Rotation) -> bool:
    return rot.u == rot.u.spec.one() and not rot.v


def is_identity_motion(g: RigidMotion) -> bool:
    return g.u == g.spec.one() and not g.v and not g.s and not g.t


def is_identity_map(m: ProjMap) -> bool:
    return m.matrix == _identity_matrix(m.spec)


def apply_segment(g: RigidMotion, seg: Segment) -> Segment:
    return Segment(g.apply(seg.head), g.apply(seg.tail))


def is_translation(g: RigidMotion) -> bool:
    return g.u == g.spec.one() and not g.v


def fixed_point(g: RigidMotion) -> Optional[Point]:
    """The unique fixed point when the rotation part is nontrivial.

    Returns None for fixed-point-free motions (nonzero translations); the
    identity is rejected because every point is fixed.
    """
    if is_identity_motion(g):
        raise ValueError("identity fixes every point")
    if is_translation(g):
        return None
    # solve (I - R) z = (s, t); det(I - R) = 2(1 - u) != 0 when R != I
    one = g.spec.one()
    a, b = one - g.u, g.v
    det = a * a + b * b
    zx = (a * g.s - b * g.t) / det
    zy = (b * g.s + a * g.t) / det
    return Point(zx, zy)


def apply_plane(m: ProjMap, plane: ProjPlane) -> ProjPlane:
    """Image plane: coefficients transform by the inverse transpose."""
    inv = _mat_inverse(m.matrix, m.spec)
    transposed = tuple(tuple(inv[j][i] for j in range(4)) for i in range(4))
    return ProjPlane(_mat_vec(transposed, plane.coeffs))


def rotation_about(center: Point, rot: Rotation) -> RigidMotion:
    shift = center - rot.apply(center)
    return RigidMotion(rot.u, rot.v, shift.x, shift.y)


def transporter_set(x: Point, y: Point) -> list[RigidMotion]:
    """All motions sending x to y: one per rotation, in rotation order."""
    spec = x.x.spec
    out = []
    for rot in enumerate_rotations(spec):
        shift = y - rot.apply(x)
        out.append(RigidMotion(rot.u, rot.v, shift.x, shift.y))
    return out


def iter_r_tau(axis: Line) -> Iterator[RigidMotion]:
    """Lazily yield the axial rotation set: identity, then per-point rotations.

    Distinct (center, rotation) pairs give distinct motions, so the only
    shared member is the identity, yielded once up front.
    """
    if axis.is_isotropic():
        raise IsotropicAxisError(f"{axis!r} is isotropic")
    spec = axis.n1.spec
    yield RigidMotion.identity(spec)
    rotations = [rot for rot in enumerate_rotations(spec) if not is_identity_rotation(rot)]
    for z in axis.points(spec):
        for rot in rotations:
            yield rotation_about(z, rot)


def r_tau_set(axis: Line) -> list[RigidMotion]:
    """Rotations about the points of a non-isotropic axis, identity included once."""
    spec = axis.n1.spec
    result = sorted(set(iter_r_tau(axis)), key=lambda m: m.key)
    if len(result) != spec.q * (so2_order(spec) - 1) + 1:
        raise AssertionError(f"axial rotation set has {len(result)} motions")
    return result


def _reflection_parts(line: Line) -> tuple[tuple[Point, Point], Point]:
    """The reflection across ``line`` as its linear part's columns (e1 | e2) and translation w."""
    spec = line.n1.spec
    w = reflect(line, origin(spec))
    e1 = reflect(line, Point(spec.one(), spec.zero())) - w
    e2 = reflect(line, Point(spec.zero(), spec.one())) - w
    return (e1, e2), w


def axial_to_motion(axis: Line, tau: Line) -> RigidMotion:
    """Reflect across tau, then across axis; an orientation-preserving motion.

    When the axes meet, this is a rotation about their intersection point (so it
    lands in r_tau_set(tau)); parallel axes compose to a translation normal to both.
    """
    if axis.is_isotropic() or tau.is_isotropic():
        raise IsotropicAxisError("both axes must be non-isotropic")
    (a1, a2), wa = _reflection_parts(axis)
    (b1, b2), wb = _reflection_parts(tau)
    # compose x -> A(Bx + wb) + wa
    c1 = Point(a1.x * b1.x + a2.x * b1.y, a1.y * b1.x + a2.y * b1.y)
    c2 = Point(a1.x * b2.x + a2.x * b2.y, a1.y * b2.x + a2.y * b2.y)
    w = Point(a1.x * wb.x + a2.x * wb.y + wa.x, a1.y * wb.x + a2.y * wb.y + wa.y)
    u, v = c1.x, c1.y
    if c2.x != -v or c2.y != u:
        raise AssertionError("composition of two reflections must rotate")
    return RigidMotion(u, v, w.x, w.y)


def matrix_rank(rows, spec: FieldSpec) -> int:
    """Rank of a list of 4-coordinate rows by exact elimination."""
    return len(_row_reduce(rows)[1])


def is_exceptional(p: ProjPoint) -> bool:
    """X0^2 + X1^2 = 0: p lies outside the image of kappa."""
    x0, x1 = p.coords[0], p.coords[1]
    return not (x0 * x0 + x1 * x1)


def exceptional_set(spec: FieldSpec) -> list[ProjPoint]:
    """All projective points with X0^2 + X1^2 = 0: the complement of the image."""
    return [p for p in all_proj_points(spec) if is_exceptional(p)]


def phi_right(g: RigidMotion) -> ProjMap:
    """Projective map with kappa(x . g) = phi_right(g)(kappa(x)) for all motions x."""
    h = kappa_even(g)
    lam = h.form.lam
    h0, h1, h2, h3 = h.coeffs
    zero = h0.spec.zero()
    return ProjMap(
        (
            (h0, lam * h1, zero, zero),
            (h1, h0, zero, zero),
            (h2, -(lam * h3), h0, lam * h1),
            (h3, -h2, h1, h0),
        )
    )


def transporter_image(x: Point, y: Point) -> list[ProjPoint]:
    """kappa of every motion taking x to y; asserts the points span a line."""
    points = [kappa(m) for m in transporter_set(x, y)]
    spec = x.x.spec
    if matrix_rank([p.coords for p in points], spec) != 2:
        raise AssertionError("transporter image does not span a line")
    return points


def transporter_line(x: Point, y: Point) -> tuple[ProjPoint, ProjPoint]:
    """Two distinct points spanning the line through the transporter image."""
    points = transporter_image(x, y)
    first = points[0]
    second = next(p for p in points[1:] if p != first)
    return first, second
