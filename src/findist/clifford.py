"""Clifford algebra of the degenerate form <1, -lam, 0> on F^3 and its even subalgebra.

Generators anticommute (e_i e_j = -e_j e_i for i != j) and square to e1^2 = 1,
e2^2 = -lam, e3^2 = 0.  The even subalgebra is 4-dimensional; its unit group,
taken projectively, is isomorphic to the rigid motion group when lam = -1, and
``rho_star`` realises that map.  All values are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

from .field import FieldElement, FieldMismatchError, FieldSpec, NonUnitError
from .motions import RigidMotion

# slot order: scalar, the three vectors, the three bivectors, the volume blade
BLADE_NAMES = ("e0", "e1", "e2", "e3", "e12", "e13", "e23", "e123")
# generator bitmasks per slot (bit i set = generator e_{i+1} present)
_BLADE_MASKS = (0b000, 0b001, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111)
_MASK_TO_SLOT = {m: i for i, m in enumerate(_BLADE_MASKS)}
_GRADES = (0, 1, 1, 1, 2, 2, 2, 3)


@dataclass(frozen=True)
class QuadraticFormSpec:
    """The form diag(1, -lam, 0); lam must be a nonzero field element."""

    field: FieldSpec
    lam: FieldElement

    def __post_init__(self):
        if self.lam.spec is not self.field and self.lam.spec != self.field:
            raise FieldMismatchError("lam lives in a different field")
        if not self.lam:
            raise ValueError("lam must be nonzero")

    @staticmethod
    def standard(field: FieldSpec) -> "QuadraticFormSpec":
        """lam = -1, the case matching rotations with u^2 + v^2 = 1."""
        return QuadraticFormSpec(field, -field.one())


@lru_cache(maxsize=None)
def _generator_squares(form: QuadraticFormSpec) -> tuple[FieldElement, ...]:
    one = form.field.one()
    return (one, -form.lam, form.field.zero())


def _mask_product(a: int, b: int, form: QuadraticFormSpec) -> tuple[int, FieldElement]:
    """Product of two basis blades given as generator masks: (result mask, coefficient)."""
    squares = _generator_squares(form)
    coeff = form.field.one()
    cur = a
    for i in range(3):
        if not (b >> i) & 1:
            continue
        # moving e_{i+1} left past the generators of cur above it flips the sign
        if bin(cur >> (i + 1)).count("1") % 2:
            coeff = -coeff
        if (cur >> i) & 1:
            coeff = coeff * squares[i]
            cur &= ~(1 << i)
        else:
            cur |= 1 << i
    return cur, coeff


@lru_cache(maxsize=None)
def _blade_table(form: QuadraticFormSpec):
    """8x8 table by slot: entry (i, j) = (result slot, coefficient)."""
    table = []
    for a in _BLADE_MASKS:
        row = []
        for b in _BLADE_MASKS:
            mask, coeff = _mask_product(a, b, form)
            row.append((_MASK_TO_SLOT[mask], coeff))
        table.append(tuple(row))
    return tuple(table)


# conjugation reverses each blade and applies (-1)^grade; net sign by grade
_CONJ_SIGNS = (1, -1, -1, 1)
_ALPHA_SIGNS = (1, -1, 1, -1)


class CliffordElement:
    __slots__ = ("form", "coeffs")

    def __init__(self, form: QuadraticFormSpec, coeffs: tuple[FieldElement, ...]):
        if len(coeffs) != 8:
            raise ValueError("expected 8 blade coefficients")
        for c in coeffs:
            if c.spec is not form.field and c.spec != form.field:
                raise FieldMismatchError("coefficient outside the base field")
        self.form = form
        self.coeffs = tuple(coeffs)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CliffordElement)
            and self.form == other.form
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.form, self.coeffs))

    def __repr__(self) -> str:
        parts = [
            f"{c!r}*{name}" for c, name in zip(self.coeffs, BLADE_NAMES) if c
        ]
        return "Cl(" + (" + ".join(parts) if parts else "0") + ")"

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def _check(self, other: "CliffordElement") -> None:
        if self.form != other.form:
            raise FieldMismatchError("elements of different Clifford algebras")

    def __add__(self, other: "CliffordElement") -> "CliffordElement":
        self._check(other)
        return CliffordElement(
            self.form, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "CliffordElement") -> "CliffordElement":
        self._check(other)
        return CliffordElement(
            self.form, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "CliffordElement":
        return CliffordElement(self.form, tuple(-a for a in self.coeffs))

    def scaled(self, c: FieldElement) -> "CliffordElement":
        return CliffordElement(self.form, tuple(c * a for a in self.coeffs))

    def __mul__(self, other: "CliffordElement") -> "CliffordElement":
        self._check(other)
        zero = self.form.field.zero()
        out = [zero] * 8
        table = _blade_table(self.form)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            row = table[i]
            for j, b in enumerate(other.coeffs):
                if not b:
                    continue
                slot, coeff = row[j]
                if coeff:
                    out[slot] = out[slot] + a * b * coeff
        return CliffordElement(self.form, tuple(out))

    def grade_part(self, k: int) -> "CliffordElement":
        zero = self.form.field.zero()
        return CliffordElement(
            self.form,
            tuple(c if g == k else zero for c, g in zip(self.coeffs, _GRADES)),
        )

    def grades(self) -> set[int]:
        return {g for c, g in zip(self.coeffs, _GRADES) if c}

    def is_even(self) -> bool:
        return self.grades() <= {0, 2}

    def scalar_part(self) -> FieldElement:
        return self.coeffs[0]

    def to_json(self) -> list:
        return [c.to_json() for c in self.coeffs]

    @staticmethod
    def zero(form: QuadraticFormSpec) -> "CliffordElement":
        z = form.field.zero()
        return CliffordElement(form, (z,) * 8)

    @staticmethod
    def scalar(form: QuadraticFormSpec, c: FieldElement) -> "CliffordElement":
        z = form.field.zero()
        return CliffordElement(form, (c,) + (z,) * 7)


def blade(form: QuadraticFormSpec, name: str) -> CliffordElement:
    """The basis blade with the given name ("e0", "e1", ..., "e123")."""
    slot = BLADE_NAMES.index(name)
    z = form.field.zero()
    coeffs = [z] * 8
    coeffs[slot] = form.field.one()
    return CliffordElement(form, tuple(coeffs))


def multiply(a: CliffordElement, b: CliffordElement) -> CliffordElement:
    return a * b


def conjugate(a: CliffordElement) -> CliffordElement:
    """Reversal composed with the main involution: blades pick up (-1)^(k(k+1)/2)."""
    out = []
    for c, g in zip(a.coeffs, _GRADES):
        out.append(c if _CONJ_SIGNS[g] > 0 else -c)
    return CliffordElement(a.form, tuple(out))


def main_involution(a: CliffordElement) -> CliffordElement:
    """The grade automorphism: sign (-1)^k on grade-k blades."""
    out = []
    for c, g in zip(a.coeffs, _GRADES):
        out.append(c if _ALPHA_SIGNS[g] > 0 else -c)
    return CliffordElement(a.form, tuple(out))


def norm(a: CliffordElement) -> FieldElement:
    """a * conjugate(a), which must come out scalar."""
    prod = a * conjugate(a)
    if prod.grades() - {0}:
        raise ValueError("norm is only scalar-valued on suitable elements")
    return prod.scalar_part()


class EvenCliffordElement:
    """g0 e0 + g12 e12 + g13 e13 + g23 e23, with fast closed-form products."""

    __slots__ = ("form", "g0", "g12", "g13", "g23")

    def __init__(
        self,
        form: QuadraticFormSpec,
        g0: FieldElement,
        g12: FieldElement,
        g13: FieldElement,
        g23: FieldElement,
    ):
        for c in (g0, g12, g13, g23):
            if c.spec is not form.field and c.spec != form.field:
                raise FieldMismatchError("coefficient outside the base field")
        self.form = form
        self.g0 = g0
        self.g12 = g12
        self.g13 = g13
        self.g23 = g23

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, EvenCliffordElement)
            and self.form == other.form
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.form, self.coeffs))

    def __repr__(self) -> str:
        return f"Even({self.g0!r}, {self.g12!r}, {self.g13!r}, {self.g23!r})"

    @property
    def coeffs(self) -> tuple[FieldElement, ...]:
        return (self.g0, self.g12, self.g13, self.g23)

    def __mul__(self, other: "EvenCliffordElement") -> "EvenCliffordElement":
        if self.form != other.form:
            raise FieldMismatchError("elements of different Clifford algebras")
        lam = self.form.lam
        a0, a1, a2, a3 = self.coeffs
        b0, b1, b2, b3 = other.coeffs
        # closed form of the blade products restricted to the even part:
        # e12*e12 = lam, e12*e13 = -e23, e13*e12 = e23, e12*e23 = -lam*e13,
        # e23*e12 = lam*e13, and all products of e13, e23 among themselves vanish
        return EvenCliffordElement(
            self.form,
            a0 * b0 + lam * (a1 * b1),
            a0 * b1 + a1 * b0,
            a0 * b2 + a2 * b0 + lam * (a3 * b1 - a1 * b3),
            a0 * b3 + a3 * b0 + a2 * b1 - a1 * b2,
        )

    def scaled(self, c: FieldElement) -> "EvenCliffordElement":
        return EvenCliffordElement(
            self.form, c * self.g0, c * self.g12, c * self.g13, c * self.g23
        )

    def conjugate(self) -> "EvenCliffordElement":
        return EvenCliffordElement(self.form, self.g0, -self.g12, -self.g13, -self.g23)

    def norm(self) -> FieldElement:
        return self.g0 * self.g0 - self.form.lam * (self.g12 * self.g12)

    def is_unit(self) -> bool:
        return bool(self.norm())

    def inverse(self) -> "EvenCliffordElement":
        n = self.norm()
        if not n:
            raise NonUnitError(f"{self!r} has norm 0")
        return self.conjugate().scaled(n.inverse())

    def is_identity_coset(self) -> bool:
        """True when this is a nonzero scalar, i.e. lies in the centre Z."""
        return bool(self.g0) and not (self.g12 or self.g13 or self.g23)

    def to_clifford(self) -> CliffordElement:
        z = self.form.field.zero()
        return CliffordElement(
            self.form, (self.g0, z, z, z, self.g12, self.g13, self.g23, z)
        )

    @staticmethod
    def from_clifford(a: CliffordElement) -> "EvenCliffordElement":
        if not a.is_even():
            raise ValueError("element has odd components")
        return EvenCliffordElement(a.form, a.coeffs[0], a.coeffs[4], a.coeffs[5], a.coeffs[6])

    @staticmethod
    def identity(form: QuadraticFormSpec) -> "EvenCliffordElement":
        z = form.field.zero()
        return EvenCliffordElement(form, form.field.one(), z, z, z)

    @property
    def key(self) -> tuple[int, int, int, int]:
        return tuple(c.index for c in self.coeffs)

    def to_json(self) -> list:
        return [c.to_json() for c in self.coeffs]


def even_element(
    form: QuadraticFormSpec, g0: int, g12: int, g13: int, g23: int
) -> EvenCliffordElement:
    """Build an even element from canonical coefficient indices."""
    f = form.field
    return EvenCliffordElement(
        form, f.from_index(g0), f.from_index(g12), f.from_index(g13), f.from_index(g23)
    )


def invert_even(g: EvenCliffordElement) -> EvenCliffordElement:
    return g.inverse()


def even_units(form: QuadraticFormSpec) -> Iterator[EvenCliffordElement]:
    """All even elements of nonzero norm, in coefficient index order."""
    for g0 in form.field.elements():
        for g12 in form.field.elements():
            if not (g0 * g0 - form.lam * (g12 * g12)):
                continue
            for g13 in form.field.elements():
                for g23 in form.field.elements():
                    yield EvenCliffordElement(form, g0, g12, g13, g23)


def sandwich(g: EvenCliffordElement, v: CliffordElement) -> CliffordElement:
    """g v g^{-1} for a grade-1 argument; stays grade 1 and fixes e3."""
    if v.grades() - {1}:
        raise ValueError("sandwich argument must be a vector")
    if v.form != g.form:
        raise FieldMismatchError("mixed algebras")
    out = g.to_clifford() * v * g.inverse().to_clifford()
    if out.grades() - {1}:
        raise AssertionError("sandwich left grade 1")
    return out


def rho_star(g: EvenCliffordElement) -> RigidMotion:
    """The rigid motion whose contragredient matrix has the displayed entries at g.

    Only defined for lam = -1, where the rotation block satisfies u^2 + v^2 = 1.
    Scalar multiples of g map to the same motion; the kernel is exactly the
    centre {g0 e0}.  Note the order twist: rho_star(g h) equals
    rho_star(h) composed with rho_star(g).
    """
    form = g.form
    if form.lam != -form.field.one():
        raise ValueError("rho_star requires the lam = -1 form")
    n = g.norm()
    if not n:
        raise NonUnitError(f"{g!r} has norm 0")
    lam = form.lam
    inv = n.inverse()
    two = form.field.one() + form.field.one()
    u = (g.g0 * g.g0 + lam * (g.g12 * g.g12)) * inv
    v = -(two * lam * (g.g0 * g.g12)) * inv
    s = -(two * (g.g0 * g.g13 + lam * (g.g12 * g.g23))) * inv
    t = two * lam * (g.g0 * g.g23 + g.g12 * g.g13) * inv
    return RigidMotion(u, v, s, t)
