"""Clifford algebra of the degenerate form <1, -lam, 0> on F^3 and its even subalgebra.

Generators anticommute (e_i e_j = -e_j e_i for i != j) and square to e1^2 = 1,
e2^2 = -lam, e3^2 = 0.  The even subalgebra is 4-dimensional; its unit group,
taken projectively, is isomorphic to the rigid motion group when lam = -1, and
``rho_star`` realises that map.  All values are immutable.

The element classes are the public API.  The index kernel at the end
(``_product``, ``sandwich_batch``, ``rho_star_keys``) multiplies int64
arrays of canonical indices by the same structure constants, and the tests
hold it equal to the classes.  ``associativity_misses`` reads the 8x8 table
alone: two slot gathers and one product a side for each of 512 triples.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

import numpy as np

from .field import FieldElement, FieldMismatchError, FieldSpec, NonUnitError, _index_field
from .motions import RigidMotion, SpecMismatchError

# slot order: scalar, the three vectors, the three bivectors, the volume blade
BLADE_NAMES = ("e0", "e1", "e2", "e3", "e12", "e13", "e23", "e123")
# generator bitmasks per slot (bit i set = generator e_{i+1} present)
_BLADE_MASKS = (0b000, 0b001, 0b010, 0b100, 0b011, 0b101, 0b110, 0b111)
_MASK_TO_SLOT = {m: i for i, m in enumerate(_BLADE_MASKS)}
_GRADES = (0, 1, 1, 1, 2, 2, 2, 3)


class QuadraticFormSpec:
    """The form diag(1, -lam, 0); lam must be a nonzero field element."""

    __setattr__ = __delattr__ = FieldSpec.__setattr__  # a cache key: never assigned to

    def __init__(self, field: FieldSpec, lam: FieldElement):
        if lam.spec is not field and lam.spec != field:
            raise FieldMismatchError("lam lives in a different field")
        if not lam:
            raise ValueError("lam must be nonzero")
        self.__dict__.update(field=field, lam=lam)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QuadraticFormSpec) and (self.field, self.lam) == (other.field, other.lam)

    def __hash__(self) -> int:
        return hash((self.field, self.lam))

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

    def grades(self) -> set[int]:
        return {g for c, g in zip(self.coeffs, _GRADES) if c}

    def scalar_part(self) -> FieldElement:
        return self.coeffs[0]

    @staticmethod
    def zero(form: QuadraticFormSpec) -> "CliffordElement":
        z = form.field.zero()
        return CliffordElement(form, (z,) * 8)


def blade(form: QuadraticFormSpec, name: str) -> CliffordElement:
    """The basis blade with the given name ("e0", "e1", ..., "e123")."""
    slot = BLADE_NAMES.index(name)
    z = form.field.zero()
    coeffs = [z] * 8
    coeffs[slot] = form.field.one()
    return CliffordElement(form, tuple(coeffs))


def conjugate(a: CliffordElement) -> CliffordElement:
    """Reversal composed with the main involution: blades pick up (-1)^(k(k+1)/2)."""
    out = []
    for c, g in zip(a.coeffs, _GRADES):
        out.append(c if _CONJ_SIGNS[g] > 0 else -c)
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

    def inverse(self) -> "EvenCliffordElement":
        n = self.norm()
        if not n:
            raise NonUnitError(f"{self!r} has norm 0")
        return self.conjugate().scaled(n.inverse())

    def to_clifford(self) -> CliffordElement:
        z = self.form.field.zero()
        return CliffordElement(
            self.form, (self.g0, z, z, z, self.g12, self.g13, self.g23, z)
        )

    @staticmethod
    def identity(form: QuadraticFormSpec) -> "EvenCliffordElement":
        z = form.field.zero()
        return EvenCliffordElement(form, form.field.one(), z, z, z)

    @property
    def key(self) -> tuple[int, int, int, int]:
        return tuple(c.index for c in self.coeffs)


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


# ---------------------------------------------------------------------------
# index kernel: batches of elements as int64 arrays of canonical coefficient
# indices.  An element batch is a list of 8 blade columns, each an array or
# None for a blade that is zero throughout; the columns of one batch, and of
# two batches multiplied together, broadcast against each other.

_NON_VECTOR_SLOTS = (0, 4, 5, 6, 7)


@lru_cache(maxsize=None)
def _product_terms(form: QuadraticFormSpec) -> tuple[tuple[int, int, int, int], ...]:
    """The nonzero entries of ``_blade_table`` as (i, j, result slot, coefficient index)."""
    return tuple(
        (i, j, slot, coeff.index)
        for i, row in enumerate(_blade_table(form))
        for j, (slot, coeff) in enumerate(row)
        if coeff
    )


def _product(form: QuadraticFormSpec, a: list, b: list) -> list:
    """The products of two element batches given as blade columns."""
    F = _index_field(form.field)
    minus_one = (-form.field.one()).index
    out = [None] * 8
    for i, j, slot, c in _product_terms(form):
        if a[i] is None or b[j] is None:
            continue
        term = F.mul(a[i], b[j])
        if c not in (1, minus_one):
            term = F.mul(term, c)
        acc = 0 if out[slot] is None else out[slot]
        out[slot] = F.sub(acc, term) if c == minus_one else F.add(acc, term)
    return out


def associativity_misses(form: QuadraticFormSpec) -> int:
    """The basis triples (a, b, c) with (a b) c != a (b c), off the 8x8 structure constants.

    e_a e_b = coeff[a, b] e_slot[a, b], so the sides differ when their
    coefficient products do, or when both are nonzero on different blades.
    """
    F = _index_field(form.field)
    slot, coeff = np.array([[(s, c.index) for s, c in row] for row in _blade_table(form)]).transpose(2, 0, 1)
    a, b, c = np.indices((8, 8, 8))
    left = F.mul(coeff[a, b], coeff[slot[a, b], c])
    right = F.mul(coeff[b, c], coeff[a, slot[b, c]])
    miss = (left != right) | ((left != 0) & (slot[slot[a, b], c] != slot[a, slot[b, c]]))
    return int(np.count_nonzero(miss))


def even_norms(form: QuadraticFormSpec, g0: np.ndarray, g12: np.ndarray) -> np.ndarray:
    """The norms g0^2 - lam g12^2 of even elements, from index arrays of g0 and g12."""
    F = _index_field(form.field)
    return F.sub(F.mul(g0, g0), F.mul(form.lam.index, F.mul(g12, g12)))


def even_unit_columns(form: QuadraticFormSpec) -> tuple[np.ndarray, ...]:
    """Every even unit as index columns (g0, g12, g13, g23).

    g0 and g12 have shape (P, 1), one row per (g0, g12) of nonzero norm, and
    g13 and g23 shape (1, q^2); broadcast and flattened, they list the units
    in ``even_units`` order.
    """
    q = form.field.q
    g0, g12 = np.divmod(np.arange(q * q, dtype=np.int64), q)
    units = even_norms(form, g0, g12) != 0
    g13, g23 = np.divmod(np.arange(q * q, dtype=np.int64), q)
    return g0[units, None], g12[units, None], g13[None, :], g23[None, :]


def _inverse_norms(form: QuadraticFormSpec, g0: np.ndarray, g12: np.ndarray) -> np.ndarray:
    norms = even_norms(form, g0, g12)
    if not norms.all():
        raise NonUnitError("an even element of norm 0 has no inverse")
    F = _index_field(form.field)
    return F.div(np.ones_like(norms), norms)


def sandwich_batch(form: QuadraticFormSpec, g: tuple, x: tuple) -> tuple[np.ndarray, ...]:
    """g x g^{-1} for even units g = (g0, g12, g13, g23) and vectors x = (x1, x2, x3).

    All seven are index arrays that broadcast together; the result is the
    three vector coefficients.  The product is multiplied out in the full
    algebra, as ``sandwich`` does, and a result outside grade 1 raises
    ``AssertionError``.
    """
    F = _index_field(form.field)
    g0, g12, g13, g23 = g
    inv = _inverse_norms(form, g0, g12)
    # g^{-1} = conjugate(g) / norm(g): the bivector parts change sign
    g_inv = [F.mul(inv, g0), None, None, None] + [F.sub(0, F.mul(inv, c)) for c in (g12, g13, g23)] + [None]
    out = _product(
        form,
        _product(form, [g0, None, None, None, g12, g13, g23, None], [None, *x, None, None, None, None]),
        g_inv,
    )
    if any(out[slot] is not None and out[slot].any() for slot in _NON_VECTOR_SLOTS):
        raise AssertionError("sandwich left grade 1")
    return tuple(np.broadcast_arrays(*out[1:4]))


def rho_star_keys(form: QuadraticFormSpec, g: tuple) -> np.ndarray:
    """``rho_star`` of even units g = (g0, g12, g13, g23), broadcast index arrays.

    Each motion is keyed ((u q + v) q + s) q + t on the indices of its
    entries.  A unit with u^2 + v^2 != 1 raises ``SpecMismatchError``, as the
    ``RigidMotion`` constructor does.
    """
    spec = form.field
    if form.lam != -spec.one():
        raise ValueError("rho_star requires the lam = -1 form")
    F, q = _index_field(spec), spec.q
    if q**4 > np.iinfo(np.int64).max:
        raise ValueError(f"motion keys in [0, q^4) overflow int64 at q = {q}")
    lam, two = form.lam.index, (spec.one() + spec.one()).index
    g0, g12, g13, g23 = g
    inv = _inverse_norms(form, g0, g12)
    u = F.mul(F.add(F.mul(g0, g0), F.mul(lam, F.mul(g12, g12))), inv)
    v = F.sub(0, F.mul(F.mul(two, F.mul(lam, F.mul(g0, g12))), inv))
    s = F.sub(0, F.mul(F.mul(two, F.add(F.mul(g0, g13), F.mul(lam, F.mul(g12, g23)))), inv))
    t = F.mul(F.mul(F.mul(two, lam), F.add(F.mul(g0, g23), F.mul(g12, g13))), inv)
    if (F.add(F.mul(u, u), F.mul(v, v)) != 1).any():
        raise SpecMismatchError("u^2+v^2 != 1 in rho_star of an even unit")
    return ((u * q + v) * q + s) * q + t
