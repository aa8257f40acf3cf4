"""Tests for the Clifford algebra: blade products, involutions, norms, rho_star."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from clifford_oracles import even_element, from_clifford, is_identity_coset, is_unit, main_involution
from findist.clifford import (
    BLADE_NAMES,
    CliffordElement,
    EvenCliffordElement,
    QuadraticFormSpec,
    blade,
    conjugate,
    even_units,
    norm,
    rho_star,
    sandwich,
)
from findist.field import FieldMismatchError, FieldSpec, NonUnitError
from findist.motions import all_motions
from motion_oracles import is_identity_motion

F3 = FieldSpec(3)
F5 = FieldSpec(5)
F7 = FieldSpec(7)

STD3 = QuadraticFormSpec.standard(F3)
STD5 = QuadraticFormSpec.standard(F5)
STD7 = QuadraticFormSpec.standard(F7)
ALT7 = QuadraticFormSpec(F7, F7.from_index(2))  # lam = 2

_WORDS = {name: tuple(int(ch) for ch in name[1:]) if name != "e0" else () for name in BLADE_NAMES}


def reduce_word(form, word, anticommute=True):
    """Oracle: sort a generator word by the defining rules, tracking the coefficient."""
    one = form.field.one()
    squares = {1: one, 2: -form.lam, 3: form.field.zero()}
    coeff = one
    word = list(word)
    changed = True
    while changed:
        changed = False
        for k in range(len(word) - 1):
            if word[k] == word[k + 1]:
                coeff = coeff * squares[word[k]]
                del word[k : k + 2]
                changed = True
                break
            if word[k] > word[k + 1]:
                word[k], word[k + 1] = word[k + 1], word[k]
                if anticommute:
                    coeff = -coeff
                changed = True
                break
    return tuple(word), coeff


def oracle_blade_product(form, name_a, name_b):
    word, coeff = reduce_word(form, _WORDS[name_a] + _WORDS[name_b])
    result = CliffordElement.zero(form)
    if coeff:
        slot = BLADE_NAMES.index("e" + "".join(map(str, word)) if word else "e0")
        coeffs = list(result.coeffs)
        coeffs[slot] = coeff
        result = CliffordElement(form, tuple(coeffs))
    return result


def random_element(form, indices):
    f = form.field
    return CliffordElement(form, tuple(f.from_index(i % f.q) for i in indices))


class TestBladeProducts:
    @pytest.mark.parametrize("form", [STD7, ALT7], ids=["lam=-1", "lam=2"])
    def test_full_table_matches_word_oracle(self, form):
        for a in BLADE_NAMES:
            for b in BLADE_NAMES:
                assert blade(form, a) * blade(form, b) == oracle_blade_product(form, a, b)

    def test_frozen_products(self):
        lam = STD7.lam
        e0, e12, e13 = (blade(STD7, n) for n in ("e0", "e12", "e13"))
        assert e12 * e12 == e0.scaled(lam)  # = -e0 here
        assert not e13 * e13
        e1, e2 = blade(STD7, "e1"), blade(STD7, "e2")
        assert e1 * e2 == e12
        assert e2 * e1 == -e12

    def test_scalar_is_unit(self):
        a = random_element(STD7, (3, 1, 4, 1, 5, 2, 6, 5))
        e0 = blade(STD7, "e0")
        assert e0 * a == a == a * e0

    @pytest.mark.parametrize("form", [STD7, ALT7], ids=["lam=-1", "lam=2"])
    def test_associativity_all_basis_triples(self, form):
        blades = [blade(form, n) for n in BLADE_NAMES]
        for a, b, c in itertools.product(blades, repeat=3):
            assert (a * b) * c == a * (b * c)

    @settings(max_examples=40)
    @given(
        st.tuples(*[st.integers(0, 6)] * 8),
        st.tuples(*[st.integers(0, 6)] * 8),
        st.tuples(*[st.integers(0, 6)] * 8),
    )
    def test_bilinearity(self, ia, ib, ic):
        a, b, c = (random_element(STD7, i) for i in (ia, ib, ic))
        assert (a + b) * c == a * c + b * c
        assert a * (b + c) == a * b + a * c

    def test_mixed_algebra_rejected(self):
        with pytest.raises(FieldMismatchError):
            blade(STD7, "e1") * blade(ALT7, "e1")

    def test_anticommutative_not_commutative(self):
        # the commutative reading flips the bivector square: e12*e12 becomes -lam
        form = STD7
        word, coeff = reduce_word(form, (1, 2, 1, 2), anticommute=False)
        assert word == () and coeff == -form.lam
        adopted = blade(form, "e12") * blade(form, "e12")
        assert adopted == blade(form, "e0").scaled(form.lam)
        assert form.lam != -form.lam  # odd characteristic keeps the variants apart

        # with that square, g g^* for g = e0 + e12 collapses to (1 + lam) e0 = 0,
        # so the commutative variant declares g non-invertible, while the adopted
        # algebra gives norm 1 - lam = 2 and an honest inverse
        g = blade(form, "e0") + blade(form, "e12")
        commutative_norm = form.field.one() - coeff  # 1 - (-lam)
        assert not commutative_norm
        assert norm(g) == F7.from_index(2)
        assert is_unit(from_clifford(g))


class TestInvolutions:
    def test_conjugate_frozen(self):
        assert conjugate(blade(STD7, "e12")) == -blade(STD7, "e12")
        assert conjugate(blade(STD7, "e1")) == -blade(STD7, "e1")
        assert conjugate(blade(STD7, "e123")) == blade(STD7, "e123")
        assert conjugate(blade(STD7, "e0")) == blade(STD7, "e0")

    def test_conjugate_antihomomorphism_on_basis(self):
        for a in BLADE_NAMES:
            for b in BLADE_NAMES:
                x, y = blade(STD7, a), blade(STD7, b)
                assert conjugate(x * y) == conjugate(y) * conjugate(x)

    def test_main_involution_automorphism(self):
        for a in BLADE_NAMES:
            for b in BLADE_NAMES:
                x, y = blade(ALT7, a), blade(ALT7, b)
                assert main_involution(x * y) == main_involution(x) * main_involution(y)

    def test_main_involution_fixes_even_part(self):
        g = even_element(STD7, 2, 3, 5, 1).to_clifford()
        assert main_involution(g) == g

    @settings(max_examples=30)
    @given(st.tuples(*[st.integers(0, 6)] * 8))
    def test_involutions_are_involutive(self, idx):
        a = random_element(STD7, idx)
        assert conjugate(conjugate(a)) == a
        assert main_involution(main_involution(a)) == a


class TestNorm:
    def test_frozen_values(self):
        assert norm(blade(STD7, "e0")) == F7.one()
        g = blade(STD7, "e0") + blade(STD7, "e12")
        assert norm(g) == F7.from_index(2)

    @pytest.mark.parametrize("lam_idx", [2, 1])
    def test_even_norm_closed_form_exhaustive_f3(self, lam_idx):
        form = QuadraticFormSpec(F3, F3.from_index(lam_idx))
        for c in itertools.product(range(3), repeat=4):
            g = even_element(form, *c)
            expected = g.g0 * g.g0 - form.lam * (g.g12 * g.g12)
            assert g.norm() == expected == norm(g.to_clifford())

    def test_multiplicative_exhaustive_f3(self):
        units = list(even_units(STD3))
        assert len(units) == 72
        for g in units:
            for h in units:
                assert (g * h).norm() == g.norm() * h.norm()

    @settings(max_examples=50)
    @given(st.tuples(*[st.integers(0, 6)] * 4), st.tuples(*[st.integers(0, 6)] * 4))
    def test_multiplicative_sampled_f7(self, ia, ib):
        for form in (STD7, ALT7):
            g = even_element(form, *ia)
            h = even_element(form, *ib)
            assert (g * h).norm() == g.norm() * h.norm()

    def test_even_product_matches_full_algebra(self):
        for ca in itertools.product(range(3), repeat=4):
            for cb in itertools.product(range(3), repeat=4):
                g, h = even_element(STD3, *ca), even_element(STD3, *cb)
                full = g.to_clifford() * h.to_clifford()
                assert (g * h).to_clifford() == full


class TestInverse:
    def test_identity(self):
        e = EvenCliffordElement.identity(STD5)
        assert e.inverse() == e

    def test_frozen_f5_example(self):
        g = even_element(STD5, 1, 1, 0, 0)
        inv = g.inverse()
        assert inv == even_element(STD5, 3, 2, 0, 0)
        assert g * inv == EvenCliffordElement.identity(STD5)

    def test_non_unit_rejected(self):
        g = even_element(STD5, 1, 2, 0, 0)  # 1 - (-1)*4 = 5 = 0
        assert not is_unit(g)
        with pytest.raises(NonUnitError):
            g.inverse()

    def test_two_sided_inverse_exhaustive_f3(self):
        e = EvenCliffordElement.identity(STD3)
        for g in even_units(STD3):
            inv = g.inverse()
            assert g * inv == e == inv * g


def sandwich_closed_form(g, v):
    """Expected coefficients of g v g^{-1}, expanded by hand once and frozen here."""
    form = g.form
    lam = form.lam
    n = g.norm()
    inv = n.inverse()
    two = form.field.one() + form.field.one()
    a = (g.g0 * g.g0 + lam * (g.g12 * g.g12)) * inv
    b = two * (g.g0 * g.g12) * inv
    c13 = two * (g.g0 * g.g13 + lam * (g.g12 * g.g23)) * inv
    c23 = two * lam * (g.g0 * g.g23 + g.g12 * g.g13) * inv
    x1, x2, x3 = v.coeffs[1], v.coeffs[2], v.coeffs[3]
    z = form.field.zero()
    return CliffordElement(
        form,
        (
            z,
            a * x1 - lam * (b * x2),
            -(b * x1) + a * x2,
            -(c13 * x1) + c23 * x2 + x3,
            z,
            z,
            z,
            z,
        ),
    )


class TestSandwich:
    def test_identity_acts_trivially(self):
        v = blade(STD7, "e1") + blade(STD7, "e3").scaled(F7.from_index(4))
        assert sandwich(EvenCliffordElement.identity(STD7), v) == v

    def test_frozen_example(self):
        g = even_element(STD7, 1, 1, 0, 0)
        assert sandwich(g, blade(STD7, "e1")) == -blade(STD7, "e2")

    @pytest.mark.parametrize("form", [STD3, QuadraticFormSpec(F3, F3.one())])
    def test_e3_fixed_and_grade_preserved_exhaustive_f3(self, form):
        e3 = blade(form, "e3")
        vecs = [blade(form, n) for n in ("e1", "e2", "e3")]
        for g in even_units(form):
            assert sandwich(g, e3) == e3
            for v in vecs:
                out = sandwich(g, v)
                assert out.grades() <= {1}
                assert out == sandwich_closed_form(g, v)

    @settings(max_examples=60)
    @given(
        st.tuples(*[st.integers(0, 6)] * 4),
        st.tuples(*[st.integers(0, 6)] * 3),
        st.sampled_from(["std", "alt"]),
    )
    def test_closed_form_sampled_f7(self, gi, vi, which):
        form = STD7 if which == "std" else ALT7
        g = even_element(form, *gi)
        if not is_unit(g):
            return
        z = form.field.zero()
        v = CliffordElement(
            form, (z,) + tuple(form.field.from_index(i) for i in vi) + (z,) * 4
        )
        assert sandwich(g, v) == sandwich_closed_form(g, v)

    def test_rejects_non_vector(self):
        with pytest.raises(ValueError):
            sandwich(EvenCliffordElement.identity(STD7), blade(STD7, "e12"))


class TestRhoStar:
    def test_frozen_rotation(self):
        m = rho_star(even_element(STD7, 1, 1, 0, 0))
        assert (m.u.index, m.v.index, m.s.index, m.t.index) == (0, 1, 0, 0)

    def test_scalar_to_identity(self):
        assert is_identity_motion(rho_star(even_element(STD7, 4, 0, 0, 0)))

    def test_projective(self):
        g = even_element(STD7, 2, 1, 3, 5)
        assert rho_star(g) == rho_star(g.scaled(F7.from_index(3)))

    def test_kernel_is_centre_exhaustive_f3(self):
        for g in even_units(STD3):
            assert is_identity_motion(rho_star(g)) == is_identity_coset(g)

    def test_order_twist_exhaustive_f3(self):
        units = list(even_units(STD3))
        for g in units:
            for h in units:
                assert rho_star(g * h) == rho_star(h).compose(rho_star(g))

    @settings(max_examples=60)
    @given(st.tuples(*[st.integers(0, 6)] * 4), st.tuples(*[st.integers(0, 6)] * 4))
    def test_order_twist_sampled_f7(self, ia, ib):
        g, h = even_element(STD7, *ia), even_element(STD7, *ib)
        if is_unit(g) and is_unit(h):
            assert rho_star(g * h) == rho_star(h).compose(rho_star(g))

    @pytest.mark.parametrize("spec,motions", [(F3, 36), (F5, 100)])
    def test_surjective_with_scalar_fibers(self, spec, motions):
        form = QuadraticFormSpec.standard(spec)
        fibers = {}
        for g in even_units(form):
            fibers.setdefault(rho_star(g).key, []).append(g)
        assert len(fibers) == motions
        assert set(fibers) == {m.key for m in all_motions(spec)}
        assert all(len(v) == spec.q - 1 for v in fibers.values())

    def test_non_unit_rejected(self):
        with pytest.raises(NonUnitError):
            rho_star(even_element(STD5, 1, 2, 3, 0))

    def test_requires_standard_form(self):
        with pytest.raises(ValueError):
            rho_star(even_element(ALT7, 1, 0, 0, 0))

    def test_form_validation(self):
        with pytest.raises(ValueError):
            QuadraticFormSpec(F7, F7.zero())
        with pytest.raises(FieldMismatchError):
            QuadraticFormSpec(F7, F5.one())

    def test_a_form_is_a_value(self):
        # forms key the blade-table caches, so equal forms hash alike and none is assigned to
        assert QuadraticFormSpec.standard(F7) == QuadraticFormSpec(F7, -F7.one()) != ALT7
        assert hash(QuadraticFormSpec.standard(F7)) == hash(QuadraticFormSpec(F7, F7.from_index(6)))
        with pytest.raises(AttributeError, match="cannot assign to field 'lam'"):
            ALT7.lam = F7.one()
        with pytest.raises(AttributeError):
            del ALT7.field
        assert (ALT7.field, ALT7.lam) == (F7, F7.from_index(2))
