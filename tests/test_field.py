"""Field layer tests: frozen oracle values plus algebraic property checks."""

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from field_oracles import is_square, poly_mul, poly_pow, reduction_rows
from findist import field
from findist.field import (
    FieldElement,
    FieldMismatchError,
    FieldSpec,
    NonUnitError,
    Q_MAX,
    _is_prime,
    _prime_factors,
    blocks,
    find_irreducible,
)

F3 = FieldSpec(3)
F5 = FieldSpec(5)
F7 = FieldSpec(7)
F9 = FieldSpec(3, 2)
F25 = FieldSpec(5, 2)
F27 = FieldSpec(3, 3)
F49 = FieldSpec(7, 2)

SMALL_FIELDS = [F3, F5, F7, F9, F25, F27, F49]


def brute_squares(spec: FieldSpec) -> set[FieldElement]:
    # independent oracle: enumerate x*x over the whole field
    return {x * x for x in spec.elements()}


def brute_roots(spec: FieldSpec, a: FieldElement) -> list[FieldElement]:
    return sorted((x for x in spec.elements() if x * x == a), key=lambda e: e.index)


class TestIrreducibleSearch:
    def test_known_moduli(self):
        # frozen: first candidates in counter order that pass a root check
        assert find_irreducible(3, 2) == (1, 0, 1)  # x^2 + 1
        assert find_irreducible(5, 2) == (2, 0, 1)  # x^2 + 2
        assert find_irreducible(7, 2) == (1, 0, 1)  # x^2 + 1

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_degree_two_matches_root_oracle(self, p):
        # oracle: scan candidates in the same counter order, reject iff a root exists
        found = None
        for k in range(p * p):
            c0, c1 = k % p, (k // p) % p
            if all((x * x + c1 * x + c0) % p for x in range(p)):
                found = (c0, c1, 1)
                break
        assert find_irreducible(p, 2) == found

    def test_cubic_has_no_linear_factor(self):
        poly = find_irreducible(3, 3)
        assert len(poly) == 4 and poly[-1] == 1
        for x in range(3):
            val = sum(c * pow(x, i, 27) for i, c in enumerate(poly)) % 3
            assert val != 0

    def test_rejects_even_or_composite_characteristic(self):
        with pytest.raises(ValueError):
            find_irreducible(2, 2)
        with pytest.raises(ValueError):
            find_irreducible(9, 2)


class TestFieldSpec:
    def test_q_and_enumeration(self):
        assert F9.q == 9
        elems = list(F9.elements())
        assert len(elems) == 9
        assert len(set(elems)) == 9
        assert elems[0] == F9.zero()
        assert [e.index for e in elems] == list(range(9))

    def test_reducible_modulus_rejected(self):
        with pytest.raises(ValueError, match="reducible"):
            FieldSpec(5, 2, (1, 0, 1))  # x^2+1 = (x+2)(x+3) over F_5
        with pytest.raises(ValueError, match="reducible"):
            FieldSpec.from_json({"p": 3, "r": 3, "modulus": [0, 0, 0, 1]})

    def test_the_searched_modulus_is_unchanged(self):
        # FieldSpec takes the search's first irreducible unchecked; these are they
        for (p, r), mod in {(3, 2): (1, 0, 1), (5, 2): (2, 0, 1), (3, 3): (1, 2, 0, 1), (31, 2): (1, 0, 1),
                            (101, 2): (2, 0, 1), (3, 4): (2, 1, 0, 0, 1)}.items():
            assert FieldSpec(p, r).modulus == mod == find_irreducible(p, r)
            assert FieldSpec(p, r, mod) == FieldSpec(p, r)

    def test_equal_specs_share_one_table(self):
        spec = FieldSpec(5, 2)
        assert FieldSpec.from_json(spec.to_json()).tables is spec.tables
        assert FieldSpec(5, 2, (3, 0, 1)).tables is not spec.tables  # x^2+3, another modulus

    def test_non_monic_rejected(self):
        with pytest.raises(ValueError):
            FieldSpec(5, 2, (2, 0, 2))

    def test_order_above_the_limit_rejected(self):
        assert 131101 > Q_MAX  # 131101 is prime
        with pytest.raises(ValueError, match=f"q = 131101 exceeds the limit {Q_MAX}"):
            FieldSpec(131101)
        with pytest.raises(ValueError, match=f"q = 3\\^11 exceeds the limit {Q_MAX}"):
            FieldSpec(3, 11)
        with pytest.raises(ValueError, match="exceeds the limit"):
            FieldSpec(3, 10**9)

    def test_lift_of_the_largest_sweep_prime_is_within_the_limit(self):
        spec = FieldSpec(101, 2)
        assert spec.q == 10201 <= Q_MAX
        a = spec.from_index(10200)
        assert a * a.inverse() == spec.one()

    def test_json_roundtrip(self):
        for spec in SMALL_FIELDS:
            assert FieldSpec.from_json(spec.to_json()) == spec

    def test_a_spec_is_a_value(self):
        # the repr is part of ReductionUnavailableError messages, and so of report bytes
        assert repr(FieldSpec(31)) == "FieldSpec(p=31, r=1, modulus=(0, 1))"
        assert repr(FieldSpec(5, 2)) == "FieldSpec(p=5, r=2, modulus=(2, 0, 1))"
        spec = FieldSpec(5, 2)
        assert hash(spec) == hash((5, 2, (2, 0, 1))) == hash(FieldSpec(5, 2, [7, 5, 1]))
        assert spec == FieldSpec(5, 2, (2, 0, 1)) and spec != FieldSpec(5, 2, (3, 0, 1)) and spec != FieldSpec(5)
        # never a tuple: witness, parameter and CSV encoders write tuples as lists
        assert not isinstance(spec, tuple) and spec != (5, 2, (2, 0, 1))
        assert "__eq__" in vars(FieldSpec)  # where the benchmark tracer counts comparisons
        spec.tables
        for name in ("p", "r", "modulus", "tables", "q"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(spec, name, 7)
            with pytest.raises(AttributeError):
                delattr(spec, name)
        assert (spec.p, spec.r, spec.modulus, spec.q) == (5, 2, (2, 0, 1), 25)

    @pytest.mark.parametrize("blob", [
        {"p": 31.7, "r": "1"}, {"p": 31.0}, {"p": "31"}, {"p": True}, {"p": 5, "r": 2.0},
        {"p": 5, "r": 2, "modulus": [2, 0, 1.0]}, {"p": 5, "r": 2, "modulus": [2, 0, True]},
        {"p": 5, "r": 2, "modulus": "201"},
    ])
    def test_from_json_refuses_non_integers(self, blob):
        # int() used to truncate: {"p": 31.7} ran over F_31
        with pytest.raises(ValueError, match="field p, r and modulus must be integers"):
            FieldSpec.from_json(blob)

    @pytest.mark.parametrize("args", [
        (31.7,), (31.0,), ("31",), (True,), (5, 2.0), (5, True), (5, 2, (2, 0, 1.0)), (5, 2, (2, 0, True)),
        (5, 2, "201"),
    ])
    def test_constructor_refuses_non_integers(self, args):
        # FieldSpec(31.7) passed the primality test and raised TypeError on first use
        with pytest.raises(ValueError, match="field p, r and modulus must be integers"):
            FieldSpec(*args)

    def test_chi_minus_one_mod_four(self):
        # invariant: -1 is a square exactly when q ≡ 1 (mod 4)
        for spec in SMALL_FIELDS + [FieldSpec(11), FieldSpec(13)]:
            minus_one = -spec.one()
            assert minus_one in brute_squares(spec) if spec.q % 4 == 1 else minus_one not in brute_squares(spec)
            assert spec.chi_minus_one() == (1 if spec.q % 4 == 1 else -1)
            assert minus_one.chi() == spec.chi_minus_one()


class TestBlocks:
    @pytest.mark.parametrize("cells", [1, 5, 64, 1 << 16])
    def test_row_ranges_cover_the_rows_within_the_budget(self, monkeypatch, cells):
        # CHUNK_CELLS is read at call time, so a patched budget reaches every kernel
        monkeypatch.setattr(field, "CHUNK_CELLS", cells)
        for n_rows, row_cells in [(0, 3), (1, 0), (7, 1), (10, 3), (10, 100), (100, 7)]:
            ranges = list(blocks(n_rows, row_cells))
            bounds = [0] + [hi for _, hi in ranges]
            assert [lo for lo, _ in ranges] == bounds[:-1] and bounds[-1] == n_rows
            assert all(hi - lo == 1 or (hi - lo) * row_cells <= cells for lo, hi in ranges)
            # every block but the last is as large as the budget allows
            assert all((hi - lo + 1) * row_cells > cells for lo, hi in ranges[:-1])


class TestArithmetic:
    @pytest.mark.parametrize("spec", [F3, F5, F7, F9])
    def test_field_axioms_exhaustive(self, spec):
        elems = list(spec.elements())
        zero, one = spec.zero(), spec.one()
        for a in elems:
            assert a + zero == a
            assert a * one == a
            assert a + (-a) == zero
            if a:
                assert a * a.inverse() == one
        for a in elems:
            for b in elems:
                assert a + b == b + a
                assert a * b == b * a
        # spot-check associativity/distributivity on a coarser grid
        for a in elems[::2]:
            for b in elems[::3] or elems[:1]:
                for c in elems[::2]:
                    assert (a + b) + c == a + (b + c)
                    assert (a * b) * c == a * (b * c)
                    assert a * (b + c) == a * b + a * c

    @settings(max_examples=60)
    @given(i=st.integers(0, 48), j=st.integers(0, 48), k=st.integers(0, 48))
    def test_field_axioms_sampled_f49(self, i, j, k):
        a, b, c = F49.from_index(i), F49.from_index(j), F49.from_index(k)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=40)
    @given(i=st.integers(1, 26))
    def test_inverse_f27(self, i):
        a = F27.from_index(i)
        assert a * a.inverse() == F27.one()

    def test_zero_inverse_raises(self):
        with pytest.raises(NonUnitError):
            F7.zero().inverse()

    def test_cross_field_mix_raises(self):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(FieldMismatchError):
                op(F7.element(3), F5.element(2))
        assert F7.one() != F5.one()

    def test_pow_matches_repeated_product(self):
        a = F9.element([1, 2])
        acc = F9.one()
        for n in range(1, 12):
            acc = acc * a
            assert a**n == acc
        assert a**-1 == a.inverse()


class TestSquareStructure:
    def test_squares_mod_seven(self):
        # frozen oracle: {x^2 mod 7} = {0,1,2,4}; -1 = 6 is not among them
        squares = {x * x % 7 for x in range(7)}
        assert squares == {0, 1, 2, 4}
        assert not is_square(F7.element(-1))
        assert is_square(F7.element(2))

    def test_sqrt_two_mod_seven(self):
        roots = F7.element(2).sqrt()
        assert [r.coeffs[0] for r in roots] == [3, 4]

    @pytest.mark.parametrize("spec", SMALL_FIELDS)
    def test_sqrt_matches_enumeration(self, spec):
        for a in spec.elements():
            assert list(a.sqrt()) == brute_roots(spec, a)

    @pytest.mark.parametrize("spec", SMALL_FIELDS)
    def test_chi_is_multiplicative(self, spec):
        elems = [spec.from_index(k) for k in range(1, spec.q, max(1, spec.q // 8))]
        for a in elems:
            for b in elems:
                assert (a * b).chi() == a.chi() * b.chi()

    def test_square_counts(self):
        # exactly (q+1)/2 squares including zero
        for spec in SMALL_FIELDS:
            assert len(brute_squares(spec)) == (spec.q + 1) // 2
            assert sum(1 for a in spec.elements() if is_square(a)) == (spec.q + 1) // 2


class PolyOracle:
    """Coefficient-vector arithmetic of one field: the reference for the log/Zech tables."""

    def __init__(self, spec: FieldSpec):
        self.p, self.q, self.rows = spec.p, spec.q, reduction_rows(spec)
        self.zero = (0,) * spec.r
        self.one = (1,) + self.zero[1:]
        self.vectors = [tuple((k // spec.p**i) % spec.p for i in range(spec.r)) for k in range(spec.q)]

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        return poly_mul(a, b, self.p, self.rows)

    def pow(self, a, n):
        return poly_pow(a, n, self.p, self.rows)

    def inverse(self, a):
        return next(x for x in self.vectors if self.mul(a, x) == self.one)

    def chi(self, a):
        if a == self.zero:
            return 0
        return 1 if self.pow(a, (self.q - 1) // 2) == self.one else -1

    def sqrt(self, a):
        return [x for x in self.vectors if self.mul(x, x) == a]  # vectors run in index order


class TestTableKernel:
    """The log/Zech table arithmetic against polynomial arithmetic."""

    @pytest.mark.parametrize("spec", SMALL_FIELDS)
    def test_binary_ops_exhaustive(self, spec):
        oracle = PolyOracle(spec)
        for a in spec.elements():
            for b in spec.elements():
                assert (a + b).coeffs == oracle.add(a.coeffs, b.coeffs)
                assert (a - b).coeffs == oracle.sub(a.coeffs, b.coeffs)
                assert (a * b).coeffs == oracle.mul(a.coeffs, b.coeffs)
                if b:
                    assert (a / b).coeffs == oracle.mul(a.coeffs, oracle.inverse(b.coeffs))
                else:
                    with pytest.raises(NonUnitError):
                        a / b

    @pytest.mark.parametrize("spec", SMALL_FIELDS)
    def test_unary_ops_exhaustive(self, spec):
        oracle = PolyOracle(spec)
        for a in spec.elements():
            assert (-a).coeffs == oracle.sub(oracle.zero, a.coeffs)
            assert a.chi() == oracle.chi(a.coeffs)
            assert [r.coeffs for r in a.sqrt()] == oracle.sqrt(a.coeffs)
            if not a:
                continue
            inv = oracle.inverse(a.coeffs)
            assert a.inverse().coeffs == inv
            power = oracle.one
            for n in range(2 * spec.q + 1):
                assert (a**n).coeffs == power
                power = oracle.mul(power, a.coeffs)
            power = oracle.one
            for n in range(0, -spec.q - 2, -1):
                assert (a**n).coeffs == power
                power = oracle.mul(power, inv)

    @pytest.mark.parametrize("spec", SMALL_FIELDS)
    def test_powers_of_zero(self, spec):
        zero = spec.zero()
        assert zero**0 == spec.one()
        assert zero**1 == zero and zero**5 == zero
        for n in (-1, -2):
            with pytest.raises(NonUnitError):
                zero**n
        with pytest.raises(NonUnitError):
            zero.inverse()

    @pytest.mark.parametrize("spec", [FieldSpec(31, 2), FieldSpec(3, 4)])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_sampled_triples(self, spec, data):
        oracle = PolyOracle(spec)
        a, b, c = (spec.from_index(data.draw(st.integers(0, spec.q - 1))) for _ in range(3))
        n = data.draw(st.integers(-2 * spec.q, 2 * spec.q))
        assert (a * b + c).coeffs == oracle.add(oracle.mul(a.coeffs, b.coeffs), c.coeffs)
        assert (a - b * c).coeffs == oracle.sub(a.coeffs, oracle.mul(b.coeffs, c.coeffs))
        assert (-a).coeffs == oracle.sub(oracle.zero, a.coeffs)
        assert a.chi() == oracle.chi(a.coeffs)
        assert [r.coeffs for r in a.sqrt()] == oracle.sqrt(a.coeffs)
        if c:
            assert ((a + b) / c).coeffs == oracle.mul(oracle.add(a.coeffs, b.coeffs), oracle.inverse(c.coeffs))
        if a:
            base = a.coeffs if n >= 0 else oracle.inverse(a.coeffs)
            assert (a**n).coeffs == oracle.pow(base, abs(n))

    @pytest.mark.parametrize(
        "spec",
        [FieldSpec(3, r) for r in range(1, 5)] + [F25, FieldSpec(5, 4), FieldSpec(31, 2), FieldSpec(101, 2)],
        ids=lambda spec: f"F{spec.q}",
    )
    def test_generator_is_the_first_primitive_element(self, spec):
        # the log tables run over the first element of order q - 1 in index
        # order, each candidate's order read off its powers
        oracle = PolyOracle(spec)

        def order(a):
            power, n = a, 1
            while power != oracle.one:
                power, n = oracle.mul(power, a), n + 1
            return n

        first = next(v for v in oracle.vectors[1:] if order(v) == spec.q - 1)
        assert spec.tables.by_log[1].coeffs == first

    def test_prime_factors_match_trial_division(self):
        for n in range(1, 2000):
            assert _prime_factors(n) == [d for d in range(2, n + 1) if n % d == 0 and _is_prime(d)], n

    def test_equal_distinct_specs_mix(self):
        A, B = FieldSpec(5, 2), FieldSpec(5, 2)
        assert A is not B and A == B
        ops = [operator.add, operator.sub, operator.mul]
        for a in A.elements():
            assert a == B.from_index(a.index) and hash(a) == hash(B.from_index(a.index))
            for b in B.elements():
                same = A.from_index(b.index)
                for op in ops:
                    assert op(a, b) == op(a, same)
                    assert op(a, b).spec is a.spec and a.spec == A
                if b:
                    assert a / b == a / same

    def test_direct_build_equals_the_interned_element(self):
        for spec in SMALL_FIELDS:
            for e in spec.elements():
                d = FieldElement(spec, e.coeffs)
                assert d is not e and d == e and e == d
                assert hash(d) == hash(e) == hash(e.coeffs)
                assert (d.index, d.log) == (e.index, e.log)
                assert len({d, e}) == 1
                assert d * d == e * e and d + e == e + e
                assert spec.element(list(e.coeffs)) is e
