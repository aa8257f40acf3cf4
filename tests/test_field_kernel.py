"""The index kernel (``field._index_field``) and the table build against object arithmetic."""

import numpy as np
import pytest

from field_oracles import poly_mul, poly_pow, reduction_rows
from findist.field import FieldSpec, _index_field, _is_prime

EXHAUSTIVE = [
    FieldSpec(3),
    FieldSpec(5),
    FieldSpec(7),
    FieldSpec(3, 2),
    FieldSpec(13),
    FieldSpec(5, 2),
    FieldSpec(3, 3),  # two chunks of digits
    FieldSpec(7, 2),
    FieldSpec(5, 3),
    FieldSpec(3, 5),  # three chunks
]
SAMPLED = [FieldSpec(31, 2), FieldSpec(101, 2), FieldSpec(3, 10)]

OPS = {
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "mul": lambda x, y: x * y,
    "div": lambda x, y: x / y,
}


def _expected(spec, op, a, b):
    e = spec.tables.elements
    return np.array([OPS[op](e[x], e[y]).index for x, y in zip(a.tolist(), b.tolist())], dtype=np.int64)


def _check_pairs(spec, a, b):
    F = _index_field(spec)
    for op in OPS:
        x, y = (a[b != 0], b[b != 0]) if op == "div" else (a, b)
        got = getattr(F, op)(x, y)
        assert got.dtype == np.int64
        assert np.array_equal(got, _expected(spec, op, x, y)), op


@pytest.mark.parametrize("spec", EXHAUSTIVE, ids=lambda s: f"q{s.q}")
def test_every_pair_matches_object_arithmetic(spec):
    a, b = np.divmod(np.arange(spec.q**2, dtype=np.int64), spec.q)
    _check_pairs(spec, a, b)


@pytest.mark.parametrize("spec", EXHAUSTIVE, ids=lambda s: f"q{s.q}")
def test_scalar_operands_broadcast(spec):
    F, q = _index_field(spec), spec.q
    column = np.arange(q, dtype=np.int64)
    nonzero = column[1:]
    for k in sorted({0, 1, q - 1, q // 2}):
        s = np.int64(k)
        full = np.full(q, k, dtype=np.int64)
        for op in ("add", "sub", "mul"):
            assert np.array_equal(getattr(F, op)(s, column), _expected(spec, op, full, column)), (op, k)
            assert np.array_equal(getattr(F, op)(column, s), _expected(spec, op, column, full)), (op, k)
            assert getattr(F, op)(s, s) == _expected(spec, op, full[:1], full[:1])[0]
        assert np.array_equal(F.div(s, nonzero), _expected(spec, "div", full[1:], nonzero)), k
        if k:
            assert np.array_equal(F.div(column, s), _expected(spec, "div", column, full)), k


@pytest.mark.parametrize("spec", SAMPLED, ids=lambda s: f"q{s.q}")
def test_sampled_pairs_match_object_arithmetic(spec):
    rng = np.random.default_rng(spec.q)
    a, b = rng.integers(0, spec.q, size=(2, 3000))
    a[:3], b[:3] = (0, 1, 0), (1, 0, 0)
    _check_pairs(spec, a, b)


def test_kernel_memory_is_linear_in_r_q():
    spec = FieldSpec(3, 10)
    F = _index_field(spec)
    arrays = [F.log, F.exp] + [t for chunk in F.chunks for t in chunk]
    assert all(t.dtype == np.int64 for t in arrays)
    assert all(fold.size <= (2 * spec.p - 1) ** 2 for _, _, fold in F.chunks)
    assert sum(t.size for t in arrays) < 16 * spec.r * spec.q


def _sequential_logs(spec):
    # the first primitive element in index order, then g^0 .. g^(q-2) one multiply at a time
    p, q, rows = spec.p, spec.q, reduction_rows(spec)
    vectors = [tuple((k // p**i) % p for i in range(spec.r)) for k in range(q)]
    one, n = vectors[1], q - 1
    primes = [d for d in range(2, q) if n % d == 0 and all(d % e for e in range(2, d))]
    g = next(v for v in vectors[2:] if all(poly_pow(v, n // d, p, rows) != one for d in primes))
    log, x = [-1] * q, one
    for k in range(n):
        log[vectors.index(x)] = k
        x = poly_mul(x, g, p, rows)
    return g, log


@pytest.mark.parametrize("spec", EXHAUSTIVE, ids=lambda s: f"q{s.q}")
def test_table_build_matches_sequential_powers(spec):
    g, log = _sequential_logs(spec)
    t = spec.tables
    assert [e.log for e in t.elements] == log
    assert all(type(e.log) is int for e in t.elements)
    assert t.by_log[1].coeffs == g
    assert [e.index for e in t.by_log] == [log.index(k) for k in range(t.order)] * 2
    p = spec.p
    assert t.zech == [log[e.index - e.index % p + (e.index + 1) % p] for e in t.by_log]


def test_kernel_arrays_match_the_object_tables():
    # every field with q <= 1024; the kernel is built from arrays alone, the tables hold the objects
    specs = [FieldSpec(p, r) for p in range(3, 1025) if _is_prime(p) for r in range(1, 11) if p**r <= 1024]
    assert len(specs) == 188
    for spec in specs:
        F, t, p = _index_field(spec), spec.tables, spec.p
        n = t.order
        assert F.log.tolist() == [2 * n] + [e.log for e in t.elements[1:]], spec
        assert F.exp.tolist() == [e.index for e in t.by_log] + [0] * (2 * n + 1), spec
        assert len(F.chunks) == (0 if spec.r == 1 else (spec.r + 1) // 2), spec
        for lo, (spread, negspread, fold) in zip(range(0, spec.r, 2), F.chunks):
            width = len(t.elements[0].coeffs[lo : lo + 2])
            radix = [(2 * p - 1) ** i for i in range(width)]
            assert spread.tolist() == [sum(c * w for c, w in zip(e.coeffs[lo:], radix)) for e in t.elements], spec
            assert negspread.tolist() == [sum(-c % p * w for c, w in zip(e.coeffs[lo:], radix)) for e in t.elements]
            assert fold.tolist() == [sum(k // w % (2 * p - 1) % p * p ** (lo + i) for i, w in enumerate(radix))
                                     for k in range((2 * p - 1) ** width)], spec
