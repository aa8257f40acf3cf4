"""Coefficient-vector arithmetic modulo a field's modulus: the reference the log/Zech tables are checked against.

``is_square`` reads an element's quadratic character, as the tests state it.
"""

from typing import Sequence


def reduction_rows(spec) -> tuple[tuple[int, ...], ...]:
    """rows[i]: the coefficients of x^(r+i) reduced modulo the spec's modulus."""
    p, r, mod = spec.p, spec.r, spec.modulus
    rows = []
    current = [(-mod[i]) % p for i in range(r)]  # x^r
    rows.append(tuple(current))
    for _ in range(r - 2):
        shifted = [0] + current[:-1]
        lead = current[-1]
        if lead:
            shifted = [(shifted[i] + lead * rows[0][i]) % p for i in range(r)]
        current = shifted
        rows.append(tuple(current))
    return tuple(rows)


def poly_mul(a: Sequence[int], b: Sequence[int], p: int, rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Product of coefficient vectors modulo the modulus ``rows`` reduces by (``reduction_rows``)."""
    r = len(a)
    if r == 1:
        return ((a[0] * b[0]) % p,)
    prod = [0] * (2 * r - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    out = prod[:r]
    for i in range(r, 2 * r - 1):
        c = prod[i]
        if c:
            row = rows[i - r]
            for k in range(r):
                out[k] += c * row[k]
    return tuple(v % p for v in out)


def poly_pow(a: Sequence[int], n: int, p: int, rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """a^n for n >= 0 by square-and-multiply on coefficient vectors."""
    result = (1,) + (0,) * (len(a) - 1)
    while n:
        if n & 1:
            result = poly_mul(result, a, p, rows)
        a, n = poly_mul(a, a, p, rows), n >> 1
    return result


def is_square(a) -> bool:
    """Whether a is a square: zero or an even power of the primitive element."""
    return a.chi() >= 0
