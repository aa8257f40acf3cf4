"""Exact arithmetic in small finite fields F_{p^r} of odd characteristic.

Elements are canonical coefficient tuples (constant term first) modulo a monic
irreducible polynomial.  Each FieldSpec interns its q elements in log/Zech
tables, built on first use by matrix powers over F_p in O(q) time and
memory (hence q <= Q_MAX), so every operation is a few integer operations and
a list index.  Everything is deterministic: element enumeration order, the
irreducible-modulus search, and square-root conventions are all fixed so that
downstream counts are reproducible bit for bit.  ``_IndexField`` does the same
arithmetic on numpy arrays of canonical indices, for the array kernels in
``counting`` and ``clifford``.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce
from typing import Iterator, Sequence

import numpy as np

# Largest field order accepted.  It covers the lift F_{101^2} = 10201 of the
# largest prime the scaling sweep uses; q = 100003 builds in about 0.2 s.
Q_MAX = 1 << 17


class FieldMismatchError(ValueError):
    """Raised when operands live in different fields."""


class NonUnitError(ZeroDivisionError):
    """Raised when inverting zero."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, ascending, by trial division up to sqrt(n)."""
    factors, d = [], 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return factors + [n] if n > 1 else factors


def _poly_trim(c: Sequence[int]) -> tuple[int, ...]:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_divmod(num: Sequence[int], den: Sequence[int], p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    num = list(num)
    den = _poly_trim(den)
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(den[-1], p - 2, p)
    quot = [0] * max(0, len(num) - len(den) + 1)
    for k in range(len(num) - len(den), -1, -1):
        coeff = (num[k + len(den) - 1] * inv_lead) % p
        quot[k] = coeff
        if coeff:
            for i, d in enumerate(den):
                num[k + i] = (num[k + i] - coeff * d) % p
    return _poly_trim(quot), _poly_trim(num)


def _monic_polys(p: int, deg: int) -> Iterator[tuple[int, ...]]:
    # constant term is the least significant digit of the counter
    for k in range(p**deg):
        coeffs = []
        n = k
        for _ in range(deg):
            coeffs.append(n % p)
            n //= p
        yield tuple(coeffs) + (1,)


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    deg = len(poly) - 1
    if deg <= 0:
        return False
    for d in range(1, deg // 2 + 1):
        for divisor in _monic_polys(p, d):
            _, rem = _poly_divmod(poly, divisor, p)
            if not rem:
                return False
    return True


def find_irreducible(p: int, r: int) -> tuple[int, ...]:
    """First monic irreducible of degree r over F_p, constant term first.

    Candidates are enumerated with the constant coefficient as the least
    significant digit (x^2, x^2+1, ..., x^2+(p-1), x^2+x, ...), and the first
    irreducible one wins, so the choice is a pure function of (p, r).
    """
    if not _is_prime(p) or p == 2:
        raise ValueError(f"p must be an odd prime, got {p}")
    if r < 1:
        raise ValueError(f"r must be positive, got {r}")
    if r == 1:
        return (0, 1)
    for poly in _monic_polys(p, r):
        if _is_irreducible(poly, p):
            return poly
    raise RuntimeError("unreachable: an irreducible polynomial always exists")


class FieldSpec:
    """A concrete F_{p^r}: odd prime p, degree r, monic modulus (constant first); a value, never assigned to."""

    def __init__(self, p: int, r: int = 1, modulus: tuple[int, ...] = ()):
        # bools are ints to Python, and a float p would pass the primality test
        if any(type(v) is not int for v in (p, r, *modulus)):
            raise ValueError(f"field p, r and modulus must be integers, got p={p!r}, r={r!r}, modulus={modulus!r}")
        if r < 1:
            raise ValueError(f"r must be positive, got {r}")
        # r > 64 exceeds the limit for every p >= 2 without computing p^r
        if p > 1 and (r > 64 or p**r > Q_MAX):
            order = p if r == 1 else f"{p}^{r}"
            raise ValueError(f"field order q = {order} exceeds the limit {Q_MAX}")
        if not _is_prime(p) or p == 2:
            raise ValueError(f"p must be an odd prime, got {p}")
        if modulus:  # the search returns a monic irreducible: only a given modulus is checked
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != r + 1 or modulus[-1] != 1:
                raise ValueError(f"modulus must be monic of degree {r}")
            if r > 1 and not _is_irreducible(modulus, p):
                raise ValueError(f"modulus {modulus} is reducible over F_{p}")
        self.__dict__.update(p=p, r=r, modulus=modulus or find_irreducible(p, r))

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and (self.p, self.r, self.modulus) == (other.p, other.r, other.modulus)

    def __hash__(self) -> int:
        return hash((self.p, self.r, self.modulus))

    def __repr__(self) -> str:
        return f"FieldSpec(p={self.p!r}, r={self.r!r}, modulus={self.modulus!r})"

    @property
    def q(self) -> int:
        return self.p**self.r

    @cached_property
    def tables(self) -> "_Tables":
        """The log/Zech tables and interned elements, built on first use and shared by equal specs."""
        return _Tables(self)

    def element(self, coeffs: int | Sequence[int]) -> "FieldElement":
        if isinstance(coeffs, int):
            coeffs = [coeffs]
        c = [int(x) % self.p for x in coeffs]
        if len(c) > self.r:
            raise ValueError(f"too many coefficients for degree {self.r}")
        return self.tables.elements[_index(c, self.p)]

    def from_index(self, k: int) -> "FieldElement":
        if not 0 <= k < self.q:
            raise ValueError(f"index {k} out of range for q={self.q}")
        return self.tables.elements[k]

    def zero(self) -> "FieldElement":
        return self.tables.elements[0]

    def one(self) -> "FieldElement":
        return self.tables.elements[1]

    def elements(self) -> Iterator["FieldElement"]:
        return iter(self.tables.elements)

    def chi_minus_one(self) -> int:
        """Quadratic character of -1: +1 iff q ≡ 1 (mod 4)."""
        return 1 if self.q % 4 == 1 else -1

    def to_json(self) -> dict:
        return {"p": self.p, "r": self.r, "modulus": list(self.modulus)}

    @staticmethod
    def from_json(obj: dict) -> "FieldSpec":
        return FieldSpec(obj["p"], obj.get("r", 1), tuple(obj.get("modulus", ())))


def _index(coeffs: Sequence[int], p: int) -> int:
    """Canonical integer index of a coefficient vector (constant term least significant)."""
    k = 0
    for c in reversed(coeffs):
        k = k * p + c
    return k


@lru_cache(maxsize=None)
def _log_tables(spec: FieldSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(digits, by_index, log): each index's coefficient row, the index of g^k for k < q - 1, and each index's log.

    g is the first primitive element in index order.  Multiplication by c is
    the r x r matrix M with row i the coefficients of x^i * c, so c^e is row 0
    of M^e: a block of candidates is squared up at once, and c is primitive
    iff c^((q-1)/d) != 1 for every prime d of q - 1.  log is -1 at zero.
    ``_IndexField`` reads these arrays alone; ``_Tables`` builds its elements
    from them.
    """
    p, r, q = spec.p, spec.r, spec.q
    n, place = q - 1, p ** np.arange(r)
    digits = np.arange(q)[:, None] // place % p
    # x times x^i is x^(i+1), and x^r = -(m_0 + ... + m_(r-1) x^(r-1)) for the modulus m
    x = np.eye(r, k=1, dtype=np.int64)
    x[-1] = [-m % p for m in spec.modulus[:r]]
    by_x = [np.eye(r, dtype=np.int64)]
    while len(by_x) < r:
        by_x.append(by_x[-1] @ x % p)
    # for r > 1 the search starts past the constants (indices below p),
    # whose orders divide p - 1 < n
    for lo in range(2 if r == 1 else p, q, 64):
        squares = [np.tensordot(digits[lo : lo + 64], by_x, axes=1) % p]  # M^(2^k)
        while len(squares) < n.bit_length():
            squares.append(squares[-1] @ squares[-1] % p)
        primitive = [True] * len(squares[0])
        for d in _prime_factors(n):
            power = reduce(lambda a, b: a @ b % p, (m for k, m in enumerate(squares) if n // d >> k & 1))
            primitive = [ok and k != 1 for ok, k in zip(primitive, (power[:, 0] @ place).tolist())]
        if any(primitive):
            break
    # g^0 .. g^(n-1) as coefficient rows, doubling the known prefix each step:
    # powers[:m] @ M^m holds g^m .. g^(2m-1)
    g, powers = primitive.index(True), np.zeros((n, r), dtype=np.int64)
    powers[0, 0], m = 1, 1
    for square in squares:
        powers[m : 2 * m] = powers[: min(m, n - m)] @ square[g] % p
        m *= 2
    by_index = powers @ place
    log = np.full(q, -1, dtype=np.int64)
    log[by_index] = np.arange(n)
    return digits, by_index, log


@lru_cache(maxsize=None)
class _Tables:
    """Interned elements by index, and log/Zech tables over the first primitive g.

    ``by_log[k]`` = g^k and ``zech[k]`` = log(1 + g^k) (-1 where that is zero)
    are stored twice over, so a sum or difference of two logs, shifted by
    ``half`` = (q-1)/2 to negate, indexes them without a reduction.  Results
    do not depend on g: square roots come back sorted by index.
    """

    __slots__ = ("elements", "by_log", "zech", "order", "half")

    def __init__(self, spec: FieldSpec):
        p, q = spec.p, spec.q
        digits, by_index, log = _log_tables(spec)
        logs = log.tolist()
        self.order, self.half = q - 1, (q - 1) // 2
        self.elements = [object.__new__(FieldElement) for _ in range(q)]
        for i, (e, coeffs, k) in enumerate(zip(self.elements, map(tuple, digits.tolist()), logs)):
            e.spec, e.coeffs, e.index, e.log, e._t = spec, coeffs, i, k, self
        self.by_log = [self.elements[i] for i in by_index.tolist()] * 2
        self.zech = [logs[k] for k in (by_index - by_index % p + (by_index + 1) % p).tolist()] * 2


class FieldElement:
    """One element of a FieldSpec; immutable, hashable, with operator arithmetic.

    ``index`` is the canonical index (constant term least significant) and
    ``log`` the discrete log, -1 for zero.  A direct ``FieldElement(spec,
    coeffs)`` equals and hashes like the spec's interned element.
    """

    __slots__ = ("spec", "coeffs", "index", "log", "_t")

    def __init__(self, spec: FieldSpec, coeffs: tuple[int, ...]):
        t = spec.tables
        self.spec = spec
        self.coeffs = coeffs
        self.index = _index(coeffs, spec.p)
        self.log = t.elements[self.index].log
        self._t = t

    # -- structure ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldElement)
            and self.index == other.index
            and (self.spec is other.spec or self.spec == other.spec)
        )

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if self.spec.r == 1:
            return f"F{self.spec.p}({self.coeffs[0]})"
        return f"F{self.spec.p}^{self.spec.r}{list(self.coeffs)}"

    def __bool__(self) -> bool:
        return self.log >= 0

    def _check(self, other: "FieldElement") -> None:
        if self.spec is not other.spec and self.spec != other.spec:
            raise FieldMismatchError(f"{self.spec} vs {other.spec}")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        t = self._t
        a, b = self.log, other.log
        if a < 0:
            return t.elements[other.index]
        if b < 0:
            return self
        z = t.zech[b - a]
        return t.by_log[a + z] if z >= 0 else t.elements[0]

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        t = self._t
        a, b = self.log, other.log
        if b < 0:
            return self
        if a < 0:
            return t.by_log[b + t.half]
        z = t.zech[b + t.half - a]
        return t.by_log[a + z] if z >= 0 else t.elements[0]

    def __neg__(self) -> "FieldElement":
        return self if self.log < 0 else self._t.by_log[self.log + self._t.half]

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        a, b = self.log, other.log
        if a < 0 or b < 0:
            return self._t.elements[0]
        return self._t.by_log[a + b]

    def __pow__(self, n: int) -> "FieldElement":
        t = self._t
        if self.log < 0:
            if n < 0:
                raise NonUnitError("zero has no inverse")
            return t.elements[1] if n == 0 else self
        return t.by_log[self.log * n % t.order]

    def inverse(self) -> "FieldElement":
        if self.log < 0:
            raise NonUnitError("zero has no inverse")
        return self._t.by_log[self._t.order - self.log]

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        return self * other.inverse()

    # -- quadratic structure -------------------------------------------------

    def chi(self) -> int:
        """Quadratic character: 0 on zero, +1 on nonzero squares, -1 otherwise."""
        if self.log < 0:
            return 0
        return -1 if self.log & 1 else 1

    def sqrt(self) -> tuple["FieldElement", ...]:
        """All square roots: () for non-squares, (0,) for zero, else both roots.

        The squares are the even powers of the primitive element, so a root of
        g^k is g^(k/2), read from the log table together with its negation.
        Roots are ordered by canonical index.
        """
        a = self.log
        if a < 0:
            return (self,)
        if a & 1:
            return ()
        t = self._t
        root, neg = t.by_log[a >> 1], t.by_log[(a >> 1) + t.half]
        return (root, neg) if root.index < neg.index else (neg, root)

    def to_json(self) -> int | list[int]:
        return self.coeffs[0] if self.spec.r == 1 else list(self.coeffs)


class _IndexField:
    """Vectorised arithmetic on canonical element indices held in int64 arrays.

    Each operation is a few gathers from tables built once per spec.  ``*``
    and ``/`` add or subtract entries of ``log``, which holds the sentinel 2n
    for zero (n = q - 1), and read ``exp``: g^k over two periods [0, 2n), then
    2n + 1 zeros, so a product or quotient with a zero operand lands in the
    zero tail.  Over F_p, ``+`` and ``-`` reduce mod p.  Over F_{p^r} they go
    two digits at a time: a chunk's ``spread`` rewrites its digits in base
    2p - 1, so the sum of two spreads carries nothing, ``negspread`` spreads
    the negated digits for ``-``, and ``fold`` takes each digit sum mod p back
    to its place in the index.  The tables hold O(r·q) entries.
    """

    def __init__(self, spec: FieldSpec):
        p, r, n = spec.p, spec.r, spec.q - 1
        digits, by_index, log = _log_tables(spec)
        self.p, self.order = p, n
        self.log = np.concatenate([[2 * n], log[1:]])  # index 0 is zero, the only index without a log
        self.exp = np.concatenate([by_index, by_index, np.zeros(2 * n + 1, dtype=np.int64)])
        digits = digits.T
        self.chunks = []
        for lo in range(0, r, 2) if r > 1 else ():
            d = digits[lo : lo + 2]
            radix = (2 * p - 1) ** np.arange(len(d))
            sums = np.arange((2 * p - 1) ** len(d)) // radix[:, None] % (2 * p - 1) % p
            self.chunks.append((radix @ d, radix @ (-d % p), p ** np.arange(lo, lo + len(d)) @ sums))

    def add(self, a, b):
        if not self.chunks:
            return (a + b) % self.p
        spread, _, fold = self.chunks[0]
        out = fold[spread[a] + spread[b]]
        for spread, _, fold in self.chunks[1:]:
            out += fold[spread[a] + spread[b]]
        return out

    def sub(self, a, b):
        if not self.chunks:
            return (a - b) % self.p
        spread, negspread, fold = self.chunks[0]
        out = fold[spread[a] + negspread[b]]
        for spread, negspread, fold in self.chunks[1:]:
            out += fold[spread[a] + negspread[b]]
        return out

    def mul(self, a, b):
        return self.exp[self.log[a] + self.log[b]]

    def div(self, a, b):
        """a / b for nonzero b."""
        return self.exp[self.log[a] - self.log[b] + self.order]


_index_field = lru_cache(maxsize=None)(_IndexField)

# Cells (rows x columns) in one block of an index-array kernel: it bounds their
# temporaries whatever the family sizes, N in the thousands included.
CHUNK_CELLS = 1 << 16


def blocks(n_rows: int, row_cells: int) -> Iterator[tuple[int, int]]:
    """Consecutive row ranges (lo, hi) of at most CHUNK_CELLS cells each, row_cells to a row, one row at least."""
    step = max(1, CHUNK_CELLS // max(row_cells, 1))
    return ((lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step))
