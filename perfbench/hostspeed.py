"""How fast the host is running right now, measured with a fixed pure-Python kernel.

The host shares its machine with other tenants, and for tens of seconds at a
time it runs the same Python code up to 60% slower.  Every benchmark process
times ``kernel`` in the same process as the work it measures, and the parent
scales each measured time by ``REFERENCE_S / kernel time``.  A time so scaled
reads in reference seconds: the seconds it would have taken had the host run
the kernel in ``REFERENCE_S``.

The kernel mimics findist's hot path (small objects holding coefficient
tuples, modular products, hashing into a dict) but imports nothing from
findist, so no change to the package can change it.
"""

from __future__ import annotations

import time

ROUNDS = 1500
# The kernel's median time on the host the baseline was recorded on
# (2 vCPUs, CPython 3.11); any fixed value would do.
REFERENCE_S = 0.25


class _Element:
    __slots__ = ("coeffs", "p")

    def __init__(self, coeffs, p):
        self.coeffs = coeffs
        self.p = p

    def __mul__(self, other):
        a0, a1 = self.coeffs
        b0, b1 = other.coeffs
        p = self.p
        return _Element(((a0 * b0 + 2 * a1 * b1) % p, (a0 * b1 + a1 * b0) % p), p)

    def __add__(self, other):
        p = self.p
        return _Element(tuple((x + y) % p for x, y in zip(self.coeffs, other.coeffs)), p)

    def __eq__(self, other):
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)


def kernel(rounds: int = ROUNDS) -> int:
    p = 31
    elements = [_Element((i % p, (i * 7) % p), p) for i in range(64)]
    seen: dict = {}
    for r in range(rounds):
        for i in range(64):
            x = elements[i] * elements[(i + r) % 64] + elements[(i * 3 + r) % 64]
            seen[x] = seen.get(x, 0) + 1
    return len(seen)


def sample() -> float:
    """Wall seconds one ``kernel`` run takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
