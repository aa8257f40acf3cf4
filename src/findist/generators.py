"""Seeded point-set generators for the experiment harness.

Every generator is a pure function of (field, kind, params, seed).  Sampling
runs on numpy's PCG64 behind a SeedSequence, so the same inputs always yield
the same set, independent of platform and process.
"""

from typing import Mapping

import numpy as np

from .field import FieldSpec, _index_field
from .geometry import Line, Point, PointSet, all_points

GENERATOR_KINDS = (
    "full-plane",
    "random",
    "grid",
    "on-line",
    "on-circle",
    "subfield",
    "isotropic-line",
)


class UnsupportedGeneratorError(ValueError):
    """Raised when a generator kind cannot exist over the requested field."""


def _rng(seed: int) -> np.random.Generator:
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed {seed} outside the 64-bit range")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def _check_params(kind: str, params: Mapping, required: set, optional: set) -> None:
    given = set(params)
    unknown = given - required - optional
    if unknown:
        raise ValueError(f"{kind}: unknown parameters {sorted(unknown)}")
    missing = required - given
    if missing:
        raise ValueError(f"{kind}: missing parameters {sorted(missing)}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _element_param(spec: FieldSpec, kind: str, name: str, value):
    """The field element a parameter names by its canonical index."""
    if not _is_int(value) or not 0 <= value < spec.q:
        raise ValueError(f"{kind}: {name} must be an element index in 0..{spec.q - 1}, got {value!r}")
    return spec.from_index(value)


def _elements_param(spec: FieldSpec, kind: str, name: str, value, count: int) -> list:
    """The field elements a parameter lists, ``count`` canonical indices."""
    if not isinstance(value, (list, tuple)) or len(value) != count:
        raise ValueError(f"{kind}: {name} must list {count} element indices, got {value!r}")
    return [_element_param(spec, kind, name, v) for v in value]


def _size(params: Mapping, kind: str, available: int) -> int:
    size = params["size"]
    if not _is_int(size) or size < 1:
        raise ValueError(f"{kind}: size must be a positive integer, got {size!r}")
    if size > available:
        raise ValueError(f"{kind}: size {size} exceeds the {available} available points")
    return size


def _sample(rng: np.random.Generator, pool: list, size: int) -> list:
    if size == len(pool):
        return pool
    picks = rng.choice(len(pool), size=size, replace=False)
    return [pool[int(i)] for i in picks]


def _points_at(spec: FieldSpec, indices) -> list:
    """The points at the given plane indices; all_points lists point i at (i // q, i % q)."""
    q = spec.q
    return [Point(spec.from_index(i // q), spec.from_index(i % q)) for i in map(int, indices)]


FULL_PLANE_Q_MAX = 41


def _full_plane(spec: FieldSpec, params: Mapping, rng) -> list:
    _check_params("full-plane", params, set(), set())
    if spec.q > FULL_PLANE_Q_MAX:
        raise ValueError(f"full-plane supports q <= {FULL_PLANE_Q_MAX}, got q = {spec.q}: its two n x n int64 pair"
                         f" tables take {8 * spec.q ** 4 / 1e6:.0f} MB each (22.6 MB at q = 41, where stats peaked"
                         " at 253 MB)")
    return list(all_points(spec))


def _random(spec: FieldSpec, params: Mapping, rng) -> list:
    _check_params("random", params, {"size"}, set())
    q = spec.q
    return _points_at(spec, _sample(rng, range(q * q), _size(params, "random", q * q)))


def _grid(spec: FieldSpec, params: Mapping, rng) -> list:
    _check_params("grid", params, {"rows", "cols"}, set())
    rows, cols = params["rows"], params["cols"]
    for name, value in (("rows", rows), ("cols", cols)):
        if not _is_int(value) or not 1 <= value <= spec.q:
            raise ValueError(f"grid: {name} must lie in 1..{spec.q}, got {value!r}")
    return [
        Point(spec.from_index(i), spec.from_index(j))
        for i in range(rows)
        for j in range(cols)
    ]


def _on_line(spec: FieldSpec, params: Mapping, rng) -> list:
    _check_params("on-line", params, {"size"}, {"line"})
    if "line" in params:
        line = Line(*_elements_param(spec, "on-line", "line", params["line"], 3))
    else:
        # default carrier is the x-axis
        line = Line(spec.zero(), spec.one(), spec.zero())
    # the carrier's points in plane index order: one per x, or every y on x = c
    F, q, e = _index_field(spec), spec.q, np.arange(spec.q)
    if line.n2:
        pool = e * q + F.div(F.sub(line.c.index, F.mul(line.n1.index, e)), line.n2.index)
    else:
        pool = line.c.index * q + e
    return _points_at(spec, _sample(rng, pool, _size(params, "on-line", len(pool))))


def _on_circle(spec: FieldSpec, params: Mapping, rng) -> list:
    _check_params("on-circle", params, {"size"}, {"center", "radius_sq"})
    cx, cy = 0, 0
    if "center" in params:
        cx, cy = (c.index for c in _elements_param(spec, "on-circle", "center", params["center"], 2))
    radius_sq = _element_param(spec, "on-circle", "radius_sq", params.get("radius_sq", 1)).index
    if not radius_sq:
        raise UnsupportedGeneratorError("on-circle: radius_sq 0 is the degenerate cone")
    # (x, cy +- s) with s^2 = r^2 - (x - cx)^2, in plane index order
    F, q, e = _index_field(spec), spec.q, np.arange(spec.q)
    root = np.full(q, -1)
    root[F.mul(e, e)] = e  # some square root of each square
    dx = F.sub(e, cx)
    s = root[F.sub(radius_sq, F.mul(dx, dx))]
    x, s = e[s >= 0], s[s >= 0]
    pool = np.sort(np.concatenate([x * q + F.add(cy, s), (x * q + F.sub(cy, s))[s > 0]]))
    return _points_at(spec, _sample(rng, pool, _size(params, "on-circle", len(pool))))


def _subfield(spec: FieldSpec, params: Mapping, rng) -> list:
    _check_params("subfield", params, set(), {"size"})
    if spec.r != 2:
        raise UnsupportedGeneratorError(
            f"subfield: needs a quadratic extension, got degree {spec.r}"
        )
    base = [spec.element(c) for c in range(spec.p)]
    pool = [Point(x, y) for x in base for y in base]
    if "size" not in params:
        return pool
    return _sample(rng, pool, _size(params, "subfield", len(pool)))


def _isotropic_line(spec: FieldSpec, params: Mapping, rng) -> list:
    _check_params("isotropic-line", params, set(), {"size"})
    if spec.chi_minus_one() != 1:
        raise UnsupportedGeneratorError(
            f"isotropic-line: -1 is a non-square over q={spec.q}"
        )
    slope = (-spec.one()).sqrt()[0]
    pool = [Point(t, slope * t) for t in spec.elements()]
    if "size" not in params:
        return pool
    return _sample(rng, pool, _size(params, "isotropic-line", len(pool)))


_DISPATCH = {
    "full-plane": _full_plane,
    "random": _random,
    "grid": _grid,
    "on-line": _on_line,
    "on-circle": _on_circle,
    "subfield": _subfield,
    "isotropic-line": _isotropic_line,
}


def generate(spec: FieldSpec, kind: str, params: Mapping, seed: int) -> PointSet:
    """Build the point set named by (kind, params) with a seeded PRNG."""
    if kind not in _DISPATCH:
        raise ValueError(f"unknown generator kind {kind!r}; choose from {GENERATOR_KINDS}")
    rng = _rng(seed)
    return PointSet(spec, _DISPATCH[kind](spec, params, rng))
