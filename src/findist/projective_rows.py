"""The kinematic map on index columns: motions as (u, v, s, t) columns, points and planes as canonical (N, 4) rows.

``kinematic`` holds the same maps on objects; the incidence reduction and
the algebra checks run on these, so a point run loads no object-level code.
"""

from functools import reduce

import numpy as np


def _canonical_rows(F, rows: np.ndarray) -> np.ndarray:
    """Nonzero rows scaled so that their leading nonzero coordinate is 1."""
    lead = rows[np.arange(len(rows)), np.argmax(rows != 0, axis=1)]
    return F.div(rows, lead[:, None])


def _kappa_rows(F, motions: tuple) -> np.ndarray:
    """kappa of each motion as a canonical (N, 4) row.

    Both charts are [2a : 2b : s*a + t*b : s*b - t*a]: chart a with (a, b) =
    (u + 1, v), and chart b with (v, 1 - u) = (0, 2) ~ (0, 1) at u = -1.
    """
    u, v, s, t = motions
    a = F.add(u, np.int64(1))
    b = np.where(a == 0, 1, v)
    rows = [F.add(a, a), F.add(b, b), F.add(F.mul(s, a), F.mul(t, b)), F.sub(F.mul(s, b), F.mul(t, a))]
    return _canonical_rows(F, np.stack(rows, axis=1))


def _ranks(F, rows: np.ndarray) -> np.ndarray:
    """The rank of each (k, 4) block of index rows: per column, one pivot row is eliminated from its block."""
    at, rank = np.arange(len(rows)), np.zeros(len(rows), dtype=np.int64)
    for col in range(rows.shape[2]):
        pivot = rows[at, np.argmax(rows[:, :, col] != 0, axis=1)]
        has = pivot[:, col] != 0
        factor = F.div(rows[:, :, col], np.where(has, pivot[:, col], 1)[:, None])
        rows, rank = F.sub(rows, F.mul(factor[:, :, None], pivot[:, None, :])), rank + has
    return rank


def _r_tau_planes(F, axes: tuple) -> np.ndarray:
    """The plane spanned by the image of the rotations about points of each axis (n1, n2, c), as canonical rows.

    A rotation (u, v) about z has kappa [u+1 : v : v*z_y : v*z_x], and [0 : 1 :
    z_y : z_x] at u = -1, so each lies on the plane (0 : -c : n2 : n1).  A
    sample re-derives it per axis: the identity and the quarter and half turns
    about two axis points must span a plane and lie on it.
    """
    n1, n2, c = (np.atleast_1d(np.asarray(col, dtype=np.int64)) for col in axes)
    zero, minus = np.zeros_like(c), F.sub(np.int64(0), np.int64(1))
    plane = _canonical_rows(F, np.stack([zero, F.sub(zero, c), n2, n1], axis=1))
    # two axis points: x = c - n2*y at y = 0, 1 when n1 = 1, else y = c at x = 0, 1
    y = np.arange(2)[:, None]
    zx, zy = np.where(n1 != 0, F.sub(c, F.mul(n2, y)), y), np.where(n1 != 0, y, c)
    # the quarter and half turns (u, v) about each point shift by z - R z
    u, v = np.array([[0], [0], [minus]])[..., None], np.array([[1], [minus], [0]])[..., None]
    s = F.sub(zx, F.sub(F.mul(u, zx), F.mul(v, zy)))
    t = F.sub(zy, F.add(F.mul(v, zx), F.mul(u, zy)))
    turns = [np.broadcast_to(col, s.shape).reshape(-1, len(c)) for col in (u, v, s, t)]
    members = [np.concatenate([[first], col]).ravel() for first, col in zip((1 + zero, zero, zero, zero), turns)]
    images = _kappa_rows(F, tuple(members)).reshape(7, len(c), 4).transpose(1, 0, 2)
    if (_ranks(F, images) != 3).any():
        raise AssertionError("axial rotation image must span a plane")
    if reduce(F.add, (F.mul(images[..., i], plane[:, None, i]) for i in range(4))).any():
        raise AssertionError("axial rotation image left the derived plane")
    return plane
