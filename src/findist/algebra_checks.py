"""The algebra checks: the kinematic map of the motion group and the Clifford identities.

Neither reads a point set: each covers a whole field.  Each returns
(findings, metrics, witnesses, rows), the last two empty.  The harness loads
this module when a config names one of them.
"""

from __future__ import annotations

import numpy as np

from . import field
from .clifford import (
    QuadraticFormSpec,
    _product,
    associativity_misses,
    even_norms,
    even_unit_columns,
    rho_star_keys,
    sandwich_batch,
)
from .field import _index_field
from .harness import ExperimentConfig, _digest, _finding
from .motions import so2_order
from .projective_rows import _kappa_rows

# kinematic-check holds one boolean per key of projective 3-space (2 q^3) and
# its motions a block at a time; q = 101, the scaling sweep's largest prime, takes about 0.4 s and 60 MB.
KINEMATIC_Q_MAX = 101


def _check_kinematic(config: ExperimentConfig):
    spec = config.field
    q = spec.q
    if q > KINEMATIC_Q_MAX:
        raise ValueError(f"kinematic-check supports q <= {KINEMATIC_Q_MAX}, got q = {q}")
    inputs = _digest({"field": spec.to_json()})
    F = _index_field(spec)
    # one flag per key ((X0 q + X1) q + X2) q + X3 in [0, 2 q^3): the canonical
    # points with their leading 1 at X_j are the keys [q^(3-j), 2 q^(3-j)), and
    # a key's X0 q + X1, which decides the exceptional locus, is key // q^2
    space = np.zeros(2 * q**3, dtype=bool)
    for k in range(4):
        space[q**k : 2 * q**k] = True
    h0, h1 = np.divmod(np.arange(2 * q, dtype=np.int64), q)
    exceptional = space & np.repeat(F.add(F.mul(h0, h0), F.mul(h1, h1)) == 0, q * q)
    image, strays, form = np.zeros_like(space), set(), QuadraticFormSpec.standard(spec)
    # every motion keyed ((u q + v) q + s) q + t: each rotation u^2 + v^2 = 1,
    # in index order, against all q^2 translations, a block of rotations at a time
    u, v = np.divmod(np.arange(q * q, dtype=np.int64), q)
    rotations = np.flatnonzero(F.add(F.mul(u, u), F.mul(v, v)) == 1)
    n_motions, roundtrip_misses = len(rotations) * q * q, 0
    for lo, hi in field.blocks(len(rotations), q * q):
        motions = (rotations[lo:hi, None] * q**2 + np.arange(q * q, dtype=np.int64)).ravel()
        x0, x1, x2, x3 = _kappa_rows(F, tuple(motions // q**k % q for k in (3, 2, 1, 0))).T
        keys = ((x0 * q + x1) * q + x2) * q + x3
        image[keys[keys < len(image)]] = True
        strays.update(keys[keys >= len(image)].tolist())  # only from a broken kappa
        # kappa^-1 is rho_star of X0 + X1 e12 - X2 e13 + X3 e23, which has no
        # value on the exceptional locus: an image point there is a miss
        off = F.add(F.mul(x0, x0), F.mul(x1, x1)) != 0
        back = rho_star_keys(form, (x0[off], x1[off], F.sub(0, x2[off]), x3[off]))
        roundtrip_misses += len(motions) - int(np.count_nonzero(back == motions[off]))
    n_points, n_exceptional = int(np.count_nonzero(space)), int(np.count_nonzero(exceptional))
    n_image, n_complement = int(np.count_nonzero(image)) + len(strays), n_points - n_exceptional
    unmatched = int(np.count_nonzero(image != space ^ exceptional)) + len(strays)
    findings = [
        _finding("kinematic-injective", inputs, n_image, "=", n_motions, n_image == n_motions),
        _finding("kinematic-count", inputs, n_motions, "=", n_complement, n_motions == n_complement),
        _finding("kinematic-image-complement", inputs, unmatched, "=", 0, unmatched == 0),
        _finding("kinematic-roundtrip", inputs, roundtrip_misses, "=", 0, roundtrip_misses == 0),
    ]
    metrics = {"motions": n_motions, "proj_points": n_points, "exceptional": n_exceptional}
    return findings, metrics, [], []


def _sandwich_display_misses(form: QuadraticFormSpec, units: tuple, vectors: tuple) -> int:
    """Sandwich each vector by each unit and compare with the closed form.

    ``units`` (g0, g12, g13, g23) and ``vectors`` (x1, x2, x3) are index
    arrays that broadcast to one entry per (unit, vector) pair.  For
    g = g0 + g12 e12 + g13 e13 + g23 e23 of norm n the conjugate action
    on x1 e1 + x2 e2 + x3 e3 has displayed coefficients
      a = (g0^2 + lam g12^2)/n,  b = 2 g0 g12 / n,
      c13 = 2 (g0 g13 + lam g12 g23)/n,  c23 = 2 lam (g0 g23 + g12 g13)/n,
    sending x1 -> a x1 - lam b x2, x2 -> -b x1 + a x2,
    x3 -> -c13 x1 + c23 x2 + x3.
    """
    got = sandwich_batch(form, units, vectors)
    F = _index_field(form.field)
    lam, two = form.lam.index, (form.field.one() + form.field.one()).index
    g0, g12, g13, g23 = units
    x1, x2, x3 = vectors
    inv = F.div(np.ones_like(g0), even_norms(form, g0, g12))
    a = F.mul(F.add(F.mul(g0, g0), F.mul(lam, F.mul(g12, g12))), inv)
    b = F.mul(F.mul(two, F.mul(g0, g12)), inv)
    c13 = F.mul(F.mul(two, F.add(F.mul(g0, g13), F.mul(lam, F.mul(g12, g23)))), inv)
    c23 = F.mul(F.mul(F.mul(two, lam), F.add(F.mul(g0, g23), F.mul(g12, g13))), inv)
    expected = (
        F.sub(F.mul(a, x1), F.mul(lam, F.mul(b, x2))),
        F.sub(F.mul(a, x2), F.mul(b, x1)),
        F.add(F.sub(F.mul(c23, x2), F.mul(c13, x1)), x3),
    )
    miss = (got[0] != expected[0]) | (got[1] != expected[1]) | (got[2] != expected[2])
    return int(np.count_nonzero(miss))


def _check_clifford(config: ExperimentConfig):
    spec = config.field
    inputs = _digest({"field": spec.to_json()})
    form = QuadraticFormSpec.standard(spec)
    assoc_misses = associativity_misses(form)

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((config.seed, 0xC11F))))
    exhaustive_norm = spec.q == 3
    if exhaustive_norm:
        # every unit against every unit, as (N, 1) columns against (1, N)
        units = [c.ravel() for c in np.broadcast_arrays(*even_unit_columns(form))]
        g, h = [c[:, None] for c in units], [c[None, :] for c in units]
    else:
        draws = rng.integers(0, spec.q, size=(400, 8))
        g, h = draws[:, :4].T, draws[:, 4:].T
    gh = _product(form, [g[0], None, None, None, *g[1:], None], [h[0], None, None, None, *h[1:], None])
    norms = _index_field(spec).mul(even_norms(form, g[0], g[1]), even_norms(form, h[0], h[1]))
    norm_misses = int(np.count_nonzero(even_norms(form, gh[0], gh[4]) != norms))

    findings = [
        _finding("clifford-associativity", inputs, assoc_misses, "=", 0, assoc_misses == 0),
        _finding("clifford-norm-multiplicative", inputs, norm_misses, "=", 0, norm_misses == 0),
    ]
    metrics = {
        "norm_mode": "exhaustive" if exhaustive_norm else "sampled",
        "norm_pairs": norms.size,
    }

    if spec.q <= 11:
        # one bin per motion key in [0, q^4); the nonzero bins are the fibres
        fibers = np.bincount(rho_star_keys(form, even_unit_columns(form)).ravel())
        fibers = fibers[fibers > 0]
        n_motions = spec.q**2 * so2_order(spec)
        bad_fibers = int(np.count_nonzero(fibers != spec.q - 1))
        findings += [
            _finding("clifford-rho-star-image", inputs, len(fibers), "=", n_motions, len(fibers) == n_motions),
            _finding("clifford-rho-star-fiber-size", inputs, bad_fibers, "=", 0, bad_fibers == 0),
        ]
        metrics["fiber_size"] = spec.q - 1

    lam_values = [form]
    alt_lam = spec.from_index(2)
    if alt_lam != -spec.one() and alt_lam:
        lam_values.append(QuadraticFormSpec(spec, alt_lam))
    display_misses = 0
    vec_draws = rng.integers(0, spec.q, size=(12, 3))
    # the drawn vectors, then e1, e2, e3; each unit column gets a trailing
    # axis, so units and vectors broadcast to one entry per pair
    vectors = tuple(np.concatenate([vec_draws, np.eye(3, dtype=np.int64)]).T)
    for variant in lam_values:
        if spec.q <= 7:
            units = even_unit_columns(variant)
        else:
            unit_draws = rng.integers(0, spec.q, size=(200, 4))
            units = unit_draws[even_norms(variant, unit_draws[:, 0], unit_draws[:, 1]) != 0].T
        units = tuple(c[..., None] for c in units)
        display_misses += _sandwich_display_misses(variant, units, vectors)
    findings.append(_finding("clifford-sandwich-displays", inputs, display_misses, "=", 0, display_misses == 0))
    metrics["display_forms"] = [v.lam.index for v in lam_values]
    return findings, metrics, [], []
