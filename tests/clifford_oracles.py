"""Object-level oracles for the algebra checks' index kernel.

These are the loops ``algebra_checks._check_clifford`` and
``algebra_checks._check_kinematic`` ran before the index kernel: every product,
sandwich and ``rho_star`` through ``CliffordElement``,
``EvenCliffordElement`` and ``RigidMotion`` objects, with fibres keyed by the
motion's canonical JSON, and every motion through ``kappa`` and ``kappa_inv``
against one pass over the ``ProjPoint``s of projective 3-space.
``check_clifford`` and ``check_kinematic`` reproduce those whole checks,
findings and metrics, with the same draws from the same generator.
``product_rows`` is the kernel's product on (N, 8) rows, and ``even_element``,
``from_clifford`` and ``main_involution`` build the elements the tests state
the algebra with, and ``is_even``, ``is_unit`` and ``is_identity_coset``
classify them.
"""

import numpy as np

from findist.clifford import (
    _GRADES,
    BLADE_NAMES,
    CliffordElement,
    EvenCliffordElement,
    QuadraticFormSpec,
    _product,
    blade,
    even_units,
    rho_star,
    sandwich,
)
from findist.harness import _digest, _finding, canonical_json
from findist.kinematic import all_proj_points, kappa, kappa_inv
from findist.motions import all_motions
from motion_oracles import is_exceptional

_ALPHA_SIGNS = (1, -1, 1, -1)


def main_involution(a: CliffordElement) -> CliffordElement:
    """The grade automorphism: sign (-1)^k on grade-k blades."""
    out = []
    for c, g in zip(a.coeffs, _GRADES):
        out.append(c if _ALPHA_SIGNS[g] > 0 else -c)
    return CliffordElement(a.form, tuple(out))


def even_element(
    form: QuadraticFormSpec, g0: int, g12: int, g13: int, g23: int
) -> EvenCliffordElement:
    """Build an even element from canonical coefficient indices."""
    f = form.field
    return EvenCliffordElement(
        form, f.from_index(g0), f.from_index(g12), f.from_index(g13), f.from_index(g23)
    )


def is_even(a: CliffordElement) -> bool:
    return a.grades() <= {0, 2}


def from_clifford(a: CliffordElement) -> EvenCliffordElement:
    if not is_even(a):
        raise ValueError("element has odd components")
    return EvenCliffordElement(a.form, a.coeffs[0], a.coeffs[4], a.coeffs[5], a.coeffs[6])


def is_unit(g: EvenCliffordElement) -> bool:
    return bool(g.norm())


def is_identity_coset(g: EvenCliffordElement) -> bool:
    """True when g is a nonzero scalar, i.e. lies in the centre Z."""
    return bool(g.g0) and not (g.g12 or g.g13 or g.g23)


def product_rows(form: QuadraticFormSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise products a[k] * b[k] of two (N, 8) index arrays, as ``CliffordElement.__mul__``."""
    cols = _product(form, list(a.T), list(b.T))
    zero = np.zeros(len(a), dtype=np.int64)
    return np.stack([zero if c is None else c for c in cols], axis=1)


def sandwich_display_mismatches(form, vectors, units):
    """Sandwich each vector by each unit and compare with the closed-form coefficients.

    For g = g0 + g12 e12 + g13 e13 + g23 e23 of norm n the conjugate action
    on x1 e1 + x2 e2 + x3 e3 has displayed coefficients
      a = (g0^2 + lam g12^2)/n,  b = 2 g0 g12 / n,
      c13 = 2 (g0 g13 + lam g12 g23)/n,  c23 = 2 lam (g0 g23 + g12 g13)/n,
    sending x1 -> a x1 - lam b x2, x2 -> -b x1 + a x2,
    x3 -> -c13 x1 + c23 x2 + x3.
    """
    lam = form.lam
    two = form.field.one() + form.field.one()
    zero = form.field.zero()
    misses = 0
    for g in units:
        inv = g.norm().inverse()
        a = (g.g0 * g.g0 + lam * (g.g12 * g.g12)) * inv
        b = two * (g.g0 * g.g12) * inv
        c13 = two * (g.g0 * g.g13 + lam * (g.g12 * g.g23)) * inv
        c23 = two * lam * (g.g0 * g.g23 + g.g12 * g.g13) * inv
        for x1, x2, x3 in vectors:
            v = CliffordElement(form, (zero, x1, x2, x3, zero, zero, zero, zero))
            expected = CliffordElement(
                form,
                (
                    zero,
                    a * x1 - lam * (b * x2),
                    -(b * x1) + a * x2,
                    -(c13 * x1) + c23 * x2 + x3,
                    zero,
                    zero,
                    zero,
                    zero,
                ),
            )
            if sandwich(g, v) != expected:
                misses += 1
    return misses


def rho_star_fibers(form):
    """Fibre sizes of ``rho_star`` over every even unit, keyed by the motion's canonical JSON."""
    fibers = {}
    for g in even_units(form):
        key = canonical_json(rho_star(g).to_json())
        fibers[key] = fibers.get(key, 0) + 1
    return fibers


def check_clifford(config):
    """(findings, metrics, witnesses) of the Clifford check, computed on objects."""
    spec = config.field
    inputs = _digest({"field": spec.to_json()})
    form = QuadraticFormSpec.standard(spec)
    basis = [blade(form, name) for name in BLADE_NAMES]

    assoc_misses = sum(
        1 for a in basis for b in basis for c in basis if (a * b) * c != a * (b * c)
    )

    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((config.seed, 0xC11F))))
    exhaustive_norm = spec.q == 3
    if exhaustive_norm:
        pool = list(even_units(form))
        pairs = [(g, h) for g in pool for h in pool]
    else:
        draws = rng.integers(0, spec.q, size=(400, 8))
        pairs = []
        for row in draws:
            g = even_element(form, *(int(i) for i in row[:4]))
            h = even_element(form, *(int(i) for i in row[4:]))
            pairs.append((g, h))
    norm_misses = sum(1 for g, h in pairs if (g * h).norm() != g.norm() * h.norm())

    findings = [
        _finding("clifford-associativity", inputs, assoc_misses, "=", 0, assoc_misses == 0),
        _finding("clifford-norm-multiplicative", inputs, norm_misses, "=", 0, norm_misses == 0),
    ]
    metrics = {
        "norm_mode": "exhaustive" if exhaustive_norm else "sampled",
        "norm_pairs": len(pairs),
    }

    if spec.q <= 11:
        fibers = rho_star_fibers(form)
        motions = list(all_motions(spec))
        surjective = len(fibers) == len(motions)
        uniform = all(count == spec.q - 1 for count in fibers.values())
        findings.append(
            _finding("clifford-rho-star-image", inputs, len(fibers), "=", len(motions), surjective)
        )
        bad_fibers = sum(1 for count in fibers.values() if count != spec.q - 1)
        findings.append(
            _finding("clifford-rho-star-fiber-size", inputs, bad_fibers, "=", 0, uniform)
        )
        metrics["fiber_size"] = spec.q - 1

    lam_values = [form]
    alt_lam = spec.from_index(2)
    if alt_lam != -spec.one() and alt_lam:
        lam_values.append(QuadraticFormSpec(spec, alt_lam))
    display_misses = 0
    vec_draws = rng.integers(0, spec.q, size=(12, 3))
    for variant in lam_values:
        if spec.q <= 7:
            units = list(even_units(variant))
        else:
            units = []
            unit_draws = rng.integers(0, spec.q, size=(200, 4))
            for row in unit_draws:
                g = even_element(variant, *(int(i) for i in row))
                if g.norm():
                    units.append(g)
        vectors = [
            tuple(spec.from_index(int(i)) for i in row) for row in vec_draws
        ]
        for name in ("e1", "e2", "e3"):
            idx = BLADE_NAMES.index(name)
            coords = [spec.zero()] * 3
            coords[idx - 1] = spec.one()
            vectors.append(tuple(coords))
        display_misses += sandwich_display_mismatches(variant, vectors, units)
    findings.append(
        _finding("clifford-sandwich-displays", inputs, display_misses, "=", 0, display_misses == 0)
    )
    metrics["display_forms"] = [v.lam.index for v in lam_values]
    return findings, metrics, [], []


def check_kinematic(config):
    """(findings, metrics, witnesses) of the kinematic check, computed on objects."""
    spec = config.field
    inputs = _digest({"field": spec.to_json()})
    image_keys, n_motions, roundtrip_misses = set(), 0, 0
    for g in all_motions(spec):
        p = kappa(g)
        image_keys.add(p.key)
        n_motions += 1
        roundtrip_misses += kappa_inv(p) != g
    # one pass over projective 3-space, split on X0^2 + X1^2 = 0
    complement, n_exceptional = set(), 0
    for p in all_proj_points(spec):
        if is_exceptional(p):
            n_exceptional += 1
        else:
            complement.add(p.key)
    findings = [
        _finding("kinematic-injective", inputs, len(image_keys), "=", n_motions, len(image_keys) == n_motions),
        _finding("kinematic-count", inputs, n_motions, "=", len(complement), n_motions == len(complement)),
        _finding(
            "kinematic-image-complement",
            inputs,
            len(image_keys ^ complement),
            "=",
            0,
            image_keys == complement,
        ),
        _finding("kinematic-roundtrip", inputs, roundtrip_misses, "=", 0, roundtrip_misses == 0),
    ]
    metrics = {
        "motions": n_motions,
        "proj_points": len(complement) + n_exceptional,
        "exceptional": n_exceptional,
    }
    return findings, metrics, [], []
