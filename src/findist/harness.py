"""Experiment orchestration: configs, checks, reports, and sweeps.

A run is fully determined by its ExperimentConfig.  Reports render to
canonical JSON (sorted keys, fixed separators, no timestamps) and sweeps to
CSV with a frozen column order, so identical configs produce byte-identical
artifacts regardless of worker count.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

import numpy as np

from . import counting, incidence
from .clifford import (
    QuadraticFormSpec,
    _product,
    associativity_misses,
    even_norms,
    even_unit_columns,
    rho_star_keys,
    sandwich_batch,
)
from .field import FieldSpec, _index_field
from .generators import generate
from .geometry import PointSet
from .kinematic import _kappa_rows
from .motions import so2_order

# Largest Rudnev surrogate ratio observed on the standard F_31 corpus,
# reproducible with scripts/calibrate_rudnev.py: 1917/1729 on the 8x12 grid.
# Frozen at that maximum; any larger ratio on the corpus is a regression.
FROZEN_RUDNEV_CEILING = Fraction(1917, 1729)

# kinematic-check holds one boolean per key of projective 3-space (2 q^3) and
# its motions a block at a time; q = 101, the scaling sweep's largest prime, takes about 0.4 s and 60 MB.
KINEMATIC_Q_MAX = 101

CHECK_NAMES = ("stats", "verify", "reduce", "prune", "kinematic-check", "clifford-check", "sweep")

_POINT_CHECKS = {"stats", "verify", "reduce", "prune"}

SWEEP_COLUMNS = (
    "q",
    "size",
    "pind",
    "size_two_thirds",
    "pind_ratio",
    "pind_ok",
    "isosceles_t",
    "quadruple_q",
    "bisector_b_star",
    "occupancy_m",
    "reduction_r",
    "reduction_lifted",
    "rudnev_surrogate",
    "rudnev_float",
    "rudnev_ok",
    "in_hypothesis",
    "flags",
)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("ascii")).hexdigest()


def _freeze(name: str, value):
    # a mapping would thaw back as a list of pairs, so no parameter may hold one
    if isinstance(value, Mapping):
        raise ValueError(f"parameter {name!r} holds a mapping; parameters hold scalars and lists")
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(name, v) for v in value)
    return value


def _thaw(value):
    if isinstance(value, tuple):
        return [_thaw(v) for v in value]
    return value


@dataclass(frozen=True)
class Thresholds:
    """Monitored-ratio knobs.  With enforce=False violations only annotate."""

    pind_floor: Fraction = Fraction(1, 4)
    rudnev_ceiling: Fraction = FROZEN_RUDNEV_CEILING
    enforce: bool = False

    def to_json(self) -> dict:
        return {
            "pind_floor": [self.pind_floor.numerator, self.pind_floor.denominator],
            "rudnev_ceiling": [self.rudnev_ceiling.numerator, self.rudnev_ceiling.denominator],
            "enforce": self.enforce,
        }

    @staticmethod
    def from_json(obj: Mapping) -> "Thresholds":
        base = Thresholds()
        pind = obj.get("pind_floor")
        rud = obj.get("rudnev_ceiling")
        return Thresholds(
            pind_floor=Fraction(*pind) if pind is not None else base.pind_floor,
            rudnev_ceiling=Fraction(*rud) if rud is not None else base.rudnev_ceiling,
            enforce=bool(obj.get("enforce", False)),
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run depends on; two equal configs give equal outputs."""

    field: FieldSpec
    generator: str = "random"
    params: tuple = ()
    seed: int = 0
    checks: tuple = ("stats",)
    out: Optional[str] = None
    thresholds: Thresholds = Thresholds()

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed {self.seed} outside the 64-bit range")
        unknown = [c for c in self.checks if c not in CHECK_NAMES]
        if unknown:
            raise ValueError(f"unknown checks {unknown}; choose from {CHECK_NAMES}")

    def params_dict(self) -> dict:
        return {k: _thaw(v) for k, v in self.params}

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "generator": self.generator,
            "params": self.params_dict(),
            "seed": self.seed,
            "checks": list(self.checks),
            "out": self.out,
            "thresholds": self.thresholds.to_json(),
        }

    def digest(self) -> str:
        # the output path does not influence the experiment identity
        payload = self.to_json()
        del payload["out"]
        return _digest(payload)

    @staticmethod
    def from_json(obj: Mapping) -> "ExperimentConfig":
        generator, seed = obj.get("generator", "random"), obj.get("seed", 0)
        if not isinstance(generator, str):
            raise ValueError(f"generator must be a string, got {generator!r}")
        if type(seed) is not int:
            raise ValueError(f"seed must be an integer, got {seed!r}")
        return make_config(
            field=FieldSpec.from_json(obj["field"]),
            generator=generator,
            params=obj.get("params", {}),
            seed=seed,
            checks=tuple(obj.get("checks", ("stats",))),
            out=obj.get("out"),
            thresholds=Thresholds.from_json(obj.get("thresholds", {})),
        )


def make_config(field: FieldSpec, generator: str = "random", params: Mapping | None = None,
                seed: int = 0, checks: Sequence[str] = ("stats",), out: Optional[str] = None,
                thresholds: Thresholds = Thresholds()) -> ExperimentConfig:
    frozen = tuple(sorted((k, _freeze(k, v)) for k, v in (params or {}).items()))
    return ExperimentConfig(field, generator, frozen, seed, tuple(checks), out, thresholds)


@dataclass
class Report:
    config: dict
    digest: str
    findings: list
    rows: list
    witnesses: list
    metrics: dict

    def passed(self) -> bool:
        return all(f["pass"] for f in self.findings)

    def to_json(self) -> dict:
        return {
            "config": self.config,
            "digest": self.digest,
            "findings": self.findings,
            "rows": [_jsonify(row) for row in self.rows],
            "witnesses": self.witnesses,
            "metrics": _jsonify(self.metrics),
        }

    def render(self) -> str:
        return canonical_json(self.to_json())

    def render_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(SWEEP_COLUMNS)
        for row in self.rows:
            writer.writerow([_csv_cell(row[col]) for col in SWEEP_COLUMNS])
        return buf.getvalue()


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return ";".join(str(v) for v in value)
    return str(value)


def _jsonify(value):
    if isinstance(value, Fraction):
        return [value.numerator, value.denominator]
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    return value


def _finding(name: str, inputs: str, lhs, relation: str, rhs, ok: bool) -> dict:
    return {
        "name": name,
        "inputs": inputs,
        "lhs": _jsonify(lhs),
        "relation": relation,
        "rhs": _jsonify(rhs),
        "pass": bool(ok),
    }


def _reduction_unavailable(name: str, inputs: str, exc: Exception) -> dict:
    """The failing finding of a reduction that raised instead of producing a witness."""
    return _finding(name, inputs, [f"{type(exc).__name__}: {exc}"], "=", [], False)


def _pind_meets_floor(pind: int, size: int, floor: Fraction) -> bool:
    # pind / size^(2/3) >= floor, cubed to stay in integers
    return (pind * floor.denominator) ** 3 >= size**2 * floor.numerator**3


# ---------------------------------------------------------------------------
# individual checks


def _check_stats(A: PointSet, config: ExperimentConfig):
    inputs = _digest(A.to_json())
    dist = counting.distance_stats(A)
    iso = counting.isosceles_count(A)
    classes = counting.segment_classes(A)
    bis = counting.bisector_stats(A)
    occ = counting.max_collinear_cocircular(A)
    floor = config.thresholds.pind_floor
    pind_ok = _pind_meets_floor(dist.pind, len(A), floor) if len(A) else True
    flags = [] if pind_ok else ["pind-below-floor"]
    metrics = {
        "size": len(A),
        "pind": dist.pind,
        "pind_nonzero": dist.pind_nonzero,
        "distinct_distances": dist.distinct_distances,
        "nonzero_pairs": dist.nonzero_pairs,
        "isosceles_t": iso.t,
        "isosceles_t_all": iso.t_all,
        "quadruple_q": classes.q_value,
        "bisector_b": bis.b_energy,
        "bisector_b_star": bis.b_star_energy,
        "cone_points": bis.cone_count,
        "occupancy_m": occ.m,
        "occupancy_m_line": occ.m_line,
        "occupancy_m_circle": occ.m_circle,
        "flags": flags,
    }
    findings = [
        _finding(
            "pinned-ratio-floor",
            inputs,
            (dist.pind * floor.denominator) ** 3,
            ">=",
            len(A) ** 2 * floor.numerator**3,
            pind_ok or not config.thresholds.enforce,
        )
    ]
    return findings, metrics, []


def _check_verify(A: PointSet, config: ExperimentConfig):
    inputs = _digest(A.to_json())
    entries = counting.verify_identities(A)
    findings = [
        _finding(e["name"], inputs, e["lhs"], e["relation"], e["rhs"], e["pass"])
        for e in entries
    ]
    return findings, {"identities": _jsonify(entries)}, []


def _check_reduce(A: PointSet, config: ExperimentConfig):
    inputs = _digest(A.to_json())
    findings, witnesses, summaries = [], [], []
    lengths = [r for r, _ in counting.segment_classes(A).nonzero_sizes()]
    try:
        results = incidence.claim_reductions(A, lengths)
    except (incidence.ReductionUnavailableError, AssertionError) as exc:
        results = [exc] * len(lengths)
    for r, w in zip(lengths, results):
        if isinstance(w, Exception):
            findings.append(_reduction_unavailable(f"reduction-available[r={r.index}]", inputs, w))
            continue
        explained = w.verdict == "explained"
        findings.append(
            _finding(
                f"reduction-explained[r={r.index}]",
                inputs,
                w.incidences,
                "=",
                w.i_ax + w.i_on_axis,
                explained,
            )
        )
        summaries.append(
            {
                "r": r.index,
                "segments": w.max_class_size,
                "i_ax": w.i_ax,
                "i_on_axis": w.i_on_axis,
                "incidences": w.incidences,
                "lifted": w.lifted,
                "verdict": w.verdict,
            }
        )
        if not explained:
            witnesses.append(w.to_json())
    return findings, {"reductions": summaries}, witnesses


def _check_prune(A: PointSet, config: ExperimentConfig):
    inputs = _digest(A.to_json())
    findings, removed = [], []
    orig_sq = len(A) ** 2
    current = A
    for step, (curve, current, check) in enumerate(counting.prune_steps(A)):
        name = f"prune-triple-bound[step={step}]"
        findings.append(_finding(name, inputs, check["lhs"], check["relation"], check["rhs"], check["pass"]))
        removed.append(curve.to_json())
    steps = len(removed)
    budget = counting._ceil_cbrt(len(A)) + 1
    occ = counting.max_collinear_cocircular(current)
    findings.append(_finding("prune-step-budget", inputs, steps, "<=", budget, steps <= budget))
    findings.append(
        _finding("prune-line-occupancy", inputs, occ.m_line**3, "<=", orig_sq, occ.m_line**3 <= orig_sq)
    )
    findings.append(
        _finding(
            "prune-circle-occupancy", inputs, occ.m_circle**3, "<=", orig_sq, occ.m_circle**3 <= orig_sq
        )
    )
    metrics = {
        "steps": steps,
        "removed": removed,
        "final_size": len(current),
        "final_m": occ.m,
    }
    return findings, metrics, []


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
    n_motions, roundtrip_misses, step = len(rotations) * q * q, 0, max(1, incidence.CHUNK_CELLS // q**2)
    for lo in range(0, len(rotations), step):
        motions = (rotations[lo : lo + step, None] * q**2 + np.arange(q * q, dtype=np.int64)).ravel()
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
    return findings, metrics, []


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
    return findings, metrics, []


# ---------------------------------------------------------------------------
# sweeps


def _isotropic_line_occupancy(A: PointSet) -> int:
    """The most points of A on one line x + i*y = c with i^2 = -1; 0 when -1 is not a square."""
    if not len(A):
        return 0
    F = _index_field(A.spec)
    x, y = counting._index_coords(A)
    lines = (F.add(x, F.mul(i.index, y)) for i in (-A.spec.one()).sqrt())
    return max((int(np.bincount(c).max()) for c in lines), default=0)


def _child_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence((seed, index)).generate_state(1, np.uint64)[0])


def _sweep_row(spec: FieldSpec, kind: str, params: Mapping, size: int, seed: int,
               thresholds: Thresholds) -> tuple[dict, list, list]:
    """One sweep row, the witnesses of an unexplained reduction, and the findings of a failed one."""
    A = generate(spec, kind, dict(params, size=size), seed)
    dist = counting.distance_stats(A)
    iso_t = counting.isosceles_count(A).t
    classes = counting.segment_classes(A)
    b_star = counting.bisector_stats(A).b_star_energy
    occ = counting.max_collinear_cocircular(A)

    flags = []
    pind_ok = _pind_meets_floor(dist.pind, len(A), thresholds.pind_floor)
    if not pind_ok:
        flags.append("pind-below-floor")
    in_hyp = len(A) ** 3 <= spec.p**4 and 3 * _isotropic_line_occupancy(A) <= len(A)
    if not in_hyp:
        flags.append("out-of-hypothesis")

    witnesses, failures = [], []
    reduction = dict.fromkeys(
        ("reduction_r", "reduction_lifted", "rudnev_surrogate", "rudnev_float", "rudnev_ok")
    )
    nonzero = classes.nonzero_sizes()
    if nonzero:
        r_star, _ = max(nonzero, key=lambda item: (item[1], -item[0].index))
        reduction["reduction_r"] = r_star.index
        try:
            w = incidence.claim_reduction(A, r_star)
        except (incidence.ReductionUnavailableError, AssertionError) as exc:
            flags.append("reduction-unavailable")
            name = f"reduction-available[size={size},r={r_star.index}]"
            failures.append(_reduction_unavailable(name, _digest(A.to_json()), exc))
        else:
            ratio = w.ratio()
            rudnev_ok = ratio.surrogate_ratio <= thresholds.rudnev_ceiling
            if not rudnev_ok:
                flags.append("rudnev-above-ceiling")
            if w.verdict != "explained":
                flags.append("unexplained-reduction")
                witnesses.append(w.to_json())
            reduction.update(
                reduction_lifted=w.lifted,
                rudnev_surrogate=ratio.surrogate_ratio,
                rudnev_float=ratio.float_ratio,
                rudnev_ok=rudnev_ok,
            )

    row = {
        "q": spec.q,
        "size": len(A),
        "pind": dist.pind,
        "size_two_thirds": len(A) ** (2.0 / 3.0),
        "pind_ratio": dist.pind / len(A) ** (2.0 / 3.0) if len(A) else 0.0,
        "pind_ok": pind_ok,
        "isosceles_t": iso_t,
        "quadruple_q": classes.q_value,
        "bisector_b_star": b_star,
        "occupancy_m": occ.m,
        "in_hypothesis": in_hyp,
        "flags": sorted(flags),
    }
    row.update(reduction)
    return row, witnesses, failures


def _check_sweep(config: ExperimentConfig):
    params = config.params_dict()
    sizes = params.pop("sizes", None)
    if not isinstance(sizes, list) or not sizes:
        raise ValueError("sweep: params must include a non-empty 'sizes' list")
    kind = config.generator
    findings, rows, witnesses = [], [], []
    inputs = config.digest()
    for i, size in enumerate(sizes):
        row, extra, failures = _sweep_row(
            config.field, kind, params, size, _child_seed(config.seed, i), config.thresholds
        )
        rows.append(row)
        witnesses.extend(extra)
        findings.extend(failures)
        # an unexplained reduction is an exactness regression, never a
        # monitored ratio: it fails the run unconditionally
        if "unexplained-reduction" in row["flags"]:
            findings.append(
                _finding(f"sweep-reduction[size={size}]", inputs, ["unexplained-reduction"], "=", [], False)
            )
        monitored = [
            f for f in row["flags"]
            if f not in ("out-of-hypothesis", "unexplained-reduction", "reduction-unavailable")
        ]
        if config.thresholds.enforce:
            findings.append(
                _finding(
                    f"sweep-thresholds[size={size}]",
                    inputs,
                    monitored,
                    "=",
                    [],
                    not monitored,
                )
            )
    metrics = {"rows": len(rows)}
    return findings, metrics, witnesses, rows


# ---------------------------------------------------------------------------
# orchestration


def config_point_set(config: ExperimentConfig) -> PointSet:
    if config.generator == "explicit":
        params = config.params_dict()
        return PointSet.from_json({"field": config.field.to_json(), "points": params["points"]})
    params = {k: v for k, v in config.params_dict().items() if k != "sizes"}
    return generate(config.field, config.generator, params, config.seed)


def run(config: ExperimentConfig, workers: int = 1) -> Report:
    """Execute the configured checks and assemble the canonical report."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    needs_points = [c for c in config.checks if c in _POINT_CHECKS]
    A = config_point_set(config) if needs_points else None

    def dispatch(name: str):
        if name == "stats":
            return _check_stats(A, config) + ((),)
        if name == "verify":
            return _check_verify(A, config) + ((),)
        if name == "reduce":
            return _check_reduce(A, config) + ((),)
        if name == "prune":
            return _check_prune(A, config) + ((),)
        if name == "kinematic-check":
            return _check_kinematic(config) + ((),)
        if name == "clifford-check":
            return _check_clifford(config) + ((),)
        findings, metrics, witnesses, rows = _check_sweep(config)
        return findings, metrics, witnesses, rows

    if workers == 1 or len(config.checks) <= 1:
        results = [dispatch(name) for name in config.checks]
    else:
        # imported here: it costs every process about 0.6 MB
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(dispatch, name) for name in config.checks]
            # gather in submission order: aggregation ignores completion order
            results = [f.result() for f in futures]

    findings, rows, witnesses, metrics = [], [], [], {}
    for name, (check_findings, check_metrics, check_witnesses, check_rows) in zip(config.checks, results):
        findings.extend(check_findings)
        witnesses.extend(check_witnesses)
        rows.extend(check_rows)
        metrics[name] = check_metrics
    return Report(
        config=config.to_json(),
        digest=config.digest(),
        findings=findings,
        rows=rows,
        witnesses=witnesses,
        metrics=metrics,
    )


# ---------------------------------------------------------------------------
# the standard F_31 corpus for calibration and regression gating

STANDARD_SWEEP_SIZES = (20, 40, 60, 80, 97)


def standard_corpus() -> list[tuple[str, FieldSpec, str, dict, int]]:
    """Labelled (label, field, kind, params, seed) rows; all in-hypothesis."""
    F31 = FieldSpec(31)
    rows = []
    for i, size in enumerate(STANDARD_SWEEP_SIZES):
        rows.append((f"random-{size}", F31, "random", {"size": size}, _child_seed(31, i)))
    for rows_, cols in ((4, 5), (5, 8), (6, 10), (8, 10), (8, 12)):
        rows.append((f"grid-{rows_}x{cols}", F31, "grid", {"rows": rows_, "cols": cols}, 0))
    rows.append(("on-line-20", F31, "on-line", {"size": 20}, _child_seed(31, 100)))
    rows.append(("on-circle-24", F31, "on-circle", {"size": 24, "radius_sq": 1}, _child_seed(31, 101)))
    return rows


def standard_corpus_sets() -> list[tuple[str, PointSet]]:
    return [
        (label, generate(spec, kind, params, seed))
        for label, spec, kind, params, seed in standard_corpus()
    ]
