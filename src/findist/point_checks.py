"""The point checks: stats, verify, reduce and prune on the config's point set, and the sweep.

Each check returns (findings, metrics, witnesses, rows); only the sweep has
rows.  The harness loads this module when a config names one of them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

# incidence first: without a bytecode cache a module's compile memory stays in
# the process's peak, so the largest module compiles while the least is live
from . import incidence  # noqa: I001
from . import counting, generators
from .field import FieldSpec
from .geometry import PointSet
from .harness import ExperimentConfig, Thresholds, _child_seed, _digest, _finding, _jsonify


def _set_digest(A: PointSet) -> str:
    """The ``inputs`` of every finding on A: its JSON's digest, kept in A's cache by ``counting._per_set``."""
    return _digest(A.to_json())


def _reduction_unavailable(name: str, inputs: str, exc: Exception) -> dict:
    """The failing finding of a reduction that raised instead of producing a witness."""
    return _finding(name, inputs, [f"{type(exc).__name__}: {exc}"], "=", [], False)


def _stats(A: PointSet, floor: Fraction) -> tuple[dict, int, int]:
    """The stats check's metrics of A, flags aside, and both sides of pind / |A|^(2/3) >= floor, cubed."""
    dist = counting.distance_stats(A)
    iso = counting.isosceles_count(A)
    bis = counting.bisector_stats(A)
    occ = counting.max_collinear_cocircular(A)
    metrics = {
        "size": len(A),
        "pind": dist.pind,
        "pind_nonzero": dist.pind_nonzero,
        "distinct_distances": dist.distinct_distances,
        "nonzero_pairs": dist.nonzero_pairs,
        "isosceles_t": iso.t,
        "isosceles_t_all": iso.t_all,
        "quadruple_q": counting.segment_classes(A).q_value,
        "bisector_b": bis.b_energy,
        "bisector_b_star": bis.b_star_energy,
        "cone_points": bis.cone_count,
        "occupancy_m": occ.m,
        "occupancy_m_line": occ.m_line,
        "occupancy_m_circle": occ.m_circle,
    }
    return metrics, (dist.pind * floor.denominator) ** 3, len(A) ** 2 * floor.numerator**3


def _check_stats(A: PointSet, config: ExperimentConfig):
    metrics, lhs, rhs = _stats(A, config.thresholds.pind_floor)
    metrics["flags"] = [] if lhs >= rhs else ["pind-below-floor"]
    ok = lhs >= rhs or not config.thresholds.enforce
    return [_finding("pinned-ratio-floor", counting._per_set(A, _set_digest), lhs, ">=", rhs, ok)], metrics, [], []


def _check_verify(A: PointSet, config: ExperimentConfig):
    inputs = counting._per_set(A, _set_digest)
    entries = counting.verify_identities(A)
    findings = [
        _finding(e["name"], inputs, e["lhs"], e["relation"], e["rhs"], e["pass"])
        for e in entries
    ]
    return findings, {"identities": _jsonify(entries)}, [], []


def _check_reduce(A: PointSet, config: ExperimentConfig):
    inputs = counting._per_set(A, _set_digest)
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
    return findings, {"reductions": summaries}, witnesses, []


def _check_prune(A: PointSet, config: ExperimentConfig):
    inputs = counting._per_set(A, _set_digest)
    findings, removed = [], []
    orig_sq = len(A) ** 2
    current = A
    for step, (curve, current, check) in enumerate(counting.prune_steps(A)):
        name = f"prune-triple-bound[step={step}]"
        findings.append(_finding(name, inputs, check["lhs"], check["relation"], check["rhs"], check["pass"]))
        removed.append(curve.to_json())
    steps = len(removed)
    budget = counting.prune_budget(len(A))
    occ = counting.max_collinear_cocircular(current)
    findings.append(_finding("prune-step-budget", inputs, steps, "<=", budget, steps <= budget))
    for name, m in (("prune-line-occupancy", occ.m_line), ("prune-circle-occupancy", occ.m_circle)):
        findings.append(_finding(name, inputs, m**3, "<=", orig_sq, m**3 <= orig_sq))
    metrics = {
        "steps": steps,
        "removed": removed,
        "final_size": len(current),
        "final_m": occ.m,
    }
    return findings, metrics, [], []


def _sweep_row(spec: FieldSpec, kind: str, params: Mapping, size: int, seed: int,
               thresholds: Thresholds) -> tuple[dict, list, list]:
    """One sweep row, the witnesses of an unexplained reduction, and the findings of a failed one."""
    A = generators.generate(spec, kind, dict(params, size=size), seed)
    stats, lhs, rhs = _stats(A, thresholds.pind_floor)
    pind_ok = lhs >= rhs
    flags = [] if pind_ok else ["pind-below-floor"]
    # no isotropic line x + i*y = c may hold more than a third of the points
    in_hyp = len(A) ** 3 <= spec.p**4 and 3 * int(counting.isotropic_line_counts(A).max(initial=0)) <= len(A)
    if not in_hyp:
        flags.append("out-of-hypothesis")

    witnesses, failures = [], []
    reduction = dict.fromkeys(
        ("reduction_r", "reduction_lifted", "rudnev_surrogate", "rudnev_float", "rudnev_ok")
    )
    r_star = counting.segment_classes(A).largest()
    if r_star is not None:
        reduction["reduction_r"] = r_star.index
        try:
            w = incidence.claim_reduction(A, r_star)
        except (incidence.ReductionUnavailableError, AssertionError) as exc:
            flags.append("reduction-unavailable")
            name = f"reduction-available[size={size},r={r_star.index}]"
            failures.append(_reduction_unavailable(name, counting._per_set(A, _set_digest), exc))
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
        **{name: stats[name] for name in ("size", "pind", "isosceles_t", "quadruple_q", "bisector_b_star",
                                          "occupancy_m")},
        "q": spec.q,
        "size_two_thirds": len(A) ** (2.0 / 3.0),
        "pind_ratio": stats["pind"] / len(A) ** (2.0 / 3.0) if len(A) else 0.0,
        "pind_ok": pind_ok,
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


def config_point_set(config: ExperimentConfig) -> PointSet:
    if config.generator == "explicit":
        params = config.params_dict()
        return PointSet.from_json({"field": config.field.to_json(), "points": params["points"]})
    params = {k: v for k, v in config.params_dict().items() if k != "sizes"}
    return generators.generate(config.field, config.generator, params, config.seed)
