"""Experiment orchestration: configs, the check table, reports, and sweeps' CSV.

A run is fully determined by its ExperimentConfig.  Reports render to
canonical JSON (sorted keys, fixed separators, no timestamps) and sweeps to
CSV with a frozen column order, so identical configs produce byte-identical
artifacts regardless of worker count.  The checks live in ``point_checks``
and ``algebra_checks``: a config loads the modules of the checks it names,
and ``run`` imports nothing.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import io
import json
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .field import FieldSpec

# Largest Rudnev surrogate ratio observed on the standard F_31 corpus,
# reproducible with scripts/calibrate_rudnev.py: 1917/1729 on the 8x12 grid.
# Frozen at that maximum; any larger ratio on the corpus is a regression.
FROZEN_RUDNEV_CEILING = Fraction(1917, 1729)

# check name -> (module, function, whether the function takes the config's
# point set before the config, modules its run would import on first use).
# Every function returns (findings, metrics, witnesses, rows).  numpy imports
# numpy.random on first access, which the sweep's and generators' seeding and
# the Clifford check's sampling make.
CHECKS = {
    "stats": ("point_checks", "_check_stats", True, ("numpy.random",)),
    "verify": ("point_checks", "_check_verify", True, ("numpy.random",)),
    "reduce": ("point_checks", "_check_reduce", True, ("numpy.random",)),
    "prune": ("point_checks", "_check_prune", True, ("numpy.random",)),
    "kinematic-check": ("algebra_checks", "_check_kinematic", False, ()),
    "clifford-check": ("algebra_checks", "_check_clifford", False, ("numpy.random",)),
    "sweep": ("point_checks", "_check_sweep", False, ("numpy.random",)),
}

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


class Thresholds(NamedTuple):
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
        enforce, ratios = obj.get("enforce", False), {}
        if type(enforce) is not bool:
            raise ValueError(f"thresholds enforce must be true or false, got {enforce!r}")
        for name in ("pind_floor", "rudnev_ceiling"):
            value = obj.get(name)
            if value is None:
                continue
            # a string or a lone number would unpack into Fraction too, and a bool is an int
            if not (isinstance(value, list) and len(value) == 2 and all(type(v) is int for v in value) and value[1]):
                raise ValueError(f"thresholds {name} must be [numerator, denominator], integers with a nonzero "
                                 f"denominator, got {value!r}")
            ratios[name] = Fraction(*value)
        return Thresholds(enforce=enforce, **ratios)


class ExperimentConfig:
    """Everything a run depends on; two equal configs give equal outputs."""

    __slots__ = ("field", "generator", "params", "seed", "checks", "out", "thresholds")

    def __init__(self, field: FieldSpec, generator: str = "random", params: tuple = (), seed: int = 0,
                 checks: tuple = ("stats",), out: Optional[str] = None, thresholds: Thresholds = Thresholds()):
        if not isinstance(generator, str):
            raise ValueError(f"generator must be a string, got {generator!r}")
        if type(seed) is not int:
            raise ValueError(f"seed must be an integer, got {seed!r}")
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed {seed} outside the 64-bit range")
        validate_checks(checks)
        # load what the checks run now, so that run imports nothing
        for name in checks:
            module, _, _, lazy = CHECKS[name]
            _module(module)
            for other in lazy:
                importlib.import_module(other)
        for name, value in zip(self.__slots__, (field, generator, params, seed, checks, out, thresholds)):
            object.__setattr__(self, name, value)

    __setattr__ = __delattr__ = FieldSpec.__setattr__

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and all(getattr(self, n) == getattr(other, n) for n in self.__slots__)

    def __hash__(self) -> int:
        return hash(tuple(getattr(self, n) for n in self.__slots__))

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
        return make_config(
            field=FieldSpec.from_json(obj["field"]),
            generator=obj.get("generator", "random"),
            params=obj.get("params", {}),
            seed=obj.get("seed", 0),
            checks=obj.get("checks", ("stats",)),
            out=obj.get("out"),
            thresholds=Thresholds.from_json(obj.get("thresholds", {})),
        )


def make_config(field: FieldSpec, generator: str = "random", params: Mapping | None = None,
                seed: int = 0, checks: Sequence[str] = ("stats",), out: Optional[str] = None,
                thresholds: Thresholds = Thresholds()) -> ExperimentConfig:
    frozen = tuple(sorted((k, _freeze(k, v)) for k, v in (params or {}).items()))
    # a string stays whole, for validate_checks to refuse
    checks = checks if isinstance(checks, str) else tuple(checks)
    return ExperimentConfig(field, generator, frozen, seed, checks, out, thresholds)


def validate_checks(checks) -> None:
    """Raise ValueError unless ``checks`` lists known check names, each once."""
    if isinstance(checks, str):
        raise ValueError(f"checks must be a list of check names, not the string {checks!r}")
    names = list(checks)
    unknown = [c for c in names if c not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks {unknown}; choose from {tuple(CHECKS)}")
    repeated = sorted({c for c in names if names.count(c) > 1})
    if repeated:
        raise ValueError(f"checks {repeated} named more than once")


def _module(name: str):
    """The findist module ``name``, imported on first use."""
    return importlib.import_module(f"{__package__}.{name}")


class Report(NamedTuple):
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


def _child_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence((seed, index)).generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# orchestration

def run(config: ExperimentConfig, workers: int = 1) -> Report:
    """Execute the configured checks and assemble the canonical report."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    # the config loaded every module named here, so none is imported now
    on_points = any(CHECKS[name][2] for name in config.checks)
    A = _module("point_checks").config_point_set(config) if on_points else None

    def dispatch(name: str):
        module, function, takes_points, _ = CHECKS[name]
        check = getattr(_module(module), function)
        return check(A, config) if takes_points else check(config)

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

STANDARD_SWEEP_P = 31
STANDARD_SWEEP_SIZES = (20, 40, 60, 80, 97)


def standard_corpus() -> list[tuple[str, FieldSpec, str, dict, int]]:
    """Labelled (label, field, kind, params, seed) rows; all in-hypothesis."""
    F31 = FieldSpec(STANDARD_SWEEP_P)
    rows = []
    for i, size in enumerate(STANDARD_SWEEP_SIZES):
        rows.append((f"random-{size}", F31, "random", {"size": size}, _child_seed(31, i)))
    for rows_, cols in ((4, 5), (5, 8), (6, 10), (8, 10), (8, 12)):
        rows.append((f"grid-{rows_}x{cols}", F31, "grid", {"rows": rows_, "cols": cols}, 0))
    rows.append(("on-line-20", F31, "on-line", {"size": 20}, _child_seed(31, 100)))
    rows.append(("on-circle-24", F31, "on-circle", {"size": 24, "radius_sq": 1}, _child_seed(31, 101)))
    return rows


def standard_corpus_sets() -> list[tuple[str, PointSet]]:
    from .generators import generate

    return [
        (label, generate(spec, kind, params, seed))
        for label, spec, kind, params, seed in standard_corpus()
    ]
