"""The benchmark's workloads: how each builds its input from a seed and checks its output.

Every input is built through the package's public entry points
(``findist.generate`` and ``findist.make_config``), and every run goes through
``findist.run`` and ``Report.render``/``Report.render_csv``, the path the
``findist`` command takes.  A workload builds one input from its seed.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

SEED_LIMIT = 2**64
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    output: str  # "csv" for sweeps, "json" for every other report


WORKLOADS = {
    w.name: w
    for w in (
        # Prime field, q = 3 mod 4 (no isotropic vectors): the standard sweep
        # pipeline.  Time goes to the O(n^3) curve occupancy and to one
        # large-class claim_reduction per row; never prunes, never touches
        # clifford.
        Workload("sweep-f31", 31, "csv"),
        # Degree-2 extension, q = 1 mod 4 (isotropic vectors exist):
        # polynomial multiplication, the isotropic branches, the sweep
        # bisector method over all q^2 + q lines, a reduction per nonzero
        # class and one real prune step.  Many small reductions.
        Workload("checks-f25", 25, "json"),
        # The motion group, the projective embedding and the Clifford
        # sandwich with no point set: counting and incidence do no work.
        # F_9 is the smallest degree-2 field with q = 1 mod 4, and it also
        # takes the exhaustive rho_star fibre check (q <= 11); over F_25 one
        # run takes 6-10 s, too long to repeat within a run.
        Workload("algebra-f9", 9, "json"),
    )
}

# Sizes are cut from the standard sweep's 20..97 so that one input takes a
# few seconds and several fresh-process repeats fit in one run.
SWEEP_SIZES = [20, 30]
CHECKS_RANDOM_POINTS = 5
CHECKS_CIRCLE_POINTS = 5
CHECKS_CIRCLE = {"center": [3, 4], "radius_sq": 1}


def build_config(findist, name: str, seed: int):
    """The ExperimentConfig of workload ``name`` at ``seed``."""
    if name == "sweep-f31":
        return findist.make_config(
            findist.FieldSpec(31), "random", {"sizes": SWEEP_SIZES}, seed=seed, checks=("sweep",)
        )
    if name == "checks-f25":
        spec = findist.FieldSpec(5, 2)
        circle_seed = int(np.random.SeedSequence((seed, 1)).generate_state(1, np.uint64)[0])
        scattered = findist.generate(spec, "random", {"size": CHECKS_RANDOM_POINTS}, seed)
        on_circle = findist.generate(
            spec, "on-circle", dict(CHECKS_CIRCLE, size=CHECKS_CIRCLE_POINTS), circle_seed
        )
        points = []
        for p in list(scattered) + list(on_circle):
            if p.to_json() not in points:
                points.append(p.to_json())
        return findist.make_config(
            spec, "explicit", {"points": points}, seed=seed, checks=("stats", "verify", "reduce", "prune")
        )
    if name == "algebra-f9":
        return findist.make_config(
            findist.FieldSpec(3, 2), "random", {}, seed=seed, checks=("kinematic-check", "clifford-check")
        )
    raise KeyError(name)


def render(report, workload: Workload) -> bytes:
    text = report.render_csv() if workload.output == "csv" else report.render() + "\n"
    return text.encode("ascii")


def output_checks(report, workload: Workload) -> list:
    """(name, ok) for every finding.

    A sweep row flagged ``unexplained-reduction`` already carries a failing
    ``sweep-reduction[size=...]`` finding, so requiring every finding to pass
    also enforces that no sweep reduction goes unexplained.
    """
    return [(f["name"], bool(f["pass"])) for f in report.findings]


def digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def expected_digests() -> dict:
    """Recorded sha256 of each workload's output bytes at its default seed."""
    with open(EXPECTED_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)
