"""Exact distance, rigid-motion, and incidence experiments over small finite fields.

The package is organized bottom-up: field arithmetic, plane geometry with the
quadratic distance, the rigid motion group, its even Clifford model, the
projective embedding of motions, exact counting statistics, the segment-class
to point-plane reduction, and an experiment harness with a CLI front end.

``import findist`` loads ``field`` and ``harness`` only.  Every other public
name loads its module on first access, and a config loads the modules of the
checks it names.
"""

import importlib

from . import field, harness  # noqa: F401  (every run needs both)

__version__ = "0.1.0"

# each module and the public names it exports
_EXPORTS = {
    "field": "FieldElement FieldSpec find_irreducible",
    "geometry": "Circle Line Point PointSet Segment all_lines all_points bisector distance equidistant_line reflect",
    "motions": "RigidMotion Rotation all_motions enumerate_rotations motion_between_segments so2_order",
    "clifford": "CliffordElement EvenCliffordElement QuadraticFormSpec blade even_units rho_star sandwich",
    "kinematic": "ProjMap ProjPlane ProjPoint all_proj_points kappa kappa_inv phi_left r_tau_plane",
    "counting": (
        "bisector_stats distance_stats isosceles_count max_collinear_cocircular prune_curve prune_heavy "
        "segment_classes verify_identities"
    ),
    "incidence": (
        "ReductionWitness axial_pair_count claim_reduction count_incidences epsilon_term max_collinear rudnev_ratio"
    ),
    "generators": "GENERATOR_KINDS UnsupportedGeneratorError generate",
    "harness": "ExperimentConfig Report Thresholds make_config run standard_corpus standard_corpus_sets",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
