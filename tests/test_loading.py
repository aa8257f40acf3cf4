"""What each entry point loads: ``import findist``, a config, a run, and the CLI.

Every case runs in a fresh interpreter, so that ``sys.modules`` starts clean.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")

_BASE = {"findist", "findist.field", "findist.harness"}
_ALGEBRA = _BASE | {"findist.algebra_checks", "findist.clifford", "findist.geometry", "findist.motions",
                    "findist.projective_rows"}
_POINTS = _BASE | {"findist.point_checks", "findist.counting", "findist.incidence", "findist.generators",
                   "findist.geometry", "findist.projective_rows"}

# each check, a small config of it, and the findist modules that config loads
CASES = {
    "stats": ({"field": {"p": 5}, "params": {"size": 6}, "seed": 1}, _POINTS),
    "verify": ({"field": {"p": 5}, "params": {"size": 6}, "seed": 1}, _POINTS),
    "reduce": ({"field": {"p": 5}, "params": {"size": 6}, "seed": 1}, _POINTS),
    "prune": ({"field": {"p": 5}, "params": {"size": 6}, "seed": 1}, _POINTS),
    "sweep": ({"field": {"p": 5}, "params": {"sizes": [4, 6]}, "seed": 1}, _POINTS),
    "kinematic-check": ({"field": {"p": 3}, "seed": 3}, _ALGEBRA),
    "clifford-check": ({"field": {"p": 3}, "seed": 3}, _ALGEBRA),
}

_PROBE = """
import json, sys
import findist
imported = set(sys.modules)
config = findist.ExperimentConfig.from_json(json.loads(sys.argv[1]))
configured = set(sys.modules)
report = findist.run(config)
print(json.dumps({
    "imported": sorted(m for m in imported if m.startswith("findist")),
    "configured": sorted(m for m in configured if m.startswith("findist")),
    "added_by_run": sorted(set(sys.modules) - configured),
    "passed": report.passed(),
}))
"""


def _python(flags, code, *args):
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
@pytest.mark.parametrize("check", list(CASES))
def test_a_config_loads_its_checks_modules_and_run_imports_nothing(check, flags):
    blob, loaded = CASES[check]
    got = _python(flags, _PROBE, json.dumps(dict(blob, checks=[check])))
    assert got["imported"] == sorted(_BASE)
    assert got["configured"] == sorted(loaded)
    assert got["added_by_run"] == []
    assert got["passed"]


def test_the_checks_table_covers_every_check():
    from findist.harness import CHECKS

    assert set(CHECKS) == set(CASES)


@pytest.mark.parametrize("subcommand", ["kinematic-check", "clifford-check"])
def test_the_cli_runs_an_algebra_check_without_the_point_modules(subcommand):
    code = """
import io, json, sys, contextlib
from findist.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main([sys.argv[1], "--field", "3"])
print(json.dumps({"code": code, "loaded": sorted(m for m in sys.modules if m.startswith("findist"))}))
"""
    got = _python([], code, subcommand)
    assert got["code"] == 0
    assert got["loaded"] == sorted(_ALGEBRA | {"findist.cli"})


@pytest.mark.parametrize("argv", [["stats", "--field", "7"], ["verify", "--field", "7"], ["reduce", "--field", "7"],
                                  ["prune", "--field", "7"], ["sweep"]],
                         ids=["stats", "verify", "reduce", "prune", "sweep"])
def test_the_cli_runs_a_point_check_without_the_object_layer(argv):
    code = """
import io, json, sys, contextlib
from findist.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({"code": code, "loaded": sorted(m for m in sys.modules if m.startswith("findist")),
                  "dataclasses": "dataclasses" in sys.modules}))
"""
    got = _python([], code, *argv)
    assert got["code"] == 0
    assert got["loaded"] == sorted(_POINTS | {"findist.cli"})
    assert not got["dataclasses"]


@pytest.mark.parametrize("p, xy, lifted", [
    (7, [[0, 0], [1, 0], [0, 1]], False),
    (3, [[0, 0], [0, 1], [1, 0], [2, 1], [2, 2]], True),
], ids=["unlifted", "lifted"])
def test_a_witness_builds_its_objects_when_the_object_layer_was_not_loaded(p, xy, lifted):
    # the witness and its JSON load no object module; the test oracle builds its objects from the rows
    code = """
import json, sys
from findist.field import FieldSpec
from findist.geometry import PointSet, point
from findist.incidence import claim_reduction
spec = FieldSpec(int(sys.argv[1]))
w = claim_reduction(PointSet(spec, [point(spec, x, y) for x, y in json.loads(sys.argv[2])]), spec.one())
w.to_json()
before = sorted(m for m in sys.modules if m in ("findist.kinematic", "findist.motions", "findist.clifford"))
sys.path.insert(0, sys.argv[3])
from incidence_oracles import witness_families
families = witness_families(w)
print(json.dumps({
    "lifted": w.lifted,
    "before": before,
    "types": [type(family[0]).__name__ for family in families.values()],
    "sizes": [len(family) for family in families.values()],
    "json": all(w.to_json()[name] == [x.to_json() for x in family] for name, family in families.items()),
}))
"""
    got = _python([], code, str(p), json.dumps(xy), TESTS)
    assert got["lifted"] is lifted
    assert got["before"] == []
    assert got["types"] == ["RigidMotion", "RigidMotion", "ProjPoint", "ProjPlane"]
    assert len(set(got["sizes"])) == 1 and got["json"]


PUBLIC_NAMES = [
    "Circle", "CliffordElement", "EvenCliffordElement", "ExperimentConfig", "FieldElement", "FieldSpec",
    "GENERATOR_KINDS", "Line", "Point", "PointSet", "ProjMap", "ProjPlane", "ProjPoint", "QuadraticFormSpec",
    "ReductionWitness", "Report", "RigidMotion", "Rotation", "Segment", "Thresholds", "UnsupportedGeneratorError",
    "all_lines", "all_motions", "all_points", "all_proj_points", "axial_pair_count", "bisector", "bisector_stats",
    "blade", "claim_reduction", "count_incidences", "distance", "distance_stats", "enumerate_rotations",
    "epsilon_term", "equidistant_line", "even_units", "find_irreducible", "generate", "isosceles_count", "kappa",
    "kappa_inv", "make_config", "max_collinear", "max_collinear_cocircular", "motion_between_segments", "phi_left",
    "prune_curve", "prune_heavy", "r_tau_plane", "reflect", "rho_star", "rudnev_ratio", "run", "sandwich",
    "segment_classes", "so2_order", "standard_corpus", "standard_corpus_sets", "verify_identities",
]

# the object-only constructions that live on as test oracles, by their old module
MOVED_TO_TESTS = {
    "clifford": ("even_element", "main_involution", "_ALPHA_SIGNS", "product_rows"),
    "geometry": ("isotropic_vectors", "is_isotropic_vector"),
    "kinematic": ("phi_right", "transporter_line", "transporter_image", "matrix_rank", "exceptional_set",
                  "is_exceptional"),
    "motions": ("axial_to_motion", "_reflection_parts", "r_tau_set", "iter_r_tau", "rotation_about",
                "transporter_set"),
    "counting": ("LineBisectorRecord", "line_from_key"),
}

# class members only the tests read, now functions of the object in the oracle file beside its tests,
# and the record fields only those members read
MOVED_MEMBERS = {
    "field": {"FieldElement": ("is_square",)},
    "geometry": {"Point": ("is_zero",)},
    "clifford": {"EvenCliffordElement": ("is_unit", "is_identity_coset", "from_clifford")},
    "kinematic": {"ProjMap": ("apply_plane",)},
    "motions": {"RigidMotion": ("apply_segment", "fixed_point", "is_translation")},
    "counting": {"DistanceStats": ("A", "per_point", "distances", "per_point_nonzero"),
                 "BisectorStats": ("spec", "entries", "record_for", "relation_holds")},
    "incidence": {"ReductionWitness": ("g_motions", "h_motions", "points", "planes")},
}

# class members that nothing calls
DELETED_MEMBERS = {
    "clifford": {"CliffordElement": ("__sub__", "scalar", "to_json"), "EvenCliffordElement": ("to_json",)},
    "incidence": {"EpsilonTerm": ("to_json",)},
    "geometry": {"Point": ("__neg__",), "Line": ("direction",)},
    "kinematic": {"ProjMap": ("inverse", "identity")},
    "motions": {"Rotation": ("identity",), "RigidMotion": ("rotation",)},
}


def test_moved_names_are_gone_from_the_package():
    import findist

    for module, names in MOVED_TO_TESTS.items():
        old = importlib.import_module(f"findist.{module}")
        for name in names:
            assert not hasattr(findist, name), name
            assert not hasattr(old, name), f"findist.{module}.{name}"


def _assert_members_gone(table):
    for module, classes in table.items():
        mod = importlib.import_module(f"findist.{module}")
        for cls, members in classes.items():
            for member in members:
                assert not hasattr(getattr(mod, cls), member), f"findist.{module}.{cls}.{member}"


def test_deleted_members_are_gone():
    _assert_members_gone(DELETED_MEMBERS)


def test_moved_members_are_gone_from_their_classes():
    _assert_members_gone(MOVED_MEMBERS)


def test_the_per_set_count_records_are_tuples():
    from findist import counting

    assert issubclass(counting.DistanceStats, tuple) and issubclass(counting.BisectorStats, tuple)
    assert not hasattr(counting, "cached_property")


def test_every_public_name_resolves_to_its_submodules_object():
    code = """
import importlib, json
import findist
names = list(findist.__all__)
listed = set(dir(findist))
lazy = [n for n in names if n not in vars(findist)]
wrong = [n for n in names
         if getattr(findist, n) is not getattr(importlib.import_module("findist." + findist._MODULE_OF[n]), n)]
star = {}
exec("from findist import *", star)
starred = [n for n in names if star.get(n) is not getattr(findist, n)]
try:
    findist.no_such_name
    missing_raises = False
except AttributeError:
    missing_raises = True
print(json.dumps({"names": names, "unlisted": sorted(set(names) - listed), "lazy": len(lazy),
                  "wrong": wrong, "starred": starred, "extra": sorted(set(star) - set(names) - {"__builtins__"}),
                  "missing_raises": missing_raises}))
"""
    got = _python([], code)
    assert len(got["names"]) == len(set(got["names"]))
    assert sorted(got["names"]) == PUBLIC_NAMES
    assert got["unlisted"] == []
    assert got["lazy"] > 0  # names outside field and harness wait for their first read
    assert got["wrong"] == [] and got["starred"] == [] and got["extra"] == []
    assert got["missing_raises"]
