"""Generator, config, report, and CLI behavior of the experiment harness."""

import ast
import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import findist
from findist import incidence
from findist.cli import main
from findist.counting import isotropic_line_counts, segment_classes
from findist.field import FieldSpec
from findist.generators import FULL_PLANE_Q_MAX, GENERATOR_KINDS, UnsupportedGeneratorError, generate
from findist.geometry import Line, Point, PointSet, all_points, distance, origin
from findist.algebra_checks import KINEMATIC_Q_MAX
from findist.harness import (
    CHECKS,
    SWEEP_COLUMNS,
    ExperimentConfig,
    Thresholds,
    _child_seed,
    _digest,
    canonical_json,
    make_config,
    run,
)
from findist.point_checks import config_point_set

F3 = FieldSpec(3)
F5 = FieldSpec(5)
F7 = FieldSpec(7)
F11 = FieldSpec(11)
F13 = FieldSpec(13)
F25 = FieldSpec(5, 2)


def _pool_sampling(spec, pool, size, seed):
    """The points drawn from a listed pool, as the generators drew them before they built only their picks."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    picks = range(size) if size == len(pool) else rng.choice(len(pool), size=size, replace=False)
    return PointSet(spec, [pool[int(i)] for i in picks]).points


class TestGenerators:
    def test_grid_3x3_over_f7(self):
        A = generate(F7, "grid", {"rows": 3, "cols": 3}, 0)
        got = {(p.x.index, p.y.index) for p in A}
        assert got == {(i, j) for i in range(3) for j in range(3)}

    def test_full_plane_f3_has_nine_points(self):
        A = generate(F3, "full-plane", {}, 0)
        assert len(A) == 9
        assert len({(p.x.index, p.y.index) for p in A}) == 9

    def test_random_is_seed_deterministic(self):
        first = generate(F11, "random", {"size": 10}, 1)
        second = generate(F11, "random", {"size": 10}, 1)
        assert [p.to_json() for p in first] == [p.to_json() for p in second]
        assert len({(p.x.index, p.y.index) for p in first}) == 10

    def test_random_seed_changes_the_set(self):
        a = {(p.x.index, p.y.index) for p in generate(F11, "random", {"size": 10}, 1)}
        b = {(p.x.index, p.y.index) for p in generate(F11, "random", {"size": 10}, 2)}
        assert a != b

    def test_on_line_default_carrier_is_x_axis(self):
        A = generate(F7, "on-line", {"size": 5}, 3)
        assert all(p.y == F7.zero() for p in A)

    def test_on_line_custom_carrier(self):
        A = generate(F7, "on-line", {"size": 4, "line": [1, 2, 3]}, 3)
        line = Line(F7.from_index(1), F7.from_index(2), F7.from_index(3))
        assert all(line.contains(p) for p in A)

    def test_on_circle_points_have_the_radius(self):
        A = generate(F7, "on-circle", {"size": 6, "radius_sq": 2}, 9)
        c = origin(F7)
        assert all(distance(c, p) == F7.from_index(2) for p in A)

    def test_on_circle_zero_radius_rejected(self):
        with pytest.raises(UnsupportedGeneratorError):
            generate(F7, "on-circle", {"size": 2, "radius_sq": 0}, 0)

    def test_subfield_coordinates_are_constants(self):
        A = generate(F25, "subfield", {}, 0)
        assert len(A) == 25
        for p in A:
            assert p.x.coeffs[1] == 0 and p.y.coeffs[1] == 0

    def test_subfield_needs_a_quadratic_extension(self):
        with pytest.raises(UnsupportedGeneratorError):
            generate(F5, "subfield", {}, 0)

    def test_isotropic_line_pairwise_distance_zero(self):
        A = generate(F5, "isotropic-line", {}, 0)
        assert len(A) == 5
        pts = list(A)
        assert all(not distance(a, b) for a in pts for b in pts)

    def test_isotropic_line_unavailable_when_minus_one_nonsquare(self):
        with pytest.raises(UnsupportedGeneratorError):
            generate(F7, "isotropic-line", {}, 0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            generate(F5, "hexagon", {}, 0)
        assert "hexagon" not in GENERATOR_KINDS

    def test_unknown_and_missing_params_rejected(self):
        with pytest.raises(ValueError):
            generate(F5, "random", {"size": 3, "shape": "round"}, 0)
        with pytest.raises(ValueError):
            generate(F5, "grid", {"rows": 2}, 0)

    def test_oversized_request_rejected(self):
        with pytest.raises(ValueError):
            generate(F3, "random", {"size": 10}, 0)

    @pytest.mark.parametrize("kind,name,value", [
        ("on-circle", "center", 5),
        ("on-circle", "center", [1, 2, 3]),
        ("on-circle", "center", [1, "2"]),
        ("on-circle", "center", [1, 7]),
        ("on-circle", "center", [True, 0]),
        ("on-circle", "radius_sq", 1.0),
        ("on-circle", "radius_sq", [1]),
        ("on-circle", "radius_sq", -1),
        ("on-line", "line", 3),
        ("on-line", "line", [1, 2]),
        ("on-line", "line", [1, 2, None]),
        ("random", "size", True),
        ("random", "size", 2.0),
    ])
    def test_malformed_params_name_themselves(self, kind, name, value):
        params = {"size": 3, name: value}
        with pytest.raises(ValueError, match=f"{kind}: {name} "):
            generate(F7, kind, params, 0)

    def test_on_line_with_a_zero_normal_rejected(self):
        with pytest.raises(ValueError, match="line normal"):
            generate(F7, "on-line", {"size": 3, "line": [0, 0, 1]}, 0)

    def test_wellformed_optional_params_accept_tuples(self):
        A = generate(F7, "on-circle", {"size": 3, "center": (1, 2), "radius_sq": 4}, 0)
        assert [p.to_json() for p in A] == [
            p.to_json() for p in generate(F7, "on-circle", {"size": 3, "center": [1, 2], "radius_sq": 4}, 0)
        ]

    @pytest.mark.parametrize("spec", [F3, F13, F25, FieldSpec(3, 3)], ids=["F3", "F13", "F25", "F27"])
    def test_random_picks_equal_the_pool_sampling(self, spec):
        pool = list(all_points(spec))
        for seed in (0, 1, 7, 4242):
            for size in (1, 5, len(pool) // 2, len(pool) - 1, len(pool)):
                assert generate(spec, "random", {"size": size}, seed).points == _pool_sampling(spec, pool, size, seed)

    @pytest.mark.parametrize("spec", [F3, F5, F7, FieldSpec(3, 2), F13, F25], ids=["F3", "F5", "F7", "F9", "F13", "F25"])
    def test_carrier_picks_equal_the_filtered_plane(self, spec):
        rng = np.random.default_rng(spec.q)
        q, pts = spec.q, list(all_points(spec))
        lines = [None, [1, 0, 2 % q], [0, 1, q - 1]] + [rng.integers(1, q, 3).tolist() for _ in range(3)]
        circles = [None, [[1, 2 % q], 1]] + [[rng.integers(0, q, 2).tolist(), int(rng.integers(1, q))] for _ in range(3)]
        for seed in (0, 1, 7, 4242):
            for line in lines:
                params = {} if line is None else {"line": line}
                carrier = Line(*(spec.from_index(i) for i in line or [0, 1, 0]))
                pool = [p for p in pts if carrier.contains(p)]
                for size in (1, len(pool) // 2, len(pool)):
                    got = generate(spec, "on-line", dict(params, size=size), seed).points
                    assert got == _pool_sampling(spec, pool, size, seed), (line, size, seed)
            for circle in circles:
                params = {} if circle is None else {"center": circle[0], "radius_sq": circle[1]}
                centre, radius_sq = circle or ([0, 0], 1)
                pool = [p for p in pts if distance(Point(*map(spec.from_index, centre)), p).index == radius_sq]
                for size in (1, len(pool) // 2, len(pool)):
                    got = generate(spec, "on-circle", dict(params, size=size), seed).points
                    assert got == _pool_sampling(spec, pool, size, seed), (circle, size, seed)

    def test_random_on_a_large_plane_builds_only_its_picks(self):
        # q^2 = 16,008,001 points: listing them all took about 14 s
        start = time.perf_counter()
        A = generate(FieldSpec(4001), "random", {"size": 12}, 1)
        assert time.perf_counter() - start < 1.0
        assert len(A) == 12

    @pytest.mark.parametrize("kind", ["on-line", "on-circle"])
    def test_carrier_on_a_large_plane_lists_only_its_points(self, kind):
        # filtering all q^2 = 16,008,001 points of the plane took tens of seconds
        start = time.perf_counter()
        A = generate(FieldSpec(4001), kind, {"size": 12}, 1)
        assert time.perf_counter() - start < 1.0
        assert len(A) == 12

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**64 - 1))
    def test_any_seed_gives_distinct_points(self, seed):
        A = generate(F11, "random", {"size": 8}, seed)
        assert len({(p.x.index, p.y.index) for p in A}) == 8


class TestConfig:
    def test_json_roundtrip_preserves_digest(self):
        config = make_config(F7, "grid", {"rows": 3, "cols": 4}, seed=11, checks=("stats", "verify"))
        back = ExperimentConfig.from_json(json.loads(canonical_json(config.to_json())))
        assert back == config
        assert back.digest() == config.digest()

    def test_digest_ignores_output_path(self):
        a = make_config(F7, "random", {"size": 5}, seed=2, out=None)
        b = make_config(F7, "random", {"size": 5}, seed=2, out="ual/report.json")
        assert a.digest() == b.digest()

    def test_digest_sees_seed_and_params(self):
        a = make_config(F7, "random", {"size": 5}, seed=2)
        assert a.digest() != make_config(F7, "random", {"size": 5}, seed=3).digest()
        assert a.digest() != make_config(F7, "random", {"size": 6}, seed=2).digest()

    def test_params_order_does_not_matter(self):
        a = make_config(F7, "grid", {"rows": 2, "cols": 3})
        b = make_config(F7, "grid", {"cols": 3, "rows": 2})
        assert a == b and a.digest() == b.digest()

    def test_seed_range_enforced(self):
        with pytest.raises(ValueError):
            make_config(F7, "random", {"size": 5}, seed=-1)
        with pytest.raises(ValueError):
            make_config(F7, "random", {"size": 5}, seed=2**64)

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            make_config(F7, "random", {"size": 5}, checks=("stats", "vibes"))

    @pytest.mark.parametrize("seed", [3.0, True, "3", None])
    def test_seed_must_be_an_int(self, seed):
        # 3.0 used to pass and then fail inside numpy mid-run; True ran seed 1 under another digest
        with pytest.raises(ValueError, match="seed must be an integer"):
            make_config(F5, "random", {"size": 5}, seed=seed)
        with pytest.raises(ValueError, match="seed must be an integer"):
            ExperimentConfig(F5, seed=seed)

    def test_repeated_checks_rejected(self):
        # a repeated check would report each of its findings twice and its metrics once
        with pytest.raises(ValueError, match=r"checks \['stats'\] named more than once"):
            make_config(F7, "random", {"size": 5}, checks=("stats", "verify", "stats"))
        with pytest.raises(ValueError, match="named more than once"):
            ExperimentConfig.from_json({"field": F7.to_json(), "checks": ["stats", "stats"]})

    def test_checks_given_as_a_string_rejected(self):
        message = "checks must be a list of check names, not the string 'stats'"
        with pytest.raises(ValueError, match=message):
            make_config(F7, "random", {"size": 5}, checks="stats")
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_json({"field": F7.to_json(), "checks": "stats"})
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(F7, checks="stats")

    @pytest.mark.parametrize("params", [{"points": {}}, {"points": [{"x": 1}]}, {"sizes": [3, {}]}])
    def test_mapping_params_rejected(self, params):
        # a mapping would thaw back as a list of its pairs, e.g. an empty point set
        with pytest.raises(ValueError, match="holds a mapping"):
            make_config(F7, "explicit", params)

    def test_thresholds_roundtrip(self):
        t = Thresholds(pind_floor=Fraction(2, 7), rudnev_ceiling=Fraction(9, 8), enforce=True)
        assert Thresholds.from_json(t.to_json()) == t

    @pytest.mark.parametrize("enforce", ["false", "true", 0, 1, None, [True]])
    def test_thresholds_enforce_must_be_a_bool(self, enforce):
        # bool("false") is True: the string used to switch enforcement on
        with pytest.raises(ValueError, match="thresholds enforce must be true or false"):
            Thresholds.from_json({"enforce": enforce})
        with pytest.raises(ValueError, match="thresholds enforce must be true or false"):
            ExperimentConfig.from_json({"field": F7.to_json(), "thresholds": {"enforce": enforce}})
        assert Thresholds.from_json({"enforce": False}) == Thresholds() != Thresholds.from_json({"enforce": True})

    @pytest.mark.parametrize("value", ["7", [True, 4], [0.25], [1, 0], [1, 2, 3], [1.0, 4], [1, False], {"n": 1}, 7])
    @pytest.mark.parametrize("name", ["pind_floor", "rudnev_ceiling"])
    def test_threshold_ratios_must_be_integer_pairs(self, name, value):
        # Fraction(*value) read "7" as 7, and both [true, 4] and [0.25] as 1/4
        with pytest.raises(ValueError, match=f"thresholds {name} must be \\[numerator, denominator\\]"):
            Thresholds.from_json({name: value})
        code, out, err = _run_with_file("stats", "--config", {"field": {"p": 7}, "thresholds": {name: value}})
        assert (code, out) == (2, "")
        assert err.startswith("findist: bad config ") and err.count("\n") == 1 and f"thresholds {name} must" in err

    def test_a_config_is_a_value(self):
        a = make_config(F7, "grid", {"rows": 2, "cols": 3}, seed=4, checks=("stats", "verify"))
        b = ExperimentConfig(F7, "grid", (("cols", 3), ("rows", 2)), 4, ("stats", "verify"))
        assert a == b and hash(a) == hash(b)
        assert a != make_config(F7, "grid", {"rows": 2, "cols": 3}, seed=5, checks=("stats", "verify"))
        assert a != make_config(F7, "grid", {"rows": 2, "cols": 3}, seed=4, checks=("stats", "verify"), out="x")
        assert ExperimentConfig(F7) == ExperimentConfig(F7, "random", (), 0, ("stats",), None, Thresholds())
        assert ExperimentConfig(F7) != ExperimentConfig(F7, thresholds=Thresholds(enforce=True))
        for name in ("field", "seed", "checks", "other"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(a, name, 5)
        with pytest.raises(AttributeError):
            del a.seed
        assert a.seed == 4

    @pytest.mark.parametrize("kwargs, message", [
        ({"generator": 3}, "generator must be a string, got 3"),
        ({"seed": 2.5}, "seed must be an integer, got 2.5"),
        ({"seed": 2**64}, f"seed {2**64} outside the 64-bit range"),
        ({"seed": -1}, "seed -1 outside the 64-bit range"),
        ({"checks": ("stats", "vibes")}, r"unknown checks \['vibes'\]; choose from \('stats', "),
        ({"checks": "stats"}, "checks must be a list of check names, not the string 'stats'"),
        ({"checks": ("verify", "verify")}, r"checks \['verify'\] named more than once"),
    ])
    def test_config_validation_messages(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(F7, **kwargs)


class TestRun:
    def test_reports_are_byte_identical_across_workers(self):
        config = make_config(
            F3,
            "random",
            {"size": 5, "sizes": [4, 6]},
            seed=5,
            checks=("stats", "verify", "kinematic-check", "sweep"),
        )
        solo = run(config, workers=1)
        pooled = run(config, workers=4)
        assert solo.render() == pooled.render()
        assert solo.render_csv() == pooled.render_csv()

    def test_repeat_runs_are_byte_identical(self):
        config = make_config(F5, "random", {"size": 6}, seed=9, checks=("stats", "verify"))
        assert run(config).render() == run(config).render()

    def test_findings_have_the_fixed_schema(self):
        config = make_config(F5, "random", {"size": 6}, seed=9, checks=("stats", "verify", "reduce"))
        report = run(config)
        assert report.findings
        for f in report.findings:
            assert set(f) == {"name", "inputs", "lhs", "relation", "rhs", "pass"}

    def test_render_is_canonical_json(self):
        config = make_config(F5, "random", {"size": 6}, seed=9)
        text = run(config).render()
        assert canonical_json(json.loads(text)) == text

    def test_verify_check_passes_on_random_sets(self):
        config = make_config(F7, "random", {"size": 9}, seed=4, checks=("verify",))
        report = run(config)
        assert report.passed()
        assert len(report.findings) == 6

    def test_monitored_ratio_annotates_without_enforce(self):
        # an absurd floor cannot fail the run unless enforce is set
        soft = Thresholds(pind_floor=Fraction(10, 1), enforce=False)
        config = make_config(F7, "random", {"size": 10}, seed=7, thresholds=soft)
        report = run(config)
        assert report.passed()
        assert report.metrics["stats"]["flags"] == ["pind-below-floor"]

    def test_enforce_turns_the_annotation_into_a_failure(self):
        hard = Thresholds(pind_floor=Fraction(10, 1), enforce=True)
        config = make_config(F7, "random", {"size": 10}, seed=7, thresholds=hard)
        report = run(config)
        assert not report.passed()

    def test_explicit_generator_reads_the_points(self):
        params = {"points": [[0, 0], [2, 0], [0, 2]]}
        config = make_config(F5, "explicit", params, checks=("stats",))
        A = config_point_set(config)
        assert {(p.x.index, p.y.index) for p in A} == {(0, 0), (2, 0), (0, 2)}


class TestSweep:
    def test_sweep_produces_one_row_per_size(self):
        config = make_config(F5, "random", {"sizes": [4, 6]}, seed=5, checks=("sweep",))
        report = run(config)
        assert [row["size"] for row in report.rows] == [4, 6]
        text = report.render_csv()
        lines = text.splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 3

    def test_sweep_requires_sizes(self):
        config = make_config(F5, "random", {}, seed=5, checks=("sweep",))
        with pytest.raises(ValueError):
            run(config)

    def test_sweep_csv_parses_back(self):
        config = make_config(F5, "random", {"sizes": [4, 6]}, seed=5, checks=("sweep",))
        rows = list(csv.DictReader(io.StringIO(run(config).render_csv())))
        assert [r["q"] for r in rows] == ["5", "5"]
        assert all(r["in_hypothesis"] in ("true", "false") for r in rows)
        assert all("/" in r["rudnev_surrogate"] for r in rows)

    def test_sweep_without_a_nonzero_class_leaves_blanks(self):
        config = make_config(F5, "random", {"sizes": [1]}, seed=5, checks=("sweep",))
        report = run(config)
        assert report.rows[0]["reduction_r"] is None
        line = report.render_csv().splitlines()[1]
        assert ",," in line


def object_isotropic_line_counts(A):
    """Per slope i, the points of A on the line x + i*y = c through each point, one bucket per point and slope."""
    counts = []
    for slope in (-A.spec.one()).sqrt():
        keys = [(a.x + slope * a.y).index for a in A]
        counts.append([keys.count(c) for c in keys])
    return counts


class TestIsotropicLineOccupancy:
    @pytest.mark.parametrize("spec", [F5, F7, F13, F25], ids=["F5", "F7", "F13", "F25"])
    def test_against_object_loop(self, spec):
        pts = list(all_points(spec))
        sets = [PointSet(spec, []), PointSet(spec, pts)]
        sets += [generate(spec, "random", {"size": size}, seed) for seed in range(6) for size in (1, 5, 12)]
        if spec.chi_minus_one() == 1:
            sets.append(generate(spec, "isotropic-line", {}, 0))
            sets += [generate(spec, "isotropic-line", {"size": 3}, seed) for seed in range(4)]
            # a whole isotropic line off the origin, for each slope, plus one outlier
            shift = Point(spec.one(), spec.element(2))
            for i in (-spec.one()).sqrt():
                line = [Point(t, i * t) + shift for t in spec.elements()]
                sets += [PointSet(spec, line), PointSet(spec, line + [Point(spec.one(), spec.one())])]
        for A in sets:
            assert isotropic_line_counts(A).tolist() == object_isotropic_line_counts(A), A.to_json()
        if spec.chi_minus_one() == 1:
            assert isotropic_line_counts(sets[-1]).max() == spec.q
        else:
            assert isotropic_line_counts(PointSet(spec, pts)).max(initial=0) == 0


class TestCli:
    def test_kinematic_check_exits_zero(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["kinematic-check", "--field", "3", "--out", str(out)]) == 0
        blob = json.loads(out.read_text())
        assert all(f["pass"] for f in blob["findings"])
        assert blob["metrics"]["kinematic-check"]["motions"] == 36

    def test_failing_thresholds_exit_one(self, tmp_path):
        config = make_config(
            F7,
            "random",
            {"size": 10},
            seed=7,
            thresholds=Thresholds(pind_floor=Fraction(10, 1), enforce=True),
        )
        path = tmp_path / "config.json"
        path.write_text(canonical_json(config.to_json()))
        out = tmp_path / "report.json"
        assert main(["stats", "--config", str(path), "--out", str(out)]) == 1

    def test_missing_config_exits_two(self, tmp_path):
        assert main(["stats", "--config", str(tmp_path / "absent.json")]) == 2

    def test_bad_field_exits_two(self):
        assert main(["stats", "--field", "nonsense"]) == 2

    @pytest.mark.parametrize("field", [{"p": 31.7, "r": "1"}, {"p": 31.0}, {"p": 5, "r": 2, "modulus": [2, 0, 1.0]}])
    def test_non_integer_field_in_a_config_exits_two(self, field):
        code, out, err = _run_with_file("stats", "--config", {"field": field, "params": {"size": 5}})
        assert (code, out) == (2, "")
        assert err.startswith("findist: ") and "field p, r and modulus must be integers" in err

    def test_seed_option_overrides_the_config(self, tmp_path):
        blob = {"field": {"p": 7}, "params": {"size": 8}, "seed": 1}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(blob))
        code, out, err = _cli(["stats", "--config", str(path), "--seed", "5"])
        assert (code, err) == (0, "")
        config = ExperimentConfig.from_json(dict(blob, seed=5, checks=["stats"]))
        assert out == run(config).render() + "\n"
        assert json.loads(out)["findings"][0]["inputs"] == _digest(config_point_set(config).to_json())
        assert config_point_set(config) != config_point_set(ExperimentConfig.from_json(blob))

    @pytest.mark.parametrize("field, message", [
        ("5,2,1", "--field expects p or p,r, got '5,2,1'"),
        ("9", "p must be an odd prime, got 9"),
        ("3,0", "r must be positive, got 0"),
        ("131101", "field order q = 131101 exceeds the limit"),
    ])
    def test_a_bad_field_option_exits_two_with_one_line(self, field, message):
        code, out, err = _cli(["stats", "--field", field])
        assert (code, out) == (2, "")
        assert err.startswith(f"findist: {message}") and err.count("\n") == 1

    def test_an_unwritable_out_exits_two_with_one_line(self, tmp_path):
        path = tmp_path / "missing" / "report.json"
        code, out, err = _cli(["stats", "--field", "5", "--out", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"findist: cannot write {path}: ") and err.count("\n") == 1
        assert not path.parent.exists()

    def test_non_integer_field_in_a_points_file_exits_two(self):
        code, out, err = _run_with_file("stats", "--points", {"field": {"p": 5.5}, "points": [[0, 0], [1, 2]]})
        assert (code, out) == (2, "")
        assert err.startswith("findist: bad point-set file ") and "must be integers" in err

    def test_non_bool_enforce_exits_two(self):
        code, out, err = _run_with_file("stats", "--config", {"field": {"p": 7}, "thresholds": {"enforce": "false"}})
        assert (code, out) == (2, "")
        assert "thresholds enforce must be true or false, got 'false'" in err

    def test_field_above_the_order_limit_exits_two(self):
        # 131101 is the first prime above Q_MAX = 2^17
        src = os.path.dirname(os.path.dirname(os.path.abspath(findist.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "findist.cli", "stats", "--field", "131101"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "findist: field order q = 131101 exceeds the limit 131072\n"

    @pytest.mark.parametrize("field", ["103", "5,3"])
    def test_kinematic_check_above_its_q_limit_exits_two(self, field):
        code, out, err = _cli(["kinematic-check", "--field", field])
        assert (code, out) == (2, "")
        assert err.startswith("findist: ") and err.count("\n") == 1 and f"q <= {KINEMATIC_Q_MAX}" in err

    @pytest.mark.parametrize("p, r", [(43, 1), (7, 2), (101, 1)])
    def test_full_plane_above_its_q_limit_exits_two(self, p, r):
        blob = {"field": {"p": p, "r": r}, "generator": "full-plane", "checks": ["stats"]}
        code, out, err = _run_with_file("stats", "--config", blob)
        assert (code, out) == (2, "")
        assert err.startswith("findist: ") and err.count("\n") == 1 and f"q <= {FULL_PLANE_Q_MAX}" in err

    def test_full_plane_at_its_q_limit_runs(self):
        assert len(generate(FieldSpec(FULL_PLANE_Q_MAX), "full-plane", {}, 0)) == FULL_PLANE_Q_MAX ** 2

    def test_unsupported_generator_exits_two(self, tmp_path):
        config = make_config(F7, "isotropic-line", {"size": 3}, checks=("stats",))
        path = tmp_path / "config.json"
        path.write_text(canonical_json(config.to_json()))
        assert main(["stats", "--config", str(path)]) == 2

    def test_sweep_writes_csv(self, tmp_path):
        config = make_config(F5, "random", {"sizes": [4, 6]}, seed=5, checks=("sweep",))
        path = tmp_path / "config.json"
        path.write_text(canonical_json(config.to_json()))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3 and lines[0].startswith("q,size,")

    def test_explicit_points_verify(self, tmp_path):
        blob = {"field": F5.to_json(), "points": [[0, 0], [2, 0]]}
        path = tmp_path / "points.json"
        path.write_text(json.dumps(blob))
        out = tmp_path / "report.json"
        assert main(["verify", "--points", str(path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["config"]["generator"] == "explicit"


_STATS_CHECKS = ["stats", "verify", "reduce", "prune"]
_ALGEBRA_CHECKS = ["kinematic-check", "clifford-check"]

# sha256 of Report.render(): the configs of CI's "python -O" loop, plus F_27
# (three digits, two chunks of the index kernel) and F_49; recorded before the
# index kernel became table gathers (the F_9 reduce one before lifted axes came
# from the certificate), so a kernel change that moves a byte fails here
PINNED_REPORTS = [
    pytest.param(
        {"field": {"p": 5, "r": 2}, "generator": "random", "params": {"size": 12}, "seed": 25, "checks": _STATS_CHECKS},
        "30b25cb436ae91986feb92c3fd5550b7393c223cd0455adb1e52b9e9f65e43fe",
        id="f25",
    ),
    pytest.param(
        {"field": {"p": 13}, "generator": "random", "params": {"size": 14}, "seed": 13, "checks": _STATS_CHECKS},
        "61a8f6d720df53ac54d6595544f75defcae98c106121eaf079bcd8b2293896f1",
        id="f13",
    ),
    pytest.param(
        {"field": {"p": 3, "r": 2}, "generator": "random", "params": {"size": 9}, "seed": 9, "checks": ["reduce"]},
        "e8b6fafea9e5fa539d9343a887ea136282d8f45b916045bb44d63d123b4c0be5",
        id="f9-reduce",
    ),
    pytest.param(
        {"field": {"p": 31}, "generator": "random", "params": {"sizes": [20, 30]}, "seed": 31, "checks": ["sweep"]},
        "e917f85ad5e013d1cfbda7f8663fe945f148c7f14f5d5368fcae6be0c3226b8f",
        id="sweep",
    ),
    pytest.param(
        {"field": {"p": 3}, "seed": 3, "checks": _ALGEBRA_CHECKS},
        "9acbd46b8af32ac9500d2fac55a68b0ccc2700820cce5ecd2a7d4a81c973a68f",
        id="f3",
    ),
    pytest.param(
        {"field": {"p": 7}, "seed": 7, "checks": _ALGEBRA_CHECKS},
        "906795fd8f28f2d86310ccc06012499070a4b5dfb507bae9445c7ca1d1a05627",
        id="f7",
    ),
    pytest.param(
        {"field": {"p": 3, "r": 2}, "seed": 9, "checks": _ALGEBRA_CHECKS},
        "8dfcc345fdd23bc3294cfbdb1fadb3d8b51bab505d5dc4135c68eac2934e3b1d",
        id="f9",
    ),
    pytest.param(
        {"field": {"p": 3, "r": 3}, "generator": "random", "params": {"size": 12}, "seed": 27, "checks": _STATS_CHECKS},
        "be1026de40497ab905d8eac371400bb828f4293a5bfc622ed2938952aa7c6f5f",
        id="f27",
    ),
    pytest.param(
        {"field": {"p": 7, "r": 2}, "generator": "random", "params": {"size": 12}, "seed": 49, "checks": _STATS_CHECKS},
        "6088212a9e2e7e23b8c672b8d7070a6953a020e3e3fb55ac3a5a6cab19f27ad5",
        id="f49",
    ),
]


@pytest.mark.parametrize("config, digest", PINNED_REPORTS)
def test_report_bytes_are_pinned(config, digest):
    report = run(ExperimentConfig.from_json(config))
    assert report.passed()
    assert hashlib.sha256(report.render().encode()).hexdigest() == digest


def test_isotropic_line_report_bytes_are_pinned():
    # every pair is at distance 0: no reflection pair, so every axial count and
    # epsilon read 0, and pinned-line-bound fails (12 points on one line);
    # the sha256 was recorded before the axial counts became one grouped pass
    config = {"field": {"p": 5, "r": 2}, "generator": "isotropic-line", "params": {"size": 12}, "seed": 3,
              "checks": ["verify", "reduce"]}
    report = run(ExperimentConfig.from_json(config))
    assert [f["name"] for f in report.findings if not f["pass"]] == ["pinned-line-bound"]
    digest = "e28eb4e6667ed8b5a979d67ef09a9ea4a447e69a0c471d476ae378c6b1c19eeb"
    assert hashlib.sha256(report.render().encode()).hexdigest() == digest


class TestRenderReportScript:
    """scripts/render_report.py refuses what findist refuses: exit 2, one stderr line, no stdout."""

    @staticmethod
    def _render(tmp_path, blob):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(blob))
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        return subprocess.run(
            [sys.executable, os.path.join(root, "scripts", "render_report.py"), str(path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )

    @pytest.mark.parametrize(
        "blob, message",
        [
            ({"field": {"p": 103}, "checks": ["kinematic-check"]}, f"q <= {KINEMATIC_Q_MAX}"),
            ({"field": {"p": 4}, "checks": ["stats"]}, "p must be an odd prime"),
            ({"seed": 3}, "missing key 'field'"),
        ],
    )
    def test_refused_config_exits_two(self, tmp_path, blob, message):
        proc = self._render(tmp_path, blob)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("render_report: ") and proc.stderr.count("\n") == 1
        assert message in proc.stderr

    def test_accepted_config_prints_the_report(self, tmp_path):
        blob = {"field": {"p": 3}, "seed": 3, "checks": _ALGEBRA_CHECKS}
        proc = self._render(tmp_path, blob)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == run(ExperimentConfig.from_json(blob)).render() + "\n"


class TestReductionFailures:
    """A reduction that raises becomes a failing, replayable finding, never a traceback."""

    @pytest.fixture
    def no_axis(self, monkeypatch):
        # every class blocks every base line, and the lifted axis x = c0 fails its check
        real = incidence._pairwise_fixed_points

        def certified_lifts(*args):
            fixed, free = real(*args)
            return fixed, np.full_like(free, -1)

        monkeypatch.setattr(incidence, "_pairwise_fixed_points", certified_lifts)
        monkeypatch.setattr(incidence, "_certified", lambda fixed, into, c0, n_classes: np.zeros(n_classes, bool))

    def test_reduce_check_fails_with_one_finding_per_class(self, no_axis, tmp_path):
        config = make_config(F7, "random", {"size": 6}, seed=7, checks=("reduce",))
        path = tmp_path / "config.json"
        path.write_text(canonical_json(config.to_json()))
        out = tmp_path / "report.json"
        assert main(["reduce", "--config", str(path), "--out", str(out)]) == 1
        findings = json.loads(out.read_text())["findings"]
        A = config_point_set(config)
        classes = [r.index for r, _ in segment_classes(A).nonzero_sizes()]
        assert [f["name"] for f in findings] == [f"reduction-available[r={r}]" for r in classes]
        for f in findings:
            assert f["pass"] is False
            assert f["inputs"] == _digest(A.to_json())
            assert f["lhs"][0].startswith("ReductionUnavailableError: no valid axis")

    def test_an_invariant_raise_is_a_finding_too(self, monkeypatch):
        def broken(F, q, motions, first, size):
            raise AssertionError("planes must be pairwise distinct")

        # a raise out of the batched pass itself fails every class
        monkeypatch.setattr(incidence, "_pairwise_fixed_points", broken)
        report = run(make_config(F5, "random", {"size": 4}, seed=3, checks=("reduce",)))
        assert report.findings and not report.passed()
        assert all(f["lhs"] == ["AssertionError: planes must be pairwise distinct"] for f in report.findings)

    def test_sweep_row_gets_a_flag_and_a_failing_finding(self, no_axis, tmp_path):
        config = make_config(F5, "random", {"sizes": [4, 6]}, seed=5, checks=("sweep",))
        path = tmp_path / "config.json"
        path.write_text(canonical_json(config.to_json()))
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "sweep.csv")]) == 1
        report = run(config)
        expected = []
        for i, (size, row) in enumerate(zip([4, 6], report.rows)):
            assert "reduction-unavailable" in row["flags"]
            assert row["reduction_lifted"] is None and row["rudnev_surrogate"] is None
            A = generate(F5, "random", {"size": size}, _child_seed(5, i))
            expected.append((f"reduction-available[size={size},r={row['reduction_r']}]", _digest(A.to_json())))
        assert [(f["name"], f["inputs"]) for f in report.findings] == expected
        assert not any(f["pass"] for f in report.findings)

    def test_a_lift_past_the_field_limit_fails_only_its_classes(self, monkeypatch):
        # F_13 lifts 2 of its 12 classes; with the limit below 13^2 those two are unavailable
        config = ExperimentConfig.from_json(self.F13_CONFIG)
        want = run(config)
        lifted = {s["r"] for s in want.metrics["reduce"]["reductions"] if s["lifted"]}
        monkeypatch.setattr(findist.field, "Q_MAX", 13**2 - 1)
        got = run(config)
        assert len(lifted) == 2 and len(got.findings) == len(want.findings)
        for g, w, r in zip(got.findings, want.findings, [s["r"] for s in want.metrics["reduce"]["reductions"]]):
            if r not in lifted:
                assert g == w
                continue
            assert g["name"] == f"reduction-available[r={r}]" and g["pass"] is False
            assert g["lhs"][0].startswith("ReductionUnavailableError: no valid axis over FieldSpec(p=13")
            assert g["lhs"][0].endswith(f"the lift to q = 13^2 exceeds the limit {13**2 - 1}")

    def test_a_sweep_row_past_the_field_limit_is_flagged(self, monkeypatch):
        # the n = 30 row of the standard sweep lifts to F_961
        monkeypatch.setattr(findist.field, "Q_MAX", 31**2 - 1)
        config = make_config(FieldSpec(31), "random", {"sizes": [30]}, seed=31, checks=("sweep",))
        report = run(config)
        assert "reduction-unavailable" in report.rows[0]["flags"] and report.rows[0]["reduction_lifted"] is None
        assert [f["pass"] for f in report.findings] == [False]
        assert report.findings[0]["lhs"][0].endswith(f"exceeds the limit {31**2 - 1}")

    # the F_25 config of CI's python -O loop (every class has a base axis) and
    # the F_13 one (2 of 12 classes lift), reduce only
    F25_CONFIG = {"field": {"p": 5, "r": 2}, "generator": "random", "params": {"size": 12}, "seed": 25,
                  "checks": ["reduce"]}
    F13_CONFIG = {"field": {"p": 13}, "generator": "random", "params": {"size": 14}, "seed": 13, "checks": ["reduce"]}

    @staticmethod
    def _fail_one_axis(monkeypatch, A, k):
        """Class k blocks every base line, and its lifted axis x = c0 fails the certificate's check."""
        real_fixed, real_certified = incidence._pairwise_fixed_points, incidence._certified

        def fixed_points(*args):
            fixed, free = real_fixed(*args)
            free[k] = -1
            return fixed, free

        def certified(fixed, into, c0, n_classes):
            ok = real_certified(fixed, into, c0, n_classes)
            ok[k] = False
            return ok

        monkeypatch.setattr(incidence, "_pairwise_fixed_points", fixed_points)
        monkeypatch.setattr(incidence, "_certified", certified)
        return "ReductionUnavailableError: no valid axis over "

    @staticmethod
    def _fail_one_invariant(monkeypatch, A, k):
        """Class k repeats a point row (classes keep their numbers when every one has a base axis)."""
        real = incidence._repeating
        monkeypatch.setattr(incidence, "_repeating", lambda cls, rows, size: np.union1d(real(cls, rows, size), [k]))
        return "AssertionError: projective points must be pairwise distinct"

    @pytest.mark.parametrize("blob, failure", [
        (F25_CONFIG, "_fail_one_axis"), (F13_CONFIG, "_fail_one_axis"), (F25_CONFIG, "_fail_one_invariant"),
    ], ids=["f25-axis", "f13-axis", "f25-invariant"])
    def test_one_failing_class_leaves_the_others_unchanged(self, blob, failure, monkeypatch):
        config = ExperimentConfig.from_json(blob)
        A = config_point_set(config)
        want = run(config)
        lengths = [r.index for r, _ in segment_classes(A).nonzero_sizes()]
        k = 3
        message = getattr(self, failure)(monkeypatch, A, k)
        got = run(config)
        others = [i for i in range(len(lengths)) if i != k]
        assert [f["name"] for f in got.findings].count(f"reduction-available[r={lengths[k]}]") == 1
        failed = got.findings[k]
        assert failed["name"] == f"reduction-available[r={lengths[k]}]" and failed["pass"] is False
        assert failed["lhs"][0].startswith(message)
        assert [canonical_json(got.findings[i]) for i in others] == [canonical_json(want.findings[i]) for i in others]
        summaries = [s for s in want.metrics["reduce"]["reductions"] if s["r"] != lengths[k]]
        assert canonical_json(got.metrics["reduce"]["reductions"]) == canonical_json(summaries)


class TestFailingFindings:
    """Each failing check writes a finding whose inputs digest names what replays it."""

    @staticmethod
    def _unexplain(monkeypatch):
        # the first witness of every batch reports a count its terms do not explain
        real = incidence.claim_reductions

        def claim(A, lengths):
            out = real(A, lengths)
            out[0].verdict = "unexplained"
            return out

        monkeypatch.setattr(incidence, "claim_reductions", claim)

    def test_an_unexplained_reduction_fails_reduce_with_its_witness(self, monkeypatch):
        self._unexplain(monkeypatch)
        blob = {"field": {"p": 7}, "params": {"size": 6}, "seed": 7}
        code, out, err = _run_with_file("reduce", "--config", blob)
        assert (code, err) == (1, "")
        report = json.loads(out)
        A = config_point_set(ExperimentConfig.from_json(blob))
        r = segment_classes(A).nonzero_sizes()[0][0].index
        failed = [f for f in report["findings"] if not f["pass"]]
        assert [(f["name"], f["inputs"]) for f in failed] == [(f"reduction-explained[r={r}]", _digest(A.to_json()))]
        assert [(w["r"], w["verdict"]) for w in report["witnesses"]] == [(r, "unexplained")]
        assert len(report["findings"]) == len(segment_classes(A).nonzero_sizes())

    def test_an_unexplained_sweep_row_fails_the_run(self, monkeypatch):
        self._unexplain(monkeypatch)
        blob = {"field": {"p": 7}, "params": {"sizes": [5, 6]}, "seed": 7}
        code, out, err = _run_with_file("sweep", "--config", blob)
        assert (code, err) == (1, "")
        config = ExperimentConfig.from_json(dict(blob, checks=["sweep"]))
        report = run(config)
        assert out == report.render_csv()
        assert all("unexplained-reduction" in row["flags"] for row in report.rows)
        assert [w["verdict"] for w in report.witnesses] == ["unexplained"] * 2
        assert [(f["name"], f["inputs"], f["pass"]) for f in report.findings] == [
            (f"sweep-reduction[size={n}]", config.digest(), False) for n in (5, 6)]

    @pytest.mark.parametrize("thresholds, flag", [
        ({"pind_floor": [100, 1], "rudnev_ceiling": [100, 1]}, "pind-below-floor"),
        ({"pind_floor": [0, 1], "rudnev_ceiling": [0, 1]}, "rudnev-above-ceiling"),
    ], ids=["pind", "rudnev"])
    def test_an_enforced_sweep_threshold_fails_the_run(self, thresholds, flag):
        blob = {"field": {"p": 7}, "params": {"sizes": [5, 6]}, "seed": 7, "thresholds": dict(thresholds, enforce=True)}
        code, out, err = _run_with_file("sweep", "--config", blob)
        assert (code, err) == (1, "")
        config = ExperimentConfig.from_json(dict(blob, checks=["sweep"]))
        report = run(config)
        assert out == report.render_csv()
        assert [row["flags"] for row in report.rows] == [[flag]] * 2
        assert [(f["name"], f["inputs"], f["lhs"], f["pass"]) for f in report.findings] == [
            (f"sweep-thresholds[size={n}]", config.digest(), [flag], False) for n in (5, 6)]
        # without enforce the same rows carry the flags and the run passes
        relaxed = run(ExperimentConfig.from_json(dict(blob, checks=["sweep"], thresholds=thresholds)))
        assert relaxed.rows == report.rows and relaxed.findings == [] and relaxed.passed()


def _cli(argv):
    """(exit code, stdout, stderr) of one in-process findist call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _run_with_file(subcommand, option, blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(blob, fh)
        return _cli([subcommand, option, path])


_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=4))
_json = st.recursive(_scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)), max_leaves=6)
# over F_5 a coordinate is an integer or a one-integer list; none of these is
_bad_coordinates = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    st.lists(st.integers(), min_size=2, max_size=3), st.just([]),
    st.lists(st.one_of(st.none(), st.text(max_size=2), st.floats(allow_nan=False)), min_size=1, max_size=2),
)
_bad_points = st.one_of(
    _scalars,
    st.dictionaries(st.text(max_size=2), _scalars, max_size=2),
    st.lists(st.integers(0, 4), max_size=3).filter(lambda xy: len(xy) != 2).map(lambda xy: [xy]),
    # a good point, then a pair with one bad coordinate in either slot
    st.tuples(_bad_coordinates, st.integers(0, 4), st.booleans()).map(
        lambda t: [[0, 0], [t[0], t[1]] if t[2] else [t[1], t[0]]]),
)
_bad_fields = st.one_of(
    _scalars.filter(lambda v: not isinstance(v, dict)),
    st.lists(st.integers(), max_size=2),
    st.sampled_from([4, 2, 1, 0, -3, 9, "x", None, [5], 131101]).map(lambda p: {"p": p}),
    st.sampled_from([0, -1, "x", None]).map(lambda r: {"p": 5, "r": r}),
)


def _config_with(key, value):
    blob = make_config(F5, "random", {"size": 4}, seed=1).to_json()
    blob[key] = value
    return blob


# one malformed parameter per generator, next to well-formed ones; over F_5
# an element index lies in 0..4
_bad_index = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=3),
    st.integers(max_value=-1), st.integers(min_value=5), st.lists(st.integers(0, 4), max_size=2),
)


def _bad_indices(count):
    return st.one_of(
        _bad_index.filter(lambda v: not isinstance(v, list)),
        st.lists(st.integers(0, 4), max_size=4).filter(lambda v: len(v) != count),
        st.tuples(st.lists(st.integers(0, 4), min_size=count - 1, max_size=count - 1), _bad_index,
                  st.integers(0, count - 1)).map(lambda t: t[0][:t[2]] + [t[1]] + t[0][t[2]:]),
    )


_bad_size = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=3),
    st.integers(max_value=0), st.integers(min_value=26), st.lists(st.integers(1, 3), max_size=2),
)
_bad_generator_params = st.one_of(
    st.tuples(st.just("on-circle"), st.just({"size": 2}), st.just("center"), _bad_indices(2)),
    st.tuples(st.just("on-circle"), st.just({"size": 2}), st.just("radius_sq"), _bad_index),
    st.tuples(st.just("on-line"), st.just({"size": 2}), st.just("line"), _bad_indices(3)),
    st.tuples(st.just("grid"), st.just({"rows": 2, "cols": 2}), st.sampled_from(["rows", "cols"]), _bad_size),
    st.tuples(st.sampled_from(["random", "on-line", "on-circle", "isotropic-line"]), st.just({"size": 2}),
              st.just("size"), _bad_size),
)


def _generator_config(drawn):
    kind, params, name, value = drawn
    return dict(_config_with("generator", kind), params=dict(params, **{name: value}))


_bad_configs = st.one_of(
    _bad_generator_params.map(_generator_config),
    _json.filter(lambda v: not isinstance(v, dict)),
    st.builds(_config_with, st.just("field"), _bad_fields),
    st.builds(_config_with, st.just("seed"), st.one_of(
        st.none(), st.booleans(), st.floats(), st.text(), st.integers(max_value=-1), st.integers(min_value=2**64))),
    st.builds(_config_with, st.just("generator"), st.one_of(st.none(), st.integers(), st.lists(st.text(), max_size=2))),
    st.builds(_config_with, st.just("params"), st.one_of(
        st.integers().filter(bool), st.text(min_size=1), st.lists(st.integers(), min_size=1))),
    st.builds(_config_with, st.just("checks"), st.one_of(
        st.integers(), st.text(min_size=1), st.lists(st.text().filter(lambda t: t not in CHECKS), min_size=1))),
    st.builds(_config_with, st.just("thresholds"), st.one_of(
        _json.filter(lambda v: not isinstance(v, dict)),
        st.sampled_from([[1, 0], "ab", [1, 2, 3]]).map(lambda v: {"pind_floor": v}))),
    _bad_points.map(lambda pts: dict(_config_with("generator", "explicit"), params={"points": pts})),
)


class TestMalformedInput:
    """Malformed JSON exits 2 with one ``findist:`` line and writes no report."""

    @staticmethod
    def assert_usage_error(result):
        code, out, err = result
        assert code == 2
        assert out == ""
        assert err.startswith("findist: ") and err.endswith("\n") and err.count("\n") == 1

    @given(_bad_points)
    @settings(max_examples=60, deadline=None)
    def test_points_file_with_malformed_points(self, points):
        self.assert_usage_error(_run_with_file("stats", "--points", {"field": F5.to_json(), "points": points}))

    @given(st.one_of(
        _json.filter(lambda v: not isinstance(v, dict)),
        _bad_fields.map(lambda field: {"field": field, "points": [[0, 0]]}),
        st.just({"field": {"p": 5}}),
    ))
    @settings(max_examples=60, deadline=None)
    def test_points_file_with_malformed_blob(self, blob):
        self.assert_usage_error(_run_with_file("verify", "--points", blob))

    @given(_bad_configs)
    @settings(max_examples=150, deadline=None)
    def test_malformed_config(self, blob):
        self.assert_usage_error(_run_with_file("stats", "--config", blob))

    @given(st.one_of(
        _bad_size.filter(lambda v: not isinstance(v, list)),
        st.lists(_bad_size, min_size=1, max_size=2),
        st.lists(st.dictionaries(st.text(max_size=2), st.integers(), max_size=1), min_size=1, max_size=2),
    ))
    @settings(max_examples=40, deadline=None)
    def test_malformed_sweep_sizes(self, sizes):
        blob = make_config(F5, "random", {"sizes": [3]}, seed=1, checks=("sweep",)).to_json()
        blob["params"]["sizes"] = sizes
        self.assert_usage_error(_run_with_file("sweep", "--config", blob))

    def test_reported_generator_case(self):
        blob = {"field": {"p": 7}, "generator": "on-circle", "params": {"size": 3, "center": 5}}
        code, out, err = _run_with_file("stats", "--config", blob)
        assert (code, out) == (2, "")
        assert err == "findist: on-circle: center must list 2 element indices, got 5\n"

    @pytest.mark.parametrize("points", [7, [[1, None]]], ids=["scalar", "null"])
    def test_reported_cases(self, points):
        code, out, err = _run_with_file("stats", "--points", {"field": F7.to_json(), "points": points})
        assert (code, out) == (2, "")
        assert err.startswith("findist: bad point set in ") and err.count("\n") == 1

    def test_wellformed_points_still_run(self):
        blob = {"field": FieldSpec(5, 2).to_json(), "points": [[[1, 2], 3], [0, [4]], [-1, 7]]}
        code, out, err = _run_with_file("stats", "--points", blob)
        assert (code, err) == (0, "")
        assert json.loads(out)["metrics"]["stats"]["size"] == 3


def test_no_bare_assert_in_the_package():
    # python -O strips assert statements, so invariants must raise explicitly
    package = os.path.dirname(os.path.abspath(findist.__file__))
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
            assert not lines, f"{name}: assert at lines {lines}"


def test_no_unused_imports_in_the_package():
    # a name imported into a module and never read there is dead code
    package = os.path.dirname(os.path.abspath(findist.__file__))
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            imported = {
                (alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
                for alias in node.names
            }
            read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            assert imported <= read, f"{name}: unused imports {sorted(imported - read)}"
