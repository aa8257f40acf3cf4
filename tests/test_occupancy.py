"""Differential tests of the index curve-occupancy kernel and the per-set cache.

The object-level pair/triple loops below are the oracles: they key every line
through two points and every circle through three with the geometry module's
own constructors, and collect the points on each curve.  The two circle
passes, the centre sweep and the per-anchor triple scan, are also held equal
to each other, each called directly rather than through the cost rule.

A set is scanned once, at |A|^2, and pruning reads its heavy curves from that
scan, so ``_heavy_curves`` is compared with the oracle at the thresholds
pruning passes; the scan itself is compared at any threshold, down to 0.
"""

import importlib.util
import os
import random
import sys

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from bisector_oracles import isotropic_vectors
import findist
from findist import counting, field, point_checks
from findist.counting import (
    _circle_scan,
    _circle_sweep,
    _curve,
    _curve_scan,
    _heavy_curves,
    _index_coords,
    max_collinear_cocircular,
    prune_curve,
    prune_heavy,
    prune_steps,
    segment_classes,
)
from findist.field import FieldSpec, _index_field
from findist.generators import generate
from findist.geometry import (
    Circle,
    Point,
    PointSet,
    all_points,
    curve_through,
    distance,
    line_through,
    point,
)
from findist.harness import ExperimentConfig, make_config, run

F3 = FieldSpec(3)
F5 = FieldSpec(5)
F7 = FieldSpec(7)
F9 = FieldSpec(3, 2)
F25 = FieldSpec(5, 2)
F31 = FieldSpec(31)
F49 = FieldSpec(7, 2)

SMALL = [F3, F5, F7, F9, F25]
SMALL_IDS = ["F3", "F5", "F7", "F9", "F25"]


def line_occupancies(A):
    hits, curves = {}, {}
    pts = A.points
    for i, a in enumerate(pts):
        for b in pts[i + 1:]:
            line = line_through(a, b)
            hits.setdefault(line.key, set()).update((a, b))
            curves[line.key] = line
    return {key: (curves[key], members) for key, members in hits.items()}


def circle_occupancies(A):
    hits, curves = {}, {}
    pts = A.points
    for i, a in enumerate(pts):
        for j in range(i + 1, len(pts)):
            for k in range(j + 1, len(pts)):
                circle = curve_through((a, pts[j], pts[k]))
                if circle is None or not circle.radius_sq:
                    continue
                hits.setdefault(circle.key, set()).update((a, pts[j], pts[k]))
                curves[circle.key] = circle
    return {key: (curves[key], members) for key, members in hits.items()}


def oracle_occupancy(A):
    """(m, m_line, m_circle) by the object loops."""
    if len(A) < 2:
        return len(A), len(A), 0
    m_line = max(len(members) for _, members in line_occupancies(A).values())
    m_circle = max((len(members) for _, members in circle_occupancies(A).values()), default=0)
    return max(m_line, m_circle), m_line, m_circle


def oracle_heavy(S, orig_sq):
    candidates = []
    for kind, table in ((0, line_occupancies(S)), (1, circle_occupancies(S))):
        for key, (curve, members) in table.items():
            if len(members) ** 3 > orig_sq:
                candidates.append((-len(members), kind, key, curve))
    candidates.sort(key=lambda item: item[:3])
    return [item[3] for item in candidates]


def oracle_prune(A):
    """The curves prune_heavy strips, in order, driven by the oracle list."""
    orig_sq = len(A) ** 2
    current, removed = A, []
    while True:
        heavy = oracle_heavy(current, orig_sq)
        if not heavy:
            return current, removed
        removed.append(heavy[0])
        current = PointSet(current.spec, [p for p in current if not heavy[0].contains(p)])


def fresh_copy(A):
    return PointSet(A.spec, [Point(p.x, p.y) for p in A])


def scanned_curves(A, cube):
    """The curves ``_curve_scan`` lists at any cube, converted as ``_heavy_curves`` converts them."""
    return [_curve(A.spec, kind, key) for _, kind, key in _curve_scan(A, cube)[1]]


def assert_prune_thresholds_match_oracle(A):
    """At |A|^2 on A and on each set the oracle's pruning leaves, _heavy_curves lists the oracle's curves."""
    orig_sq = len(A) ** 2
    current = A
    while True:
        heavy = oracle_heavy(current, orig_sq)
        assert _heavy_curves(fresh_copy(current), orig_sq) == heavy, [p.key for p in current]
        if not heavy:
            return
        current = PointSet(current.spec, [p for p in current if not heavy[0].contains(p)])


def assert_paths_agree(A):
    """The centre sweep and the triple scan give the same m_circle and heavy circles."""
    F, (x, y) = _index_field(A.spec), _index_coords(A)
    for cube in (0, 8, len(A) ** 2):
        sweep_heavy, scan_heavy = {}, {}
        sweep = _circle_sweep(F, A.spec.q, x, y, cube, sweep_heavy)
        scan = _circle_scan(F, A.spec.q, x, y, *np.triu_indices(len(A), 1), cube, scan_heavy)
        assert (sweep, sweep_heavy) == (scan, scan_heavy), (cube, [p.key for p in A])


def assert_matches_oracle(A):
    occ = max_collinear_cocircular(fresh_copy(A))
    assert (occ.m, occ.m_line, occ.m_circle) == oracle_occupancy(A), [p.key for p in A]
    assert _heavy_curves(fresh_copy(A), len(A) ** 2) == oracle_heavy(A, len(A) ** 2), [p.key for p in A]
    for cube in (0, 8):
        assert scanned_curves(A, cube) == oracle_heavy(A, cube), (cube, [p.key for p in A])
    assert_paths_agree(A)


def on_isotropic_circle(spec, size, rng):
    """Points on a circle r^2 = 1 around a centre off the origin, plus the two
    points centre + v for an isotropic v, whose radius vector has norm 0."""
    centre = point(spec, 1, 2)
    ring = [p for p in all_points(spec) if Circle(centre, spec.one()).contains(p)]
    pts = rng.sample(ring, min(size, len(ring)))
    pts += [centre + v for v in isotropic_vectors(spec)[:2]]
    return PointSet(spec, pts)


def point_sets(spec, max_size):
    pts = list(all_points(spec))
    return st.builds(
        lambda idx: PointSet(spec, [pts[i] for i in idx]),
        st.lists(st.integers(0, len(pts) - 1), min_size=0, max_size=max_size),
    )


class TestKernelAgainstOracle:
    @pytest.mark.parametrize("spec", SMALL, ids=SMALL_IDS)
    @pytest.mark.parametrize("size", [0, 1, 2])
    def test_tiny_sets(self, spec, size):
        A = PointSet(spec, list(all_points(spec))[:size])
        assert_matches_oracle(A)
        assert max_collinear_cocircular(A).m == size

    @pytest.mark.parametrize("spec", SMALL, ids=SMALL_IDS)
    def test_collinear_sets(self, spec):
        rng = random.Random(5 + spec.q)
        for direction in ((1, 0), (0, 1), (1, 1), (2, 1)):
            line = [point(spec, 1 + t * direction[0], 2 + t * direction[1]) for t in range(spec.p)]
            A = PointSet(spec, rng.sample(line, rng.randint(3, len(line))))
            assert_matches_oracle(A)
            occ = max_collinear_cocircular(A)
            assert occ.m_line == len(A)

    @pytest.mark.parametrize("spec", SMALL, ids=SMALL_IDS)
    def test_random_sets(self, spec):
        rng = random.Random(97 + spec.q)
        pts = list(all_points(spec))
        for _ in range(12):
            A = PointSet(spec, rng.sample(pts, rng.randint(3, min(14, len(pts)))))
            assert_matches_oracle(A)

    @pytest.mark.parametrize("spec", [F5, F9, F25], ids=["F5", "F9", "F25"])
    def test_isotropic_radius_vectors(self, spec):
        rng = random.Random(13 + spec.q)
        for size in (3, 4, 6):
            assert_matches_oracle(on_isotropic_circle(spec, size, rng))

    def test_every_subset_of_f3(self):
        pts = list(all_points(F3))
        for mask in range(1 << len(pts)):
            assert_matches_oracle(PointSet(F3, [p for i, p in enumerate(pts) if mask >> i & 1]))

    def test_prune_thresholds_on_every_subset_of_f3(self):
        pts = list(all_points(F3))
        for mask in range(1 << len(pts)):
            assert_prune_thresholds_match_oracle(PointSet(F3, [p for i, p in enumerate(pts) if mask >> i & 1]))

    @pytest.mark.parametrize("spec", [F5, F9, F25], ids=["F5", "F9", "F25"])
    def test_no_three_concyclic_points(self, spec):
        # a non-collinear triple on the cone |z - c|^2 = 0 has its circle at r^2 = 0
        centre = point(spec, 1, 2)
        A = PointSet(spec, [p for p in all_points(spec) if not distance(centre, p)])
        assert max_collinear_cocircular(A).m_circle == 0
        assert_matches_oracle(A)

    @given(point_sets(F31, 16))
    @settings(max_examples=30, deadline=None)
    def test_hypothesis_f31(self, A):
        assert_matches_oracle(A)

    @given(point_sets(F49, 14))
    @settings(max_examples=30, deadline=None)
    def test_hypothesis_f49(self, A):
        assert_matches_oracle(A)


class TestCirclePaths:
    @pytest.mark.parametrize("spec", SMALL, ids=SMALL_IDS)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_hypothesis_sets(self, spec, data):
        assert_paths_agree(data.draw(point_sets(spec, 40)))

    def test_f61_random_240(self):
        assert_paths_agree(generate(FieldSpec(61), "random", {"size": 240}, 61))

    @pytest.mark.parametrize("cells", [1, 5000], ids=["row", "rows"])
    def test_a_sweep_in_several_blocks_agrees(self, monkeypatch, cells):
        # one centre row a block, or a few: each block's circle keys carry its offset
        monkeypatch.setattr(field, "CHUNK_CELLS", cells)
        for spec, n in ((F25, 10), (F31, 30)):
            assert_paths_agree(generate(spec, "random", {"size": n}, n))

    @staticmethod
    def refuse(monkeypatch, name):
        def refused(*args):
            raise AssertionError(f"the cost rule took {name}")

        monkeypatch.setattr(counting, name, refused)

    def test_few_points_on_a_large_plane_take_the_scan(self, monkeypatch):
        # the sweep would make q^2 (n + q), about 10^9, cells here
        self.refuse(monkeypatch, "_circle_sweep")
        A = generate(FieldSpec(1009), "random", {"size": 12}, 1009)
        occ = max_collinear_cocircular(fresh_copy(A))
        assert (occ.m, occ.m_line, occ.m_circle) == oracle_occupancy(A)
        for cube in (0, 8):
            assert scanned_curves(A, cube) == oracle_heavy(A, cube)
        assert _heavy_curves(fresh_copy(A), len(A) ** 2) == oracle_heavy(A, len(A) ** 2)

    # the rows of the F_31 benchmark sweep, and every size of the F_25 check
    # set (10 points) and of what its prune step leaves
    @pytest.mark.parametrize("spec, sizes", [(F31, [20, 30]), (F25, range(3, 11))], ids=["F31", "F25"])
    def test_benchmark_sizes_take_the_sweep(self, monkeypatch, spec, sizes):
        self.refuse(monkeypatch, "_circle_scan")
        for n in sizes:
            A = generate(spec, "random", {"size": n}, n)
            occ = max_collinear_cocircular(A)
            assert scanned_curves(A, 0) == oracle_heavy(A, 0)
            assert occ.m_circle == oracle_occupancy(A)[2]


def prune_order_sets(spec):
    """Eight random sets over spec, each with a full line, a circle or nothing added."""
    rng = random.Random(606 + spec.q)
    pts = list(all_points(spec))
    line = [Point(spec.one(), e) for e in spec.elements()]
    circle = [p for p in pts if Circle(point(spec, 2, 1), spec.one()).contains(p)]
    for trial in range(8):
        heavy = (line, circle, [])[trial % 3]
        yield PointSet(spec, rng.sample(pts, rng.randint(2, min(12, len(pts)))) + heavy)


def line_plus_four_sets(spec):
    """Four sets over spec: four random points and a full line."""
    rng = random.Random(707 + spec.q)
    pts = list(all_points(spec))
    for _ in range(4):
        line = [Point(e, spec.one()) for e in spec.elements()]
        yield PointSet(spec, rng.sample(pts, 4) + line)


# 13 points on two crossing lines of F_7: 7^3 > 13^2, and the second line
# still holds 6 once the first is gone, 6^3 > 13^2
TWO_LINES_F7 = PointSet(F7, [point(F7, 1, t) for t in range(7)] + [point(F7, t, 1) for t in range(7)])


class TestPruneOrder:
    @pytest.mark.parametrize("spec", [F5, F7, F9, F25], ids=["F5", "F7", "F9", "F25"])
    def test_prune_heavy_matches_oracle(self, spec):
        total_steps = 0
        for A in prune_order_sets(spec):
            expected, removed = oracle_prune(A)
            pruned, steps = prune_heavy(A)
            assert pruned == expected
            assert steps == len(removed)
            total_steps += steps
        assert total_steps

    @pytest.mark.parametrize("spec", [F7, F9, F25], ids=["F7", "F9", "F25"])
    def test_check_prune_removes_oracle_curves(self, spec):
        for A in line_plus_four_sets(spec):
            config = make_config(spec, "explicit", {"points": [p.to_json() for p in A]}, checks=("prune",))
            _, metrics, _, _ = point_checks._check_prune(A, config)
            _, removed = oracle_prune(A)
            assert removed, "the set must carry a heavy curve"
            assert metrics["removed"] == [curve.to_json() for curve in removed]

    def test_two_heavy_lines_take_two_steps(self):
        spec, A = F7, TWO_LINES_F7
        expected, removed = oracle_prune(A)
        assert len(removed) == 2
        current = A
        for curve, pruned, check in prune_steps(A):
            assert pruned == PointSet(spec, [p for p in current if not curve.contains(p)])
            assert (pruned, check) == prune_curve(current, curve)
            current = pruned
        assert current == expected == prune_heavy(A)[0]
        config = make_config(spec, "explicit", {"points": [p.to_json() for p in A]}, checks=("prune",))
        findings, metrics, _, _ = point_checks._check_prune(A, config)
        assert metrics["removed"] == [curve.to_json() for curve in removed]
        assert [f["name"] for f in findings[:2]] == ["prune-triple-bound[step=0]", "prune-triple-bound[step=1]"]

    @pytest.mark.parametrize("spec", [F5, F7, F9, F25], ids=["F5", "F7", "F9", "F25"])
    def test_heavy_curves_at_every_prune_threshold(self, spec):
        sets = list(prune_order_sets(spec))
        if spec is not F5:
            sets += line_plus_four_sets(spec)
        if spec is F7:
            sets.append(TWO_LINES_F7)
        for A in sets:
            assert_prune_thresholds_match_oracle(A)


def _checks_f25_config():
    """The input of the checks-f25 benchmark workload at its default seed, built by the benchmark's own code."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclass looks itself up
    spec.loader.exec_module(workloads)
    return workloads.build_config(findist, "checks-f25", workloads.WORKLOADS["checks-f25"].default_seed)


class TestPerSetCache:
    @pytest.mark.parametrize("config", [
        _checks_f25_config,
        lambda: make_config(F31, "random", {"size": 40}, seed=31, checks=("stats", "verify", "reduce", "prune")),
    ], ids=["checks-f25", "f31-random-40"])
    def test_one_curve_scan_per_point_set(self, monkeypatch, config):
        # stats, verify and reduce read the occupancy and prune the heavy curves of one scan per set
        config = config()
        assert config.checks == ("stats", "verify", "reduce", "prune")
        scanned = []
        scan = counting._curve_scan

        def counted(A, *args):
            scanned.append(A)
            return scan(A, *args)

        monkeypatch.setattr(counting, "_curve_scan", counted)
        report = run(config)
        assert report.passed()
        # the input and each set a prune step leaves
        assert len(scanned) == 1 + report.metrics["prune"]["steps"]
        assert len({id(A) for A in scanned}) == len(scanned)

    @pytest.mark.parametrize("spec", [F7, F25], ids=["F7", "F25"])
    def test_cached_equals_fresh(self, spec):
        rng = random.Random(909 + spec.q)
        A = PointSet(spec, rng.sample(list(all_points(spec)), 12))
        occ, classes = max_collinear_cocircular(A), segment_classes(A)
        assert max_collinear_cocircular(A) is occ
        assert segment_classes(A) is classes
        B = fresh_copy(A)
        assert B == A and B is not A
        assert max_collinear_cocircular(B) == occ
        fresh = segment_classes(B)
        assert fresh is not classes
        assert fresh.q_value == classes.q_value
        assert np.array_equal(fresh.sizes, classes.sizes)
