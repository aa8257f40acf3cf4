"""Tests for the counting oracles: spectra, energies, identities, pruning."""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from bisector_oracles import (
    distances,
    entries,
    locus_bisector_stats,
    object_segment_classes,
    per_point,
    per_point_nonzero,
    record_for,
    relation_holds,
    sweep_bisector_stats,
)
from findist.counting import (
    IsoscelesCounts,
    _index_coords,
    bisector_stats,
    distance_stats,
    isosceles_count,
    max_collinear_cocircular,
    prune_curve,
    prune_heavy,
    segment_classes,
    verify_identities,
)
from findist.field import FieldSpec
from findist.geometry import (
    Circle,
    Line,
    Point,
    PointSet,
    all_lines,
    all_points,
    distance,
    point,
    reflect,
)

F3 = FieldSpec(3)
F5 = FieldSpec(5)
F7 = FieldSpec(7)
F9 = FieldSpec(3, 2)
F11 = FieldSpec(11)
F13 = FieldSpec(13)
F25 = FieldSpec(5, 2)

COLLINEAR_F7 = PointSet(F7, [point(F7, i, 0) for i in range(3)])
RIGHT_ANGLE_F7 = PointSet(F7, [point(F7, 0, 0), point(F7, 1, 0), point(F7, 0, 1)])
MIRROR_PAIR_F5 = PointSet(F5, [point(F5, 0, 0), point(F5, 2, 0)])
GRID_F7 = PointSet(F7, [point(F7, x, y) for x in range(3) for y in range(3)])


def subsets(spec, max_size=10):
    pts = list(all_points(spec))
    return st.builds(
        lambda idx: PointSet(spec, [pts[i] for i in idx]),
        st.lists(st.integers(0, len(pts) - 1), min_size=1, max_size=max_size),
    )


def brute_isosceles(A):
    t = t_all = 0
    for a in A:
        for b in A:
            for b2 in A:
                if distance(a, b) != distance(a, b2) or not distance(b, b2):
                    continue
                t_all += 1
                if distance(a, b):
                    t += 1
    return t, t_all


def brute_b_star_energy(A):
    total = 0
    for line in all_lines(A.spec):
        if line.is_isotropic():
            continue
        hits = sum(1 for a in A if not line.contains(a) and reflect(line, a) in A)
        total += hits * hits
    return total


def brute_q(A):
    count = 0
    for a in A:
        for b in A:
            if not distance(a, b):
                continue
            for c in A:
                for e in A:
                    if distance(c, e) == distance(a, b):
                        count += 1
    return count


def brute_curve_max(A):
    spec = A.spec
    best_line = 0
    for line in all_lines(spec):
        best_line = max(best_line, sum(1 for a in A if line.contains(a)))
    best_circle = 0
    for center in all_points(spec):
        for r in spec.elements():
            if not r:
                continue
            circle = Circle(center, r)
            best_circle = max(best_circle, sum(1 for a in A if circle.contains(a)))
    return best_line, best_circle


class TestDistanceStats:
    def test_full_plane_f3(self):
        A = PointSet(F3, all_points(F3))
        stats = distance_stats(A)
        assert {e.index for e in distances(A)} == {0, 1, 2}
        assert stats.pind == 3

    def test_collinear_f7(self):
        stats = distance_stats(COLLINEAR_F7)
        assert {e.index for e in per_point(COLLINEAR_F7)[point(F7, 0, 0)]} == {0, 1, 4}
        assert stats.pind == 3
        assert stats.pind_nonzero == 2
        assert stats.nonzero_pairs == 6

    def test_singleton(self):
        A = PointSet(F7, [point(F7, 3, 4)])
        stats = distance_stats(A)
        assert {e.index for e in distances(A)} == {0}
        assert stats.pind == 1
        assert stats.pind_nonzero == 0
        assert stats.nonzero_pairs == 0

    @given(subsets(F9, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_union_and_max_invariants(self, A):
        stats = distance_stats(A)
        union = set()
        for a in A:
            union |= per_point(A)[a]
        assert union == set(distances(A))
        assert stats.pind == max(len(per_point(A)[a]) for a in A)
        assert stats.pind_nonzero == max(len(per_point_nonzero(A, a)) for a in A)
        assert stats.distinct_distances == len(distances(A))

    def test_the_record_holds_only_the_counts(self):
        # the spectra are read off the set's tables by the oracles, never kept in the record
        stats = distance_stats(COLLINEAR_F7)
        assert isinstance(stats, tuple)
        assert stats == (3, 2, 6, 3)
        assert stats._fields == ("pind", "pind_nonzero", "nonzero_pairs", "distinct_distances")
        assert len(per_point(COLLINEAR_F7)) == 3 and len(distances(COLLINEAR_F7)) == 3


def all_subsets(spec):
    pts = list(all_points(spec))
    for mask in itertools.product((False, True), repeat=len(pts)):
        yield PointSet(spec, [p for p, keep in zip(pts, mask) if keep])


def assert_sizes_match_objects(A):
    classes, objects = segment_classes(A), object_segment_classes(A)
    expected = np.zeros(A.spec.q, dtype=np.int64)
    for r, segs in objects.items():
        expected[r.index] = len(segs)
    assert np.array_equal(classes.sizes, expected)
    listed = sorted((r.index, len(segs)) for r, segs in objects.items() if r)
    assert [(r.index, size) for r, size in classes.nonzero_sizes()] == listed


class TestSegmentClasses:
    def test_collinear_f7(self):
        classes = segment_classes(COLLINEAR_F7)
        assert {r.index: size for r, size in classes.nonzero_sizes()} == {1: 4, 4: 2}
        assert classes.sizes[0] == 3
        assert classes.q_value == 20

    def test_empty(self):
        for size in (0, 1):
            classes = segment_classes(PointSet(F7, [point(F7, 3, 4)][:size]))
            assert classes.q_value == 0
            assert classes.nonzero_sizes() == []
            assert classes.sizes.tolist() == [size] + [0] * 6

    def test_distinct_distances_structure(self):
        # all pairwise distances distinct and nonzero: every class is one
        # unordered pair, so Q = 4 * C(|A|, 2)
        A = PointSet(F11, [point(F11, 0, 0), point(F11, 1, 0), point(F11, 3, 1)])
        nonzero = segment_classes(A).nonzero_sizes()
        assert [size for _, size in nonzero] == [2, 2, 2]
        assert segment_classes(A).q_value == 4 * 3

    def test_zero_class_holds_diagonal(self):
        # the zero class is the diagonal plus the pairs on isotropic lines:
        # none for the mirror pair; over F_5, (0, 0) and (1, 2) add one each way
        assert segment_classes(MIRROR_PAIR_F5).sizes[0] == 2
        isotropic = PointSet(F5, [point(F5, 0, 0), point(F5, 1, 2), point(F5, 1, 0)])
        assert segment_classes(isotropic).sizes[0] == 3 + 2
        for A in (MIRROR_PAIR_F5, isotropic):
            assert_sizes_match_objects(A)

    def test_every_subset_of_f3(self):
        for A in all_subsets(F3):
            assert_sizes_match_objects(A)

    @given(subsets(F5, max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_q_against_quadruple_loop(self, A):
        assert segment_classes(A).q_value == brute_q(A)
        assert_sizes_match_objects(A)

    @given(st.one_of(*(subsets(spec, max_size=12) for spec in (F9, F13, F25))))
    @settings(max_examples=60, deadline=None)
    def test_q_is_sum_of_squares(self, A):
        classes = segment_classes(A)
        assert classes.q_value == sum(size ** 2 for _, size in classes.nonzero_sizes())
        assert_sizes_match_objects(A)

    def test_largest_takes_the_least_length_among_equals(self):
        # every class of this set has two pairs, so the least nonzero length wins
        A = PointSet(F11, [point(F11, 0, 0), point(F11, 1, 0), point(F11, 3, 1)])
        assert segment_classes(A).largest() == segment_classes(A).nonzero_sizes()[0][0]
        for size in (0, 1):
            assert segment_classes(PointSet(F7, [point(F7, 3, 4)][:size])).largest() is None

    @given(st.one_of(*(subsets(spec, max_size=12) for spec in (F7, F9, F13))))
    @settings(max_examples=60, deadline=None)
    def test_largest_is_the_sweeps_class_rule(self, A):
        nonzero = segment_classes(A).nonzero_sizes()
        expected = max(nonzero, key=lambda item: (item[1], -item[0].index))[0] if nonzero else None
        assert segment_classes(A).largest() == expected


def test_index_coords_are_read_only_and_built_once():
    x, y = _index_coords(COLLINEAR_F7)
    assert _index_coords(COLLINEAR_F7)[0] is x
    assert [x.tolist(), y.tolist()] == [[p.x.index for p in COLLINEAR_F7], [p.y.index for p in COLLINEAR_F7]]
    for column in (x, y):
        with pytest.raises(ValueError):
            column[0] = 1


class TestIsoscelesCount:
    def test_right_angle_f7(self):
        assert isosceles_count(RIGHT_ANGLE_F7).t == 2

    def test_collinear_f7(self):
        counts = isosceles_count(COLLINEAR_F7)
        assert counts.t == 2
        assert counts.t_all == 2

    def test_two_points(self):
        A = PointSet(F7, [point(F7, 0, 0), point(F7, 2, 3)])
        assert isosceles_count(A).t == 0

    def test_empty_and_singleton(self):
        for size in (0, 1):
            assert isosceles_count(PointSet(F5, [point(F5, 1, 2)][:size])) == IsoscelesCounts(0, 0)

    def test_isotropic_rays(self):
        # over F_5, (1, 2) and (1, 3) lie on the two isotropic rays through
        # the origin: zero legs with a nonzero base, one ordered pair each way
        A = PointSet(F5, [point(F5, 0, 0), point(F5, 1, 2), point(F5, 1, 3)])
        assert isosceles_count(A) == IsoscelesCounts(0, 2)
        assert brute_isosceles(A) == (0, 2)

    @pytest.mark.parametrize("spec", [F5, F7, F9], ids=["F5", "F7", "F9"])
    def test_fast_path_matches_enumeration(self, spec):
        rng = random.Random(1123 + spec.q)
        pts = list(all_points(spec))
        for _ in range(25):
            A = PointSet(spec, rng.sample(pts, rng.randint(1, 12)))
            counts = isosceles_count(A)
            assert (counts.t, counts.t_all) == brute_isosceles(A)
            assert counts.t <= counts.t_all

    def test_every_subset_of_f3(self):
        for A in all_subsets(F3):
            counts = isosceles_count(A)
            assert (counts.t, counts.t_all) == brute_isosceles(A)

    @given(st.one_of(*(subsets(spec, max_size=10) for spec in (F5, F9, F13, F25))))
    @settings(max_examples=100, deadline=None)
    def test_against_enumeration_on_drawn_sets(self, A):
        counts = isosceles_count(A)
        assert (counts.t, counts.t_all) == brute_isosceles(A)


class TestBisectorStats:
    def test_mirror_pair_f5(self):
        stats = bisector_stats(MIRROR_PAIR_F5)
        axis = Line(F5.one(), F5.zero(), F5.one())
        assert record_for(MIRROR_PAIR_F5, axis).b_star == 2
        assert stats.b_star_energy == 4
        assert stats.b_energy == 4
        nonzero = [rec for rec in entries(MIRROR_PAIR_F5).values() if rec.b_star]
        assert [rec.line for rec in nonzero] == [axis]

    def test_empty(self):
        stats = bisector_stats(PointSet(F5, []))
        assert stats.b_star_energy == 0
        assert stats.b_energy == 0

    def test_relation_on_isotropic_free_field(self):
        stats = bisector_stats(COLLINEAR_F7)
        assert stats.n_isotropic == 0
        assert stats.relation_universal is True

    def test_relation_on_isotropic_line_through_origin(self):
        # (t, 2t) has norm t^2 * (1 + 4) = 0 in F_5: the whole set is isotropic
        A = PointSet(F5, [point(F5, t, 2 * t) for t in range(5)])
        stats = bisector_stats(A)
        assert stats.cone_count == 5
        assert stats.n_isotropic == 4
        spine = Line(F5.element(2), -F5.one(), F5.zero())
        rec = record_for(A, spine)
        assert rec.incidence == 5
        assert rec.b == 20 and rec.b_star == 0
        assert relation_holds(stats, rec)
        # every point of A anchors the same four partners, so the affine
        # relation holds on every line of the plane
        assert stats.relation_universal is True

    def test_relation_fails_off_the_model_family(self):
        # (1, 2) is the only nonzero isotropic point, but (1, 0) anchors no
        # partner, so lines through (1, 0) alone violate b = i * N + b_star
        A = PointSet(F5, [point(F5, 0, 0), point(F5, 1, 2), point(F5, 1, 0)])
        stats = bisector_stats(A)
        assert stats.n_isotropic == 1
        assert stats.relation_universal is False

    @pytest.mark.parametrize("spec", [F5, F7, F9], ids=["F5", "F7", "F9"])
    def test_strategies_agree(self, spec):
        # the table against both loops it replaced: the reflection sweep over
        # every line and the bisector-locus enumeration
        rng = random.Random(5150 + spec.q)
        pts = list(all_points(spec))
        for _ in range(20):
            A = PointSet(spec, rng.sample(pts, rng.randint(1, 10)))
            stats = bisector_stats(A)
            sweep = sweep_bisector_stats(A)
            locus = locus_bisector_stats(A)
            assert stats.b_energy == sweep.b_energy == locus.b_energy
            assert stats.b_star_energy == sweep.b_star_energy == locus.b_star_energy
            assert stats.b_star_energy == brute_b_star_energy(A)
            assert stats.relation_universal is sweep.relation_universal
            for key, rec in entries(A).items():
                assert sweep.entries[key] == rec

    @given(subsets(F9, max_size=9))
    @settings(max_examples=30, deadline=None)
    def test_first_moment_is_pair_count(self, A):
        first_moment = sum(rec.b_star for rec in entries(A).values())
        assert first_moment == distance_stats(A).nonzero_pairs

    @given(subsets(F5, max_size=9))
    @settings(max_examples=30, deadline=None)
    def test_b_dominates_b_star(self, A):
        stats = bisector_stats(A)
        for rec in entries(A).values():
            assert rec.b >= rec.b_star
        assert stats.b_energy >= stats.b_star_energy


class TestCurveOccupancy:
    def test_grid_f7(self):
        occupancy = max_collinear_cocircular(GRID_F7)
        assert occupancy.m_line == 3
        assert occupancy.m_circle == 4
        assert occupancy.m == 4

    def test_collinear(self):
        occupancy = max_collinear_cocircular(COLLINEAR_F7)
        assert occupancy.m_line == len(COLLINEAR_F7)

    @pytest.mark.parametrize("size", [0, 1, 2])
    def test_tiny_sets(self, size):
        A = PointSet(F7, [point(F7, i, 0) for i in range(size)])
        assert max_collinear_cocircular(A).m == size

    @pytest.mark.parametrize("spec", [F3, F5, F7, F9, F25], ids=["F3", "F5", "F7", "F9", "F25"])
    def test_against_full_curve_sweep(self, spec):
        rng = random.Random(31 + spec.q)
        pts = list(all_points(spec))
        for _ in range(10):
            A = PointSet(spec, rng.sample(pts, rng.randint(3, 9)))
            occupancy = max_collinear_cocircular(A)
            line_max, circle_max = brute_curve_max(A)
            assert occupancy.m_line == line_max
            # triple accumulation only sees circles with 3+ hits
            if circle_max >= 3:
                assert occupancy.m_circle == circle_max
            else:
                assert occupancy.m_circle == 0
            assert occupancy.m == max(line_max, occupancy.m_circle)


class TestVerifyIdentities:
    def test_report_shape(self):
        report = verify_identities(MIRROR_PAIR_F5)
        names = [entry["name"] for entry in report]
        assert names == [
            "cone-second-moment-exact",
            "cone-second-moment-stated",
            "distance-quadruple-bound",
            "pinned-line-bound",
            "isosceles-energy-bound",
            "reflection-energy-decomposition",
        ]
        for entry in report:
            assert set(entry) >= {"name", "lhs", "rhs", "relation", "pass"}
            assert entry["pass"] is True

    def test_collinear_f7_values(self):
        report = {entry["name"]: entry for entry in verify_identities(COLLINEAR_F7)}
        quadruple = report["distance-quadruple-bound"]
        assert (quadruple["lhs"], quadruple["rhs"]) == (20, 24)
        pinned = report["pinned-line-bound"]
        assert (pinned["lhs"], pinned["rhs"]) == (12, 33)
        stated = report["cone-second-moment-stated"]
        assert stated["gap"] == 9 - 6

    def test_mirror_pair_decomposition(self):
        report = {entry["name"]: entry for entry in verify_identities(MIRROR_PAIR_F5)}
        decomposition = report["reflection-energy-decomposition"]
        assert decomposition["lhs"] == 4
        assert decomposition["rhs"] == 4
        assert report["distance-quadruple-bound"]["equality"] is True

    @pytest.mark.parametrize("spec", [F5, F7, F9, F11], ids=["F5", "F7", "F9", "F11"])
    def test_identities_hold_on_random_sets(self, spec):
        rng = random.Random(2718 + spec.q)
        pts = list(all_points(spec))
        for _ in range(12):
            A = PointSet(spec, rng.sample(pts, rng.randint(1, min(14, len(pts)))))
            for entry in verify_identities(A):
                assert entry["pass"], (spec.q, entry, [p.key for p in A])


class TestPruneCurve:
    def test_line_with_outlier_f11(self):
        A = PointSet(F11, [point(F11, i, 0) for i in range(5)] + [point(F11, 0, 1)])
        gamma = Line(F11.zero(), F11.one(), F11.zero())
        B, check = prune_curve(A, gamma)
        assert B.points == (point(F11, 0, 1),)
        assert check["lhs"] == 10
        assert check["rhs"] == 0 + 8 * 36
        assert check["pass"] is True

    def test_disjoint_curve(self):
        gamma = Line(F7.one(), F7.zero(), F7.element(5))
        B, check = prune_curve(COLLINEAR_F7, gamma)
        assert B == COLLINEAR_F7
        assert check["lhs"] == isosceles_count(B).t
        assert check["rhs"] == check["lhs"] + 8 * 9
        assert check["pass"] is True

    def test_everything_on_curve(self):
        gamma = Line(F7.zero(), F7.one(), F7.zero())
        B, check = prune_curve(COLLINEAR_F7, gamma)
        assert len(B) == 0
        assert check["pass"] is True

    def test_circle_removal(self):
        circle = Circle(point(F7, 0, 0), F7.one())
        A = PointSet(F7, [point(F7, 1, 0), point(F7, 0, 1), point(F7, 3, 3)])
        B, check = prune_curve(A, circle)
        assert B.points == (point(F7, 3, 3),)
        assert check["pass"] is True


class TestPruneHeavy:
    def test_grid_survives(self):
        pruned, steps = prune_heavy(GRID_F7)
        assert pruned == GRID_F7
        assert steps == 0

    def test_line_with_outlier(self):
        A = PointSet(F11, [point(F11, i, 0) for i in range(5)] + [point(F11, 0, 1)])
        pruned, steps = prune_heavy(A)
        assert steps == 1
        assert pruned.points == (point(F11, 0, 1),)

    def test_empty(self):
        pruned, steps = prune_heavy(PointSet(F7, []))
        assert len(pruned) == 0
        assert steps == 0

    @pytest.mark.parametrize("spec", [F7, F11], ids=["F7", "F11"])
    def test_postconditions_on_random_sets(self, spec):
        rng = random.Random(818 + spec.q)
        pts = list(all_points(spec))
        for _ in range(10):
            A = PointSet(spec, rng.sample(pts, rng.randint(1, 16)))
            pruned, steps = prune_heavy(A)
            threshold_sq = len(A) ** 2
            line_max, circle_max = brute_curve_max(pruned)
            assert line_max ** 3 <= threshold_sq
            assert circle_max ** 3 <= threshold_sq
            cube_root = 0
            while cube_root ** 3 < len(A):
                cube_root += 1
            assert steps <= cube_root + 1
