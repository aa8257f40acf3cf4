"""Differential tests of the bisector table against the object-level oracles.

``bisector_stats``, ``axial_pair_count``, ``epsilon_term`` and the apex
moments of ``verify_identities`` all read one cached table per point set;
each is compared here with the loop it replaced (see ``bisector_oracles``).
Every class's axial count and epsilon come from one grouped pass over that
table, ``incidence._axial_counts``: bin r of it is compared with the key
loop for every nonzero r of the field, absent classes included, and bin 0
with the grouped epsilon loop.
"""

import collections
import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

import bisector_oracles
from bisector_oracles import (
    apex_moments,
    brute_axial_pairs,
    distances,
    entries,
    line_from_key,
    locus_bisector_stats,
    loop_axial_pair_count,
    loop_distance_stats,
    loop_epsilon_value,
    per_point,
    record_for,
    sweep_bisector_stats,
)
from findist import counting, field, incidence
from findist.counting import (
    bisector_stats,
    bisector_table,
    distance_stats,
    pinned_profile,
    segment_classes,
    verify_identities,
)
from findist.field import FieldSpec
from findist.generators import generate
from findist.geometry import Line, PointSet, all_lines, all_points, distance, equidistant_line, point
from findist.harness import make_config, run
from findist.point_checks import config_point_set
from findist.incidence import axial_pair_count, claim_reduction, epsilon_term
from incidence_oracles import lift_point_set

F3 = FieldSpec(3)
F5 = FieldSpec(5)
F7 = FieldSpec(7)
F9 = FieldSpec(3, 2)
F13 = FieldSpec(13)
F25 = FieldSpec(5, 2)
F31 = FieldSpec(31)
F49 = FieldSpec(7, 2)

# no non-isotropic axis over F_3 survives the fixed points of its largest class
LIFT_SET_F3 = PointSet(F3, [point(F3, 0, 0), point(F3, 0, 1), point(F3, 1, 0),
                            point(F3, 2, 1), point(F3, 2, 2)])


def random_sets(spec, count, max_size, seed):
    rng = random.Random(seed)
    pts = list(all_points(spec))
    return [PointSet(spec, rng.sample(pts, rng.randint(1, max_size))) for _ in range(count)]


def special_sets(spec, seed):
    """On-circle sets, and over q = 1 mod 4 isotropic-line sets alone and mixed with random points."""
    sets = [generate(spec, "on-circle", {"size": 4, "center": [1, 2], "radius_sq": 1}, seed)]
    if spec.chi_minus_one() == 1:
        line = generate(spec, "isotropic-line", {"size": 5}, seed)
        scattered = generate(spec, "random", {"size": 4}, seed + 1)
        sets += [line, PointSet(spec, list(line) + list(scattered))]
    return sets


def sets_over(spec, count, max_size, seed):
    return random_sets(spec, count, max_size, seed) + special_sets(spec, seed)


def subsets(spec, max_size):
    pts = list(all_points(spec))
    return st.builds(
        lambda idx: PointSet(spec, [pts[i] for i in idx]),
        st.lists(st.integers(0, len(pts) - 1), min_size=1, max_size=max_size),
    )


def all_subsets(spec):
    pts = list(all_points(spec))
    for mask in range(2 ** len(pts)):
        yield PointSet(spec, [p for i, p in enumerate(pts) if mask >> i & 1])


def assert_every_class_matches_the_key_loop(A):
    """Every nonzero r of the field, present or not, and epsilon from the same pass."""
    present = {r for r, _ in segment_classes(A).nonzero_sizes()}
    for r in A.spec.elements():
        if r:
            count = axial_pair_count(A, r)
            assert count == loop_axial_pair_count(A, r), r
            assert r in present or count == 0
    assert epsilon_term(A).value == loop_epsilon_value(A)


def assert_stats_match_sweep(A):
    stats = bisector_stats(A)
    oracle = sweep_bisector_stats(A)
    for line in all_lines(A.spec):
        assert record_for(A, line) == oracle.entries[line.key], line
    assert stats.b_energy == oracle.b_energy
    assert stats.b_star_energy == oracle.b_star_energy
    assert stats.cone_count == oracle.cone_count
    assert stats.n_isotropic == oracle.n_isotropic
    assert stats.relation_universal is oracle.relation_universal
    # entries hold exactly the lines with a point or a reflection pair, in all_lines order
    live = [key for key, rec in oracle.entries.items() if rec.incidence or rec.b_star]
    assert list(entries(A)) == live


class TestBisectorTable:
    @pytest.mark.parametrize("spec", [F5, F9, F25], ids=["F5", "F9", "F25"])
    def test_keys_and_distances_match_the_geometry(self, spec):
        for A in sets_over(spec, 4, 8, 11 + spec.q):
            table = bisector_table(A)
            pts = A.points
            for (i, a), (j, b) in itertools.product(enumerate(pts), repeat=2):
                d = a - b
                assert table.dist[i, j] == d.norm_sq().index
                if a == b or not d.norm_sq():
                    assert table.keys[i, j] == -1
                else:
                    key = int(table.keys[i, j])
                    assert line_from_key(spec, key) == equidistant_line(a, b)

    def test_key_order_is_all_lines_order(self):
        for spec in (F5, F9):
            lines = list(all_lines(spec))
            keys = [spec.q * spec.q + line.c.index if not line.n1 else line.n2.index * spec.q + line.c.index
                    for line in lines]
            assert keys == list(range(spec.q * spec.q + spec.q))
            assert [line_from_key(spec, k) for k in keys] == lines


class TestBisectorStats:
    def test_every_subset_of_f3(self):
        for A in all_subsets(F3):
            assert_stats_match_sweep(A)

    @pytest.mark.parametrize("spec", [F5, F7, F9, F25], ids=["F5", "F7", "F9", "F25"])
    def test_random_and_special_sets(self, spec):
        count = 4 if spec is F25 else 12
        for A in sets_over(spec, count, 10, 300 + spec.q):
            assert_stats_match_sweep(A)

    @pytest.mark.parametrize("spec", [F5, F9, F25], ids=["F5", "F9", "F25"])
    def test_locus_oracle_agrees_on_its_lines(self, spec):
        for A in sets_over(spec, 4, 9, 700 + spec.q):
            stats, locus = bisector_stats(A), locus_bisector_stats(A)
            assert (stats.b_energy, stats.b_star_energy) == (locus.b_energy, locus.b_star_energy)
            for rec in locus.entries.values():
                assert record_for(A, rec.line) == rec

    def test_empty_and_singleton(self):
        for A in (PointSet(F5, []), PointSet(F5, [point(F5, 1, 2)])):
            assert_stats_match_sweep(A)

    @given(subsets(F31, max_size=8))
    @settings(max_examples=15, deadline=None)
    def test_hypothesis_f31(self, A):
        assert_stats_match_sweep(A)

    @given(subsets(F49, max_size=7))
    @settings(max_examples=8, deadline=None)
    def test_hypothesis_f49(self, A):
        assert_stats_match_sweep(A)


class TestAxialPairCount:
    @pytest.mark.parametrize("spec", [F5, F7, F9, F25], ids=["F5", "F7", "F9", "F25"])
    def test_against_key_loop_and_line_sweep(self, spec):
        for A in sets_over(spec, 5, 8, 1500 + spec.q):
            assert_every_class_matches_the_key_loop(A)
            if spec.q <= 9:
                for r, _ in segment_classes(A).nonzero_sizes():
                    assert axial_pair_count(A, r) == brute_axial_pairs(A, r)

    def test_every_subset_of_f3(self):
        for A in all_subsets(F3):
            assert_every_class_matches_the_key_loop(A)

    @given(subsets(F13, max_size=10))
    @settings(max_examples=15, deadline=None)
    def test_hypothesis_f13(self, A):
        assert_every_class_matches_the_key_loop(A)

    @given(subsets(F25, max_size=10))
    @settings(max_examples=10, deadline=None)
    def test_hypothesis_f25(self, A):
        assert_every_class_matches_the_key_loop(A)

    @pytest.mark.parametrize("spec", [F9, F13, F25], ids=["F9", "F13", "F25"])
    def test_one_line_per_block(self, spec, monkeypatch):
        # each block gathers a single line's dist[M_L x M_L]
        sets = sets_over(spec, 3, 12, 1700 + spec.q) + [generate(spec, "random", {"size": 40}, spec.q)]
        default = [incidence._axial_counts(A) for A in sets]
        monkeypatch.setattr(field, "CHUNK_CELLS", 1)
        for A, bins in zip(sets, default):
            assert incidence._axial_counts(A).tolist() == bins.tolist()
            assert_every_class_matches_the_key_loop(PointSet(spec, A.points))

    def test_on_the_lifted_copy(self):
        # claim_reduction counts on the F_{q^2} copy when no base axis is valid,
        # as for LIFT_SET_F3
        for A in random_sets(F3, 4, 6, 2103) + random_sets(F5, 4, 6, 2105) + [LIFT_SET_F3]:
            lifted, embed = lift_point_set(A)
            for r, _ in segment_classes(A).nonzero_sizes():
                count = axial_pair_count(lifted, embed(r))
                assert count == loop_axial_pair_count(lifted, embed(r))
                assert count == axial_pair_count(A, r)


class TestEpsilonTerm:
    @pytest.mark.parametrize("spec", [F5, F9, F13, F25], ids=["F5", "F9", "F13", "F25"])
    def test_against_grouped_loop(self, spec):
        for A in sets_over(spec, 6, 10, 4000 + spec.q):
            assert epsilon_term(A).value == loop_epsilon_value(A)

    def test_every_subset_of_f3(self):
        for A in all_subsets(F3):
            assert epsilon_term(A).value == loop_epsilon_value(A)


class TestApexHistograms:
    @pytest.mark.parametrize("spec", [F5, F7, F9, F25], ids=["F5", "F7", "F9", "F25"])
    def test_verify_moments_against_histogram_loop(self, spec):
        for A in sets_over(spec, 6, 10, 5000 + spec.q) + [PointSet(spec, [])]:
            records = {rec["name"]: rec for rec in verify_identities(A)}
            moment, max_cone0 = apex_moments(A)
            assert records["cone-second-moment-exact"]["lhs"] == moment
            assert records["pinned-line-bound"]["max_zero_cone_occupancy"] == max_cone0

    @pytest.mark.parametrize("spec", [F5, F7, F9, F25], ids=["F5", "F7", "F9", "F25"])
    def test_distance_stats_against_histogram_loop(self, spec):
        for A in sets_over(spec, 6, 10, 5100 + spec.q) + [PointSet(spec, [])]:
            stats = distance_stats(A)
            got = (per_point(A), distances(A), stats.pind, stats.pind_nonzero, stats.nonzero_pairs)
            assert got == loop_distance_stats(A)

    @pytest.mark.parametrize("spec", [F5, F7, F9, F25], ids=["F5", "F7", "F9", "F25"])
    def test_pinned_profile_against_histogram_loop(self, spec):
        for A in sets_over(spec, 6, 10, 5200 + spec.q) + [PointSet(spec, [])]:
            profile = pinned_profile(A)
            got = list(zip(*(col.tolist() for col in profile)))
            want = sorted(
                (i, r, n)
                for i, a in enumerate(A.points)
                for r, n in collections.Counter(distance(a, b).index for b in A.points).items()
            )
            assert got == want

    def test_distance_stats_on_every_subset_of_f3(self):
        for A in all_subsets(F3):
            stats = distance_stats(A)
            got = (per_point(A), distances(A), stats.pind, stats.pind_nonzero, stats.nonzero_pairs)
            assert got == loop_distance_stats(A)


class TestPerSetCache:
    def test_one_table_per_set_and_equal_values_on_an_equal_set(self, monkeypatch):
        calls = []
        build = counting._bisector_table

        def counted(A):
            calls.append(A)
            return build(A)

        monkeypatch.setattr(counting, "_bisector_table", counted)
        A = generate(F25, "isotropic-line", {"size": 6}, 3)
        stats = bisector_stats(A)
        verify_identities(A)
        epsilon_term(A)
        for r, _ in segment_classes(A).nonzero_sizes():
            axial_pair_count(A, r)
        assert calls == [A]
        assert bisector_stats(A) is stats

        B = PointSet(F25, list(reversed(A.points)))
        assert B == A and B is not A
        again = bisector_stats(B)
        assert len(calls) == 2 and calls[1] is B
        assert (again.b_energy, again.b_star_energy, again.cone_count, again.relation_universal) == (
            stats.b_energy, stats.b_star_energy, stats.cone_count, stats.relation_universal)
        assert entries(B) == entries(A)
        assert epsilon_term(B) == epsilon_term(A)

    def test_one_grouped_pass_per_set(self, monkeypatch):
        calls = []
        grouped = incidence._axial_counts

        def counted(A):
            calls.append(A)
            return grouped(A)

        monkeypatch.setattr(incidence, "_axial_counts", counted)
        # the CI's F_13 set, where epsilon (172) exceeds the nonzero pair count (156)
        A = generate(F13, "random", {"size": 14}, 13)
        assert epsilon_term(A).value > distance_stats(A).nonzero_pairs
        verify_identities(A)
        lengths = [r for r, _ in segment_classes(A).nonzero_sizes()]
        witnesses = [claim_reduction(A, r) for r in lengths]
        assert len(witnesses) > 1
        assert calls == [A]
        assert [w.i_ax for w in witnesses] == [loop_axial_pair_count(A, r) for r in lengths]

    def test_isosceles_counted_once_per_set(self, monkeypatch):
        calls = []
        count = counting._isosceles_count

        def counted(A):
            calls.append(A)
            return count(A)

        monkeypatch.setattr(counting, "_isosceles_count", counted)
        # stats, verify and the prune step all read the input set's count
        config = make_config(F25, "random", {"size": 12}, seed=25, checks=("stats", "verify", "reduce", "prune"))
        report = run(config)
        A = config_point_set(config)
        assert report.metrics["prune"]["steps"] and [B == A for B in calls] == [True] + [False] * (len(calls) - 1)
        assert len({id(B) for B in calls}) == len(calls)

    def test_one_profile_per_set(self, monkeypatch):
        calls = []
        build = counting._pinned_profile

        def counted(A):
            calls.append(A)
            return build(A)

        monkeypatch.setattr(counting, "_pinned_profile", counted)
        # stats, verify, reduce and the prune steps read the profile of each set they see
        config = make_config(F25, "random", {"size": 12}, seed=25, checks=("stats", "verify", "reduce", "prune"))
        report = run(config)
        A = config_point_set(config)
        assert report.passed() and report.metrics["prune"]["steps"]
        assert [B == A for B in calls] == [True] + [False] * (len(calls) - 1)
        assert len({id(B) for B in calls}) == len(calls)

    def test_verify_checks_the_profile_independently(self, monkeypatch):
        # a profile with one count too high must fail the cone second moment,
        # whose left side verify_identities counts from the distance matrix itself
        build = counting._pinned_profile

        def wrong(A):
            profile = build(A)
            n = profile.n.copy()
            n[np.flatnonzero(profile.r != 0)[0]] += 1
            return profile._replace(n=n)

        A = generate(F13, "random", {"size": 14}, 13)
        assert {rec["name"]: rec["pass"] for rec in verify_identities(A)}["cone-second-moment-exact"]
        monkeypatch.setattr(counting, "_pinned_profile", wrong)
        B = PointSet(F13, list(A.points))
        records = {rec["name"]: rec for rec in verify_identities(B)}
        assert not records["cone-second-moment-exact"]["pass"]
        assert records["cone-second-moment-exact"]["lhs"] == apex_moments(A)[0]

    def test_the_stats_build_no_line_objects(self, monkeypatch):
        # the record holds key and count columns; only the oracle's entries build lines
        built = []
        monkeypatch.setattr(bisector_oracles, "line_from_key", lambda spec, key: built.append(key) or Line(
            spec.one(), spec.zero(), spec.zero()))
        monkeypatch.setattr(counting, "Line", lambda *args: built.append(args))
        A = random_sets(F9, 1, 8, 6000)[0]
        stats = bisector_stats(A)
        assert isinstance(stats, tuple) and stats.b_energy >= stats.b_star_energy
        assert built == []
        entries(A)
        assert len(built) == len(stats.line_keys)
