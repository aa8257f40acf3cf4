"""Tests for projective incidences, axial pair counts, and the reduction."""

import json
import random
from fractions import Fraction

import numpy as np
import pytest

import incidence_oracles as oracle
from bisector_oracles import brute_axial_pairs
from findist.counting import bisector_stats, distance_stats, segment_classes
from findist import field, incidence, kinematic, motions
from findist.field import FieldSpec, _index_field
from findist.geometry import (
    Line,
    Point,
    PointSet,
    all_lines,
    all_points,
    bisector,
    distance,
    point,
)
from findist.incidence import (
    EmptySegmentClassError,
    ReductionWitness,
    _pairwise_fixed_points,
    _normals,
    _rows,
    axial_pair_count,
    claim_reduction,
    count_incidences,
    epsilon_term,
    max_collinear,
    rudnev_ratio,
)
from findist.harness import ExperimentConfig, run
from findist.kinematic import ProjPlane, ProjPoint, all_proj_points, kappa
from findist.motions import all_motions
from motion_oracles import transporter_image

F3 = FieldSpec(3)
F5 = FieldSpec(5)
F7 = FieldSpec(7)
F9 = FieldSpec(3, 2)

MIRROR_PAIR_F5 = PointSet(F5, [point(F5, 0, 0), point(F5, 2, 0)])
RIGHT_ANGLE_F7 = PointSet(F7, [point(F7, 0, 0), point(F7, 1, 0), point(F7, 0, 1)])
# found by search: no non-isotropic axis over F_3 survives the fixed points
LIFT_SET_F3 = PointSet(F3, [point(F3, 0, 0), point(F3, 0, 1), point(F3, 1, 0),
                            point(F3, 2, 1), point(F3, 2, 2)])


def proj(spec, *coords):
    return ProjPoint(tuple(spec.element(c) for c in coords))


def plane(spec, *coeffs):
    return ProjPlane(tuple(spec.element(c) for c in coeffs))


def brute_on_axis_pairs(A, r):
    """Triple-loop oracle: 2 * (equal-leg triples with legs r) + |S_r|."""
    triples = 0
    for a in A:
        for b in A:
            if distance(a, b) != r:
                continue
            for b2 in A:
                if b2 != b and distance(a, b2) == r and distance(b, b2):
                    triples += 1
    segments = sum(1 for a in A for b in A if distance(a, b) == r)
    return 2 * triples + segments


def brute_epsilon(A):
    count = 0
    pts = A.points
    for a in pts:
        for c in pts:
            if distance(a, c):
                continue
            for b in pts:
                if b == a or not distance(a, b):
                    continue
                for e in pts:
                    if e == c or not distance(c, e):
                        continue
                    if bisector(a, b) == bisector(c, e):
                        count += 1
    return count


class TestCountIncidences:
    def test_two_points_two_planes(self):
        pts = _rows([proj(F5, 1, 0, 0, 0), proj(F5, 0, 0, 1, 0)])
        planes = _rows([plane(F5, 0, 1, 0, 0), plane(F5, 0, 2, 0, 0)])
        assert count_incidences(pts, planes, F5) == 4

    def test_empty_planes(self):
        assert count_incidences(_rows([proj(F5, 1, 0, 0, 0)]), _rows([]), F5) == 0

    def test_hash_agrees_with_sweep(self):
        # the index kernel against both object oracles, repeated planes included
        rng = random.Random(99)
        pts = list(all_proj_points(F3))
        for _ in range(10):
            points = rng.sample(pts, 12)
            planes = [ProjPlane(p.coords) for p in rng.choices(pts, k=15)]
            sweep = oracle.count_incidences(points, planes)
            assert oracle.count_incidences(points, planes, method="hash") == sweep
            assert count_incidences(_rows(points), _rows(planes), F3) == sweep


class TestMaxCollinear:
    def test_transporter_image_is_collinear(self):
        pts = transporter_image(point(F7, 1, 2), point(F7, 3, 3))
        assert max_collinear(_rows(pts), F7) == len(pts)

    def test_general_position(self):
        pts = [proj(F5, 1, 0, 0, 0), proj(F5, 0, 1, 0, 0), proj(F5, 0, 0, 1, 0)]
        assert max_collinear(_rows(pts), F5) == 2

    def test_small_families(self):
        assert max_collinear(_rows([]), F5) == 0
        assert max_collinear(_rows([proj(F5, 1, 2, 3, 4)]), F5) == 1

    def test_duplicates_collapse(self):
        a, b = proj(F5, 1, 0, 0, 0), proj(F5, 0, 1, 0, 0)
        doubled = [a, b, ProjPoint(tuple(c + c for c in a.coords))]
        assert max_collinear(_rows(doubled), F5) == 2


class TestIncidenceInstance:
    def test_canonicalizes_and_counts(self):
        pts = [proj(F5, 1, 0, 0, 0), proj(F5, 2, 0, 0, 0), proj(F5, 0, 1, 0, 0)]
        planes = [plane(F5, 0, 0, 0, 1)]
        instance = oracle.IncidenceInstance(F5, pts, planes)
        assert len(instance.points) == 2
        assert instance.k == 2 == max_collinear(_rows(pts), F5)
        assert instance.incidence_count() == 2 == count_incidences(_rows(instance.points), _rows(planes), F5)
        blob = json.dumps(instance.to_json())
        assert "planes" in blob


class TestRudnevRatio:
    def test_transporter_instance_is_dominated(self):
        pts = transporter_image(point(F5, 0, 1), point(F5, 1, 4))
        planes = []
        for candidate in all_proj_points(F5):
            pl = ProjPlane(candidate.coords)
            if all(pl.contains(p) for p in pts):
                planes.append(pl)
        assert planes
        ratio = rudnev_ratio(pts, planes, F5)
        assert ratio.incidences == len(pts) * len(planes)
        assert ratio.k == len(pts)
        assert ratio.surrogate_ratio <= 1
        assert ratio.float_ratio <= 1.0
        assert ratio.within_char_bound is True

    def test_empty_points(self):
        planes = [plane(F5, 1, 0, 0, 0)]
        ratio = rudnev_ratio([], planes, F5)
        assert ratio.incidences == 0
        assert ratio.surrogate_ratio == 0

    def test_empty_planes_rejected(self):
        with pytest.raises(ValueError):
            rudnev_ratio([proj(F5, 1, 0, 0, 0)], [], F5)

    def test_duality_swap(self):
        pts = [proj(F5, 1, 0, 0, 0), proj(F5, 0, 1, 0, 0), proj(F5, 0, 0, 1, 0)]
        planes = [plane(F5, 0, 0, 0, 1)]
        ratio = rudnev_ratio(pts, planes, F5)
        assert ratio.duality_swapped is True
        assert ratio.n_points == 1
        assert ratio.n_planes == 3
        assert ratio.incidences == 3
        blob = ratio.to_json()
        assert blob["surrogate_ratio"] == [ratio.surrogate_ratio.numerator,
                                           ratio.surrogate_ratio.denominator]


class TestAxialPairCount:
    def test_mirror_pair_f5(self):
        assert axial_pair_count(MIRROR_PAIR_F5, F5.element(4)) == 2

    def test_right_angle_excludes_on_axis_endpoints(self):
        # the two legs mirror across the diagonal, but they share the corner
        # point sitting on that axis, so only head-to-head pairs remain
        assert axial_pair_count(RIGHT_ANGLE_F7, F7.one()) == 4

    def test_singleton(self):
        assert axial_pair_count(PointSet(F5, [point(F5, 1, 1)]), F5.one()) == 0

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            axial_pair_count(MIRROR_PAIR_F5, F5.zero())

    @pytest.mark.parametrize("spec", [F5, F7, F9], ids=["F5", "F7", "F9"])
    def test_against_line_sweep(self, spec):
        rng = random.Random(1544 + spec.q)
        pts = list(all_points(spec))
        for _ in range(8):
            A = PointSet(spec, rng.sample(pts, rng.randint(2, 8)))
            for r, _ in segment_classes(A).nonzero_sizes():
                assert axial_pair_count(A, r) == brute_axial_pairs(A, r)


class TestOnAxisPairCount:
    @pytest.mark.parametrize("spec", [F3, F5, F7, F9, FieldSpec(13)], ids=["F3", "F5", "F7", "F9", "F13"])
    def test_histogram_matches_triple_loop(self, spec):
        rng = random.Random(2024 + spec.q)
        pts = list(all_points(spec))
        for _ in range(10):
            A = PointSet(spec, rng.sample(pts, rng.randint(1, min(12, len(pts)))))
            for r, _ in segment_classes(A).nonzero_sizes():
                assert claim_reduction(A, r).i_on_axis == brute_on_axis_pairs(A, r), (r, [p.key for p in A])


class TestEpsilonTerm:
    def test_mirror_pair_f5(self):
        eps = epsilon_term(MIRROR_PAIR_F5)
        assert eps.value == 2
        assert eps.bound == 2 * 2 * 4
        assert eps.within_bound is True

    def test_isotropic_free_field_reduces_to_pair_count(self):
        rng = random.Random(7001)
        pts = list(all_points(F7))
        for _ in range(6):
            A = PointSet(F7, rng.sample(pts, rng.randint(1, 9)))
            assert epsilon_term(A).value == distance_stats(A).nonzero_pairs

    def test_singleton(self):
        assert epsilon_term(PointSet(F5, [point(F5, 2, 3)])).value == 0

    @pytest.mark.parametrize("spec", [F5, F9], ids=["F5", "F9"])
    def test_against_quadruple_loop(self, spec):
        rng = random.Random(40 + spec.q)
        pts = list(all_points(spec))
        for _ in range(6):
            A = PointSet(spec, rng.sample(pts, rng.randint(1, 7)))
            eps = epsilon_term(A)
            assert eps.value == brute_epsilon(A)
            assert eps.within_bound


class TestEnergyDecomposition:
    @pytest.mark.parametrize("spec", [F5, F7, F9], ids=["F5", "F7", "F9"])
    def test_b_star_energy_splits(self, spec):
        rng = random.Random(333 + spec.q)
        pts = list(all_points(spec))
        for _ in range(8):
            A = PointSet(spec, rng.sample(pts, rng.randint(1, 10)))
            axial = sum(axial_pair_count(A, r) for r, _ in segment_classes(A).nonzero_sizes())
            total = axial + epsilon_term(A).value
            assert bisector_stats(A).b_star_energy == total


class TestValidAxisScan:
    @staticmethod
    def brute_first_valid(motions, spec):
        # reference: mark every line through a pairwise fixed point, then
        # take the first canonical non-isotropic survivor
        fixed = oracle.pairwise_fixed_points(motions)
        invalid = set()
        one, zero = spec.one(), spec.zero()
        for z in fixed:
            for m in spec.elements():
                invalid.add(Line(one, m, z.x + m * z.y).key)
            invalid.add(Line(zero, one, z.y).key)
        for line in all_lines(spec):
            if line.key not in invalid and not line.is_isotropic():
                return line
        return None

    @pytest.mark.parametrize("spec", [F5, F9], ids=["F5", "F9"])
    def test_matches_line_sweep(self, spec):
        # 25 motion groups as the classes of one batch
        rng = random.Random(4096 + spec.q)
        motions = list(all_motions(spec))
        groups = [rng.sample(motions, rng.randint(2, 8)) for _ in range(25)]
        columns = tuple(np.array(c, dtype=np.int64) for c in zip(*(m.key for group in groups for m in group)))
        size = np.array([len(group) for group in groups])
        F, q = _index_field(spec), spec.q
        fixed, free = _pairwise_fixed_points(F, q, columns, np.cumsum(size) - size, size)
        n1, n2 = _normals(F, q)
        for k, group in enumerate(groups):
            mine = fixed[0] == k
            got = sorted(zip(fixed[1][mine].tolist(), fixed[2][mine].tolist()))
            assert got == sorted(z.key for z in oracle.pairwise_fixed_points(group))
            want = self.brute_first_valid(group, spec)
            if want is None:
                assert free[k] == -1
            else:
                line = free[k] // q
                assert (n1[line], n2[line], free[k] % q) == want.key

    @pytest.mark.parametrize("spec", [F5, F9], ids=["F5", "F9"])
    def test_matches_line_sweep_a_normal_at_a_time(self, spec, monkeypatch):
        # whole classes whose free lines lie on different normals, scanned one normal a block
        monkeypatch.setattr(field, "CHUNK_CELLS", 64)
        self.test_matches_line_sweep(spec)


class TestClaimReduction:
    def test_mirror_pair_witness(self):
        witness = claim_reduction(MIRROR_PAIR_F5, F5.element(4))
        assert len(witness.point_rows) == len(witness.plane_rows) == 2
        assert witness.i_ax == 2
        assert witness.incidences == 4
        assert witness.i_on_axis == 2
        assert witness.verdict == "explained"
        assert witness.equal is False
        assert witness.lifted is False

    def test_right_angle_witness(self):
        witness = claim_reduction(RIGHT_ANGLE_F7, F7.one())
        assert len(witness.point_rows) == 4
        assert witness.incidences == 12
        assert witness.i_ax == 4
        assert witness.i_on_axis == 8
        assert witness.verdict == "explained"

    def test_minimal_segment_class(self):
        # a class is never a singleton: it always holds both orientations,
        # which mirror onto each other across the pair's own bisector
        A = PointSet(F7, [point(F7, 0, 0), point(F7, 2, 3)])
        r = distance(point(F7, 0, 0), point(F7, 2, 3))
        witness = claim_reduction(A, r)
        assert len(witness.point_rows) == 2
        assert witness.i_ax == 2
        # plus the diagonal incidences: each segment mirrors to itself
        assert witness.i_on_axis == 2
        assert witness.incidences == 4
        assert witness.verdict == "explained"

    def test_lift_path(self):
        witness = claim_reduction(LIFT_SET_F3, F3.one())
        assert witness.lifted is True
        assert witness.work_field.q == 9
        assert witness.base_field is F3
        assert witness.verdict == "explained"
        assert len(witness.point_rows) == segment_classes(LIFT_SET_F3).sizes[F3.one().index]
        # lifting changes no count: the axial pairs agree with the base field
        assert witness.i_ax == axial_pair_count(LIFT_SET_F3, F3.one())

    def test_errors(self):
        with pytest.raises(ValueError):
            claim_reduction(MIRROR_PAIR_F5, F5.zero())
        with pytest.raises(EmptySegmentClassError):
            claim_reduction(MIRROR_PAIR_F5, F5.element(3))

    def test_witness_json_replays(self):
        witness = claim_reduction(RIGHT_ANGLE_F7, F7.one())
        blob = json.loads(json.dumps(witness.to_json()))
        spec = FieldSpec.from_json(blob["work_field"])
        pts = [ProjPoint(tuple(spec.element(c) for c in coords)) for coords in blob["points"]]
        planes = [ProjPlane(tuple(spec.element(c) for c in coeffs)) for coeffs in blob["planes"]]
        assert oracle.count_incidences(pts, planes) == blob["incidences"]
        assert count_incidences(_rows(pts), _rows(planes), spec) == blob["incidences"]
        assert blob["verdict"] == "explained"
        assert blob["k"] == oracle.max_collinear(pts, spec) == max_collinear(_rows(pts), spec)

    @pytest.mark.parametrize("spec", [F5, F7], ids=["F5", "F7"])
    def test_random_witnesses_fully_explained(self, spec):
        rng = random.Random(46 + spec.q)
        pts = list(all_points(spec))
        for _ in range(6):
            A = PointSet(spec, rng.sample(pts, rng.randint(2, 7)))
            classes = segment_classes(A).nonzero_sizes()
            if not classes:
                continue
            r, size = classes[rng.randrange(len(classes))]
            witness = claim_reduction(A, r)
            assert len(witness.point_rows) == size
            assert len(witness.plane_rows) == size
            assert witness.incidences == witness.i_ax + witness.i_on_axis
            assert witness.verdict == "explained"
            assert 1 <= witness.k <= len(witness.point_rows)
            assert witness.max_class_size <= len(A) ** 2

    def test_witness_monitoring_fields(self):
        witness = claim_reduction(MIRROR_PAIR_F5, F5.element(4))
        assert witness.k == max_collinear(_rows(oracle.witness_families(witness)["points"]), witness.work_field)
        assert witness.m_curve == 2
        assert witness.max_class_size == 2
        # ceil(|A|^(3/2)) for |A| = 2; recorded next to the class size, not asserted against it
        assert witness.erdos_ceiling == 3


class TestLazyWitness:
    """A witness builds k on first read and writes its families from its rows; an explained reduction builds neither."""

    KEYS = [
        "base_field", "work_field", "lifted", "r", "s_r", "axis", "g_motions", "h_motions", "points", "planes",
        "i_ax", "i_on_axis", "incidences", "equal", "verdict", "k", "m_curve", "max_class_size", "erdos_ceiling",
    ]

    class Unread(Exception):
        pass

    # the F_25 and F_13 report configs of CI's python -O loop, reduce only
    @pytest.mark.parametrize("config", [
        {"field": {"p": 5, "r": 2}, "generator": "random", "params": {"size": 12}, "seed": 25, "checks": ["reduce"]},
        {"field": {"p": 13}, "generator": "random", "params": {"size": 14}, "seed": 13, "checks": ["reduce"]},
    ], ids=["f25", "f13"])
    def test_explained_reductions_build_no_objects_and_no_k(self, config, monkeypatch):
        want = run(ExperimentConfig.from_json(config)).render()

        def unread(*args, **kwargs):
            raise self.Unread

        # r, s_r and the axis wait for a read too, and the R_tau planes come from the index kernel
        for name in ("max_collinear", "Segment", "Point", "Line"):
            monkeypatch.setattr(incidence, name, unread)
        # nor is any motion, point or plane object
        for module, name in ((motions, "RigidMotion"), (kinematic, "ProjPoint"), (kinematic, "ProjPlane")):
            monkeypatch.setattr(module, name, unread)
        report = run(ExperimentConfig.from_json(config))
        assert report.passed()
        assert report.render() == want

    @pytest.mark.parametrize("A, r", [(RIGHT_ANGLE_F7, F7.one()), (LIFT_SET_F3, F3.one())],
                             ids=["unlifted", "lifted"])
    def test_the_json_families_are_those_of_the_objects(self, A, r):
        witness = claim_reduction(A, r)
        got = witness.to_json()
        objects = oracle.witness_families(witness)
        assert not any(hasattr(witness, name) for name in objects)  # written from the index rows
        assert {name: got[name] for name in objects} == {
            name: [x.to_json() for x in family] for name, family in objects.items()}
        assert json.dumps(witness.to_json()) == json.dumps(got)

    def test_ratio_json_keeps_the_field_order(self):
        ratio = claim_reduction(RIGHT_ANGLE_F7, F7.one()).ratio()
        got = ratio.to_json()
        assert list(got) == ["incidences", "n_points", "n_planes", "k", "sqrt_ceiling", "surrogate_ratio",
                             "float_ratio", "duality_swapped", "char_squared", "within_char_bound"]
        assert got["surrogate_ratio"] == [ratio.surrogate_ratio.numerator, ratio.surrogate_ratio.denominator]
        assert [got[name] for name in got if name != "surrogate_ratio"] == [
            value for value in ratio if not isinstance(value, Fraction)]

    @pytest.mark.parametrize("A, r", [(RIGHT_ANGLE_F7, F7.one()), (LIFT_SET_F3, F3.one())],
                             ids=["unlifted", "lifted"])
    def test_reading_k_first_changes_no_byte(self, A, r):
        plain, k_first = claim_reduction(A, r), claim_reduction(A, r)
        assert k_first.lifted is (A is LIFT_SET_F3)
        assert k_first.k == max_collinear(k_first.point_rows, k_first.work_field)
        assert list(plain.to_json()) == self.KEYS
        assert json.dumps(k_first.to_json()) == json.dumps(plain.to_json())
        assert json.dumps(k_first.ratio().to_json()) == json.dumps(plain.ratio().to_json())
        # the object families are the columns they were counted on
        objects = oracle.witness_families(plain)
        assert len({len(family) for family in objects.values()}) == 1
        assert _rows(objects["points"]).tolist() == plain.point_rows.tolist()
        assert _rows(objects["planes"]).tolist() == plain.plane_rows.tolist()
