"""Tests for the projective embedding of the motion group."""

import random

import numpy as np
import pytest

from findist import projective_rows
from findist.field import FieldSpec, _index_field
from findist.geometry import Line, point
from findist.kinematic import (
    NotInImageError,
    ProjMap,
    ProjPlane,
    ProjPoint,
    all_proj_points,
    kappa,
    kappa_inv,
    phi_left,
    r_tau_plane,
    _chart_a,
    _chart_b,
)
from findist.motions import (
    RigidMotion,
    all_motions,
    enumerate_rotations,
)
from findist.projective_rows import _r_tau_planes, _ranks
from motion_oracles import (
    apply_plane,
    exceptional_set,
    is_identity_map,
    matrix_rank,
    phi_right,
    r_tau_set,
    transporter_image,
    transporter_line,
)

F3 = FieldSpec(3)
F5 = FieldSpec(5)
F7 = FieldSpec(7)
F9 = FieldSpec(3, 2)


def proj(spec, *indices):
    return ProjPoint(tuple(spec.from_index(i) for i in indices))


def random_motion(spec, rng):
    rots = enumerate_rotations(spec)
    rot = rots[rng.randrange(len(rots))]
    return RigidMotion(
        rot.u,
        rot.v,
        spec.from_index(rng.randrange(spec.q)),
        spec.from_index(rng.randrange(spec.q)),
    )


class TestKappa:
    def test_identity(self):
        assert kappa(RigidMotion.identity(F7)) == proj(F7, 1, 0, 0, 0)

    def test_half_turn(self):
        g = RigidMotion(-F7.one(), F7.zero(), F7.zero(), F7.zero())
        assert kappa(g) == proj(F7, 0, 1, 0, 0)

    def test_translation_frozen(self):
        g = RigidMotion(F7.one(), F7.zero(), F7.from_index(1), F7.from_index(2))
        assert kappa(g) == proj(F7, 1, 0, 4, 6)

    def test_first_chart_degenerates_at_half_turn(self):
        # the one-chart formula really does produce the zero vector here,
        # which is why kappa switches charts instead of using it blindly
        g = RigidMotion(-F7.one(), F7.zero(), F7.from_index(3), F7.from_index(5))
        assert not any(_chart_a(g))
        assert any(_chart_b(g))

    @pytest.mark.parametrize("spec", [F5, F7, F9])
    def test_charts_agree_off_poles(self, spec):
        one = spec.one()
        for g in all_motions(spec):
            if g.u == one or g.u == -one:
                continue
            assert ProjPoint(_chart_a(g)) == ProjPoint(_chart_b(g))

    def test_image_avoids_exceptional_locus(self):
        for g in all_motions(F5):
            x0, x1 = kappa(g).coords[:2]
            assert x0 * x0 + x1 * x1


class TestRoundTrip:
    @pytest.mark.parametrize("spec", [F3, F5, F7])
    def test_inverse_after_map(self, spec):
        for g in all_motions(spec):
            assert kappa_inv(kappa(g)) == g

    @pytest.mark.parametrize("spec", [F3, F5, F7])
    def test_map_after_inverse(self, spec):
        skip = set(exceptional_set(spec))
        for p in all_proj_points(spec):
            if p in skip:
                continue
            assert kappa(kappa_inv(p)) == p

    def test_frozen_quarter_turn(self):
        m = kappa_inv(proj(F7, 1, 1, 0, 0))
        assert (m.u.index, m.v.index, m.s.index, m.t.index) == (0, 1, 0, 0)

    def test_exceptional_point_rejected(self):
        with pytest.raises(NotInImageError):
            kappa_inv(proj(F7, 0, 0, 1, 0))


class TestBijection:
    @pytest.mark.parametrize("spec", [F3, F5, F7])
    def test_image_is_complement_of_exceptional_set(self, spec):
        image = {kappa(g) for g in all_motions(spec)}
        assert len(image) == spec.q * spec.q * (spec.q - spec.chi_minus_one())
        expected = set(all_proj_points(spec)) - set(exceptional_set(spec))
        assert image == expected

    def test_projective_space_size(self):
        pts = list(all_proj_points(F3))
        assert len(pts) == 40 == len(set(pts))


class TestExceptionalSet:
    @pytest.mark.parametrize(
        "spec,size", [(F3, 4), (F5, 56), (F7, 8), (F9, 172)]
    )
    def test_sizes(self, spec, size):
        assert len(exceptional_set(spec)) == size

    def test_line_structure_when_minus_one_nonsquare(self):
        for p in exceptional_set(F3):
            assert not p.coords[0] and not p.coords[1]

    def test_two_plane_structure_when_minus_one_square(self):
        roots = (-F5.one()).sqrt()
        assert roots
        i = roots[0]
        for p in exceptional_set(F5):
            x0, x1 = p.coords[:2]
            assert not (x0 - i * x1) or not (x0 + i * x1)


class TestProjTypes:
    def test_point_canonicalization(self):
        a = ProjPoint(tuple(F7.from_index(i) for i in (2, 4, 0, 6)))
        b = ProjPoint(tuple(F7.from_index(i) for i in (1, 2, 0, 3)))
        assert a == b and hash(a) == hash(b)
        assert a.key == (1, 2, 0, 3)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            ProjPoint((F7.zero(),) * 4)

    def test_json(self):
        p = proj(F5, 0, 2, 3, 1)
        assert p.to_json() == [0, 1, 4, 3]  # scaled so the first nonzero entry is 1

    def test_singular_map_rejected(self):
        rows = [[F5.zero()] * 4 for _ in range(4)]
        rows[0][0] = F5.one()
        with pytest.raises(ValueError):
            ProjMap(tuple(tuple(r) for r in rows))

    def test_plane_membership(self):
        plane = ProjPlane(tuple(F5.from_index(i) for i in (0, 0, 1, 0)))
        assert plane.contains(proj(F5, 1, 2, 0, 3))
        assert not plane.contains(proj(F5, 1, 2, 1, 3))


class TestPhiMaps:
    def test_identity(self):
        assert is_identity_map(phi_left(RigidMotion.identity(F7)))
        assert is_identity_map(phi_right(RigidMotion.identity(F7)))

    def test_equivariance_seeded(self):
        rng = random.Random(20260814)
        for spec in (F7, F9):
            for _ in range(150):
                g = random_motion(spec, rng)
                x = random_motion(spec, rng)
                assert kappa(g.compose(x)) == phi_left(g).apply(kappa(x))
                assert kappa(x.compose(g)) == phi_right(g).apply(kappa(x))

    def test_left_right_commute(self):
        rng = random.Random(7)
        for _ in range(40):
            g, h, x = (random_motion(F7, rng) for _ in range(3))
            lhs = phi_left(g).apply(phi_right(h).apply(kappa(x)))
            rhs = phi_right(h).apply(phi_left(g).apply(kappa(x)))
            assert lhs == rhs == kappa(g.compose(x).compose(h))

    def test_functorial(self):
        rng = random.Random(11)
        for _ in range(40):
            g = random_motion(F5, rng)
            h = random_motion(F5, rng)
            assert is_identity_map(phi_left(g).compose(phi_left(g.inverse())))
            assert phi_left(g.compose(h)) == phi_left(g).compose(phi_left(h))
            assert phi_right(g.compose(h)) == phi_right(h).compose(phi_right(g))

    def test_plane_transform_preserves_incidence(self):
        rng = random.Random(13)
        plane = r_tau_plane(Line(F7.zero(), F7.one(), F7.zero()))
        for _ in range(25):
            g = random_motion(F7, rng)
            m = phi_left(g)
            image = apply_plane(m, plane)
            for p in (kappa(random_motion(F7, rng)) for _ in range(10)):
                assert plane.contains(p) == image.contains(m.apply(p))


class TestTransporterLine:
    def test_rotation_subgroup_line(self):
        o = point(F7, 0, 0)
        for p in transporter_image(o, o):
            assert not p.coords[2] and not p.coords[3]

    def test_f3_example_rank(self):
        pts = transporter_image(point(F3, 0, 0), point(F3, 1, 0))
        assert len(pts) == 4
        assert matrix_rank([p.coords for p in pts], F3) == 2

    def test_spanning_points_distinct_and_consistent(self):
        x, y = point(F5, 1, 2), point(F5, 3, 3)
        a, b = transporter_line(x, y)
        assert a != b
        pts = transporter_image(x, y)
        assert matrix_rank([a.coords, b.coords] + [p.coords for p in pts], F5) == 2

    def test_line_invariant_under_phi(self):
        rng = random.Random(3)
        pts = transporter_image(point(F7, 2, 1), point(F7, 0, 4))
        for _ in range(10):
            m = phi_left(random_motion(F7, rng))
            moved = [m.apply(p).coords for p in pts]
            assert matrix_rank(moved, F7) == 2


class TestRTauPlane:
    def x_axis(self, spec):
        return Line(spec.zero(), spec.one(), spec.zero())

    @pytest.mark.parametrize("spec", [F5, F7])
    def test_x_axis_plane_frozen(self, spec):
        plane = r_tau_plane(self.x_axis(spec))
        assert plane.key == (0, 0, 1, 0)

    def test_contains_whole_image(self):
        axis = Line(F7.one(), F7.zero(), F7.from_index(2))  # x = 2
        plane = r_tau_plane(axis)
        for m in r_tau_set(axis):
            assert plane.contains(kappa(m))

    def test_generic_axis_f5(self):
        axis = Line(F5.one(), F5.one(), F5.from_index(3))
        plane = r_tau_plane(axis)
        members = r_tau_set(axis)
        assert all(plane.contains(kappa(m)) for m in members)
        assert matrix_rank([kappa(m).coords for m in members], F5) == 3

    def test_equivariance(self):
        rng = random.Random(5)
        axis = self.x_axis(F5)
        plane = r_tau_plane(axis)
        for _ in range(10):
            g = random_motion(F5, rng)
            image = apply_plane(phi_left(g), plane)
            for m in r_tau_set(axis):
                assert image.contains(kappa(g.compose(m)))

    def test_isotropic_axis_rejected(self):
        from findist.geometry import IsotropicAxisError

        iso = Line(F5.one(), F5.from_index(2), F5.zero())
        with pytest.raises(IsotropicAxisError):
            r_tau_plane(iso)
        # a raised call caches nothing
        with pytest.raises(IsotropicAxisError):
            r_tau_plane(Line(F5.one(), F5.from_index(2), F5.zero()))

    def test_plane_is_cached_per_axis(self):
        # 2x + 2y = 6 is x + y = 3 over F_7: equal lines share one plane
        plane = r_tau_plane(Line(F7.one(), F7.one(), F7.from_index(3)))
        assert r_tau_plane(Line(F7.from_index(2), F7.from_index(2), F7.from_index(6))) is plane
        # the same coefficient indices over other fields are other axes
        for spec in (F5, FieldSpec(5, 2)):
            other = r_tau_plane(Line(spec.one(), spec.one(), spec.from_index(3)))
            assert other is not plane
            assert all(c.spec == spec for c in other.coeffs)


class TestRTauPlaneBatch:
    """The R_tau planes of many axes in one call on the index kernel, with their sample check."""

    @pytest.mark.parametrize("spec", [F5, F7, F9], ids=["F5", "F7", "F9"])
    def test_ranks_match_elimination(self, spec):
        rng = random.Random(77 + spec.q)
        blocks = []
        for _ in range(60):
            rows = [[rng.randrange(spec.q) for _ in range(4)] for _ in range(rng.randint(1, 3))]
            # combinations of the drawn rows, so that most blocks are rank deficient
            blocks.append(rows + [rows[rng.randrange(len(rows))] for _ in range(7 - len(rows))])
        F, got = _index_field(spec), _ranks(_index_field(spec), np.array(blocks, dtype=np.int64))
        want = [matrix_rank([[spec.from_index(k) for k in row] for row in block], spec) for block in blocks]
        assert got.tolist() == want and 0 < min(want) and max(want) == 3

    def test_the_sample_check_is_live(self, monkeypatch):
        F, axis = _index_field(F7), (1, 0, 2)
        real = projective_rows._kappa_rows
        # every member at the identity's image: rank 1
        monkeypatch.setattr(projective_rows, "_kappa_rows", lambda F, motions: np.tile(real(F, motions)[:1], (7, 1)))
        with pytest.raises(AssertionError, match="must span a plane"):
            _r_tau_planes(F, axis)
        # the last two coordinates swapped: still rank 3, on the plane (0 : -c : n1 : n2) instead
        monkeypatch.setattr(projective_rows, "_kappa_rows", lambda F, motions: real(F, motions)[:, [0, 1, 3, 2]])
        with pytest.raises(AssertionError, match="left the derived plane"):
            _r_tau_planes(F, axis)
