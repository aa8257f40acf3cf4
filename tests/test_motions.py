"""Tests for the rigid motion group: orders, group laws, transporters, axial motions."""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from findist.field import FieldSpec
from findist.geometry import (
    IsotropicAxisError,
    Line,
    Point,
    Segment,
    all_points,
    distance,
    line_through,
    origin,
    point,
    reflect,
)
from findist.motions import (
    NoTransporterError,
    RigidMotion,
    Rotation,
    SpecMismatchError,
    all_motions,
    enumerate_rotations,
    motion_between_segments,
    so2_order,
)
from motion_oracles import (
    apply_segment,
    axial_to_motion,
    fixed_point,
    is_identity_motion,
    is_identity_rotation,
    is_translation,
    r_tau_set,
    rotation_about,
    transporter_set,
)

F3 = FieldSpec(3)
F5 = FieldSpec(5)
F7 = FieldSpec(7)
F9 = FieldSpec(3, 2)


def brute_rotations(spec):
    one = spec.one()
    return {
        (u, v)
        for u in spec.elements()
        for v in spec.elements()
        if u * u + v * v == one
    }


def motions_f7():
    rots = enumerate_rotations(F7)
    return st.builds(
        lambda i, s, t: RigidMotion(rots[i].u, rots[i].v, F7.from_index(s), F7.from_index(t)),
        st.integers(0, len(rots) - 1),
        st.integers(0, 6),
        st.integers(0, 6),
    )


def points_f7():
    return st.builds(
        lambda a, b: point(F7, a, b), st.integers(0, 6), st.integers(0, 6)
    )


class TestRotations:
    @pytest.mark.parametrize(
        "spec,expected",
        [(F3, 4), (F5, 4), (F7, 8), (F9, 8), (FieldSpec(11), 12), (FieldSpec(13), 12)],
    )
    def test_so2_order(self, spec, expected):
        rots = enumerate_rotations(spec)
        assert len(rots) == expected == so2_order(spec)
        assert {(r.u, r.v) for r in rots} == brute_rotations(spec)

    def test_f3_rotations_frozen(self):
        got = {(r.u.index, r.v.index) for r in enumerate_rotations(F3)}
        assert got == {(1, 0), (2, 0), (0, 1), (0, 2)}

    def test_rejects_non_unit(self):
        with pytest.raises(SpecMismatchError):
            Rotation(F5.from_index(2), F5.zero())

    def test_group_closure_and_inverse(self):
        rots = enumerate_rotations(F7)
        group = {(r.u, r.v) for r in rots}
        for a in rots:
            inv = a.inverse()
            assert is_identity_rotation(a * inv)
            for b in rots:
                c = a * b
                assert (c.u, c.v) in group
                # SO_2 is abelian
                assert c == b * a

    def test_rotation_preserves_distance(self):
        o = origin(F5)
        for rot in enumerate_rotations(F5):
            for p in all_points(F5):
                assert distance(rot.apply(p), o) == distance(p, o)


class TestRigidMotion:
    def test_sf_order_f3(self):
        motions = list(all_motions(F3))
        assert len(motions) == 36
        assert len(set(motions)) == 36

    def test_apply_matches_matrix_form(self):
        g = RigidMotion(F7.from_index(0), F7.from_index(1), F7.from_index(2), F7.from_index(5))
        p = point(F7, 3, 4)
        # (u x - v y + s, v x + u y + t) = (0*3 - 1*4 + 2, 1*3 + 0*4 + 5) = (-2, 8)
        assert g.apply(p) == point(F7, 5, 1)

    @settings(max_examples=60)
    @given(motions_f7(), motions_f7(), points_f7())
    def test_compose_is_function_composition(self, g, h, p):
        assert g.compose(h).apply(p) == g.apply(h.apply(p))

    @settings(max_examples=40)
    @given(motions_f7(), motions_f7(), motions_f7())
    def test_compose_associative(self, g, h, k):
        assert g.compose(h).compose(k) == g.compose(h.compose(k))

    @settings(max_examples=60)
    @given(motions_f7())
    def test_inverse(self, g):
        assert is_identity_motion(g.compose(g.inverse()))
        assert is_identity_motion(g.inverse().compose(g))

    @settings(max_examples=60)
    @given(motions_f7(), points_f7(), points_f7())
    def test_distance_equivariance(self, g, p, q):
        assert distance(g.apply(p), g.apply(q)) == distance(p, q)

    def test_json_roundtrip(self):
        g = RigidMotion(F9.from_index(0), F9.from_index(1), F9.from_index(7), F9.from_index(2))
        assert RigidMotion.from_json(F9, g.to_json()) == g

    def test_fixed_point_of_rotation_about(self):
        z = point(F7, 2, 6)
        for rot in enumerate_rotations(F7):
            if is_identity_rotation(rot):
                continue
            g = rotation_about(z, rot)
            assert g.apply(z) == z
            assert fixed_point(g) == z

    def test_fixed_point_translation_and_identity(self):
        shift = RigidMotion(F7.one(), F7.zero(), F7.from_index(1), F7.from_index(0))
        assert fixed_point(shift) is None
        with pytest.raises(ValueError):
            fixed_point(RigidMotion.identity(F7))


class TestTransporters:
    def test_rotation_about_frozen_example(self):
        # quarter-turn about (1, 0): shift = (1 - u, -v) * x0 = (1, -1)
        g = rotation_about(point(F5, 1, 0), Rotation(F5.from_index(0), F5.from_index(1)))
        assert (g.u.index, g.v.index, g.s.index, g.t.index) == (0, 1, 1, 4)

    def test_motion_between_segments_exhaustive_f3(self):
        pts = all_points(F3)
        segs = [Segment(a, b) for a in pts for b in pts if a != b]
        for src in segs:
            r = src.length_sq()
            if not r:
                continue
            for dst in segs:
                if dst.length_sq() != r:
                    continue
                g = motion_between_segments(src, dst)
                assert apply_segment(g, src) == dst
                # uniqueness against the full group
                matches = [m for m in all_motions(F3) if apply_segment(m, src) == dst]
                assert matches == [g]

    def test_no_transporter_errors(self):
        a, b = point(F5, 0, 0), point(F5, 1, 0)
        c = point(F5, 0, 2)
        with pytest.raises(NoTransporterError):
            motion_between_segments(Segment(a, b), Segment(a, c))
        zero = Segment(point(F5, 0, 0), point(F5, 1, 2))  # 1 + 4 = 0 in F_5
        with pytest.raises(NoTransporterError):
            motion_between_segments(zero, zero)

    def test_transporter_set(self):
        x, y = point(F5, 1, 2), point(F5, 4, 0)
        tset = transporter_set(x, y)
        assert len(tset) == so2_order(F5) == len(set(tset))
        for g in tset:
            assert g.apply(x) == y
        brute = [m for m in all_motions(F5) if m.apply(x) == y]
        assert set(brute) == set(tset)


class TestAxialMotions:
    def x_axis(self, spec):
        return Line(spec.zero(), spec.one(), spec.zero())

    def test_r_tau_set_f3_size(self):
        got = r_tau_set(self.x_axis(F3))
        assert len(got) == 10  # q (|SO_2| - 1) + 1

    def test_r_tau_set_members_fix_axis_point(self):
        axis = line_through(point(F5, 0, 1), point(F5, 1, 2))
        got = r_tau_set(axis)
        assert len(got) == 5 * (so2_order(F5) - 1) + 1
        for g in got:
            if is_identity_motion(g):
                continue
            z = fixed_point(g)
            assert z is not None and axis.contains(z)

    def test_r_tau_set_rejects_isotropic_axis(self):
        iso = Line(F5.one(), F5.from_index(2), F5.zero())  # 1 + 4 = 0
        with pytest.raises(IsotropicAxisError):
            r_tau_set(iso)

    def test_axial_to_motion_half_turn(self):
        x_axis = self.x_axis(F7)
        y_axis = Line(F7.one(), F7.zero(), F7.zero())
        g = axial_to_motion(y_axis, x_axis)
        assert (g.u, g.v) == (-F7.one(), F7.zero())
        assert not g.s and not g.t

    def test_axial_to_motion_matches_double_reflection(self):
        axis = line_through(point(F7, 0, 2), point(F7, 1, 5))
        tau = self.x_axis(F7)
        g = axial_to_motion(axis, tau)
        for p in all_points(F7):
            assert g.apply(p) == reflect(axis, reflect(tau, p))

    def test_intersecting_axes_land_in_r_tau_set(self):
        tau = self.x_axis(F5)
        members = set(r_tau_set(tau))
        for axis in [
            line_through(point(F5, 2, 0), point(F5, 2, 1)),
            line_through(point(F5, 0, 0), point(F5, 1, 1)),
            line_through(point(F5, 3, 1), point(F5, 4, 4)),
        ]:
            if axis.is_isotropic():
                continue
            assert axial_to_motion(axis, tau) in members

    def test_parallel_axes_give_normal_translation(self):
        tau = self.x_axis(F7)
        axis = Line(F7.zero(), F7.one(), F7.from_index(1))  # y = 1
        g = axial_to_motion(axis, tau)
        assert is_translation(g)
        assert (g.s.index, g.t.index) == (0, 2)
        assert g not in set(r_tau_set(tau))

    def test_rejects_isotropic_inputs(self):
        iso = Line(F5.one(), F5.from_index(2), F5.zero())
        with pytest.raises(IsotropicAxisError):
            axial_to_motion(iso, self.x_axis(F5))
        with pytest.raises(IsotropicAxisError):
            axial_to_motion(self.x_axis(F5), iso)
