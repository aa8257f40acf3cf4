"""Geometry tests: reflection/bisector behaviour and the isotropic structure."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bisector_oracles import is_isotropic_vector, is_zero, isotropic_vectors
from findist.field import FieldSpec
from findist.geometry import (
    Circle,
    IsotropicAxisError,
    Line,
    Point,
    PointSet,
    Segment,
    UndefinedBisectorError,
    all_lines,
    all_points,
    bisector,
    curve_through,
    distance,
    line_through,
    point,
    reflect,
)

F3 = FieldSpec(3)
F5 = FieldSpec(5)
F7 = FieldSpec(7)
F9 = FieldSpec(3, 2)
F13 = FieldSpec(13)


def brute_isotropic(spec):
    return sorted(
        (p for p in all_points(spec) if not is_zero(p) and not p.norm_sq()),
        key=lambda p: p.key,
    )


class TestDistance:
    def test_distance_symmetry_exhaustive_f5(self):
        pts = list(all_points(F5))
        for a in pts:
            for b in pts:
                assert distance(a, b) == distance(b, a)

    def test_distinct_points_at_zero_distance(self):
        # frozen: (1,2) has 1 + 4 = 5 = 0 in F_5
        a = point(F5, 0, 0)
        b = point(F5, 1, 2)
        assert a != b
        assert not distance(a, b)

    def test_no_vanishing_when_q_three_mod_four(self):
        for a in all_points(F7):
            for b in all_points(F7):
                if a != b:
                    assert distance(a, b)


class TestIsotropicVectors:
    @pytest.mark.parametrize("spec,count", [(F3, 0), (F5, 8), (F7, 0), (F9, 16), (F13, 24)])
    def test_counts_two_q_minus_one(self, spec, count):
        vecs = isotropic_vectors(spec)
        assert len(vecs) == count
        assert vecs == brute_isotropic(spec)
        if spec.q % 4 == 1:
            assert count == 2 * (spec.q - 1)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            is_isotropic_vector(point(F5, 0, 0))

    def test_classification(self):
        assert is_isotropic_vector(point(F5, 1, 2))
        assert not is_isotropic_vector(point(F5, 1, 0))


class TestLines:
    def test_canonical_form(self):
        spec = F7
        l1 = Line(spec.element(2), spec.element(4), spec.element(6))
        l2 = Line(spec.element(1), spec.element(2), spec.element(3))
        assert l1 == l2
        assert hash(l1) == hash(l2)

    def test_all_lines_count_and_sizes(self):
        for spec in (F3, F5, F7):
            lines = list(all_lines(spec))
            assert len(lines) == spec.q**2 + spec.q
            assert len(set(lines)) == len(lines)
            for line in lines[:: spec.q] :
                assert len(line.points(spec)) == spec.q

    def test_isotropic_lines_exist_iff_chi_one(self):
        assert not any(l.is_isotropic() for l in all_lines(F7))
        iso = [l for l in all_lines(F5)]
        assert sum(1 for l in iso if l.is_isotropic()) == 2 * 5  # two directions, q lines each

    def test_line_through(self):
        a, b = point(F7, 1, 2), point(F7, 3, 3)
        l = line_through(a, b)
        assert l.contains(a) and l.contains(b)
        assert sum(1 for p in all_points(F7) if l.contains(p)) == 7


class TestReflection:
    @pytest.mark.parametrize("spec", [F5, F7, F9])
    def test_involution_and_fixed_points(self, spec):
        lines = [l for l in all_lines(spec) if not l.is_isotropic()]
        pts = list(all_points(spec))
        for l in lines[:: max(1, len(lines) // 6)]:
            for p in pts:
                image = reflect(l, p)
                assert reflect(l, image) == p
                assert (image == p) == l.contains(p)

    def test_preserves_distance(self):
        l = Line(F7.element(1), F7.element(3), F7.element(2))
        pts = list(all_points(F7))[:20]
        for a in pts:
            for b in pts:
                assert distance(reflect(l, a), reflect(l, b)) == distance(a, b)

    def test_isotropic_axis_rejected(self):
        iso = next(l for l in all_lines(F5) if l.is_isotropic())
        with pytest.raises(IsotropicAxisError):
            reflect(iso, point(F5, 1, 1))


class TestBisector:
    def test_frozen_example(self):
        # 2*(2,0)·x = 4 over F_5 gives the vertical line x = 1
        l = bisector(point(F5, 0, 0), point(F5, 2, 0))
        assert l == Line(F5.one(), F5.zero(), F5.one())

    def test_reflect_swaps_endpoints(self):
        pts = list(all_points(F9))
        for a in pts[::4]:
            for b in pts[::5]:
                if a == b or not distance(a, b):
                    continue
                l = bisector(a, b)
                assert not l.is_isotropic()
                assert reflect(l, a) == b
                assert reflect(l, b) == a

    def test_isotropic_pair_rejected(self):
        with pytest.raises(UndefinedBisectorError):
            bisector(point(F5, 0, 0), point(F5, 1, 2))

    @settings(max_examples=50)
    @given(data=st.tuples(st.integers(0, 48), st.integers(0, 48)))
    def test_locus_is_equidistant_points_f7(self, data):
        i, j = data
        a = Point(F7.from_index(i // 7), F7.from_index(i % 7))
        b = Point(F7.from_index(j // 7), F7.from_index(j % 7))
        if a == b or not distance(a, b):
            return
        l = bisector(a, b)
        for p in all_points(F7):
            assert l.contains(p) == (distance(p, a) == distance(p, b))


class TestCurveThrough:
    def test_two_points_line(self):
        l = curve_through([point(F7, 0, 0), point(F7, 2, 1)])
        assert isinstance(l, Line)
        assert l.contains(point(F7, 4, 2))

    def test_three_points_circle(self):
        pts = [point(F7, 1, 0), point(F7, 0, 1), point(F7, 6, 0)]
        c = curve_through(pts)
        assert isinstance(c, Circle)
        for p in pts:
            assert c.contains(p)

    def test_collinear_returns_none(self):
        assert curve_through([point(F7, 0, 0), point(F7, 1, 1), point(F7, 2, 2)]) is None

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            curve_through([point(F7, 0, 0), point(F7, 0, 0)])
        with pytest.raises(ValueError):
            curve_through([point(F7, 0, 0), point(F7, 1, 0), point(F7, 0, 0)])

    def test_circle_matches_brute_force(self):
        # oracle: points equidistant from the recovered center
        pts = [point(F5, 1, 1), point(F5, 2, 0), point(F5, 0, 2)]
        c = curve_through(pts)
        if c is not None:
            members = {p for p in all_points(F5) if c.contains(p)}
            for p in pts:
                assert p in members


class TestPointSet:
    def test_dedup_and_order(self):
        ps = PointSet(F5, [point(F5, 1, 1), point(F5, 0, 0), point(F5, 1, 1)])
        assert len(ps) == 2
        assert ps.points[0] == point(F5, 0, 0)
        assert point(F5, 1, 1) in ps

    def test_json_roundtrip(self):
        ps = PointSet(F9, [Point(F9.from_index(i), F9.from_index((i * 2) % 9)) for i in range(5)])
        assert PointSet.from_json(ps.to_json()) == ps

    def test_segment_basics(self):
        s = Segment(point(F5, 0, 0), point(F5, 2, 0))
        assert s.length_sq() == F5.element(4)
        assert s != Segment(point(F5, 2, 0), point(F5, 0, 0))
