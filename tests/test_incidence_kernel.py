"""Differential tests of the index-array incidence stage against the object oracles.

``claim_reductions`` must reproduce byte for byte, for every class of a set
in one batched call, the witness JSON that the object pipeline of
``incidence_oracles.reduction_json`` builds and that a one-class call
gives, lifted reductions included.  ``count_incidences``,
``max_collinear``, the pairwise fixed points and ``rudnev_ratio`` are each
compared with their loops, at the default block size and at one row per
block, and the closed-form R_tau plane with the lazily spanned one on every
non-isotropic line.
"""

import hashlib
import random
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import incidence_oracles as oracle
from findist import field, incidence
from findist.counting import segment_classes
from findist.field import FieldSpec, _index_field
from findist.generators import generate
from findist.geometry import PointSet, all_lines, all_points, point
from findist.harness import _child_seed, canonical_json, make_config, run, standard_corpus_sets
from findist.incidence import (
    _certified,
    _field_embedding,
    _first_free,
    _normals,
    _pairwise_fixed_points,
    _rotates,
    _rows,
    _transporters,
    claim_reduction,
    claim_reductions,
    count_incidences,
    max_collinear,
    rudnev_ratio,
)
from findist.kinematic import ProjPlane, all_proj_points, r_tau_plane
from findist.projective_rows import _r_tau_planes
from motion_oracles import transporter_image

F3 = FieldSpec(3)
F5 = FieldSpec(5)
F7 = FieldSpec(7)
F9 = FieldSpec(3, 2)
F11 = FieldSpec(11)
F13 = FieldSpec(13)
F25 = FieldSpec(5, 2)

# no non-isotropic axis over F_3 survives the fixed points of its largest class
LIFT_SET_F3 = PointSet(F3, [point(F3, 0, 0), point(F3, 0, 1), point(F3, 1, 0),
                            point(F3, 2, 1), point(F3, 2, 2)])


def nonzero_classes(A):
    return segment_classes(A).nonzero_sizes()


def largest_class(A):
    return max(nonzero_classes(A), key=lambda item: (item[1], -item[0].index))[0]


def assert_witness_matches(A, r):
    got = claim_reduction(A, r)
    assert canonical_json(got.to_json()) == canonical_json(oracle.reduction_json(A, r)), (r, A.to_json())
    return got


def assert_batch_matches(A):
    """Each class's witness from one batched call equals the object pipeline's and a one-class call's."""
    lengths = [r for r, _ in nonzero_classes(A)]
    batch = claim_reductions(A, lengths)
    for r, w in zip(lengths, batch):
        got = canonical_json(w.to_json())
        assert got == canonical_json(oracle.reduction_json(A, r)), (r, A.to_json())
        assert got == canonical_json(claim_reduction(A, r).to_json()), (r, A.to_json())
    return batch


def random_families(spec, seed, count):
    """Point and plane families drawn from projective 3-space, repeats and collinear runs included."""
    rng = random.Random(seed)
    space = list(all_proj_points(spec))
    line = transporter_image(point(spec, 0, 1), point(spec, 1, 2))
    for _ in range(count):
        points = rng.sample(space, rng.randint(0, 12)) + rng.sample(line, rng.randint(0, len(line)))
        points += rng.choices(points, k=2) if points else []
        planes = [ProjPlane(p.coords) for p in rng.sample(space, rng.randint(1, 14))]
        yield points, planes


class TestWitnessAgainstObjectPipeline:
    def test_every_subset_of_f3(self):
        pts = list(all_points(F3))
        for mask in range(2 ** len(pts)):
            assert_batch_matches(PointSet(F3, [p for i, p in enumerate(pts) if mask >> i & 1]))

    def test_every_subset_of_an_f5_set(self):
        base = generate(F5, "random", {"size": 6}, 55)
        for mask in range(1, 2 ** len(base)):
            assert_batch_matches(PointSet(F5, [p for i, p in enumerate(base) if mask >> i & 1]))

    @pytest.mark.parametrize("spec", [F7, F9, F25], ids=["F7", "F9", "F25"])
    def test_random_and_on_circle_sets(self, spec):
        sets = [generate(spec, "random", {"size": n}, 70 + n) for n in (3, 6, 9)]
        sets.append(generate(spec, "on-circle", {"size": 6, "center": [1, 2], "radius_sq": 1}, 7))
        for A in sets:
            assert_batch_matches(A)

    @pytest.mark.parametrize("spec, size, seed, lifts", [(F25, 12, 25, 0), (F7, 12, 7, 6), (F13, 14, 13, 2)],
                             ids=["all-base", "all-lifted", "mixed"])
    def test_batch_groups(self, spec, size, seed, lifts):
        A = generate(spec, "random", {"size": size}, seed)
        batch = assert_batch_matches(A)
        assert sum(w.lifted for w in batch) == lifts and len(batch) >= 6

    @pytest.mark.parametrize(
        "A, r, ext",
        [
            (LIFT_SET_F3, 1, 9),
            (generate(F9, "random", {"size": 12}, 0), 2, 81),
            (generate(F25, "random", {"size": 24}, 0), 22, 625),
        ],
        ids=["F3-F9", "F9-F81", "F25-F625"],
    )
    def test_lifted_copies(self, A, r, ext):
        w = assert_witness_matches(A, A.spec.from_index(r))
        assert w.lifted and w.work_field.q == ext

    @given(st.sampled_from([F7, F13, F25]).flatmap(
        lambda spec: st.lists(st.sampled_from(list(all_points(spec))), min_size=2, max_size=9)
        .map(lambda pts: PointSet(spec, pts))))
    @settings(max_examples=25, deadline=None)
    def test_hypothesis_sets(self, A):
        assert_batch_matches(A)


class TestGrid8x12OnF961:
    """The corpus's largest class: |S_r| = 728, lifted to F_961, at the frozen ceiling."""

    @pytest.fixture(scope="class")
    def witness(self):
        A = dict(standard_corpus_sets())["grid-8x12"]
        return claim_reduction(A, largest_class(A))

    def test_counts_match_the_loops(self, witness):
        objects = oracle.witness_families(witness)
        points, planes = objects["points"], objects["planes"]
        assert witness.lifted and witness.work_field.q == 961 and len(points) == 728
        assert witness.incidences == oracle.count_incidences(points, planes) == 30672
        assert witness.k == oracle.max_collinear(points, witness.work_field)

    def test_fixed_points_match_the_motion_objects(self, witness):
        spec = witness.work_field
        g_motions = oracle.witness_families(witness)["g_motions"]
        columns = tuple(np.array(c, dtype=np.int64) for c in zip(*(g.key for g in g_motions)))
        size = np.array([len(g_motions)])
        got, free = _pairwise_fixed_points(_index_field(spec), spec.q, columns, np.zeros(1, dtype=np.int64), size)
        want = oracle.pairwise_fixed_points(g_motions)
        assert not got[0].any() and free[0] >= 0
        assert sorted(zip(*(c.tolist() for c in got[1:]))) == sorted(z.key for z in want)
        assert oracle.scan_axis(want, spec) == witness.axis


class TestOneRowBlocks:
    """A block of one row gives the same answers as the default block size."""

    @pytest.fixture
    def one_row(self, monkeypatch):
        monkeypatch.setattr(field, "CHUNK_CELLS", 1)

    def test_witnesses(self, monkeypatch):
        sets = [LIFT_SET_F3, generate(F9, "random", {"size": 12}, 0), generate(F25, "random", {"size": 8}, 3)]
        default = [[canonical_json(claim_reduction(A, r).to_json()) for r, _ in nonzero_classes(A)] for A in sets]
        monkeypatch.setattr(field, "CHUNK_CELLS", 1)
        for A, expected in zip(sets, default):
            assert [canonical_json(claim_reduction(A, r).to_json()) for r, _ in nonzero_classes(A)] == expected

    def test_batched_witnesses(self, monkeypatch):
        sets = [LIFT_SET_F3, generate(F9, "random", {"size": 12}, 0), generate(F13, "random", {"size": 14}, 13)]
        lengths = [[r for r, _ in nonzero_classes(A)] for A in sets]
        default = [[canonical_json(w.to_json()) for w in claim_reductions(A, L)] for A, L in zip(sets, lengths)]
        monkeypatch.setattr(field, "CHUNK_CELLS", 1)
        for A, L, expected in zip(sets, lengths, default):
            assert [canonical_json(w.to_json()) for w in claim_reductions(A, L)] == expected

    @pytest.mark.parametrize("spec", [F5, F9], ids=["F5", "F9"])
    def test_families(self, spec, one_row):
        for points, planes in random_families(spec, 808 + spec.q, 10):
            assert count_incidences(_rows(points), _rows(planes), spec) == oracle.count_incidences(points, planes)
            assert max_collinear(_rows(points), spec) == oracle.max_collinear(points, spec)


class TestKernelsAgainstLoops:
    @pytest.mark.parametrize("spec", [F3, F5, F7, F9], ids=["F3", "F5", "F7", "F9"])
    def test_count_and_max_collinear(self, spec):
        for points, planes in random_families(spec, 404 + spec.q, 20):
            assert count_incidences(_rows(points), _rows(planes), spec) == oracle.count_incidences(points, planes)
            assert max_collinear(_rows(points), spec) == oracle.max_collinear(points, spec)

    @pytest.mark.parametrize("spec", [F5, F9], ids=["F5", "F9"])
    def test_rudnev_ratio(self, spec):
        for points, planes in random_families(spec, 909 + spec.q, 20):
            ratio = rudnev_ratio(points, planes, spec)
            assert (ratio.incidences, ratio.n_points, ratio.n_planes, ratio.k, ratio.surrogate_ratio) == (
                oracle.rudnev_surrogate(points, planes, spec)
            )
            assert ratio.duality_swapped is (len(points) > len(planes))

    def test_transporters_must_rotate(self):
        F = _index_field(F7)
        segs = tuple(np.array([c]) for c in (0, 0, 1, 0))
        # (0, 0) -> (1, 0) onto (2, 2) -> (2, 3): a quarter turn, then a shift by (2, 2)
        g = _transporters(F, segs, (2, 2, 2, 3))
        assert [c.tolist() for c in g] == [[0], [1], [2], [2]]
        assert _rotates(F, g).tolist() == [True]
        assert _rotates(F, _transporters(F, segs, (2, 2, 2, 4))).tolist() == [False]

    def test_witness_ratio_needs_no_recount(self):
        for A in [LIFT_SET_F3, generate(F9, "random", {"size": 12}, 0), generate(F7, "random", {"size": 9}, 1)]:
            for r, _ in nonzero_classes(A):
                w = claim_reduction(A, r)
                objects = oracle.witness_families(w)
                assert w.ratio().to_json() == rudnev_ratio(objects["points"], objects["planes"], w.work_field).to_json()


@pytest.mark.parametrize("spec", [F3, F5, F7, F9, F11, F13, F25], ids=["F3", "F5", "F7", "F9", "F11", "F13", "F25"])
def test_closed_form_r_tau_plane_is_the_spanned_plane(spec):
    lines = [line for line in all_lines(spec) if not line.is_isotropic()]
    assert lines
    # one batch over every axis, and the public one-axis call
    planes = _r_tau_planes(_index_field(spec), tuple(np.array(col) for col in zip(*(line.key for line in lines))))
    for line, row in zip(lines, planes.tolist()):
        want = oracle.lazy_span_plane(line)
        assert tuple(row) == want.key and r_tau_plane(line) == want, line


@pytest.mark.parametrize("spec", [F9, F25, FieldSpec(3, 3), FieldSpec(7, 2)], ids=["F9", "F25", "F27", "F49"])
def test_field_embedding_matches_object_evaluation(spec):
    ext, into = _field_embedding(spec)
    want_ext, want = oracle.field_embedding(spec)
    assert ext == want_ext and into.dtype == np.int64 and into.tolist() == want


def test_reduce_memory_does_not_grow_with_q_squared():
    # over F_131071 one q x q grid of flags would take 17 GB; the fixed points
    # and the line scan hold O(pairs + classes * q), about 9 MB here
    config = make_config(FieldSpec(131071), "random", {"size": 6}, seed=0, checks=("reduce",))
    run(config)  # the field's tables and kernel, which are built once per spec
    tracemalloc.start()
    try:
        report = run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed() and len(report.metrics["reduce"]["reductions"]) == 15
    assert peak < 16e6


class TestCertificate:
    """A class whose fixed points block every base line lifts to the axis x = c0 with no more of its pairs."""

    def test_a_strict_subset_of_the_pairs_gives_the_same_witnesses(self, monkeypatch):
        # all six classes lift, and each has more than q^2 - q fixed points before its last block
        A = generate(F7, "random", {"size": 30}, 7)
        lengths = [r for r, _ in nonzero_classes(A)]
        want = [canonical_json(w.to_json()) for w in claim_reductions(A, lengths)]
        real, calls = incidence._pairwise_fixed_points, []
        monkeypatch.setattr(incidence, "_pairwise_fixed_points", lambda *args: calls.append(args) or real(*args))
        # a few rows of pairs per block, so each class can stop after any of its blocks
        monkeypatch.setattr(field, "CHUNK_CELLS", 64)
        got = [canonical_json(w.to_json()) for w in claim_reductions(A, lengths)]
        assert got == want == [canonical_json(oracle.reduction_json(A, r)) for r in lengths]
        (args,) = calls
        (cls, fx, fy), free = real(*args)
        monkeypatch.setattr(field, "CHUNK_CELLS", 1 << 16)
        (whole_cls, wx, wy), whole_free = real(*args)
        assert (free == -1).all() and (whole_free == -1).all()
        assert set(zip(cls.tolist(), fx.tolist(), fy.tolist())) < set(zip(whole_cls.tolist(), wx.tolist(), wy.tolist()))
        assert (np.bincount(cls, minlength=len(lengths)) < np.bincount(whole_cls, minlength=len(lengths))).all()

    def test_the_check_reads_the_embedded_x(self):
        # the fixed points of classes 0..2; a broken embedding sends x = 2 onto c0 = 5, which only class 1 has
        fixed = tuple(np.array(col) for col in ([0, 0, 1, 2], [0, 1, 2, 1], [2, 2, 0, 1]))
        into = np.array([0, 1, 5])
        assert _certified(fixed, into, 5, 4).tolist() == [True, False, True, True]
        assert _certified(fixed, np.arange(3), 3, 4).all()

    def test_lifted_axis_is_the_least_index_outside_the_image(self):
        # that index is p, the extension's generator x, over a prime base and a degree-2 one alike
        for A in (LIFT_SET_F3, generate(F9, "random", {"size": 9}, 9), generate(F7, "random", {"size": 12}, 7)):
            ext, into = _field_embedding(A.spec)
            c0 = min(set(range(ext.q)) - set(into.tolist()))
            lifted = [w for w in claim_reductions(A, [r for r, _ in nonzero_classes(A)]) if w.lifted]
            assert lifted and all(w.axis_key == (1, 0, c0) for w in lifted)
            assert c0 == A.spec.p


class TestEveryLineBlocked:
    """A base line holds q points, so a class with more than q^2 - q distinct fixed points lifts with no line scan."""

    @pytest.mark.parametrize("spec", [F7, F13, F25], ids=["F7", "F13", "F25"])
    def test_the_count_boundary(self, spec):
        F, q = _index_field(spec), spec.q
        normals = _normals(F, q)
        k, c = len(normals[0]) // 2, 3
        keys = np.arange(q * q)
        on = F.add(F.mul(normals[0][k], keys // q), F.mul(normals[1][k], keys % q)) == c
        # every point but the q of one line: q^2 - q keys, and that line is the only one they miss
        assert np.count_nonzero(~on) == q * q - q
        assert _first_free(F, q, normals, keys[~on], 1).tolist() == [k * q + c]
        # one more key on it blocks every line, and the class gets -1 with no scan, which would need the field
        more = np.append(keys[~on], keys[on][0])
        assert _first_free(None, q, normals, more, 1).tolist() == [-1]
        assert _first_free(F, q, normals, np.append(keys[~on], q * q + more), 2).tolist() == [k * q + c, -1]

    def test_no_class_of_a_large_set_reaches_the_scan(self, monkeypatch):
        # each of the 30 classes passes the count, so the scan, which would need the field, runs for none
        config = make_config(FieldSpec(31), "random", {"size": 97}, seed=31, checks=("reduce",))
        real, free = incidence._first_free, []
        monkeypatch.setattr(incidence, "_first_free", lambda F, *args: free.append(real(None, *args)) or free[-1])
        report = run(config)
        assert report.passed() and len(free) == 1 and free[0].tolist() == [-1] * 30
        # every pair and the full scan give the same bytes
        monkeypatch.setattr(incidence, "_first_free", real)
        monkeypatch.setattr(incidence, "_every_line_blocked", lambda keys, q, n: np.zeros(n, dtype=bool))
        assert run(config).render() == report.render()
        assert hashlib.sha256(report.render().encode()).hexdigest() == (
            "50956d67064863841c97b641ef6511a7aba7d27e30e1c9afb60499a9cec33548")


class TestLiftBuildsNoExtensionObjects:
    """A lifted reduction runs on the extension's index kernel; its objects wait for the first read."""

    @pytest.mark.parametrize("A, r, q, digest", [
        # the largest class of the n = 30 row of the standard sweep (seed 31)
        (generate(FieldSpec(31), "random", {"size": 30}, _child_seed(31, 1)), 22, 961,
         "3022751c5a18b35d1d2d3bce45839e277a37dc344cb164a2d4cf50c2970582a6"),
        (generate(F9, "random", {"size": 9}, 9), 6, 81,
         "d502c8faa23e51a86d6d2b0c009fb8fb18d4fe478851c6e65952e1c105f295d2"),
    ], ids=["F31-F961", "F9-F81"])
    def test_no_tables_until_read(self, A, r, q, digest, monkeypatch):
        # a fresh extension spec, so that no earlier read has cached its tables
        monkeypatch.setattr(incidence, "_field_embedding", lru_cache(maxsize=None)(_field_embedding.__wrapped__))
        real, built = field._Tables, []
        monkeypatch.setattr(field, "_Tables", lambda spec: built.append(spec.q) or real(spec))
        w = claim_reduction(A, A.spec.from_index(r))
        w.ratio()
        assert w.lifted and w.work_field.q == q and q not in built
        assert hashlib.sha256(canonical_json(w.to_json()).encode()).hexdigest() == digest
        assert q in built
