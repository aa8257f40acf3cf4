"""Differential tests of the Clifford index kernel against the element classes.

``product_rows``, ``sandwich_batch``, ``rho_star_keys`` and the unit and norm
helpers are compared with ``CliffordElement.__mul__``, ``sandwich``,
``rho_star`` and ``even_units`` entry by entry, and the harness's Clifford
and kinematic checks with the object loops they replaced
(``clifford_oracles``).
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clifford_oracles import check_clifford, check_kinematic, even_element, is_unit, product_rows
from findist import algebra_checks, clifford, field
from findist.clifford import (
    BLADE_NAMES,
    CliffordElement,
    EvenCliffordElement,
    QuadraticFormSpec,
    blade,
    even_norms,
    even_unit_columns,
    even_units,
    rho_star,
    rho_star_keys,
    sandwich,
    sandwich_batch,
)
from findist.field import FieldSpec, NonUnitError
from findist.algebra_checks import _check_clifford, _check_kinematic
from findist.harness import make_config
from findist.kinematic import all_proj_points, kappa_inv
from findist.motions import SpecMismatchError
from motion_oracles import exceptional_set, is_exceptional

FIELDS = [FieldSpec(3), FieldSpec(5), FieldSpec(7), FieldSpec(3, 2), FieldSpec(5, 2)]
# lam = -1 and lam = 2 over each field; over F_3 they are one form
FORMS = list({
    (spec.q, lam): QuadraticFormSpec(spec, spec.from_index(lam))
    for spec in FIELDS
    for lam in ((-spec.one()).index, 2)
}.values())
FORM_IDS = [f"q={form.field.q},lam={form.lam.index}" for form in FORMS]


def element(form, row):
    return CliffordElement(form, tuple(form.field.from_index(int(i)) for i in row))


def indices(a):
    return [c.index for c in a.coeffs]


def unit_list(g):
    """The broadcast unit columns as one flat list of (g0, g12, g13, g23) rows."""
    return np.stack(np.broadcast_arrays(*g), axis=-1).reshape(-1, 4).tolist()


@pytest.mark.parametrize("form", FORMS, ids=FORM_IDS)
def test_product_on_all_basis_pairs(form):
    pairs = list(itertools.product(range(8), repeat=2))
    eye = np.eye(8, dtype=np.int64)
    a = eye[[i for i, _ in pairs]]
    b = eye[[j for _, j in pairs]]
    got = product_rows(form, a, b)
    for k, (i, j) in enumerate(pairs):
        want = blade(form, BLADE_NAMES[i]) * blade(form, BLADE_NAMES[j])
        assert got[k].tolist() == indices(want), (BLADE_NAMES[i], BLADE_NAMES[j])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(range(len(FORMS))), st.data())
def test_product_on_drawn_pairs(which, data):
    form = FORMS[which]
    q = form.field.q
    row = st.lists(st.integers(0, q - 1), min_size=8, max_size=8)
    rows = data.draw(st.lists(st.tuples(row, row), min_size=1, max_size=6))
    a = np.array([r for r, _ in rows], dtype=np.int64)
    b = np.array([r for _, r in rows], dtype=np.int64)
    got = product_rows(form, a, b)
    for k, (ra, rb) in enumerate(rows):
        assert got[k].tolist() == indices(element(form, ra) * element(form, rb))


@pytest.mark.parametrize(
    "form",
    [f for f in FORMS if f.field.q <= 9],
    ids=[i for f, i in zip(FORMS, FORM_IDS) if f.field.q <= 9],
)
def test_unit_columns_list_even_units_in_order(form):
    g = even_unit_columns(form)
    assert unit_list(g) == [list(u.key) for u in even_units(form)]


@pytest.mark.parametrize("form", FORMS, ids=FORM_IDS)
def test_norms_match_the_class(form):
    q = form.field.q
    g0, g12 = np.divmod(np.arange(q * q, dtype=np.int64), q)
    got = even_norms(form, g0, g12)
    for k in range(q * q):
        assert got[k] == even_element(form, int(g0[k]), int(g12[k]), 0, 0).norm().index


@pytest.mark.parametrize("spec", [FieldSpec(3), FieldSpec(5), FieldSpec(3, 2)], ids=["q=3", "q=5", "q=9"])
def test_rho_star_keys_on_every_unit(spec):
    form = QuadraticFormSpec.standard(spec)
    q = spec.q
    keys = rho_star_keys(form, even_unit_columns(form)).ravel().tolist()
    want = []
    for g in even_units(form):
        u, v, s, t = rho_star(g).key
        want.append(((u * q + v) * q + s) * q + t)
    assert keys == want


@pytest.mark.parametrize(
    "form",
    [f for f in FORMS if f.field.q <= 5],
    ids=[i for f, i in zip(FORMS, FORM_IDS) if f.field.q <= 5],
)
def test_sandwich_on_every_unit_and_vector(form):
    # every vector over F_3; over F_5, those with coordinate indices 0..2
    vectors = np.array(list(itertools.product(range(3), repeat=3)), dtype=np.int64)
    g = even_unit_columns(form)
    got = sandwich_batch(form, tuple(c[..., None] for c in g), tuple(vectors.T))
    got = np.stack(got, axis=-1).reshape(-1, len(vectors), 3)
    zero = form.field.zero()
    for k, unit in enumerate(even_units(form)):
        for j, x in enumerate(vectors.tolist()):
            v = CliffordElement(form, (zero, *(form.field.from_index(i) for i in x), zero, zero, zero, zero))
            assert got[k, j].tolist() == indices(sandwich(unit, v))[1:4]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(range(len(FORMS))), st.data())
def test_sandwich_on_drawn_rows(which, data):
    form = FORMS[which]
    q = form.field.q
    unit = data.draw(
        st.lists(st.integers(0, q - 1), min_size=4, max_size=4).filter(
            lambda r: is_unit(even_element(form, *r))
        )
    )
    x = data.draw(st.lists(st.integers(0, q - 1), min_size=3, max_size=3))
    got = sandwich_batch(form, tuple(np.array(unit)), tuple(np.array(x)))
    v = element(form, [0, *x, 0, 0, 0, 0])
    assert [int(c) for c in got] == indices(sandwich(even_element(form, *unit), v))[1:4]


def test_rho_star_keys_require_the_standard_form():
    form = QuadraticFormSpec(FieldSpec(7), FieldSpec(7).from_index(2))
    with pytest.raises(ValueError, match="lam = -1"):
        rho_star_keys(form, even_unit_columns(form))


def test_rho_star_keys_refuse_fields_whose_keys_overflow():
    spec = FieldSpec(55109)  # the least prime with q^4 >= 2^63
    g = tuple(np.array([c]) for c in (1, 0, 0, 0))
    with pytest.raises(ValueError, match="overflow"):
        rho_star_keys(QuadraticFormSpec.standard(spec), g)


def test_non_units_are_rejected():
    form = QuadraticFormSpec.standard(FieldSpec(5))
    g = tuple(np.array([c]) for c in (1, 2, 3, 0))  # 1 + 4 = 0
    with pytest.raises(NonUnitError):
        rho_star_keys(form, g)
    with pytest.raises(NonUnitError):
        sandwich_batch(form, g, tuple(np.array([c]) for c in (1, 0, 0)))


def test_a_sandwich_outside_grade_one_raises(monkeypatch):
    form = QuadraticFormSpec.standard(FieldSpec(5))
    terms = clifford._product_terms(form)
    # send the e1 * e12 term to the scalar slot instead of its vector slot
    bent = tuple((i, j, 0, c) if (i, j) == (1, 4) else (i, j, s, c) for i, j, s, c in terms)
    monkeypatch.setattr(clifford, "_product_terms", lambda f: bent)
    g = tuple(c[..., None] for c in even_unit_columns(form))
    with pytest.raises(AssertionError, match="grade 1"):
        sandwich_batch(form, g, tuple(np.eye(3, dtype=np.int64)))


def test_a_motion_off_the_circle_raises(monkeypatch):
    spec = FieldSpec(5)
    form = QuadraticFormSpec.standard(spec)
    # a division that returns 0 makes u = v = 0, so u^2 + v^2 = 0
    monkeypatch.setattr(field._index_field(spec), "div", lambda a, b: a * 0)
    with pytest.raises(SpecMismatchError):
        rho_star_keys(form, even_unit_columns(form))


# q = 3 pairs every unit in the norm check, q <= 7 sandwiches every unit, and
# q <= 11 takes the rho_star fibres; the seed moves the sampled draws
@pytest.mark.parametrize("p,r,seed", [(3, 1, 0), (5, 1, 0), (5, 1, 4242), (7, 1, 4242), (3, 2, 0), (3, 2, 4242),
                                      (11, 1, 0), (11, 1, 4242)])
def test_clifford_check_matches_the_object_loops(p, r, seed):
    config = make_config(FieldSpec(p, r), "random", {}, seed=seed, checks=("clifford-check",))
    assert _check_clifford(config) == check_clifford(config)


@pytest.mark.parametrize("spec", [FieldSpec(3), FieldSpec(5), FieldSpec(3, 2), FieldSpec(13)],
                         ids=["q=3", "q=5", "q=9", "q=13"])
def test_kinematic_check_splits_projective_space_like_exceptional_set(spec):
    points = list(all_proj_points(spec))
    assert [p for p in points if is_exceptional(p)] == exceptional_set(spec)
    findings, metrics, _, _ = _check_kinematic(make_config(spec, "random", {}, checks=("kinematic-check",)))
    assert all(f["pass"] for f in findings)
    assert metrics["proj_points"] == len(points)
    assert metrics["exceptional"] == len(exceptional_set(spec))


@pytest.mark.parametrize("p,r", [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (5, 2)])
def test_kinematic_check_matches_the_object_loops(p, r):
    config = make_config(FieldSpec(p, r), "random", {}, checks=("kinematic-check",))
    assert _check_kinematic(config) == check_kinematic(config)


@pytest.mark.parametrize("spec", [FieldSpec(3), FieldSpec(5), FieldSpec(7), FieldSpec(3, 2), FieldSpec(13)],
                         ids=["q=3", "q=5", "q=7", "q=9", "q=13"])
def test_kappa_inv_is_rho_star_with_x2_negated(spec):
    # the kinematic check's round trip reads kappa^-1 off rho_star_keys this way
    form = QuadraticFormSpec.standard(spec)
    for p in all_proj_points(spec):
        if not is_exceptional(p):
            x0, x1, x2, x3 = p.coords
            assert kappa_inv(p) == rho_star(EvenCliffordElement(form, x0, x1, -x2, x3)), p


def test_a_kappa_row_on_the_exceptional_locus_fails_the_kinematic_check(monkeypatch):
    kappa_rows = algebra_checks._kappa_rows

    def broken(F, motions):
        rows = kappa_rows(F, motions)
        rows[0] = (0, 0, 0, 1)  # X0^2 + X1^2 = 0, where rho_star has no value
        return rows

    monkeypatch.setattr(algebra_checks, "_kappa_rows", broken)
    findings, _, _, _ = _check_kinematic(make_config(FieldSpec(5), "random", {}, checks=("kinematic-check",)))
    by_name = {f["name"]: f for f in findings}
    # the image gains the exceptional key 1 and loses the first motion's point
    assert (by_name["kinematic-image-complement"]["lhs"], by_name["kinematic-image-complement"]["pass"]) == (2, False)
    assert (by_name["kinematic-roundtrip"]["lhs"], by_name["kinematic-roundtrip"]["pass"]) == (1, False)


# e123 e123 = 1 in place of 0 makes sides differ in coefficient, (e123 e123) e3 = e3
# but e123 (e123 e3) = 0; e1 e1 = e23 in place of 1 makes some differ in blade
# only.  The norm and sandwich checks multiply no two odd blades, so only the
# associativity count moves.
@pytest.mark.parametrize("slots, slot", [((7, 7), 0), ((1, 1), 6)], ids=["e123e123=1", "e1e1=e23"])
@pytest.mark.parametrize("spec", [FieldSpec(3), FieldSpec(5)], ids=["q=3", "q=5"])
def test_associativity_of_a_bent_table_matches_the_object_loops(spec, slots, slot, monkeypatch):
    real = clifford._blade_table

    def bent(form):
        table = [list(row) for row in real(form)]
        table[slots[0]][slots[1]] = (slot, form.field.one())
        return tuple(map(tuple, table))

    monkeypatch.setattr(clifford, "_blade_table", bent)
    # uncached, so the kernel's terms are read off the bent table and no cache keeps them
    monkeypatch.setattr(clifford, "_product_terms", clifford._product_terms.__wrapped__)
    config = make_config(spec, "random", {}, checks=("clifford-check",))
    got = _check_clifford(config)
    assert got == check_clifford(config)
    assert got[0][0]["name"] == "clifford-associativity" and got[0][0]["lhs"] > 0


# three rotations' motions a block: F_3, F_5, F_7 and F_9 end on a partial block
@pytest.mark.parametrize("spec", [FieldSpec(3), FieldSpec(5), FieldSpec(7), FieldSpec(3, 2), FieldSpec(13),
                                  FieldSpec(5, 2)], ids=["q=3", "q=5", "q=7", "q=9", "q=13", "q=25"])
def test_kinematic_check_in_blocks_matches_the_object_loops(spec, monkeypatch):
    blocks, kappa_rows = [], algebra_checks._kappa_rows

    def counted(F, motions):
        blocks.append(len(motions[0]))
        return kappa_rows(F, motions)

    monkeypatch.setattr(algebra_checks, "_kappa_rows", counted)
    monkeypatch.setattr(field, "CHUNK_CELLS", 3 * spec.q**2)
    config = make_config(spec, "random", {}, checks=("kinematic-check",))
    assert _check_kinematic(config) == check_kinematic(config)
    assert len(blocks) > 1 and max(blocks) == 3 * spec.q**2


@pytest.mark.parametrize("cells", [1, None], ids=["a-block-per-rotation", "one-block"])
def test_non_canonical_kappa_rows_fail_the_kinematic_check(cells, monkeypatch):
    kappa_rows = algebra_checks._kappa_rows

    def broken(F, motions):
        rows = kappa_rows(F, motions)
        u, v, s, t = motions
        key = ((u * 5 + v) * 5 + s) * 5 + t
        # the first and the last motion, in different blocks, both go to the key
        # 2 q^3 outside projective space; the second to [0 : 2 : 0 : 0], a key
        # inside it that is no canonical point
        rows[np.isin(key, (25, 524))] = (2, 0, 0, 0)
        rows[key == 26] = (0, 2, 0, 0)
        return rows

    monkeypatch.setattr(algebra_checks, "_kappa_rows", broken)
    if cells:
        monkeypatch.setattr(field, "CHUNK_CELLS", cells)
    findings, metrics, _, _ = _check_kinematic(make_config(FieldSpec(5), "random", {}, checks=("kinematic-check",)))
    by_name = {f["name"]: (f["lhs"], f["pass"]) for f in findings}
    # three motions lose their points and two foreign keys join the image
    assert metrics["motions"] == 100
    assert by_name["kinematic-injective"] == (99, False)
    assert by_name["kinematic-image-complement"] == (5, False)
    assert by_name["kinematic-roundtrip"] == (3, False)


def test_the_kinematic_check_holds_one_block_of_motions():
    # blocks of at most CHUNK_CELLS motions keep the peak near 18 MB; all
    # 223,260 motions at once, with their (N, 4) rows and sorted keys, take 45 MB
    config = make_config(FieldSpec(61), "random", {}, checks=("kinematic-check",))
    tracemalloc.start()
    try:
        findings, _, _, _ = _check_kinematic(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(f["pass"] for f in findings)
    assert peak < 24e6
