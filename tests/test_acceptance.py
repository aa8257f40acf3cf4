"""Acceptance gate: ten exact end-to-end criteria with runtime budgets.

Every test asserts its criterion exactly and prints one summary line
(visible under pytest -s); the pass/fail signal is the test outcome.
Budgets use time.monotonic and are generous enough for CI noise but tight
enough to catch algorithmic regressions.
"""

import json
import random
import time

from clifford_oracles import sandwich_display_mismatches
from findist.clifford import (
    BLADE_NAMES,
    QuadraticFormSpec,
    blade,
    even_units,
    rho_star,
)
from findist.counting import (
    _ceil_cbrt,
    isotropic_line_counts,
    max_collinear_cocircular,
    prune_curve,
    prune_heavy,
    segment_classes,
    distance_stats,
    verify_identities,
)
from findist.field import FieldSpec
from findist.generators import generate
from findist.geometry import Circle, Line, Point, all_points
from findist.harness import FROZEN_RUDNEV_CEILING, standard_corpus_sets
from findist.incidence import claim_reduction
from findist.kinematic import (
    ProjPlane,
    ProjPoint,
    _chart_a,
    _chart_b,
    all_proj_points,
    kappa,
    kappa_inv,
    phi_left,
    r_tau_plane,
)
from findist.motions import all_motions, so2_order
from incidence_oracles import witness_families
from motion_oracles import exceptional_set, iter_r_tau, matrix_rank, phi_right, transporter_set

F3 = FieldSpec(3)
F5 = FieldSpec(5)
F7 = FieldSpec(7)
F9 = FieldSpec(3, 2)
F11 = FieldSpec(11)
F31 = FieldSpec(31)


def _report(label: str, detail: str) -> None:
    print(f"[PASS] {label}: {detail}")


def test_01_motion_image_bijection():
    details = []
    for spec, n_motions, n_proj, n_exc in ((F3, 36, 40, 4), (F5, 100, 156, 56)):
        t0 = time.monotonic()
        motions = list(all_motions(spec))
        images = {kappa(g).key for g in motions}
        proj = {p.key for p in all_proj_points(spec)}
        exc = {p.key for p in exceptional_set(spec)}
        elapsed = time.monotonic() - t0
        assert (len(motions), len(proj), len(exc)) == (n_motions, n_proj, n_exc)
        assert len(images) == len(motions)
        assert images == proj - exc
        assert elapsed < 1.0, f"q={spec.q} enumeration took {elapsed:.2f}s"
        details.append(f"q={spec.q} {n_motions}={n_proj}-{n_exc} in {elapsed:.2f}s")
    _report("01 motion image bijection", "; ".join(details))


def test_02_roundtrip_and_chart_agreement():
    checked = overlaps = 0
    for spec in (F3, F5, F7):
        for g in all_motions(spec):
            assert kappa_inv(kappa(g)) == g
            checked += 1
            a, b = _chart_a(g), _chart_b(g)
            if any(a) and any(b):
                assert ProjPoint(a) == ProjPoint(b)
                overlaps += 1
    assert overlaps > 0
    _report("02 roundtrip and chart agreement", f"{checked} motions, {overlaps} chart overlaps")


def test_03_equivariance_of_the_embedding():
    for spec, seed in ((F7, 73), (F9, 93)):
        motions = list(all_motions(spec))
        rng = random.Random(seed)
        for _ in range(1000):
            g = motions[rng.randrange(len(motions))]
            x = motions[rng.randrange(len(motions))]
            assert kappa(g.compose(x)) == phi_left(g).apply(kappa(x))
            assert kappa(x.compose(g)) == phi_right(g).apply(kappa(x))
    _report("03 equivariance", "1000 seeded (g, x) pairs over q=7 and q=9")


def test_04_transporter_images_are_four_point_lines():
    t0 = time.monotonic()
    pts = list(all_points(F5))
    order = so2_order(F5)
    assert order == 4
    for x in pts:
        for y in pts:
            images = [kappa(m) for m in transporter_set(x, y)]
            assert len({p.key for p in images}) == order
            assert matrix_rank([p.coords for p in images], F5) == 2
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"625 transporters took {elapsed:.2f}s"
    _report("04 transporter lines", f"625 pairs, {order} collinear points each, {elapsed:.1f}s")


def test_05_axial_rotation_plane():
    x_axis = Line(F7.zero(), F7.one(), F7.zero())
    plane = r_tau_plane(x_axis)
    assert plane == ProjPlane((F7.zero(), F7.zero(), F7.one(), F7.zero()))
    members = 0
    for m in iter_r_tau(x_axis):
        p = kappa(m)
        assert not p.coords[2]
        assert plane.contains(p)
        members += 1

    rng = random.Random(57)
    axes = []
    while len(axes) < 10:
        n1, n2, c = (F7.from_index(rng.randrange(7)) for _ in range(3))
        if not (n1 or n2) or (n1 * n1 + n2 * n2) == F7.zero():
            continue
        axis = Line(n1, n2, c)
        if axis not in axes:
            axes.append(axis)
    for axis in axes:
        axis_plane = r_tau_plane(axis)
        assert all(axis_plane.contains(kappa(m)) for m in iter_r_tau(axis))
    _report("05 axial rotation plane", f"x-axis image ({members} members) in X2=0; 10 random axes contained")


def test_06_clifford_suite():
    form3 = QuadraticFormSpec.standard(F3)
    basis = [blade(form3, name) for name in BLADE_NAMES]
    assert all((a * b) * c == a * (b * c) for a in basis for b in basis for c in basis)

    units3 = list(even_units(form3))
    assert all((g * h).norm() == g.norm() * h.norm() for g in units3 for h in units3)

    fibers: dict = {}
    for g in units3:
        fibers.setdefault(rho_star(g).key, 0)
        fibers[rho_star(g).key] += 1
    motion_keys = {m.key for m in all_motions(F3)}
    assert set(fibers) == motion_keys
    assert all(count == 2 for count in fibers.values())

    # matrix-level agreement on e1, e2, e3 extends to every vector by linearity
    display_details = []
    for lam_index in (F7.q - 1, 2):  # the scalings -1 and 2
        variant = QuadraticFormSpec(F7, F7.from_index(lam_index))
        units = list(even_units(variant))
        vectors = []
        for i in range(3):
            coords = [F7.zero()] * 3
            coords[i] = F7.one()
            vectors.append(tuple(coords))
        assert sandwich_display_mismatches(variant, vectors, units) == 0
        display_details.append(f"lam={variant.lam.index}:{len(units)} units")
    _report(
        "06 clifford suite",
        f"associativity 512 triples; {len(units3)}^2 norm pairs; fibers of size 2; displays {', '.join(display_details)}",
    )


def test_07_counting_identity_suite():
    t0 = time.monotonic()
    sets = 0
    for spec in (F5, F7, F9, F11):
        for i in range(100):
            size = 5 + (3 * i) % 16
            A = generate(spec, "random", {"size": size}, 10_000 * spec.q + i)
            entries = verify_identities(A)
            assert len(entries) == 6
            failed = [e["name"] for e in entries if not e["pass"]]
            assert not failed, f"q={spec.q} seed={i}: {failed}"
            sets += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"identity suite took {elapsed:.1f}s"
    _report("07 counting identities", f"{sets} sets, 6 checks each, {elapsed:.1f}s")


def test_08_reduction_instances(tmp_path):
    instances = lifted = 0
    discrepancies = []
    unexplained = []
    for spec in (F5, F7, F9):
        for seed in range(6):
            A = generate(spec, "random", {"size": 8 + (seed % 5)}, 1000 * spec.q + seed)
            classes = segment_classes(A)
            for r, size in classes.nonzero_sizes():
                w = claim_reduction(A, r)
                instances += 1
                lifted += w.lifted
                points, planes = (witness_families(w)[name] for name in ("points", "planes"))
                assert len(points) == size
                assert len(planes) == size
                assert len({p.key for p in points}) == size
                assert len({pl.key for pl in planes}) == size
                for p in points:
                    x0, x1 = p.coords[0], p.coords[1]
                    assert x0 * x0 + x1 * x1, "image point on the exceptional locus"
                if w.i_on_axis == 0:
                    assert w.equal, "count mismatch with a vacuous on-axis term"
                if not w.equal:
                    discrepancies.append(w.to_json())
                if w.verdict != "explained":
                    unexplained.append(w.to_json())
    dump = tmp_path / "reduction_discrepancies.json"
    dump.write_text(json.dumps(discrepancies, indent=1))
    assert instances >= 50
    assert lifted >= 1
    assert not unexplained, f"{len(unexplained)} unexplained instances, see {dump}"
    _report(
        "08 reduction instances",
        f"{instances} instances ({lifted} lifted), {len(discrepancies)} with a nonzero on-axis term, 0 unexplained",
    )


def test_09_pruning_bounds():
    rng = random.Random(9)
    for i in range(100):
        spec = F7 if i % 2 else F11
        A = generate(spec, "random", {"size": 6 + i % 15}, 500 + i)
        if i % 2:
            while True:
                n1, n2, c = (spec.from_index(rng.randrange(spec.q)) for _ in range(3))
                if n1 or n2:
                    break
            curve = Line(n1, n2, c)
        else:
            center = Point(
                spec.from_index(rng.randrange(spec.q)), spec.from_index(rng.randrange(spec.q))
            )
            curve = Circle(center, spec.from_index(1 + rng.randrange(spec.q - 1)))
        B, check = prune_curve(A, curve)
        assert check["pass"] and check["lhs"] <= check["rhs"]
        assert len(B) <= len(A)

    for label, A in standard_corpus_sets():
        pruned, steps = prune_heavy(A)
        assert steps <= _ceil_cbrt(len(A)) + 1, f"{label}: {steps} pruning steps"
        occ = max_collinear_cocircular(pruned)
        assert occ.m ** 3 <= len(A) ** 2, f"{label}: occupancy {occ.m} after pruning"
    _report("09 pruning bounds", "100 single-curve removals; corpus greedy pruning within budget")


def test_10_monitored_ratios_on_the_standard_corpus():
    t0 = time.monotonic()
    worst = None
    for label, A in standard_corpus_sets():
        size = len(A)
        assert size <= 97 and size**3 <= F31.p**4
        assert 3 * isotropic_line_counts(A).max(initial=0) <= size
        pind = distance_stats(A).pind
        assert 64 * pind**3 >= size**2, f"{label}: pinned count {pind} below the floor"

        nonzero = segment_classes(A).nonzero_sizes()
        r_star, _ = max(nonzero, key=lambda item: (item[1], -item[0].index))
        w = claim_reduction(A, r_star)
        assert w.verdict == "explained", f"{label}: unexplained reduction"
        ratio = w.ratio().surrogate_ratio
        assert ratio <= FROZEN_RUDNEV_CEILING, f"{label}: ratio {ratio} above the frozen ceiling"
        if worst is None or ratio > worst[1]:
            worst = (label, ratio)
    # the ceiling was frozen at this corpus maximum
    assert worst == ("grid-8x12", FROZEN_RUDNEV_CEILING)
    elapsed = time.monotonic() - t0
    _report(
        "10 monitored ratios",
        f"floor holds corpus-wide; max surrogate {worst[1]} on {worst[0]} <= {FROZEN_RUDNEV_CEILING}, {elapsed:.0f}s",
    )
