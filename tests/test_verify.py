"""The verification layer: check functions, report formatting, the full report."""
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_complexes import random_clique_complexes

from sepcomplex import verify
from sepcomplex.complexes import Complex, Covering, _mask_to_tuple, nerve
from sepcomplex.homology import HomologyGroup
from sepcomplex.separation import CapExceeded, build, deletion_covering, retraction_images
from sepcomplex.subsets import GENERATORS
from sepcomplex.verify import (
    CHECK_NAMES,
    CHECKS,
    CheckResult,
    _intersection_masks,
    antipodal_checks,
    any_failed,
    boundary_findings,
    chain_condition_row,
    chain_condition_violations,
    chain_violations,
    contractibility_certificate,
    contractibility_shadow,
    covering_checks,
    equivariance_checks,
    figure_checks,
    format_results,
    full_report,
    image_nonempty_violations,
    no_free_pair_subsets,
    purity_check,
    results_to_json,
    retraction_checks,
    run_named_check,
    sphere_shadow,
    star_cover_checks,
    star_cover_cone_point_check,
    star_cover_vertex_indices,
)


def all_pass(results):
    return all(r.status == "PASS" for r in results)


def test_figure_checks():
    assert all_pass(figure_checks())


def test_contractibility_shadow(ws4):
    results = contractibility_shadow(ws4)
    assert all_pass(results)
    assert any("collapse" in r.check for r in results)


def test_sphere_shadow(ss4):
    assert sphere_shadow(ss4).status == "PASS"


def test_purity_check(ss4):
    r = purity_check(ss4)
    assert r.status == "PASS"
    assert "(True, 2)" in r.computed


def test_antipodal_checks():
    assert all_pass(antipodal_checks(4))


def test_retraction_sweeps(ss4):
    assert image_nonempty_violations(ss4) == 0
    assert chain_condition_violations(ss4) == 0
    assert all_pass(retraction_checks(ss4))


def test_retraction_sweeps_n5(ss5):
    assert all_pass(retraction_checks(ss5))


def test_chain_condition_witness_states_sampling(ss5, ss6):
    exhaustive = chain_condition_row(ss5)
    assert exhaustive.witness == "violations"
    six = chain_condition_row(ss6)  # every face swept, as at n = 5
    assert (six.status, six.computed, six.witness) == ("PASS", "0", "violations")
    assert run_named_check("chain-condition", 5) == [exhaustive]
    assert [r for r in retraction_checks(ss5) if r.check.startswith("chain")] == [exhaustive]


def brute_chain_violations(images, pairs):
    """Faces with some nonempty proper subface whose image and the face's
    image together hold a complementary pair: every comparable pair swept."""
    bad = 0
    for f, img in images.items():
        sub = f
        while True:
            sub = (sub - 1) & f
            if sub == 0:
                break
            union = img | images[sub]
            if any(union >> i & 1 and union >> j & 1 for i, j in pairs):
                bad += 1
                break
    return bad


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_chain_violations_match_brute_force(ss4, ss5, data):
    sc = data.draw(st.sampled_from([ss4, ss5]))
    images = retraction_images(sc)
    if data.draw(st.booleans()):
        images = dict.fromkeys(images, 0)
    faces = list(images)
    injected = st.tuples(st.sampled_from(faces),
                         st.sampled_from(sc.antipodal_vertex_indices()))
    for f, v in data.draw(st.lists(injected, min_size=1, max_size=6)):
        images[f] = 1 << v
    pairs = sc.singleton_pair_indices()
    assert chain_violations(images, pairs) == brute_chain_violations(images, pairs)


def test_chain_violations_see_subfaces_two_dimensions_down(ss4, ss5):
    for sc in (ss4, ss5):
        images = dict.fromkeys(retraction_images(sc), 0)
        face = next(f for f in images if f.bit_count() == 3)
        vertex = face & -face
        pairs = sc.singleton_pair_indices()
        i, j = pairs[0]
        images[face], images[vertex] = 1 << i, 1 << j
        assert chain_violations(images, pairs) == 1
        assert brute_chain_violations(images, pairs) == 1


def test_retraction_sweeps_reject_ws(ws4):
    with pytest.raises(ValueError):
        image_nonempty_violations(ws4)
    with pytest.raises(ValueError):
        chain_condition_violations(ws4)


def test_retraction_sweeps_guard_small_ground_sets():
    with pytest.raises(ValueError):
        image_nonempty_violations(build(3, "ss"))
    with pytest.raises(ValueError):
        equivariance_checks(build(3, "ss"))


def test_equivariance(ss4, ws4):
    assert all_pass(equivariance_checks(ss4))
    assert all_pass(equivariance_checks(ws4))


def _permuted(mask, perm):
    return sum(1 << perm[v] for v in range(len(perm)) if mask >> v & 1)


def _equivariance_row(sc):
    return next(r for r in equivariance_checks(sc)
                if r.check.startswith("retraction-equivariance"))


def test_retraction_equivariance_over_the_whole_group(ss4, ss5, monkeypatch):
    # oracle: the two generators and their composite, each swept over every
    # face; the row sweeps the generators alone and must agree
    for sc in (ss4, ss5):
        images = retraction_images(sc)
        c, r = (sc.vertex_permutation(g) for g in GENERATORS)
        composite = tuple(c[r[v]] for v in range(len(r)))
        for perm in (c, r, composite):
            assert not any(images[_permuted(f, perm)] != _permuted(img, perm)
                           for f, img in images.items())
        assert _equivariance_row(sc).computed == "0"
        altered = dict(images)
        altered[next(iter(altered))] = 0  # every true image is nonempty
        with monkeypatch.context() as m:
            m.setattr(verify, "retraction_images", lambda _: altered)
            row = _equivariance_row(sc)
        assert row.status == "FAIL" and int(row.computed) > 0


def test_ws5_certificate_row(ws5):
    row = covering_checks(ws5)[-1]
    assert row.check == "covering-intersection-certificates ws(5)"
    assert row.computed == "cone-point 15, collapsed 49, uncertified 0"


def test_covering_checks_n4(ws4):
    results = covering_checks(ws4)
    assert all_pass(results)
    nonempty_row = next(r for r in results if "nonempty" in r.check)
    assert nonempty_row.computed == "16/16"


def test_star_cover(ws4):
    subsets = no_free_pair_subsets(4)
    # both deletions of a pair may appear; every pair must be hit
    assert all(
        any(2 * k in s or 2 * k + 1 in s for k in range(2)) for s in subsets)
    assert len(subsets) == 9  # 3 choices per pair, squared
    assert all_pass(star_cover_checks(ws4))
    single = star_cover_cone_point_check(ws4, (0, 2))
    assert single.status == "PASS"


@st.composite
def full_subcomplex_coverings(draw):
    """A random clique complex covered by up to 5 deletions of vertex sets, or
    by the stars of up to 5 of its vertices: full subcomplexes either way."""
    cx = draw(random_clique_complexes())
    if draw(st.booleans()) or cx.is_empty:
        masks = draw(st.lists(st.integers(0, (1 << len(cx.labels)) - 1), max_size=5))
        members = [cx.deletion_mask(m) for m in masks]
    else:
        vertices = draw(st.lists(st.sampled_from(cx.vertices()), max_size=5))
        members = [cx.star_mask(1 << v) for v in vertices]
    return Covering(cx, tuple(members), tuple(f"m{i}" for i in range(len(members))))


def assert_table_matches_the_fold(covering):
    """The parent induced on each `_intersection_masks` entry is the fold of
    Complex.intersection, and the index sets with a nonzero mask span
    nerve(covering). Returns the folds, keyed by index mask."""
    masks = _intersection_masks(covering.parent.vertex_mask,
                                [m.vertex_mask for m in covering.members])
    assert list(masks) == list(range(1 << len(covering.members)))
    folds = {}
    for smask, m in masks.items():
        fold = covering.parent
        for i, member in enumerate(covering.members):
            if smask >> i & 1:
                fold = fold.intersection(member)
        inter = covering.parent.induced_mask(m)
        assert (inter.labels, inter.facets) == (fold.labels, fold.facets)
        assert bool(m) == (not fold.is_empty)
        folds[smask] = fold
    table = Complex(covering.labels, [_mask_to_tuple(s) for s, m in masks.items() if s and m])
    reference = nerve(covering)
    assert (table.labels, table.facets) == (reference.labels, reference.facets)
    return folds


@settings(max_examples=200, deadline=None)
@given(full_subcomplex_coverings())
def test_intersection_table_matches_the_facet_fold(covering):
    assert_table_matches_the_fold(covering)


def test_intersection_table_on_the_paper_coverings(ws4, ws5):
    for sc in (ws4, ws5):
        folds = assert_table_matches_the_fold(deletion_covering(sc))
        pairs = sc.singleton_pair_indices()
        for chosen in no_free_pair_subsets(sc.n):
            # the intersection star_cover_cone_point_check deletes its way to
            deleted = sum(1 << pairs[i // 2][i % 2] for i in chosen)
            cx = folds[sum(1 << i for i in chosen)]
            assert cx.vertex_mask == sc.complex.vertex_mask & ~deleted
            stars = [cx.star_mask(1 << v) for v in star_cover_vertex_indices(sc, chosen)]
            star_covering = Covering(cx, tuple(stars), tuple(f"s{i}" for i in range(len(stars))))
            assert star_covering.covers_parent()
            inters = [fold for tmask, fold in assert_table_matches_the_fold(star_covering).items()
                      if tmask and not fold.is_empty]
            missing = sum(1 for fold in inters if not fold.cone_points())
            row = star_cover_cone_point_check(sc, chosen)
            assert (row.status, row.computed, row.witness) == (
                "PASS", f"{missing} missing", f"{len(inters)} nonempty intersections")


@settings(max_examples=200, deadline=None)
@given(random_clique_complexes(), st.data())
def test_closed_neighbourhoods_give_stars_and_cone_points(cx, data):
    """On the complex induced on M: it has a cone point iff a vertex of M is
    adjacent to every other, and the star of v in M has vertices N[v] & M."""
    m = data.draw(st.integers(0, (1 << len(cx.labels)) - 1), label="vertex set")
    induced = cx.induced_mask(m)
    closed = [a | 1 << v for v, a in enumerate(cx.graph)]
    vertices = _mask_to_tuple(m)
    assert any(m & ~closed[v] == 0 for v in vertices) == bool(induced.cone_points())
    for v in vertices:
        assert closed[v] & m == induced.star_mask(1 << v).vertex_mask


def test_star_cover_reads_only_the_graph(ws5, monkeypatch):
    def refuse(*args):
        raise AssertionError("star_cover_checks built a star or asked for cone points")

    monkeypatch.setattr(Complex, "star_mask", refuse)
    monkeypatch.setattr(Complex, "cone_points", refuse)
    row, = star_cover_checks(ws5)
    assert (row.status, row.computed) == ("PASS", "27 intersections clean")


def test_star_cover_rejects_free_pairs(ws4):
    with pytest.raises(ValueError):
        star_cover_vertex_indices(ws4, (0,))
    for bad in ((0,), (-1, 0, 2), (0, 2, 4)):
        with pytest.raises(ValueError):
            star_cover_cone_point_check(ws4, bad)


def test_contractibility_certificate(ws4):
    from sepcomplex.complexes import Complex

    assert contractibility_certificate(ws4.complex) in (
        "cone-point", "collapsed-to-point")
    square = Complex(list("abcd"), [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert contractibility_certificate(square) == "none"


def test_run_named_check_dispatch():
    for name in ("figures", "cross-polytope"):
        results = run_named_check(name, 4)
        assert results and all_pass(results)
    assert all_pass(run_named_check("lemma-4-4", 4))
    assert all_pass(run_named_check("purity", 4, relation="ss"))
    with pytest.raises(ValueError):
        run_named_check("nonsense", 4)
    with pytest.raises(ValueError):
        run_named_check("boundary-findings", 4)
    with pytest.raises(ValueError, match="defined at n = 3..4"):
        run_named_check("figures", 99)
    with pytest.raises(ValueError, match="does not take --relation ws"):
        run_named_check("sphere", 4, relation="ws")
    with pytest.raises(CapExceeded):
        run_named_check("boundary-findings", 5, cap=4)
    with pytest.raises(CapExceeded):
        run_named_check("figures", 4, cap=3)
    assert set(CHECK_NAMES) >= {"lemma-4-4", "chain-condition", "covering",
                                "contractibility", "sphere"}
    assert CHECK_NAMES == tuple(check.name for check in CHECKS)
    # `verify covering` runs what the report's covering stage runs
    covering = run_named_check("covering", 4)
    assert covering[-1].check == "star-cover-cone-points-all ws(4)"
    assert [r.check for r in run_named_check("equivariance", 4)] == [
        r.check for rel in ("ss", "ws") for r in run_named_check("equivariance", 4, rel)]


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_every_named_check_passes_at_its_smallest_size(name):
    check = next(c for c in CHECKS if c.name == name)
    results = run_named_check(name, min(check.sizes))
    assert results and all_pass(results)


def test_report_formatting():
    rows = [
        CheckResult("a", "s", "1", "1", "PASS"),
        CheckResult("b", "s", "1", "2", "FAIL", "w"),
        CheckResult("c", "s", "", "", "SKIPPED", "gated"),
    ]
    assert any_failed(rows)
    text = format_results(rows)
    assert "1 passed, 1 failed, 0 inconclusive, 1 skipped" in text
    assert "expected 1, computed 2" in text
    payload = json.loads(results_to_json(rows))
    assert payload["summary"] == {"pass": 1, "fail": 1, "inconclusive": 0, "skipped": 1}
    assert payload["checks"][1]["witness"] == "w"


def test_results_json_deterministic(ws4):
    rows = covering_checks(ws4)
    assert results_to_json(rows) == results_to_json(covering_checks(ws4))


def test_full_report_small():
    results = full_report(4)
    assert not any_failed(results)
    assert any("K(7)" in r.check for r in results)
    # ground size 5 content is gated out at nmax=4
    assert not any("boundary" in r.check for r in results)


def test_full_report_rejects_tiny_nmax():
    # no row runs above ground size 6, so the report refuses nmax 7 as well
    for nmax in (3, 7):
        with pytest.raises(ValueError, match="4 <= n <= 6"):
            full_report(nmax)


def test_full_report_six_ends_with_the_n6_rows(monkeypatch, ss6):
    # The two n = 6 homology calls are stubbed with the known groups:
    # test_acceptance pins the sphere of ss(6), and the homology of ws(6)
    # alone takes about 15 s.
    real = verify.reduced_homology
    six = {ss6.complex: {3: HomologyGroup(1)}, build(6, "ws").complex: {}}

    def stub(cx):
        if cx not in six:
            return real(cx)
        return [six[cx].get(d, HomologyGroup(0)) for d in range(cx.dimension() + 1)]

    monkeypatch.setattr(verify, "reduced_homology", stub)
    results = full_report(6)
    assert [r.check for r in results[-3:]] == [
        "pure-of-dimension ss(6)", "sphere-homology ss(6)", "homology-trivial ws(6)"]
    assert all(r.status == "PASS" for r in results)


def test_boundary_findings_rows():
    results = boundary_findings()
    assert not any_failed(results)
    names = {r.check for r in results}
    assert "H~3(boundary ss5)" in names
    assert "link-two-octahedra lk(15,234)" in names
