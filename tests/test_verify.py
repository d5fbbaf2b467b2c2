"""The verification layer: check functions, report formatting, the full report."""
import hashlib
import json
import re
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli import REPORT_N5_STAGES
from test_complexes import four_cycle_clique, random_clique_complexes

from sepcomplex import separation, verify
from sepcomplex.complexes import Complex, Covering, _mask_to_tuple, nerve
from sepcomplex.homology import HomologyGroup
from sepcomplex.separation import CapExceeded, build, deletion_covering
from sepcomplex.subsets import GENERATORS
from sepcomplex.verify import (
    CHECK_NAMES,
    CHECKS,
    CheckResult,
    _central_pair,
    _deletion_masks,
    _intersection_masks,
    _member_rows,
    antipodal_checks,
    any_failed,
    boundary_findings,
    carrier_violations,
    chain_violations,
    contractibility_certificate,
    contractibility_shadow,
    covering_checks,
    equivariance_checks,
    equivariance_violations,
    figure_checks,
    format_results,
    full_report,
    purity_check,
    results_to_json,
    retraction_checks,
    run_named_check,
    sphere_shadow,
    star_cover_checks,
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
    assert all_pass(retraction_checks(ss4))
    assert all_pass(run_named_check("lemma-4-4", 4) + run_named_check("chain-condition", 4))


def test_retraction_sweeps_n5(ss5):
    assert all_pass(retraction_checks(ss5))


def test_named_retraction_rows_are_the_retraction_rows(ss5, ss6):
    # lemma-4-4 and chain-condition each report one row of `retraction`,
    # read off the same table; every face is swept at n = 6 as at n = 5
    for sc in (ss5, ss6):
        rows = retraction_checks(sc)
        for name, row in (("lemma-4-4", "image-nonempty"), ("chain-condition", "chain-condition")):
            check = next(c for c in CHECKS if c.name == name)
            named = check.run(lambda n, rel: sc, sc.n, "ss")
            assert named == [r for r in rows if r.check == f"{row} ss({sc.n})"]
            assert [(r.status, r.computed, r.witness) for r in named] == [
                ("PASS", "0", "violations")]
    assert run_named_check("chain-condition", 5) == [
        r for r in retraction_checks(ss5) if r.check.startswith("chain")]


def _pair_class(sc, f):
    """The pair vertices whose closed neighbourhood holds face f: the image
    of f depends on f through this set alone."""
    g = sc.complex.graph
    return frozenset(v for v in sc.antipodal_vertex_indices() if f & ~(g[v] | 1 << v) == 0)


def test_one_image_table_serves_both_check_functions(monkeypatch):
    calls = Counter()
    real = separation.retraction_image_mask

    def counted(sc, face_mask):
        calls[face_mask] += 1
        return real(sc, face_mask)

    monkeypatch.setattr(separation, "retraction_image_mask", counted)
    sc = build(5, "ss")
    assert all_pass(retraction_checks(sc))
    made = sum(calls.values())
    assert all_pass(equivariance_checks(sc))
    assert sum(calls.values()) == made  # none after the table is built
    classes = {_pair_class(sc, f) for f in sc.complex.iter_face_masks()}
    assert made == len(classes) == 52  # once per neighbourhood class
    assert {_pair_class(sc, f) for f in calls} == classes


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
    # pair vertices added to or set as images, on the true table or an
    # all-zero one: images may leave their vertices' union, or hold a pair
    sc = data.draw(st.sampled_from([ss4, ss5]))
    images = _injected_images(sc, data, zero=data.draw(st.booleans()))
    pairs = sc.singleton_pair_indices()
    assert chain_violations(images, pairs) == brute_chain_violations(images, pairs)


def test_chain_violations_see_subfaces_two_dimensions_down(ss4, ss5):
    for sc in (ss4, ss5):
        images = dict.fromkeys(sc.retraction_images, 0)
        face = next(f for f in images if f.bit_count() == 3)
        vertex = face & -face
        pairs = sc.singleton_pair_indices()
        i, j = pairs[0]
        images[face], images[vertex] = 1 << i, 1 << j
        assert chain_violations(images, pairs) == 1
        assert brute_chain_violations(images, pairs) == 1


def test_chain_violations_see_excess_two_levels_below(ss5):
    # an edge's image leaves its vertices' (empty) images, the triangles
    # above it keep empty images, and a tetrahedron on the edge holds the
    # partner: only the tetrahedron violates
    images = dict.fromkeys(ss5.retraction_images, 0)
    tetra = next(f for f in images if f.bit_count() == 4)
    rest = tetra & tetra - 1
    edge = tetra & -tetra | rest & -rest  # its two lowest vertices
    pairs = ss5.singleton_pair_indices()
    i, j = pairs[0]
    images[edge], images[tetra] = 1 << i, 1 << j
    assert chain_violations(images, pairs) == 1
    assert brute_chain_violations(images, pairs) == 1


def test_every_image_lies_in_its_vertices_images(ss4, ss5, ss6):
    # the fact that keeps chain_violations off its excess path on the
    # paper's tables: no image has a vertex outside its face's vertex images
    for sc, faces in ((ss4, 32), (ss5, 1326), (ss6, 187200)):
        images = sc.retraction_images
        exceptions = 0
        for f, img in images.items():
            union = 0
            for v in _mask_to_tuple(f):
                union |= images[1 << v]
            exceptions += img & ~union != 0
        assert (len(images), exceptions) == (faces, 0)


def _injected_images(sc, data, zero=False):
    """A copy of the table (the fixtures' is shared), or an all-zero table
    if `zero`, with pair vertices added to, or set as, the images of a few
    drawn faces."""
    images = dict.fromkeys(sc.retraction_images, 0) if zero else dict(sc.retraction_images)
    injected = st.tuples(st.sampled_from(list(images)),
                         st.sampled_from(sc.antipodal_vertex_indices()), st.booleans())
    for f, v, replace in data.draw(st.lists(injected, min_size=1, max_size=6)):
        images[f] = 1 << v if replace else images[f] | 1 << v
    return images


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_carrier_violations_match_brute_force(ss4, ss5, data):
    sc = data.draw(st.sampled_from([ss4, ss5]))
    images = _injected_images(sc, data)
    assert carrier_violations(sc.complex, images) == sum(
        1 for f, img in images.items() if not sc.complex.has_face_mask(f | img))


def _carrier_row(sc):
    return next(r for r in retraction_checks(sc) if r.check.startswith("carrier-containment"))


def test_carrier_row_fails_on_an_image_vertex_off_the_face(ss5, monkeypatch):
    # on a fresh complex, since the fixture's table is shared: one edge's
    # image gains a pair vertex adjacent to neither of its ends. The table
    # computes one image per neighbourhood class, so the doctoring goes by
    # class: every face of the edge's class gains v, and none lies in N[v]
    fresh, g = build(5, "ss"), ss5.complex.graph
    edge, v = next((f, v) for f in ss5.retraction_images if f.bit_count() == 2
                   for v in ss5.antipodal_vertex_indices()
                   if f & ~(g[v] | 1 << v) == f)
    doctored = _pair_class(ss5, edge)
    real = separation.retraction_image_mask
    monkeypatch.setattr(separation, "retraction_image_mask",
                        lambda sc, f: real(sc, f) | (1 << v if _pair_class(sc, f) == doctored
                                                     else 0))
    row = _carrier_row(fresh)
    assert row.status == "FAIL" and int(row.computed) >= 1
    assert fresh.retraction_images[edge] >> v & 1
    assert int(row.computed) == sum(1 for f in fresh.retraction_images
                                    if _pair_class(ss5, f) == doctored)
    assert _carrier_row(ss5).computed == "0"
    # the image's own vertices must span a face with it: a complementary
    # pair, each vertex adjacent to all of the face, is not
    i, j = ss5.singleton_pair_indices()[0]
    both = (g[i] | 1 << i) & (g[j] | 1 << j)
    images = dict.fromkeys(ss5.retraction_images, 0)
    face = next(f for f in images if f & ~both == 0)
    images[face] = 1 << i | 1 << j
    assert carrier_violations(ss5.complex, images) == 1
    assert not ss5.complex.has_face_mask(face | images[face])


def test_identity_row_counts_every_face_of_the_cross_polytope(ss4, ss5, ss6, monkeypatch):
    # the row walks K(n)'s faces, the same set as the faces of ss(n) on its vertices
    for sc, want in ((ss4, 8), (ss5, 26), (ss6, 80)):
        kmask = sum(1 << i for i in sc.antipodal_vertex_indices())
        walked = list(sc.complex.induced_mask(kmask).iter_face_masks())
        assert len(walked) == want
        assert walked == [f for f in sc.retraction_images if f & ~kmask == 0]
    # every image emptied on a fresh complex: each face of K(5) counts once
    monkeypatch.setattr(separation, "retraction_image_mask", lambda sc, f: 0)
    rows = {r.check: r.computed for r in retraction_checks(build(5, "ss"))}
    assert rows["identity-on-cross-polytope ss(5)"] == "26"
    assert rows["image-nonempty ss(5)"] == "1326"


def test_retraction_sweeps_reject_ws(ws4):
    with pytest.raises(ValueError, match="strong-separation"):
        retraction_checks(ws4)
    lemma = next(c for c in CHECKS if c.name == "lemma-4-4")
    with pytest.raises(ValueError, match="strong-separation"):
        lemma.run(lambda n, rel: ws4, 4, "ws")


def test_retraction_sweeps_guard_small_ground_sets():
    with pytest.raises(ValueError, match="n >= 4"):
        retraction_checks(build(3, "ss"))
    with pytest.raises(ValueError, match="n >= 4"):
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
        images = sc.retraction_images
        c, r = (sc.vertex_permutation(g) for g in GENERATORS)
        composite = tuple(c[r[v]] for v in range(len(r)))
        for perm in (c, r, composite):
            assert not any(images[_permuted(f, perm)] != _permuted(img, perm)
                           for f, img in images.items())
        assert _equivariance_row(sc).computed == "0"
        # the fixture's table is shared, so the altered one is built on a
        # fresh complex: its first image emptied (every true image is nonempty)
        fresh, first = build(sc.n, "ss"), next(iter(images))
        real = separation.retraction_image_mask
        with monkeypatch.context() as m:
            m.setattr(separation, "retraction_image_mask",
                      lambda cx, f: 0 if f == first else real(cx, f))
            row = _equivariance_row(fresh)
        assert fresh.retraction_images[first] == 0 and images[first] != 0
        assert row.status == "FAIL" and int(row.computed) > 0
        assert _equivariance_row(sc).computed == "0"


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_equivariance_violations_match_brute_force(ss4, ss5, data):
    sc = data.draw(st.sampled_from([ss4, ss5]))
    images = _injected_images(sc, data)
    perms = [sc.vertex_permutation(g) for g in GENERATORS]
    assert equivariance_violations(images, perms) == sum(
        1 for perm in perms for f, img in images.items()
        if images[_permuted(f, perm)] != _permuted(img, perm))


def test_retraction_and_equivariance_rows_make_no_face_query(monkeypatch):
    calls = []
    real = Complex.has_face_mask

    def counted(cx, m):
        calls.append(m)
        return real(cx, m)

    sc = build(5, "ss")  # the table is built inside the checks, so counted too
    monkeypatch.setattr(Complex, "has_face_mask", counted)
    assert all_pass(retraction_checks(sc) + equivariance_checks(sc))
    assert not calls


def test_ws5_certificate_row(ws5):
    row = covering_checks(ws5)[-1]
    assert row.check == "covering-intersection-certificates ws(5)"
    assert row.computed == "cone-point 15, collapsed 49, uncertified 0"


def test_covering_checks_n4(ws4):
    results = covering_checks(ws4)
    assert all_pass(results)
    nonempty_row = next(r for r in results if "nonempty" in r.check)
    assert nonempty_row.computed == "16/16"


@pytest.mark.parametrize("n", [4, 5, 6])
def test_deletion_masks_are_the_covering_table(n):
    sc = build(n, "ws")
    covering = deletion_covering(sc)
    members = [m.vertex_mask for m in covering.members]
    reference = _intersection_masks(sc.complex.vertex_mask, members)
    assert list(_deletion_masks(sc).items()) == list(reference.items())
    # the member and union rows, read off the table, agree with the facets
    subcomplexes, unions = _member_rows(sc, _deletion_masks(sc))
    assert subcomplexes.computed == str(covering.members_are_subcomplexes()) == "True"
    assert unions.computed == str(covering.covers_parent()) == "True"


def test_member_rows_fail_on_a_doctored_table(ws4, monkeypatch):
    vm = ws4.complex.vertex_mask
    facet = ws4.complex.facets[0]
    v = facet & -facet
    # every member deletes the same vertex of `facet`, so none holds the facet
    missing = _intersection_masks(vm, [vm & ~v] * 4)
    monkeypatch.setattr(verify, "_deletion_masks", lambda sc: missing)
    subcomplexes, unions = covering_checks(ws4)[:2]
    assert (subcomplexes.check, subcomplexes.status) == (
        "covering-members-are-subcomplexes ws(4)", "PASS")
    assert (unions.check, unions.status) == ("covering-unions-to-complex ws(4)", "FAIL")
    # a member that deletes nothing is no deletion of one vertex
    subcomplexes, unions = _member_rows(ws4, _intersection_masks(vm, [vm] + [vm & ~v] * 3))
    assert (subcomplexes.status, unions.status) == ("FAIL", "PASS")


def test_central_pair_spans_the_central_star(ws4, ws5):
    for sc, labels in ((ws4, ("14", "23")), (ws5, ("15", "234"))):
        i, j = _central_pair(sc)
        assert (sc.complex.labels[i], sc.complex.labels[j]) == labels
        star = sc.complex.star_mask(1 << i | 1 << j)
        closed = [a | 1 << v for v, a in enumerate(sc.complex.graph)]
        assert star.has_face_mask(1 << i | 1 << j)
        assert closed[i] & closed[j] == star.vertex_mask
        assert {i, j} <= set(star.cone_points())


def test_central_star_row_counts_the_intersections_holding_the_star(ws4, monkeypatch):
    # a vertex star, so that some deletion intersections miss it
    v = ws4.singleton_pair_indices()[0][0]
    monkeypatch.setattr(verify, "_central_pair", lambda sc: (v, v))
    star = ws4.complex.star_mask(1 << v).vertex_mask
    masks = _deletion_masks(ws4)
    holding = sum(1 for m in masks.values() if star & ~m == 0)
    row = next(r for r in covering_checks(ws4) if "central-star" in r.check)
    assert 0 < holding < len(masks)
    assert (row.status, row.computed) == ("FAIL", f"{holding}/{len(masks)}")


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
    for sc, centre in ((ws4, ("14", "23")), (ws5, ("15", "234"))):
        folds = assert_table_matches_the_fold(deletion_covering(sc))
        pairs = sc.singleton_pair_indices()
        size = 2 * len(pairs)
        no_free_pair = [chosen for r in range(size + 1) for chosen in combinations(range(size), r)
                        if all(2 * m in chosen or 2 * m + 1 in chosen for m in range(len(pairs)))]
        assert len(no_free_pair) == 3 ** (sc.n - 2)
        clean = 0
        for chosen in no_free_pair:
            # the intersection deleting pair vertex i // 2, side i % 2, for i in chosen
            deleted = sum(1 << pairs[i // 2][i % 2] for i in chosen)
            cx = folds[sum(1 << i for i in chosen)]
            assert cx.vertex_mask == sc.complex.vertex_mask & ~deleted
            cover = ([sc.vertex_index(label) for label in centre]
                     + [pairs[i // 2][i % 2] for i in range(size) if i not in chosen])
            stars = [cx.star_mask(1 << v) for v in cover]
            star_covering = Covering(cx, tuple(stars), tuple(f"s{i}" for i in range(len(stars))))
            inters = [fold for tmask, fold in assert_table_matches_the_fold(star_covering).items()
                      if tmask and not fold.is_empty]
            clean += star_covering.covers_parent() and all(fold.cone_points() for fold in inters)
        row, = star_cover_checks(sc)
        assert clean == len(no_free_pair)
        assert (row.status, row.computed, row.witness) == (
            "PASS", f"{clean} intersections clean", "")


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


def test_star_cover_fails_without_the_central_pair(ws5, monkeypatch):
    # 14 and 235 are complements, but not the central edge {15, 234}
    monkeypatch.setattr(verify, "_central_pair",
                        lambda sc: (sc.vertex_index("14"), sc.vertex_index("235")))
    row, = star_cover_checks(ws5)
    assert (row.status, row.computed) == ("FAIL", "0 intersections clean")
    sigmas = [re.fullmatch(r"ws\(5\) sigma=\{([\d,]+)\}", w).group(1)
              for w in row.witness.split("; ")]
    index_masks = [sum(1 << int(i) for i in sigma.split(",")) for sigma in sigmas]
    assert len(index_masks) == 27 and index_masks == sorted(set(index_masks))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_cone_points_check_sweeps_every_no_free_pair_intersection(n):
    row, = run_named_check("cone-points", n)
    assert (row.status, row.computed, row.witness) == (
        "PASS", f"{3 ** (n - 2)} intersections clean", "")


def test_contractibility_certificate(ws4):
    assert contractibility_certificate(ws4.complex) in (
        "cone-point", "collapsed-to-point")
    square = four_cycle_clique()
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
    # the report is defined at nmax 4..6 (its K(7) rows run at every nmax)
    for nmax in (3, 7):
        with pytest.raises(ValueError, match="4 <= n <= 6"):
            full_report(nmax)


def test_full_report_six_ends_with_the_n6_rows(monkeypatch, ss6):
    # The homology of ss(6) is stubbed with its known groups, since
    # test_acceptance pins that sphere; the homology of ws(6) is computed.
    real = verify.reduced_homology

    def stub(cx):
        if cx != ss6.complex:
            return real(cx)
        return [HomologyGroup(1 if d == 3 else 0) for d in range(cx.dimension() + 1)]

    monkeypatch.setattr(verify, "reduced_homology", stub)
    said = []
    results = full_report(6, progress=said.append)
    assert said == [*REPORT_N5_STAGES, "sphere shadow ss(6)", "contractibility shadow ws(6)"]
    assert [r.check for r in results[-4:]] == [
        "pure-of-dimension ss(6)", "sphere-homology ss(6)", "homology-trivial ws(6)",
        "collapse-certificate ws(6)"]
    assert all(r.status == "PASS" for r in results)
    # the digest of `sepcx reproduce-paper --n 6 --format json`
    assert hashlib.sha256(results_to_json(results).encode()).hexdigest() == (
        "835f32c9078454af78dce0ab0247e26d4f6651dc5478dbf20d67808df629223f")


def test_boundary_findings_rows():
    results = boundary_findings()
    assert not any_failed(results)
    names = {r.check for r in results}
    assert "H~3(boundary ss5)" in names
    assert "link-two-octahedra lk(15,234)" in names
