"""Acceptance gate: each test pins one agreed criterion at exact-integer
tolerance and prints a pass/fail line (run with -s to stream them)."""
import time
from math import comb

import pytest
from oracles import betti_rational, covers_parent, euler_characteristic, is_frozen_enumerated
from test_complexes import star_intersection_violations
from test_homology import multiply

from sepcomplex import build
from sepcomplex.complexes import (
    Complex,
    cross_polytope_boundary,
    isomorphic,
    nerve,
)
from sepcomplex.homology import (
    HomologyGroup,
    boundary_matrices,
    reduced_homology,
)
from sepcomplex.separation import antipodal_subcomplex, deletion_covering
from sepcomplex.subsets import (
    GENERATORS,
    is_frozen,
    strongly_separated,
    weakly_separated,
)
from sepcomplex.verify import (
    chain_violations,
    covering_checks,
    equivariance_checks,
    star_cover_checks,
)

SQUARE = Complex(list("abcd"), [(0, 1), (1, 2), (2, 3), (0, 3)])


def record(criterion: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {criterion}: {description}"


def groups_are(groups, nontrivial: dict[int, HomologyGroup]) -> bool:
    return all(g == nontrivial.get(d, HomologyGroup(0)) for d, g in enumerate(groups))


@pytest.fixture(scope="module")
def boundary_ws5(ws5):
    return ws5.complex.boundary()


@pytest.fixture(scope="module")
def boundary_ss5(ss5):
    return ss5.complex.boundary()


def test_criterion_01_smallest_complexes():
    start = time.perf_counter()
    ok = True
    for relation in ("ws", "ss"):
        sc = build(3, relation)
        ok = ok and sc.complex.labels == ("2", "13")
        ok = ok and sc.complex.face_counts() == (2,)
    elapsed = time.perf_counter() - start
    record(1, f"two isolated vertices at n=3 ({elapsed:.2f}s)", ok and elapsed < 1.0)


def test_criterion_02_n4_face_counts(ss4, ws4):
    start = time.perf_counter()
    ok = ss4.complex.face_counts() == (8, 16, 8)
    ok = ok and ws4.complex.face_counts() == (8, 17, 10)
    ss_edges = {frozenset(e) for e in ss4.complex.faces_of_dim(1)}
    ws_edges = {frozenset(e) for e in ws4.complex.faces_of_dim(1)}
    ok = ok and ss_edges < ws_edges
    extra = ws_edges - ss_edges
    want = frozenset((ws4.vertex_index("23"), ws4.vertex_index("14")))
    ok = ok and extra == {want}
    elapsed = time.perf_counter() - start
    record(2, f"n=4 f-vectors and the single extra weak edge ({elapsed:.2f}s)",
           ok and elapsed < 1.0)


def test_criterion_03_weak_complexes_contractible_shadow(ws4, ws5):
    ok = all(g.is_trivial for g in reduced_homology(ws4.complex))
    ok = ok and ws4.complex.greedy_collapse().collapsed
    start = time.perf_counter()
    ok = ok and all(g.is_trivial for g in reduced_homology(ws5.complex))
    elapsed = time.perf_counter() - start
    outcome5 = ws5.complex.greedy_collapse()
    record(3, f"trivial homology n=4,5; n=4 collapses; n=5 collapse {outcome5.status} "
              f"({elapsed:.1f}s)", ok and elapsed < 60.0)


def test_criterion_04_strong_complexes_sphere_shadow(ss4, ss5, ss6):
    ok = groups_are(reduced_homology(ss4.complex), {1: HomologyGroup(1)})
    ok = ok and groups_are(reduced_homology(ss5.complex), {2: HomologyGroup(1)})
    start = time.perf_counter()
    ok = ok and groups_are(reduced_homology(ss6.complex), {3: HomologyGroup(1)})
    elapsed = time.perf_counter() - start
    record(4, f"single sphere group in dimension n-3 for n=4,5,6 (n=6 in {elapsed:.1f}s)",
           ok and elapsed < 600.0)


def test_criterion_05_purity(ss4, ws4, ss5, ws5):
    ok = True
    for sc in (ss4, ws4, ss5, ws5):
        ok = ok and sc.complex.is_pure()
        ok = ok and sc.complex.dimension() == comb(sc.n - 1, 2) - 1
    record(5, "both complexes pure of dimension C(n-1,2)-1 for n=4,5", ok)


def test_criterion_06_boundary_homology(boundary_ss5, boundary_ws5):
    start = time.perf_counter()
    groups_ss = reduced_homology(boundary_ss5)
    groups_ws = reduced_homology(boundary_ws5)
    elapsed = time.perf_counter() - start
    ok = groups_are(groups_ss, {2: HomologyGroup(1), 3: HomologyGroup(9),
                                4: HomologyGroup(1)})
    ok = ok and all(not g.torsion for g in groups_ss)
    ok = ok and groups_are(groups_ws, {2: HomologyGroup(1), 4: HomologyGroup(1)})
    record(6, f"boundary homology at n=5: Z, Z^9, Z and Z, Z ({elapsed:.1f}s)",
           ok and elapsed < 600.0)


def test_criterion_07_edge_link_two_octahedra(ws5, boundary_ws5):
    lk = boundary_ws5.link_mask(ws5.face_mask(("15", "234")))
    ok = lk.face_counts() == (12, 24, 16)
    pieces = lk.components()
    octa = cross_polytope_boundary(3)
    ok = ok and len(pieces) == 2
    ok = ok and all(isomorphic(p, octa) is not None for p in pieces)
    record(7, "edge link in the weak boundary is two octahedron boundaries", ok)


def test_criterion_08_triangle_link_two_squares(ss5, boundary_ss5):
    lk = boundary_ss5.link_mask(ss5.face_mask(("2", "23", "234")))
    ok = lk.face_counts() == (8, 8)
    pieces = lk.components()
    ok = ok and len(pieces) == 2
    ok = ok and all(isomorphic(p, SQUARE) is not None for p in pieces)
    groups = reduced_homology(lk)
    ok = ok and groups_are(groups, {0: HomologyGroup(1), 1: HomologyGroup(2)})
    record(8, "triangle link in the strong boundary is two disjoint 4-cycles", ok)


def test_criterion_09_vertex_links_not_spherical(ws5, boundary_ws5):
    ok = True
    for label in ("15", "234"):
        groups = reduced_homology(boundary_ws5.link_mask(1 << ws5.vertex_index(label)))
        ok = ok and groups[1] == HomologyGroup(1) and groups[3] == HomologyGroup(1)
    record(9, "vertex links in the weak boundary have H~1 = Z and H~3 = Z", ok)


def test_criterion_10_retraction_wellformedness(ss4, ss5):
    ok = True
    for sc in (ss4, ss5):
        images = sc.retraction_images
        ok = ok and all(images.values())
        ok = ok and chain_violations(images, sc.singleton_pair_indices(),
                                     sc.retraction_tree) == 0
    record(10, "image nonempty on every face and chain-safe on every comparable pair "
               "(n=4,5)", ok)


def test_criterion_11_cross_polytope_subcomplex():
    ok = True
    for n in range(4, 8):
        sub = antipodal_subcomplex(n)
        ok = ok and isomorphic(sub.complex, cross_polytope_boundary(n - 2)) is not None
        ok = ok and groups_are(reduced_homology(sub.complex),
                               {n - 3: HomologyGroup(1)})
    record(11, "antipodal subcomplex is the cross-polytope boundary sphere (n=4..7)", ok)


def test_criterion_12_deletion_covering(ws4, ws5):
    ok = True
    for sc in (ws4, ws5):
        covering = deletion_covering(sc)
        ok = ok and covers_parent(covering)
        nv = nerve(covering)
        ok = ok and nv.facets == ((1 << (2 * (sc.n - 2))) - 1,)
        rows = covering_checks(sc)
        ok = ok and all(r.status == "PASS" for r in rows)
        star_rows = star_cover_checks(sc)
        ok = ok and all(r.status == "PASS" for r in star_rows)
    record(12, "covering unions, simplex nerve, clean intersections, cone points "
               "(n=4,5)", ok)


def test_criterion_13_property_suites(ss4, ss5, ws4, ws5):
    ok = True
    # predicate symmetry, strong implies weak, equivariance, frozen agreement
    for n in range(1, 6):
        for a in range(1 << n):
            for b in range(1 << n):
                s, w = strongly_separated(a, b), weakly_separated(a, b)
                ok = ok and s == strongly_separated(b, a)
                ok = ok and w == weakly_separated(b, a)
                ok = ok and (not s or w)
                for g in GENERATORS:
                    if not ok:
                        break
                    ga, gb = g(a, n), g(b, n)
                    ok = ok and s == strongly_separated(ga, gb)
                    ok = ok and w == weakly_separated(ga, gb)
        for s_ in range(1 << n):
            ok = ok and is_frozen(s_, n) == is_frozen_enumerated(s_, n, "ws")
            ok = ok and is_frozen(s_, n) == is_frozen_enumerated(s_, n, "ss")
    assert ok, "predicate-level properties failed"

    # retraction equivariance and symmetry action on the complexes
    for sc in (ss4, ss5, ws4, ws5):
        ok = ok and all(r.status == "PASS" for r in equivariance_checks(sc))

    # star-intersection identity, exhaustively over face pairs
    for sc in (ss4, ws4, ss5, ws5):
        ok = ok and star_intersection_violations(sc) == 0

    # chain complexes compose to zero; Euler number matches the Betti sum
    corpus = [ss4.complex, ws4.complex, ss5.complex, ws5.complex,
              cross_polytope_boundary(3), antipodal_subcomplex(5).complex]
    for cx in corpus:
        mats = boundary_matrices(cx)
        ok = ok and all(multiply(a, b).nnz == 0 for a, b in zip(mats, mats[1:]))
        betti = betti_rational(cx)
        ok = ok and betti == [g.rank for g in reduced_homology(cx)]
        ok = ok and euler_characteristic(cx) == 1 + sum(
            b if d % 2 == 0 else -b for d, b in enumerate(betti))
    record(13, "property suites exhaustive at n <= 5", ok)
