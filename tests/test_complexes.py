"""The simplicial complex engine against definition-level face oracles."""
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sepcomplex.complexes import (
    CollapseOutcome,
    Complex,
    Covering,
    _mask_to_tuple,
    clique_complex,
    clique_complex_of_graph,
    cross_polytope_boundary,
    isomorphic,
    nerve,
    star_intersection,
)
from sepcomplex.subsets import separation_graph

SQUARE = Complex(list("abcd"), [(0, 1), (1, 2), (2, 3), (0, 3)])
TRIANGLE = Complex(list("abc"), [(0, 1, 2)])


def four_cycle_clique():
    # cycle a-b-c-d-a
    return clique_complex(list("abcd"), [0b1010, 0b0101, 0b1010, 0b0101])


def complete_graph_complex(k):
    full = (1 << k) - 1
    return clique_complex([str(i) for i in range(k)], [full ^ (1 << i) for i in range(k)])


# --- definition-level oracles -------------------------------------------------

def face_set(cx):
    """Every nonempty face as a frozenset of vertex indices."""
    out = set()
    for t in cx.facet_tuples():
        for k in range(1, len(t) + 1):
            out.update(frozenset(c) for c in combinations(t, k))
    return out


def naive_star(cx, sigma):
    faces = face_set(cx)
    sigma = frozenset(sigma)
    return {f for f in faces if (f | sigma) in faces}


def naive_deletion(cx, sigma):
    sigma = frozenset(sigma)
    return {f for f in face_set(cx) if not f & sigma}


def naive_link(cx, sigma):
    sigma = frozenset(sigma)
    return naive_star(cx, sigma) & naive_deletion(cx, sigma)


# --- construction ---------------------------------------------------------------

def test_clique_complex_four_cycle():
    cx = four_cycle_clique()
    assert cx.face_counts() == (4, 4)
    assert cx.dimension() == 1


def test_clique_complex_complete_graph():
    cx = complete_graph_complex(4)
    assert cx.facet_tuples() == [(0, 1, 2, 3)]


def test_clique_complex_of_separation_graph():
    cx = clique_complex_of_graph(separation_graph(4, "ss"))
    assert cx.face_counts() == (8, 16, 8)


def test_clique_complex_validates_adjacency():
    with pytest.raises(ValueError):
        clique_complex(list("ab"), [0b10])  # asymmetric
    with pytest.raises(ValueError):
        clique_complex(list("ab"), [0b01, 0b10])  # self-loop


def test_from_faces_keeps_maximal_only():
    cx = Complex(list("abc"), [(0, 1), (0,), (0, 1, 2)])
    assert cx.facet_tuples() == [(0, 1, 2)]


def test_isolated_vertices_are_singleton_facets():
    cx = Complex(list("abc"), [(0, 1), (2,)])
    assert cx.vertices() == (0, 1, 2)
    assert cx.face_counts() == (3, 1)


# --- enumeration and membership ----------------------------------------------

def test_faces_of_dim_triangle():
    assert TRIANGLE.faces_of_dim(1) == [(0, 1), (0, 2), (1, 2)]
    assert TRIANGLE.faces_of_dim(5) == []


def test_faces_of_dim_ws4(ws4):
    assert len(ws4.complex.faces_of_dim(2)) == 10


def test_faces_lex_order(ss4):
    for d in range(ss4.complex.dimension() + 1):
        faces = ss4.complex.faces_of_dim(d)
        assert faces == sorted(faces)


def test_downward_closure(ss4, ws4):
    for sc in (ss4, ws4):
        for t in sc.complex.facet_tuples():
            for k in range(1, len(t) + 1):
                for sub in combinations(t, k):
                    assert sc.complex.has_face(sub)


def test_has_face_negative(ss4):
    # vertices 2 and 14 are not separated, so no edge joins them
    i, j = ss4.vertex_index("2"), ss4.vertex_index("14")
    assert not ss4.complex.has_face((i, j))


def test_empty_complex():
    cx = Complex.empty(list("ab"))
    assert cx.is_empty
    assert cx.dimension() == -1
    assert cx.face_counts() == ()
    assert not cx.has_face(())


# --- local subcomplexes ----------------------------------------------------------

def test_star_deletion_link_against_oracles(ss4):
    cx = ss4.complex
    for f in list(cx.iter_face_masks()):
        sigma = tuple(i for i in range(len(cx.labels)) if f >> i & 1)
        assert face_set(cx.star(sigma)) == naive_star(cx, sigma)
        assert face_set(cx.deletion(sigma)) == naive_deletion(cx, sigma)
        assert face_set(cx.link(sigma)) == naive_link(cx, sigma)


def test_link_equals_star_meet_deletion(ss4):
    cx = ss4.complex
    for f in cx.iter_face_masks():
        sigma = tuple(i for i in range(len(cx.labels)) if f >> i & 1)
        assert cx.link(sigma) == cx.star(sigma).intersection(cx.deletion(sigma))


def test_octahedron_vertex_link_is_square():
    octa = cross_polytope_boundary(3)
    lk = octa.link((0,))
    assert lk.face_counts() == (4, 4)
    assert isomorphic(lk, SQUARE) is not None


def test_star_of_nonface_rejected(ss4):
    i, j = ss4.vertex_index("2"), ss4.vertex_index("14")
    with pytest.raises(ValueError):
        ss4.complex.star((i, j))
    with pytest.raises(ValueError):
        ss4.complex.link((i, j))


def test_star_vertices_are_cone_points(ss4):
    cx = ss4.complex
    v = ss4.vertex_index("13")
    st = cx.star((v,))
    assert v in st.cone_points()


def test_induced(ss4):
    cx = ss4.complex
    assert cx.induced(range(len(cx.labels))) == cx
    assert cx.induced(()).is_empty
    square = cx.induced([ss4.vertex_index(s) for s in ("2", "3", "124", "134")])
    assert isomorphic(square, SQUARE) is not None


def test_star_intersection_identity(ws4):
    cx = ws4.complex
    faces = list(cx.iter_face_masks())
    face_set_masks = set(faces)
    for a in faces:
        sa = tuple(i for i in range(len(cx.labels)) if a >> i & 1)
        assert star_intersection(cx, sa, sa) == cx.star(sa)
        for b in faces:
            if a | b not in face_set_masks:
                continue
            sb = tuple(i for i in range(len(cx.labels)) if b >> i & 1)
            su = tuple(i for i in range(len(cx.labels)) if (a | b) >> i & 1)
            assert star_intersection(cx, sa, sb) == cx.star(su)


def test_star_intersection_disjoint_edges_of_k4():
    cx = complete_graph_complex(4)
    result = star_intersection(cx, (0, 1), (2, 3))
    assert result == cx.star((0, 1, 2, 3))


def test_star_intersection_requires_face_union():
    cx = four_cycle_clique()
    with pytest.raises(ValueError):
        star_intersection(cx, (0,), (2,))  # diagonal of the square


# --- cone points -------------------------------------------------------------------

def test_cone_points():
    assert complete_graph_complex(4).cone_points() == (0, 1, 2, 3)
    assert four_cycle_clique().cone_points() == ()


# --- boundary ------------------------------------------------------------------------

def test_boundary_of_triangle():
    bd = TRIANGLE.boundary()
    assert bd.face_counts() == (3, 3)
    assert isomorphic(bd, Complex(list("xyz"), [(0, 1), (1, 2), (0, 2)])) is not None


def test_boundary_of_closed_complex_is_empty():
    for m in range(2, 6):
        assert cross_polytope_boundary(m).boundary().is_empty


def test_boundary_requires_pure():
    with pytest.raises(ValueError):
        Complex(list("abcd"), [(0, 1, 2), (2, 3)]).boundary()


# --- components -----------------------------------------------------------------------

def test_components():
    two_edges = Complex(list("abcd"), [(0, 1), (2, 3)])
    pieces = two_edges.components()
    assert len(pieces) == 2
    assert pieces[0].vertices() == (0, 1)
    assert pieces[1].vertices() == (2, 3)
    assert len(TRIANGLE.components()) == 1


# --- nerve ---------------------------------------------------------------------------

def test_nerve_two_overlapping_members():
    cx = Complex(list("abc"), [(0, 1), (1, 2)])
    cov = Covering(cx, (cx.star((0,)), cx.star((2,))), ("near-a", "near-c"))
    nv = nerve(cov)
    assert nv.facet_tuples() == [(0, 1)]


def test_nerve_of_trivial_covering_is_point(ws4):
    cx = ws4.complex
    nv = nerve(Covering(cx, (cx,), ("whole",)))
    assert nv.face_counts() == (1,)


def test_nerve_of_disjoint_pieces():
    cx = Complex(list("abcd"), [(0, 1), (2, 3)])
    pieces = cx.components()
    nv = nerve(Covering(cx, tuple(pieces), ("left", "right")))
    assert nv.face_counts() == (2,)


def test_covering_validation(ws4):
    cx = ws4.complex
    with pytest.raises(ValueError):
        Covering(cx, (cx,), ("a", "b"))
    cov = Covering(cx, (cx.deletion((0,)),), ("dl",))
    assert cov.members_are_subcomplexes()
    assert not cov.covers_parent()


# --- collapsing -----------------------------------------------------------------------

def test_collapse_full_simplex():
    out = complete_graph_complex(5).greedy_collapse()
    assert out.collapsed
    assert out.remaining_facets == 1


def test_collapse_cycle_sticks():
    out = four_cycle_clique().greedy_collapse()
    assert out.status == "stuck"
    assert out.remaining_facets == 4
    assert out.steps == 0


def test_collapse_ws4(ws4):
    assert ws4.complex.greedy_collapse().collapsed


def test_collapse_is_deterministic(ws4):
    a = ws4.complex.greedy_collapse()
    b = ws4.complex.greedy_collapse()
    assert a == b


def subset_scan_collapse(self):
    """The earlier greedy_collapse, kept verbatim as the oracle: each step
    scans the sorted subsets of every facet for the least free face."""
    facets = set(self.facets)
    steps = 0
    while True:
        if len(facets) == 1 and next(iter(facets)).bit_count() == 1:
            return CollapseOutcome("collapsed-to-point", 1, steps)
        best: tuple[tuple[int, ...], int, int] | None = None
        for big in sorted(facets):
            others = [big & g for g in facets if g != big]
            others = [o for o in set(others) if o]
            t = _mask_to_tuple(big)
            subs: list[tuple[int, ...]] = []
            for k in range(1, len(t)):
                subs.extend(combinations(t, k))
            subs.sort()
            for sub in subs:
                if best is not None and sub >= best[0]:
                    break
                sm = 0
                for v in sub:
                    sm |= 1 << v
                if not any(sm & ~o == 0 for o in others):
                    best = (sub, sm, big)
                    break
        if best is None:
            return CollapseOutcome("stuck", len(facets), steps)
        _, sm, big = best
        facets.remove(big)
        rest = sm
        while rest:
            low = rest & -rest
            rest ^= low
            cand = big ^ low
            if cand and not any(cand & ~g == 0 for g in facets):
                facets.add(cand)
        steps += 1


@st.composite
def random_clique_complexes(draw):
    """Clique complex of a random graph on at most 9 vertices."""
    n = draw(st.integers(0, 9))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    adjacency = [0] * n
    for present, (a, b) in zip(edges, pairs):
        if present:
            adjacency[a] |= 1 << b
            adjacency[b] |= 1 << a
    return clique_complex([str(i) for i in range(n)], adjacency)


@st.composite
def random_facet_complexes(draw):
    """Facet-only complex of random facets over at most 9 vertices."""
    n = draw(st.integers(0, 9))
    if n == 0:
        return Complex.empty()
    facet = st.lists(st.integers(0, n - 1), min_size=1, max_size=n)
    return Complex([str(i) for i in range(n)], draw(st.lists(facet, max_size=10)))


@settings(max_examples=300, deadline=None)
@given(st.one_of(random_clique_complexes(), random_facet_complexes()))
@example(Complex.empty())
@example(Complex(list("abc"), [(0,), (1,), (2,)]))
@example(Complex(list("abcd"), [(0, 1, 2), (3,)]))
@example(Complex(list("a"), [(0,)]))
def test_greedy_collapse_matches_subset_scan(cx):
    assert cx.greedy_collapse() == subset_scan_collapse(cx)


def test_greedy_collapse_paper_values(ws4, ws5):
    assert ws4.complex.greedy_collapse() == CollapseOutcome("collapsed-to-point", 1, 12)
    assert ws5.complex.greedy_collapse() == CollapseOutcome("collapsed-to-point", 1, 433)


# --- isomorphism ------------------------------------------------------------------------

def test_isomorphic_identity(ss4):
    mapping = isomorphic(ss4.complex, ss4.complex)
    assert mapping is not None
    image = {tuple(sorted(mapping[v] for v in f))
             for f in ss4.complex.facet_tuples()}
    assert image == set(ss4.complex.facet_tuples())


def test_isomorphic_square_vs_cross_polytope():
    assert isomorphic(SQUARE, cross_polytope_boundary(2)) is not None


def test_not_isomorphic():
    path = Complex(list("abcd"), [(0, 1), (1, 2), (2, 3)])
    assert isomorphic(SQUARE, path) is None


def test_isomorphic_mapping_preserves_facets():
    octa = cross_polytope_boundary(3)
    # rebuild with scrambled vertex order
    perm = [3, 0, 5, 1, 4, 2]
    relabeled = Complex(
        [octa.labels[perm.index(i)] for i in range(6)],
        [tuple(perm[v] for v in f) for f in octa.facet_tuples()],
    )
    mapping = isomorphic(octa, relabeled)
    assert mapping is not None
    image = {tuple(sorted(mapping[v] for v in f)) for f in octa.facet_tuples()}
    assert image == set(relabeled.facet_tuples())


def test_isomorphism_cap():
    big = Complex([str(i) for i in range(70)], [(i,) for i in range(70)])
    with pytest.raises(ValueError):
        isomorphic(big, big)


# --- global invariants ---------------------------------------------------------------------

def test_f_vector_dimension_purity(ss4, ws4):
    assert ss4.complex.face_counts() == (8, 16, 8)
    assert ss4.complex.dimension() == 2
    assert ss4.complex.is_pure()
    assert ss4.complex.euler_characteristic() == 0
    assert ws4.complex.face_counts() == (8, 17, 10)
    assert ws4.complex.euler_characteristic() == 1


def test_generic_and_clique_enumeration_agree(ss4):
    cx = ss4.complex
    generic = Complex(cx.labels, cx.facet_tuples())
    assert generic.face_counts() == cx.face_counts()
    for d in range(cx.dimension() + 1):
        assert generic.faces_of_dim(d) == cx.faces_of_dim(d)


def test_json_round_trip(ss4):
    data = ss4.complex.to_dict(4, "ss")
    again = Complex.from_dict(data)
    assert again.facets == ss4.complex.facets
    assert again.labels == ss4.complex.labels
    assert data["n"] == 4 and data["relation"] == "ss"
