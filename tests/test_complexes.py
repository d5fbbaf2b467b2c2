"""The simplicial complex engine against definition-level face oracles."""
import json
import re
from itertools import combinations, permutations
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    betti_rational,
    cone_points,
    covers_parent,
    euler_characteristic,
    facet_tuples,
    members_are_subcomplexes,
)

from sepcomplex import build, complexes
from sepcomplex.complexes import (
    CollapseOutcome,
    Complex,
    Covering,
    _mask_to_tuple,
    _maximal,
    _permute_mask,
    clique_complex,
    cross_polytope_boundary,
    isomorphic,
    nerve,
)
from sepcomplex.subsets import separation_graph, subset_str

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
    for t in facet_tuples(cx):
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
    assert facet_tuples(cx) == [(0, 1, 2, 3)]


def test_clique_complex_of_separation_graph():
    g = separation_graph(4, "ss")
    cx = clique_complex([subset_str(v, g.n) for v in g.vertices], g.adjacency)
    assert cx.face_counts() == (8, 16, 8)


def test_clique_complex_validates_adjacency():
    with pytest.raises(ValueError):
        clique_complex(list("ab"), [0b10])  # asymmetric
    with pytest.raises(ValueError):
        clique_complex(list("ab"), [0b01, 0b10])  # self-loop


def test_from_faces_keeps_maximal_only():
    cx = Complex(list("abc"), [(0, 1), (0,), (0, 1, 2)])
    assert facet_tuples(cx) == [(0, 1, 2)]


def test_constructor_rejects_a_repeated_index():
    with pytest.raises(ValueError, match="vertex index 0 is repeated in a facet"):
        Complex(list("ab"), [[0, 0]])
    with pytest.raises(ValueError, match="vertex index 1 is repeated in a facet"):
        Complex(list("abc"), [(0, 2), (1, 2, 1)])


def brute_maximal(masks):
    """Every distinct nonzero mask that no other mask contains, ascending."""
    masks = set(masks)
    return tuple(sorted(m for m in masks if m and not any(m != k and m & ~k == 0 for k in masks)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, (1 << 12) - 1), max_size=40))
@example([0])
@example([0b111, 0b011, 0b100, 0b1000, 0b1000])
def test_maximal_matches_brute_force(masks):
    assert _maximal(masks) == brute_maximal(masks)


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
        for t in facet_tuples(sc.complex):
            for k in range(1, len(t) + 1):
                for sub in combinations(t, k):
                    assert sc.complex.has_face_mask(sum(1 << v for v in sub))


def test_has_face_negative(ss4):
    # vertices 2 and 14 are not separated, so no edge joins them
    i, j = ss4.vertex_index("2"), ss4.vertex_index("14")
    assert not ss4.complex.has_face_mask(1 << i | 1 << j)


def test_empty_complex():
    cx = Complex(list("ab"), [])
    assert cx.is_empty
    assert cx.dimension() == -1
    assert cx.face_counts() == ()
    assert not cx.has_face_mask(0)


# --- local subcomplexes ----------------------------------------------------------

def test_star_deletion_link_against_oracles(ss4):
    cx = ss4.complex
    for f in list(cx.iter_face_masks()):
        sigma = _mask_to_tuple(f)
        assert face_set(cx.star_mask(f)) == naive_star(cx, sigma)
        assert face_set(cx.deletion_mask(f)) == naive_deletion(cx, sigma)
        assert face_set(cx.link_mask(f)) == naive_link(cx, sigma)


def test_link_equals_star_meet_deletion(ss4):
    cx = ss4.complex
    for f in cx.iter_face_masks():
        assert cx.link_mask(f) == cx.star_mask(f).intersection(cx.deletion_mask(f))


def test_octahedron_vertex_link_is_square():
    octa = cross_polytope_boundary(3)
    lk = octa.link_mask(1 << 0)
    assert lk.face_counts() == (4, 4)
    assert isomorphic(lk, SQUARE) is not None


def test_star_of_nonface_rejected(ss4):
    i, j = ss4.vertex_index("2"), ss4.vertex_index("14")
    with pytest.raises(ValueError):
        ss4.complex.star_mask(1 << i | 1 << j)
    with pytest.raises(ValueError):
        ss4.complex.link_mask(1 << i | 1 << j)


def test_star_vertices_are_cone_points(ss4):
    cx = ss4.complex
    v = ss4.vertex_index("13")
    st = cx.star_mask(1 << v)
    assert v in cone_points(st)


def test_induced(ss4):
    cx = ss4.complex
    assert cx.induced_mask((1 << len(cx.labels)) - 1) == cx
    assert cx.induced_mask(0).is_empty
    square = cx.induced_mask(ss4.face_mask(("2", "3", "124", "134")))
    assert isomorphic(square, SQUARE) is not None


def star_intersection_violations(sc):
    """Exhaustive sweep of the star identity: over all face pairs whose union
    is a face, st(a) meet st(b) must equal st(a | b)."""
    cx = sc.complex
    faces = list(cx.iter_face_masks())
    face_set = set(faces)
    stars = {f: cx.star_mask(f) for f in faces}
    bad = 0
    for a in faces:
        star_a = stars[a]
        for b in faces:
            union = a | b
            if union not in face_set:
                continue
            if star_a.intersection(stars[b]) != stars[union]:
                bad += 1
    return bad


def test_star_intersection_identity(ws4):
    assert star_intersection_violations(ws4) == 0


# --- cone points -------------------------------------------------------------------

def test_cone_points():
    assert cone_points(complete_graph_complex(4)) == (0, 1, 2, 3)
    assert cone_points(four_cycle_clique()) == ()


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
    cov = Covering(cx, (cx.star_mask(1 << 0), cx.star_mask(1 << 2)), ("near-a", "near-c"))
    nv = nerve(cov)
    assert facet_tuples(nv) == [(0, 1)]


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
    cov = Covering(cx, (cx.deletion_mask(1 << 0),), ("dl",))
    assert members_are_subcomplexes(cov)
    assert not covers_parent(cov)


# --- collapsing -----------------------------------------------------------------------

def test_collapse_full_simplex():
    # each step deletes the first vertex, dominated by the next one
    assert complete_graph_complex(5).greedy_collapse() == CollapseOutcome("collapsed-to-point", 4)


def test_collapse_cycle_sticks():
    assert four_cycle_clique().greedy_collapse() == CollapseOutcome("stuck", 0)


def test_collapse_ws4(ws4):
    assert ws4.complex.greedy_collapse().collapsed


def test_collapse_is_deterministic(ws4):
    a = ws4.complex.greedy_collapse()
    b = ws4.complex.greedy_collapse()
    assert a == b


@st.composite
def random_clique_complexes(draw, most=9):
    """Clique complex of a random graph on at most `most` vertices."""
    n = draw(st.integers(0, most))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    adjacency = [0] * n
    for present, (a, b) in zip(edges, pairs):
        if present:
            adjacency[a] |= 1 << b
            adjacency[b] |= 1 << a
    return clique_complex([str(i) for i in range(n)], adjacency)


@st.composite
def random_facet_complexes(draw, most=9):
    """Facet-only complex of random facets over at most `most` vertices."""
    n = draw(st.integers(0, most))
    if n == 0:
        return Complex([], [])
    facet = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    return Complex([str(i) for i in range(n)], draw(st.lists(facet, max_size=10)))


def draw_face(data, cx):
    """A face of the nonempty complex `cx`: a subset of a drawn facet."""
    facet = _mask_to_tuple(data.draw(st.sampled_from(cx.facets)))
    return sum(1 << v for v in data.draw(st.lists(st.sampled_from(facet), unique=True)))


@settings(max_examples=150, deadline=None)
@given(st.one_of(random_clique_complexes(), random_facet_complexes()), st.data())
def test_vertex_mask_on_every_construction_path(cx, data):
    # each constructor sets vertex_mask; one that forgot would fail here
    made = [cx, Complex.from_dict(cx.to_dict()), *cx.components(),
            *(cross_polytope_boundary(m) for m in (1, 2, 3))]
    vm = data.draw(st.integers(0, (1 << len(cx.labels)) - 1))
    made += [cx.induced_mask(vm), cx.deletion_mask(vm)]
    if cx.is_pure():
        made.append(cx.boundary())
    adjacency = [0] * len(cx.labels)
    for f in cx.facets:
        for v in _mask_to_tuple(f):
            adjacency[v] |= f & ~(1 << v)
    made.append(clique_complex(cx.labels, adjacency))
    if cx.facets:
        a, b = draw_face(data, cx), draw_face(data, cx)
        star = cx.star_mask(a)
        made += [star, cx.link_mask(a), star.intersection(cx.star_mask(b)),
                 nerve(Covering(cx, (star, cx.induced_mask(vm)), ("s", "i")))]
    for c in made:
        union = 0
        for f in c.facets:
            union |= f
        assert c.vertex_mask == union
        assert c.vertices() == tuple(v for v in range(len(c.labels)) if union >> v & 1)


def dominated(faces, sigma):
    """Some vertex w outside sigma makes tau | {w} a face for every face tau
    containing sigma: the link of sigma is a cone."""
    holding = [tau for tau in faces if sigma <= tau]
    apexes = set().union(*holding) - sigma
    return any(all(tau | {w} in faces for tau in holding) for w in apexes)


def face_order(face):
    """The documented order of greedy_collapse: size, then sorted vertex tuple."""
    return len(face), tuple(sorted(face))


def clique_set(adj, alive):
    """Every nonempty clique of the graph `adj` on the vertex mask `alive`,
    grown one vertex at a time, as frozensets."""
    vertices = _mask_to_tuple(alive)
    level = {frozenset([v]) for v in vertices}
    out = set()
    while level:
        out |= level
        level = {f | {w} for f in level for w in vertices
                 if w not in f and all(adj[w] >> u & 1 for u in f)}
    return out


def record_collapse(cx):
    """Run greedy_collapse, logging each call of the dominated-face finder:
    a snapshot of the graph it searched, which the loop may then edit in place,
    and the face it returned."""
    log = []
    finder = complexes._least_dominated

    def recorder(adj, alive):
        face = finder(adj, alive)
        log.append((list(adj), alive, face))
        return face

    with mock.patch.object(complexes, "_least_dominated", recorder):
        return cx.greedy_collapse(), log


@settings(max_examples=300, deadline=None)
@given(random_clique_complexes())
@example(clique_complex([], []))
@example(clique_complex(list("abc"), [0, 0, 0]))
@example(clique_complex(list("abcd"), [0b0110, 0b0101, 0b0011, 0]))  # a triangle and a point
@example(clique_complex(list("a"), [0]))
@example(four_cycle_clique())
@example(clique_complex(list("abcd"), [0b0110, 0b1101, 0b1011, 0b0110]))  # two triangles
def test_greedy_collapse_deletes_least_dominated_faces(cx):
    outcome, log = record_collapse(cx)
    assert outcome.steps == sum(face is not None for *_, face in log)
    if not log:  # at most one vertex
        assert outcome == CollapseOutcome(
            "collapsed-to-point" if cx.vertex_mask else "stuck", 0)
    for i, (adj, alive, face) in enumerate(log):
        faces = clique_set(adj, alive)
        if i == 0:
            assert faces == face_set(cx)
        small = [tau for tau in faces if len(tau) <= 2]
        if face is None:
            assert i + 1 == len(log) and outcome.status == "stuck"
            assert not any(dominated(faces, tau) for tau in small)
            continue
        u, v = face
        sigma = frozenset(face)
        assert u <= v and sigma in faces and dominated(faces, sigma)
        assert not any(dominated(faces, tau) for tau in small
                       if face_order(tau) < face_order(sigma))
        after = {tau for tau in faces if not sigma <= tau}
        if i + 1 < len(log):
            assert after == clique_set(*log[i + 1][:2])
        else:  # the step that reached a vertex
            assert outcome.collapsed and len(after) == 1
    if outcome.collapsed:
        assert not any(betti_rational(cx))


def barycentric_subdivision(cx):
    """The order complex of the face poset of `cx`, a flag complex: its
    vertices are the faces of `cx`, two adjacent when one holds the other."""
    faces = list(cx.iter_face_masks())
    adjacency = [sum(1 << j for j, g in enumerate(faces) if g != f and f & g in (f, g))
                 for f in faces]
    return clique_complex([",".join(cx.labels[v] for v in _mask_to_tuple(f)) for f in faces],
                          adjacency)


# The 8-vertex dunce hat: a triangle whose sides, each cut into 1-2-3-1,
# are glued as a a a^-1. It is contractible, yet every edge lies in two or
# three triangles and no vertex link is a cone.
DUNCE_HAT = Complex([str(v) for v in range(1, 9)], [
    tuple(v - 1 for v in t) for t in (
        (1, 2, 4), (1, 2, 7), (1, 2, 8), (1, 3, 5), (1, 3, 6), (1, 3, 8),
        (1, 4, 7), (1, 5, 6), (2, 3, 5), (2, 3, 6), (2, 3, 7), (2, 4, 6),
        (2, 5, 8), (3, 7, 8), (4, 6, 8), (4, 7, 8), (5, 6, 8))])


def test_collapse_dunce_hat_sticks():
    hat = barycentric_subdivision(DUNCE_HAT)
    assert hat.face_counts() == (49, 150, 102)
    assert not any(betti_rational(hat))
    assert hat.greedy_collapse() == CollapseOutcome("stuck", 0)
    with pytest.raises(ValueError, match="clique complexes only"):
        DUNCE_HAT.greedy_collapse()


@settings(max_examples=200, deadline=None)
@given(random_clique_complexes(), st.data())
def test_star_link_and_deletion_identities(cx, data):
    """st(a) meet st(b) = st(a | b) through the facet-level meet whenever
    a | b is a face, lk(a) = st(a) meet dl(a), and deleting a vertex set
    leaves the subcomplex induced on the other vertices."""
    m = data.draw(st.integers(0, (1 << len(cx.labels)) - 1), label="vertex set")
    assert cx.deletion_mask(m) == cx.induced_mask(~m)
    faces = list(cx.iter_face_masks())
    if not faces:
        return
    a = data.draw(st.sampled_from(faces), label="a")
    b = data.draw(st.sampled_from([f for f in faces if cx.has_face_mask(a | f)]), label="b")
    assert cx.star_mask(a).intersection(cx.star_mask(b)) == cx.star_mask(a | b)
    assert cx.link_mask(a) == cx.star_mask(a).intersection(cx.deletion_mask(a))


@settings(max_examples=200, deadline=None)
@given(random_clique_complexes(), st.data())
def test_induced_mask_reads_the_facets_off_the_graph(cx, data):
    """A complex with a graph is the clique complex of that graph on its
    vertex mask, on every path that makes one: so the maximal cliques of the
    masked graph, which induced_mask returns, are the largest traces of its
    facets on the mask, and the graph is handed on. Masks reach past the
    vertex table, and negative ones are complements, as deletion_mask
    passes them."""
    bound = 1 << len(cx.labels) + 2
    masks = data.draw(st.lists(st.integers(-bound, bound - 1), max_size=4), label="masks")
    made = [cx, *cx.components(), *(cx.deletion_mask(m) for m in masks)]
    if cx.facets:
        a, b = draw_face(data, cx), draw_face(data, cx)
        made += [cx.star_mask(a), cx.link_mask(a), cx.star_mask(a).intersection(cx.star_mask(b))]
    for x in made:
        assert x.graph is cx.graph
        for vm in (0, -1, x.vertex_mask, *masks):
            induced = x.induced_mask(vm)
            assert induced.facets == _maximal(f & vm for f in x.facets)
            assert induced.graph is cx.graph


def test_greedy_collapse_paper_values(ws4, ws5):
    assert ws4.complex.greedy_collapse() == CollapseOutcome("collapsed-to-point", 8)
    assert ws5.complex.greedy_collapse() == CollapseOutcome("collapsed-to-point", 23)
    ws6 = build(6, "ws").complex
    assert ws6.greedy_collapse() == CollapseOutcome("collapsed-to-point", 55)


# --- isomorphism ------------------------------------------------------------------------

def test_isomorphic_identity(ss4):
    mapping = isomorphic(ss4.complex, ss4.complex)
    assert mapping is not None
    image = {tuple(sorted(mapping[v] for v in f))
             for f in facet_tuples(ss4.complex)}
    assert image == set(facet_tuples(ss4.complex))


def test_isomorphic_square_vs_cross_polytope():
    assert isomorphic(SQUARE, cross_polytope_boundary(2)) is not None


def test_not_isomorphic():
    path = Complex(list("abcd"), [(0, 1), (1, 2), (2, 3)])
    assert isomorphic(SQUARE, path) is None
    # 6 vertices and 6 edges each, every vertex of degree 2: only the search tells them apart
    hexagon = Complex(list("abcdef"), [(i, (i + 1) % 6) for i in range(6)])
    triangles = Complex(list("abcdef"), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert hexagon.face_counts() == triangles.face_counts() == (6, 6)
    assert isomorphic(hexagon, triangles) is None
    assert isomorphic(triangles, hexagon) is None


def test_isomorphic_mapping_preserves_facets():
    octa = cross_polytope_boundary(3)
    # rebuild with scrambled vertex order
    perm = [3, 0, 5, 1, 4, 2]
    relabeled = Complex(
        [octa.labels[perm.index(i)] for i in range(6)],
        [tuple(perm[v] for v in f) for f in facet_tuples(octa)],
    )
    mapping = isomorphic(octa, relabeled)
    assert mapping is not None
    image = {tuple(sorted(mapping[v] for v in f)) for f in facet_tuples(octa)}
    assert image == set(facet_tuples(relabeled))


def brute_isomorphic(x, y):
    """Whether some bijection of the vertices maps x's facets onto y's."""
    vx, vy = x.vertices(), y.vertices()
    if len(vx) != len(vy):
        return False
    want = {frozenset(f) for f in facet_tuples(y)}
    return any({frozenset(image[vx.index(v)] for v in f) for f in facet_tuples(x)} == want
               for image in permutations(vy))


def small_complexes():
    return st.one_of(random_clique_complexes(6), random_facet_complexes(6))


@settings(max_examples=200, deadline=None)
@given(small_complexes(), st.data())
def test_isomorphic_matches_brute_force(x, data):
    if data.draw(st.booleans(), label="relabel x"):
        perm = data.draw(st.permutations(range(len(x.labels))), label="perm")
        y = Complex(x.labels, [[perm[v] for v in f] for f in facet_tuples(x)])
    else:
        y = data.draw(small_complexes(), label="y")
    mapping = isomorphic(x, y)
    assert (mapping is not None) == brute_isomorphic(x, y)
    if mapping is not None:
        assert all(_permute_mask(f, mapping) in set(y.facets) for f in x.facets)


def test_isomorphism_cap():
    big = Complex([str(i) for i in range(70)], [(i,) for i in range(70)])
    with pytest.raises(ValueError):
        isomorphic(big, big)


# --- global invariants ---------------------------------------------------------------------

def test_f_vector_dimension_purity(ss4, ws4):
    assert ss4.complex.face_counts() == (8, 16, 8)
    assert ss4.complex.dimension() == 2
    assert ss4.complex.is_pure()
    assert euler_characteristic(ss4.complex) == 0
    assert ws4.complex.face_counts() == (8, 17, 10)
    assert euler_characteristic(ws4.complex) == 1


def test_generic_and_clique_enumeration_agree(ss4):
    cx = ss4.complex
    generic = Complex(cx.labels, facet_tuples(cx))
    assert generic.face_counts() == cx.face_counts()
    for d in range(cx.dimension() + 1):
        assert generic.faces_of_dim(d) == cx.faces_of_dim(d)


def test_json_round_trip(ss4):
    data = ss4.complex.to_dict(4, "ss")
    again = Complex.from_dict(data)
    assert again.facets == ss4.complex.facets
    assert again.labels == ss4.complex.labels
    assert data["n"] == 4 and data["relation"] == "ss"


@pytest.mark.parametrize("payload, message", [
    ({"relation": "ss", "vertices": ["2"], "facets": [[0]]}, "needs its ground size 'n'"),
    ({"n": 4, "vertices": ["2", "5"], "facets": [[0, 1]]}, "'5' is not a subset of [4]"),
    ({"n": 4, "relation": "ws", "vertices": ["2", "1234"], "facets": [[0, 1]]},
     "'1234' is a frozen subset of [4]"),
    ({"n": 4, "vertices": ["12", "21"], "facets": [[0, 1]]}, "name the same subset"),
    ({"n": 12, "vertices": ["1_0", "+7", "3"], "facets": [[0, 1, 2]]},
     "'1_0' is not a subset of [12]"),
    ({"n": 12, "vertices": ["3", "+7"], "facets": [[0, 1]]}, "'+7' is not a subset of [12]"),
    ({"n": 12, "vertices": ["3", " 7"], "facets": [[0, 1]]}, "' 7' is not a subset of [12]"),
    ({"n": 12, "vertices": ["3", "1, 2"], "facets": [[0, 1]]},
     "'1, 2' is not a subset of [12]"),
    ({"n": 4, "vertices": ["1", "\u0662"], "facets": [[0, 1]]},
     "'\u0662' is not a subset of [4]"),
])
def test_from_dict_checks_the_labels_against_n_and_relation(payload, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Complex.from_dict(payload)
    del payload["relation" if "relation" in payload else "n"]
    assert Complex.from_dict(payload).labels == tuple(payload["vertices"])


@settings(max_examples=200, deadline=None)
@given(st.one_of(random_clique_complexes(), random_facet_complexes()))
def test_json_round_trip_on_random_complexes(cx):
    again = Complex.from_dict(json.loads(json.dumps(cx.to_dict())))
    assert again == cx
    assert again.face_counts() == cx.face_counts()


@settings(max_examples=300, deadline=None)
@given(st.one_of(random_clique_complexes(), random_facet_complexes()))
@example(Complex(list("abcdef"), [(0, 5), (1, 2)]))
def test_components_are_the_connected_pieces_by_lowest_vertex(cx):
    pieces = cx.components()
    assert sorted(f for p in pieces for f in p.facets) == list(cx.facets)
    masks = [p.vertex_mask for p in pieces]
    assert all(not a & b for a, b in combinations(masks, 2))
    for p in pieces:
        edges = {e for t in facet_tuples(p) for e in combinations(t, 2)}
        reached, todo = set(), [p.vertices()[0]]
        while todo:
            v = todo.pop()
            if v not in reached:
                reached.add(v)
                todo.extend(w for e in edges if v in e for w in e)
        assert reached == set(p.vertices())
    assert Complex(cx.labels, [t for p in pieces for t in facet_tuples(p)]) == cx
    lowest = [m & -m for m in masks]
    assert lowest == sorted(lowest)
