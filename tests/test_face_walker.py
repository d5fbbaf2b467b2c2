"""The face walker against brute force, its tree of parents and tops
against the faces it lists, the walk outside vertex masks against the
filtered full walk, and boundary assembly against a tuple-slicing reference
kept here in the test."""
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_homology import multiply

from sepcomplex.complexes import Complex, clique_complex
from sepcomplex.homology import boundary_matrices


@st.composite
def graphs(draw):
    """(n, adjacency masks) for a random simple graph on at most 10 vertices."""
    n = draw(st.integers(0, 10))
    edges = draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                          max_size=n * (n - 1) // 2))
    adjacency = [0] * n
    for present, (a, b) in zip(edges, combinations(range(n), 2)):
        if present:
            adjacency[a] |= 1 << b
            adjacency[b] |= 1 << a
    return n, adjacency


@st.composite
def facet_lists(draw):
    """(n, facets) with facets drawn as index lists over at most 8 vertices."""
    n = draw(st.integers(1, 8))
    facet = st.lists(st.integers(0, n - 1), min_size=1, max_size=5, unique=True)
    return n, draw(st.lists(facet, max_size=8))


def brute_clique_levels(n, adjacency):
    levels = []
    for k in range(1, n + 1):
        level = [c for c in combinations(range(n), k)
                 if all(adjacency[a] >> b & 1 for a, b in combinations(c, 2))]
        if not level:
            break
        levels.append(level)
    return levels


def brute_facet_levels(facets):
    faces = {sub for f in facets for k in range(1, len(set(f)) + 1)
             for sub in combinations(sorted(set(f)), k)}
    top = max((len(f) for f in faces), default=0)
    return [sorted(f for f in faces if len(f) == k) for k in range(1, top + 1)]


def reference_boundaries(levels):
    """The augmented boundary operators by slicing vertex tuples: for each
    matrix its shape and its entries in insertion order."""
    if not levels:
        return []
    below = levels[0]
    out = [(1, len(below), [((0, j), 1) for j in range(len(below))])]
    for faces in levels[1:]:
        index = {f: i for i, f in enumerate(below)}
        entries = []
        for j, f in enumerate(faces):
            for i in range(len(f)):
                entries.append(((index[f[:i] + f[i + 1:]], j), -1 if i % 2 else 1))
        out.append((len(below), len(faces), entries))
        below = faces
    return out


def assembled(cx):
    return [(m.nrows, m.ncols, list(m.entries.items())) for m in boundary_matrices(cx)]


def assert_walker_matches(cx, levels):
    for d, level in enumerate(levels):
        assert cx.faces_of_dim(d) == level
    assert cx.faces_of_dim(len(levels)) == []
    assert cx.face_counts() == tuple(len(level) for level in levels)
    masks = [sum(1 << v for v in f) for level in levels for f in level]
    assert list(cx.iter_face_masks()) == masks
    assert assembled(cx) == reference_boundaries(levels)


def assert_boundary_squares_to_zero(cx):
    mats = boundary_matrices(cx)
    for low, high in zip(mats, mats[1:]):
        assert multiply(low, high).nnz == 0


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_clique_walker_matches_brute_force(graph):
    n, adjacency = graph
    cx = clique_complex([str(i) for i in range(n)], adjacency)
    levels = brute_clique_levels(n, adjacency)
    assert_walker_matches(cx, levels)
    assert_boundary_squares_to_zero(cx)
    cliques = [sum(1 << v for v in c) for level in levels for c in level]
    assert cx.facets == tuple(sorted(c for c in cliques
                                     if not any(c != d and c & ~d == 0 for d in cliques)))


@settings(max_examples=150, deadline=None)
@given(facet_lists())
def test_facet_walker_matches_brute_force(data):
    n, facets = data
    cx = Complex([str(i) for i in range(n)], facets)
    assert cx.graph is None
    assert_walker_matches(cx, brute_facet_levels(facets))
    assert_boundary_squares_to_zero(cx)


@settings(max_examples=200, deadline=None)
@given(st.one_of(graphs().map(lambda g: clique_complex([str(i) for i in range(g[0])], g[1])),
                 facet_lists().map(lambda f: Complex([str(i) for i in range(f[0])], f[1]))),
       st.lists(st.integers(0, (1 << 10) - 1), max_size=4))
def test_walk_outside_masks_filters_the_full_walk(cx, avoid):
    """face_levels(avoid) lists the faces inside none of the masks, level by
    level and in the walker's order; the levels it stops short of are empty."""
    full = list(cx.face_levels())
    levels = list(cx.face_levels(avoid))
    assert len(levels) <= len(full)
    assert levels + [[]] * (len(full) - len(levels)) == \
        [[f for f in level if all(f & ~a for a in avoid)] for level in full]


@settings(max_examples=200, deadline=None)
@given(st.one_of(graphs().map(lambda g: clique_complex([str(i) for i in range(g[0])], g[1])),
                 facet_lists().map(lambda f: Complex([str(i) for i in range(f[0])], f[1]))))
def test_face_tree_records_each_faces_parent_and_top(cx):
    """face_tree's faces are face_levels(), level by level and in order, and
    face i of a level is face parents[i] of the level below plus the top
    vertex tops[i]; below the vertices lies the empty face."""
    tree = list(cx.face_tree())
    assert [faces for faces, _, _ in tree] == list(cx.face_levels())
    below = [0]
    for faces, parents, tops in tree:
        assert len(parents) == len(tops) == len(faces)
        for f, parent, top in zip(faces, parents, tops):
            assert top == f.bit_length() - 1
            assert below[parent] == f ^ 1 << top
        below = faces


@pytest.mark.parametrize("name", ["ss4", "ws5", "ss6", "boundary ws5", "facet-only ws5"])
def test_boundary_matrices_match_tuple_slicing(name, ss4, ws5, ss6):
    cx = {
        "ss4": ss4.complex,
        "ws5": ws5.complex,
        "ss6": ss6.complex,
        "boundary ws5": ws5.complex.boundary(),
        "facet-only ws5": Complex(ws5.complex.labels, ws5.complex.facet_tuples()),
    }[name]
    levels = [cx.faces_of_dim(d) for d in range(cx.dimension() + 1)]
    for level in levels:
        assert all(a < b for a, b in zip(level, level[1:]))
    assert tuple(len(level) for level in levels) == cx.face_counts()
    assert assembled(cx) == reference_boundaries(levels)
