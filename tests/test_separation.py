"""Builders: separation complexes, the antipodal subcomplex, retraction data,
and the deletion covering."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import covers_parent, facet_tuples, members_are_subcomplexes

from sepcomplex import verify
from sepcomplex.cli import main
from sepcomplex.complexes import (
    Complex,
    _mask_to_tuple,
    clique_complex,
    cross_polytope_boundary,
    isomorphic,
)
from sepcomplex.homology import reduced_homology
from sepcomplex.separation import (
    CapExceeded,
    SeparationComplex,
    antipodal_subcomplex,
    build,
    deletion_covering,
    retraction_image_mask,
)
from sepcomplex.subsets import (
    GENERATORS,
    ground_mask,
    separation_graph,
    strongly_separated,
    subset_str,
)


# --- build -------------------------------------------------------------------

def test_build_empty_for_tiny_ground_sets(capsys):
    # every subset of [1] or [2] is frozen, so the general path builds nothing
    for n in (1, 2):
        for relation in ("ss", "ws"):
            sc = build(n, relation)
            assert sc.complex.is_empty
            assert sc.complex == Complex([], [])
            assert sc.complex.face_counts() == ()
            assert reduced_homology(sc.complex) == []
            assert sc.singleton_pair_indices() == ()
    assert main(["build", "--n", "2", "--relation", "ss"]) == 0
    assert capsys.readouterr().out == (
        '{\n  "facets": [],\n  "n": 2,\n  "relation": "ss",\n  "vertices": []\n}\n')


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("relation", ["ss", "ws"])
def test_pair_vertices_in_pair_order(n, relation):
    # index i of the deletion table deletes antipodal_vertex_indices()[i]
    sc = build(n, relation)
    pair_vertices = sc.antipodal_vertex_indices()
    assert pair_vertices == tuple(v for pair in sc.singleton_pair_indices() for v in pair)
    masks = verify._deletion_masks(sc)
    vm = sc.complex.vertex_mask
    for i, v in enumerate(pair_vertices):
        assert masks[1 << i] == vm & ~(1 << v)


def test_build_n3():
    for relation in ("ss", "ws"):
        sc = build(3, relation)
        assert sc.complex.labels == ("2", "13")
        assert sc.complex.face_counts() == (2,)


def test_build_labels_follow_mask_order(ss5):
    assert list(ss5.masks) == sorted(ss5.masks)
    assert ss5.complex.labels == tuple(subset_str(m, 5) for m in ss5.masks)


def test_vertex_counts():
    for n in (3, 4, 5):
        for relation in ("ss", "ws"):
            assert len(build(n, relation).masks) == 2 ** n - 2 * n
    for n in (6, 7):
        for relation in ("ss", "ws"):
            assert len(separation_graph(n, relation).vertices) == 2 ** n - 2 * n


def test_build_cap():
    with pytest.raises(CapExceeded):
        build(8, "ss")


def test_cap_is_an_argument_not_the_environment(monkeypatch):
    with pytest.raises(CapExceeded):
        build(5, "ss", cap=4)
    assert not build(4, "ss", cap=4).complex.is_empty
    monkeypatch.setenv("SEPCX_CAP", "4")
    assert not build(5, "ss").complex.is_empty


def test_build_rejects_bad_relation():
    with pytest.raises(ValueError):
        build(4, "weak")


def test_purity_and_dimension(ss4, ws4, ss5, ws5, ss6):
    # facet dimension is (n-1 choose 2) - 1
    for sc, dim in ((ss4, 2), (ws4, 2), (ss5, 5), (ws5, 5), (ss6, 9)):
        assert sc.complex.is_pure()
        assert sc.complex.dimension() == dim


def test_edge_sets_nest_up_to_n6():
    for n in (3, 4, 5, 6):
        ss, ws = separation_graph(n, "ss"), separation_graph(n, "ws")
        assert ss.vertices == ws.vertices
        assert all(a & ~b == 0 for a, b in zip(ss.adjacency, ws.adjacency))


def test_vertex_index_lookup(ss4):
    assert ss4.complex.labels[ss4.vertex_index("13")] == "13"
    assert ss4.vertex_index(0b0101) == ss4.vertex_index("13")
    with pytest.raises(ValueError):
        ss4.vertex_index("1")  # frozen


def test_face_mask(ss4):
    labels = ("2", "13", "14")
    assert ss4.face_mask(labels) == sum(1 << ss4.vertex_index(s) for s in labels)
    assert ss4.face_mask([0b0101, "13"]) == 1 << ss4.vertex_index("13")
    assert ss4.face_mask([]) == 0
    for unknown in ("1", "99"):  # frozen, not a subset of [4]
        with pytest.raises(ValueError):
            ss4.face_mask(["2", unknown])


def test_vertex_permutations(ss4):
    for g in GENERATORS:
        perm = ss4.vertex_permutation(g)
        assert sorted(perm) == list(range(len(ss4.masks)))
        for i, m in enumerate(ss4.masks):
            assert ss4.masks[perm[i]] == g(m, 4)


# --- antipodal subcomplex -----------------------------------------------------

def test_antipodal_n4_is_square():
    sub = antipodal_subcomplex(4)
    assert sub.complex.labels == ("2", "3", "124", "134")
    assert sub.complex.face_counts() == (4, 4)


def test_antipodal_matches_induced_subcomplex(ss4, ss5, ss6):
    for sc in (ss4, ss5, ss6):
        sub = antipodal_subcomplex(sc.n)
        assert (sub.n, sub.relation) == (sc.n, "ss")
        induced = sc.complex.induced_mask(sum(1 << v for v in sc.antipodal_vertex_indices()))
        induced_labels = {
            frozenset(sc.complex.labels[v] for v in f) for f in facet_tuples(induced)}
        sub_labels = {
            frozenset(sub.complex.labels[v] for v in f) for f in facet_tuples(sub.complex)}
        assert induced_labels == sub_labels


def test_antipodal_is_cross_polytope_boundary():
    for n in range(4, 8):
        sub = antipodal_subcomplex(n)
        assert isomorphic(sub.complex, cross_polytope_boundary(n - 2)) is not None
        assert len(sub.singleton_pair_indices()) == n - 2
        for i, j in sub.singleton_pair_indices():
            assert not sub.complex.has_face_mask(1 << i | 1 << j)


def test_generators_preserve_the_antipodal_facets():
    for n in range(4, 9):
        sub = antipodal_subcomplex(n)
        facets = set(facet_tuples(sub.complex))
        assert len(facets) == 1 << (n - 2)
        for g in GENERATORS:
            perm = sub.vertex_permutation(g)
            assert {tuple(sorted(perm[v] for v in f)) for f in facets} == facets


def test_antipodal_needs_n4():
    with pytest.raises(ValueError):
        antipodal_subcomplex(3)


# --- retraction data ------------------------------------------------------------

def image_labels(sc, face_labels):
    """The labels of the table's image of the face on `face_labels`."""
    image = sc.retraction_images[sum(1 << sc.vertex_index(s) for s in face_labels)]
    return [sc.complex.labels[i] for i in _mask_to_tuple(image)]


def test_retraction_worked_example(ss4):
    assert image_labels(ss4, ["13"]) == ["3", "134"]
    # {2} and {3} do not extend {14}, so the image comes from the complements
    assert image_labels(ss4, ["14"]) == ["124", "134"]


def test_retraction_matches_predicate_oracle(ss4):
    # directly: v is kept iff v extends the face and its complement does not,
    # checked with the raw separation predicate
    full = ground_mask(4)
    kverts = [ss4.vertex_index(m) for k in (2, 3)
              for m in (1 << (k - 1), full ^ (1 << (k - 1)))]
    for fmask in ss4.complex.iter_face_masks():
        members = [ss4.masks[i] for i in range(len(ss4.masks)) if fmask >> i & 1]
        expected = 0
        for v in kverts:
            vm = ss4.masks[v]
            cm = full ^ vm
            v_ok = all(strongly_separated(vm, s) for s in members if s != vm)
            c_ok = all(strongly_separated(cm, s) for s in members if s != cm)
            if v_ok and not c_ok:
                expected |= 1 << v
        assert retraction_image_mask(ss4, fmask) == expected


def test_retraction_identity_on_antipodal_faces(ss4):
    kmask = sum(1 << i for i in ss4.antipodal_vertex_indices())
    fixed = [f for f in ss4.complex.iter_face_masks() if f & ~kmask == 0]
    assert len(fixed) == 8  # K(4) is a 4-cycle: 4 vertices and 4 edges
    assert all(ss4.retraction_images[f] == f for f in fixed)


def test_retraction_rejects_bad_input(ws4):
    # the table is defined on ss(n) for n >= 4 alone, and says so when read
    with pytest.raises(ValueError, match="strong-separation"):
        ws4.retraction_images
    with pytest.raises(ValueError, match="n >= 4"):
        build(3, "ss").retraction_images


def test_retraction_images_match_per_face(ss4, ss5, ss6):
    # the oracle of the level-by-level build: every entry is the per-face
    # image, in the order of iter_face_masks
    for sc in (ss4, ss5, ss6):
        images = sc.retraction_images
        assert list(images) == list(sc.complex.iter_face_masks())
        assert all(img == retraction_image_mask(sc, f) for f, img in images.items())
        assert all(images.values())  # every image nonempty
        assert sc.retraction_images is images  # built once, then shared


def relabelled(sc, perm):
    """sc with vertex i renamed perm[i], rebuilt through clique_complex."""
    def moved(m):
        return sum(1 << perm[v] for v in _mask_to_tuple(m))
    inverse = sorted(range(len(perm)), key=perm.__getitem__)
    cx = clique_complex([sc.complex.labels[i] for i in inverse],
                        [moved(sc.complex.graph[i]) for i in inverse])
    return SeparationComplex(sc.n, "ss", cx, tuple(sc.masks[i] for i in inverse)), moved


@settings(max_examples=30, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_retraction_images_do_not_depend_on_vertex_order(ss4, ss5, data, seed):
    # the lowest vertex of a face changes with the labelling; the table must not
    sc = data.draw(st.sampled_from([ss4, ss5]))
    perm = random.Random(seed).sample(range(len(sc.masks)), len(sc.masks))
    other, moved = relabelled(sc, perm)
    images = other.retraction_images
    assert list(images) == list(other.complex.iter_face_masks())
    assert all(img == retraction_image_mask(other, f) for f, img in images.items())
    assert images == {moved(f): moved(img) for f, img in sc.retraction_images.items()}


# --- deletion covering ---------------------------------------------------------

def test_covering_structure(ws5):
    cov = deletion_covering(ws5)
    assert len(cov.members) == 6
    assert cov.labels == ("dl(2)", "dl(1345)", "dl(3)", "dl(1245)", "dl(4)", "dl(1235)")
    assert members_are_subcomplexes(cov)
    assert covers_parent(cov)


def test_covering_index_action(ws5):
    # each generator permutes the deleted vertices, and so the members
    cov = deletion_covering(ws5)
    full = ground_mask(5)
    deleted = []
    for k in (2, 3, 4):
        deleted.append(1 << (k - 1))
        deleted.append(full ^ (1 << (k - 1)))
    vertices = list(ws5.antipodal_vertex_indices())
    assert [ws5.masks[v] for v in vertices] == deleted
    for g in GENERATORS:
        perm = ws5.vertex_permutation(g)
        action = [vertices.index(perm[v]) for v in vertices]
        assert sorted(action) == list(range(6))
        for i, m in enumerate(deleted):
            assert deleted[action[i]] == g(m, 5)
            moved = sum(1 << perm[v] for v in cov.members[i].vertices())
            assert moved == cov.members[action[i]].vertex_mask


def test_covering_needs_ws(ss5):
    with pytest.raises(ValueError):
        deletion_covering(ss5)
