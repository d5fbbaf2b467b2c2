"""Integer homology: Smith form against a textbook oracle, known spaces,
the rational-rank cross-check, the free-face peel, cleared against uncleared
reduction, the columns clearing and the cone of a clique keep out of the
elimination, and full subcomplexes, each reduced relative to its own cone."""
import functools
import operator
import random
import tracemalloc
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import _rank_over_rationals, betti_rational, euler_characteristic, facet_tuples
from test_complexes import (
    barycentric_subdivision,
    complete_graph_complex,
    four_cycle_clique,
    random_clique_complexes,
    random_facet_complexes,
)

from sepcomplex import homology
from sepcomplex.complexes import Complex, clique_complex, cross_polytope_boundary, isomorphic
from sepcomplex.homology import (
    HomologyGroup,
    SparseIntMatrix,
    boundary_matrices,
    format_homology,
    homology_summary,
    reduced_homology,
    smith_normal_form,
)
from sepcomplex.verify import _deletion_masks

# the 6-vertex triangulation of the real projective plane
PROJECTIVE_PLANE = Complex(
    [str(i) for i in range(1, 7)],
    [(0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
     (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5)],
)

SQUARE = Complex(list("abcd"), [(0, 1), (1, 2), (2, 3), (0, 3)])
TWO_CIRCLES = Complex(
    list("abcdef"),
    [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
)


# --- dense and product views of sparse matrices ----------------------------------

def from_rows(rows):
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    entries = {}
    for i, row in enumerate(rows):
        if len(row) != ncols:
            raise ValueError("ragged rows")
        for j, v in enumerate(row):
            if v:
                entries[(i, j)] = int(v)
    return SparseIntMatrix(nrows, ncols, entries)


def to_rows(m):
    rows = [[0] * m.ncols for _ in range(m.nrows)]
    for (i, j), v in m.entries.items():
        rows[i][j] = v
    return rows


def multiply(a, b):
    if a.ncols != b.nrows:
        raise ValueError("inner dimensions differ")
    by_row = {}
    for (i, j), v in b.entries.items():
        by_row.setdefault(i, []).append((j, v))
    acc = {}
    for (i, k), v in a.entries.items():
        for j, w in by_row.get(k, ()):
            key = (i, j)
            acc[key] = acc.get(key, 0) + v * w
    return SparseIntMatrix(a.nrows, b.ncols, {k: v for k, v in acc.items() if v})


def suspension(cx):
    """Join with two new apexes; shifts reduced homology up one dimension."""
    n = len(cx.labels)
    return Complex(list(cx.labels) + ["north", "south"],
                   [f + (apex,) for apex in (n, n + 1) for f in facet_tuples(cx)])


def moore_space_z3():
    """A disk whose 9 boundary vertices are wrapped three times round a
    triangle: the Moore space M(Z/3, 1)."""
    rim = [k % 3 for k in range(10)]
    ring = [3 + k % 9 for k in range(10)]
    facets = []
    for k in range(9):
        facets += [(rim[k], rim[k + 1], ring[k]), (rim[k + 1], ring[k], ring[k + 1]),
                   (ring[k], ring[k + 1], 12)]
    return Complex([str(v) for v in range(13)], facets)


def klein_bottle():
    """The 3 x 3 grid on Z/3 x Z/3, glued with b -> -b where a wraps."""
    def v(a, b):
        a %= 6
        b %= 3
        if a >= 3:
            a, b = a - 3, -b % 3
        return 3 * a + b
    facets = []
    for a in range(3):
        for b in range(3):
            facets += [(v(a, b), v(a + 1, b), v(a + 1, b + 1)),
                       (v(a, b), v(a, b + 1), v(a + 1, b + 1))]
    return Complex([str(k) for k in range(9)], facets)


# --- independent oracle: recursive gcd-style Smith reduction -------------------

def oracle_snf(rows):
    """Dense Smith form by repeated gcd improvement; independent of the library."""
    m = [list(map(int, r)) for r in rows]
    if not m or not m[0]:
        return []
    nr, nc = len(m), len(m[0])

    def nonzero():
        return [(i, j) for i in range(nr) for j in range(nc) if m[i][j]]

    entries = nonzero()
    if not entries:
        return []
    # move a minimal entry to (0, 0) and shrink it until it divides everything
    while True:
        i0, j0 = min(nonzero(), key=lambda ij: abs(m[ij[0]][ij[1]]))
        m[0], m[i0] = m[i0], m[0]
        for r in m:
            r[0], r[j0] = r[j0], r[0]
        pivot = m[0][0]
        dirty = False
        for i in range(1, nr):
            if m[i][0] % pivot:
                q = m[i][0] // pivot
                for j in range(nc):
                    m[i][j] -= q * m[0][j]
                dirty = True
        for j in range(1, nc):
            if m[0][j] % pivot:
                q = m[0][j] // pivot
                for i in range(nr):
                    m[i][j] -= q * m[i][0]
                dirty = True
        if dirty:
            continue
        for i in range(1, nr):
            q = m[i][0] // pivot
            for j in range(nc):
                m[i][j] -= q * m[0][j]
        for j in range(1, nc):
            q = m[0][j] // pivot
            for i in range(nr):
                m[i][j] -= q * m[i][0]
        rest_bad = False
        for i in range(1, nr):
            for j in range(1, nc):
                if m[i][j] % pivot:
                    # fold that row into the pivot row and retry
                    for jj in range(nc):
                        m[0][jj] += m[i][jj]
                    rest_bad = True
                    break
            if rest_bad:
                break
        if not rest_bad:
            break
    tail = oracle_snf([r[1:] for r in m[1:]]) if nr > 1 and nc > 1 else []
    return [abs(m[0][0])] + tail


def rank_mod_p(mat: SparseIntMatrix, p: int) -> int:
    rows = [[v % p for v in row] for row in to_rows(mat)]
    rank = 0
    nr = len(rows)
    nc = mat.ncols
    for col in range(nc):
        pivot = next((i for i in range(rank, nr) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(nr):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


# --- Smith normal form -----------------------------------------------------------

def test_snf_worked_example():
    m = from_rows([[2, 4], [6, 8]])
    factors = smith_normal_form(m)
    assert factors == (2, 4)
    assert factors[0] == gcd(2, 4, 6, 8)
    assert factors[0] * factors[1] == abs(2 * 8 - 4 * 6)
    assert list(factors) == oracle_snf([[2, 4], [6, 8]])


def test_snf_identity_and_zero():
    for k in (1, 2, 5):
        eye = SparseIntMatrix(k, k, {(i, i): 1 for i in range(k)})
        assert smith_normal_form(eye) == (1,) * k
    assert smith_normal_form(SparseIntMatrix(3, 4)) == ()


# a pivot held in place while Euclid steps run blows its entries up on this one
# (past 11000 bits by the fourth pivot); one of least absolute value does not
ENTRY_GROWTH = [
    [0, -2, 23, -2, -4, 25, -20, 5],
    [-17, 0, 18, 0, 14, -20, -16, 8],
    [4, 9, 28, -6, -8, 0, -19, -28],
    [22, -20, 0, -22, -6, 13, -11, 21],
    [-9, 23, 14, 4, 0, 0, 21, 9],
    [23, 0, 3, -4, -6, 28, 30, 5],
]


def test_snf_matches_oracle_on_random_matrices():
    assert smith_normal_form(from_rows(ENTRY_GROWTH)) == (1,) * 6
    assert oracle_snf(ENTRY_GROWTH) == [1] * 6
    rng = random.Random(20110815)
    for _ in range(120):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        got = list(smith_normal_form(from_rows(rows)))
        assert got == oracle_snf(rows), rows
    for _ in range(150):
        nr = rng.randint(1, 12)
        nc = rng.randint(1, 12)
        rows = [[rng.randint(-30, 30) for _ in range(nc)] for _ in range(nr)]
        got = list(smith_normal_form(from_rows(rows)))
        assert got == oracle_snf(rows), rows


@st.composite
def peelable_matrices(draw):
    """Sparse matrices up to 8 x 8 with planted row singletons: a chain of
    rows r_0, r_1, ... where r_t is a singleton once the columns of r_0 ..
    r_{t-1} are gone, some of them with non-unit values, plus zero rows and
    zero columns."""
    nr = draw(st.integers(1, 8))
    nc = draw(st.integers(1, 8))
    values = st.sampled_from([-3, -2, -1, 1, 2, 3])
    rows = [[0] * nc for _ in range(nr)]
    for i, j, v in draw(st.lists(st.tuples(st.integers(0, nr - 1), st.integers(0, nc - 1),
                                           values), max_size=nr * nc // 2)):
        rows[i][j] = v
    k = draw(st.integers(0, min(nr, nc)))
    chain_rows = draw(st.permutations(range(nr)))[:k]
    chain_cols = draw(st.permutations(range(nc)))[:k]
    for t, (r, c) in enumerate(zip(chain_rows, chain_cols)):
        rows[r] = [0] * nc
        rows[r][c] = draw(st.sampled_from([1, -1, 1, -1, 2, -2, 3]))
        for earlier in chain_cols[:t]:
            if draw(st.booleans()):
                rows[r][earlier] = draw(values)
    for i in draw(st.sets(st.integers(0, nr - 1), max_size=2)):
        rows[i] = [0] * nc
    for j in draw(st.sets(st.integers(0, nc - 1), max_size=2)):
        for row in rows:
            row[j] = 0
    return rows


@settings(max_examples=300, deadline=None)
@given(peelable_matrices())
@example([[2, 0, 0], [1, 3, 0], [0, 1, 0]])  # non-unit singleton, zero column
@example([[-1, 0, 0], [4, 1, 0], [2, 6, -1], [0, 0, 0]])  # cascade, zero row
@example([[0, 3, 0], [1, 0, 0], [5, 2, 0]])  # cascade ends on a non-unit singleton
def test_snf_with_row_singletons_matches_oracle_and_rational_rank(rows):
    m = from_rows(rows)
    factors = smith_normal_form(m)
    assert list(factors) == oracle_snf(rows)
    assert len(factors) == _rank_over_rationals(m)


def test_peel_leaves_the_heap_little_or_nothing(ws4, ws5, ss5, monkeypatch):
    """The peel pivots every column of the contractible ws(4), ws(5), and
    leaves to the Markowitz heap under a tenth of the 2825 unit entries that
    all of ss(5) would put there."""
    lengths = []
    real = homology.heapq.heapify

    def recording(heap):
        lengths.append(len(heap))
        real(heap)

    monkeypatch.setattr(homology.heapq, "heapify", recording)
    for sc in (ws4, ws5):
        lengths.clear()
        groups = reduced_homology(sc.complex)
        assert groups and all(g.is_trivial for g in groups)
        assert set(lengths) <= {0}
    lengths.clear()
    groups = reduced_homology(ss5.complex)
    assert [str(g) for g in groups] == ["0", "0", "Z", "0", "0", "0"]
    assert sum(lengths) < 283


@settings(max_examples=300, deadline=None)
@given(peelable_matrices(), st.data())
def test_empty_columns_change_neither_factors_nor_pivots(rows, data):
    """Empty columns inserted anywhere leave the factors, the pivot rows and
    the Markowitz heap as they are: the columns the peel leaves are
    renumbered in their order before the heap is built."""
    cols = [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(len(rows[0]))]
    padded = [dict(col) for col in cols]
    for _ in range(data.draw(st.integers(1, 4))):
        padded.insert(data.draw(st.integers(0, len(padded))), {})
    heaps = []
    real = homology.heapq.heapify

    def recording(heap):
        heaps.append(list(heap))
        real(heap)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology.heapq, "heapify", recording)
        plain = homology._rank_and_factors(len(rows), cols)
        heap = heaps[:]
        heaps.clear()
        assert homology._rank_and_factors(len(rows), padded) == plain
        assert heaps == heap
    assert list(plain[0]) == oracle_snf(rows)


def test_tall_sparse_matrices_match_oracle():
    """Many rows no column touches, a few sparse columns: the post-peel
    phases see only the touched rows."""
    rng = random.Random(20141022)
    for _ in range(40):
        nr = rng.randint(20, 60)
        nc = rng.randint(1, 6)
        rows = [[0] * nc for _ in range(nr)]
        for _ in range(rng.randint(1, 3 * nc)):
            rows[rng.randrange(nr)][rng.randrange(nc)] = rng.choice([-3, -2, -1, 1, 1, 2, 4])
        assert list(smith_normal_form(from_rows(rows))) == oracle_snf(rows), rows


def test_tall_sparse_elimination_allocates_no_dict_per_row():
    """A 2 x 2 block with no unit entry, which only the last phase reduces, a
    +-1 cycle that needs the Markowitz phase, 100000 rows in all: the elimination allocates the two
    peel counters and a row list, about 25 bytes a row, and no dict for a row
    that no live column touches (an empty dict alone takes 64 bytes)."""
    nrows = 100_000
    rows = {0: {0: 2, 1: 4}, 1: {0: 6, 1: 8}}
    for k in range(3):  # the boundary of a triangle, without its row singletons
        rows[50_000 + k] = {2 + k: 1, 2 + (k + 1) % 3: -1}
    cols = [{i: row[j] for i, row in rows.items() if j in row} for j in range(5)]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        factors, pivot_rows = homology._rank_and_factors(nrows, cols)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert factors == (1, 1, 2, 4) and len(pivot_rows) == 2
    assert peak < 40 * nrows


def test_snf_divisibility_chain():
    rng = random.Random(7)
    for _ in range(40):
        rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
        factors = smith_normal_form(from_rows(rows))
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0


def test_sparse_matrix_validation():
    with pytest.raises(ValueError):
        SparseIntMatrix(2, 2, {(2, 0): 1})
    m = SparseIntMatrix(2, 2, {(0, 0): 1, (1, 1): 0})
    assert m.nnz == 1


# --- boundary operators -------------------------------------------------------------

def test_single_edge_boundary():
    edge = Complex(list("ab"), [(0, 1)])
    mats = boundary_matrices(edge)
    assert to_rows(mats[0]) == [[1, 1]]
    assert to_rows(mats[1]) == [[1], [-1]] or to_rows(mats[1]) == [[-1], [1]]


def test_triangle_cycle_rank():
    three_cycle = Complex(list("abc"), [(0, 1), (1, 2), (0, 2)])
    mats = boundary_matrices(three_cycle)
    assert len(mats) == 2
    assert rank_mod_p(mats[1], 5) == 2


def test_boundary_composites_vanish(ss4, ws4, ss5):
    for cx in (ss4.complex, ws4.complex, ss5.complex, PROJECTIVE_PLANE,
               cross_polytope_boundary(3)):
        mats = boundary_matrices(cx)
        for lower, upper in zip(mats, mats[1:]):
            assert multiply(lower, upper).nnz == 0


def test_boundary_matrices_is_a_lazy_sequence(ss4):
    mats = boundary_matrices(ss4.complex)
    counts = ss4.complex.face_counts()
    top = len(counts)
    assert len(mats) == top == 3
    assert [(m.nrows, m.ncols) for m in mats] == list(zip((1,) + counts, counts))
    assert to_rows(mats[-1]) == to_rows(mats[top - 1])
    assert [to_rows(m) for m in mats[1:]] == [to_rows(mats[d]) for d in range(1, top)]
    assert mats[top:] == []
    for d in (top, -top - 1):
        with pytest.raises(IndexError):
            mats[d]
    assert [m.entries for m in mats] == [m.entries for m in mats]


def test_reduced_homology_streams_the_operators(ss5, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("reduced_homology built a SparseIntMatrix")

    calls = []
    real = homology.boundary_matrices

    def counted(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(homology, "SparseIntMatrix", refuse)
    monkeypatch.setattr(homology, "boundary_matrices", counted)
    groups = homology.reduced_homology(ss5.complex)
    assert [str(g) for g in groups] == ["0", "0", "Z", "0", "0", "0"]
    assert calls == [ss5.complex]


# --- reduced homology -----------------------------------------------------------------

def test_point_has_trivial_reduced_homology():
    point = Complex(["a"], [(0,)])
    assert all(g.is_trivial for g in reduced_homology(point))


def test_square_is_a_circle():
    groups = reduced_homology(SQUARE)
    assert [str(g) for g in groups] == ["0", "Z"]


def test_projective_plane_torsion():
    groups = reduced_homology(PROJECTIVE_PLANE)
    assert [str(g) for g in groups] == ["0", "Z/2", "0"]
    # torsion witnessed independently: ranks over F2 and F3 disagree
    mats = boundary_matrices(PROJECTIVE_PLANE)
    assert rank_mod_p(mats[2], 2) == rank_mod_p(mats[2], 3) - 1
    assert 2 in smith_normal_form(mats[2])


def test_cross_polytope_boundaries_are_spheres():
    for m in range(2, 6):
        groups = reduced_homology(cross_polytope_boundary(m))
        for d, g in enumerate(groups):
            if d == m - 1:
                assert g == HomologyGroup(1)
            else:
                assert g.is_trivial


def test_two_circles():
    groups = reduced_homology(TWO_CIRCLES)
    assert groups[0].rank == 1
    assert groups[1].rank == 2
    assert betti_rational(TWO_CIRCLES) == [1, 2]


def test_empty_complex_has_no_groups():
    assert reduced_homology(Complex([], [])) == []
    assert betti_rational(Complex([], [])) == []


def test_betti_rational_matches_integer_ranks(ss4, ws4, ss5):
    for cx in (ss4.complex, ws4.complex, ss5.complex, PROJECTIVE_PLANE, SQUARE,
               cross_polytope_boundary(4)):
        assert betti_rational(cx) == [g.rank for g in reduced_homology(cx)]


def test_euler_characteristic_matches_betti(ss4, ws4):
    for cx in (ss4.complex, ws4.complex, PROJECTIVE_PLANE, SQUARE,
               cross_polytope_boundary(3), TWO_CIRCLES):
        betti = betti_rational(cx)
        assert euler_characteristic(cx) == 1 + sum(
            b if d % 2 == 0 else -b for d, b in enumerate(betti))


def test_homology_invariant_under_relabeling():
    octa = cross_polytope_boundary(3)
    perm = [4, 2, 0, 5, 3, 1]
    relabeled = Complex(
        ["v%d" % i for i in range(6)],
        [tuple(perm[v] for v in f) for f in facet_tuples(octa)],
    )
    assert isomorphic(octa, relabeled) is not None
    assert [str(g) for g in reduced_homology(octa)] == \
        [str(g) for g in reduced_homology(relabeled)]


def test_collapse_success_implies_trivial_homology(ws4):
    corpus = [ws4.complex, complete_graph_complex(3), four_cycle_clique(),
              barycentric_subdivision(PROJECTIVE_PLANE), cross_polytope_boundary(3)]
    for cx in corpus:
        if cx.greedy_collapse().collapsed:
            assert euler_characteristic(cx) == 1
            assert all(g.is_trivial for g in reduced_homology(cx))


def test_homology_group_formatting():
    assert str(HomologyGroup(0)) == "0"
    assert str(HomologyGroup(1)) == "Z"
    assert str(HomologyGroup(9)) == "Z^9"
    assert str(HomologyGroup(1, (2, 4))) == "Z + Z/2 + Z/4"
    with pytest.raises(ValueError):
        HomologyGroup(0, (3, 4))
    text = format_homology(reduced_homology(SQUARE))
    assert text == "H~0 = 0\nH~1 = Z"
    assert homology_summary([HomologyGroup(2, (2,))]) == [
        {"dim": 0, "rank": 2, "torsion": [2]}]


@pytest.mark.parametrize("rank, torsion", [(-1, ()), (0, (0, 2)), (1, (1, 2))],
                         ids=["negative-rank", "zero-torsion", "unit-torsion"])
def test_homology_group_rejects_impossible_groups(rank, torsion):
    # an over-counted rank must not print as 0 in a report row
    with pytest.raises(ValueError):
        HomologyGroup(rank, torsion)


# --- cleared against uncleared reduction ------------------------------------------------

def uncleared_groups(cx):
    """Reduced homology from smith_normal_form of each boundary matrix on its
    own, bottom-up and with no clearing."""
    mats = boundary_matrices(cx)
    factors = [smith_normal_form(m) for m in mats] + [()]
    return [HomologyGroup(m.ncols - len(factors[d]) - len(factors[d + 1]),
                          tuple(t for t in factors[d + 1] if t > 1))
            for d, m in enumerate(mats)]


def assert_clearing_agrees(cx):
    groups = reduced_homology(cx)
    assert groups == uncleared_groups(cx)
    assert [g.rank for g in groups] == betti_rational(cx)
    return groups


@settings(max_examples=300, deadline=None)
@given(st.one_of(random_clique_complexes(), random_facet_complexes()))
def test_cleared_homology_matches_uncleared_and_rational(cx):
    assert_clearing_agrees(cx)


@pytest.mark.parametrize("cx, expected", [
    (PROJECTIVE_PLANE, ["0", "Z/2", "0"]),
    (suspension(PROJECTIVE_PLANE), ["0", "0", "Z/2", "0"]),
    (suspension(suspension(PROJECTIVE_PLANE)), ["0", "0", "0", "Z/2", "0"]),
    (Complex([str(k) for k in range(12)],
             facet_tuples(PROJECTIVE_PLANE)
             + [tuple(v + 6 for v in f) for f in facet_tuples(PROJECTIVE_PLANE)]),
     ["Z", "Z/2 + Z/2", "0"]),
    (moore_space_z3(), ["0", "Z/3", "0"]),
    (klein_bottle(), ["0", "Z + Z/2", "0"]),
], ids=["rp2", "suspended-rp2", "double-suspended-rp2", "two-rp2", "moore-z3", "klein"])
def test_cleared_homology_on_torsion_corpus(cx, expected):
    assert [str(g) for g in assert_clearing_agrees(cx)] == expected


@pytest.mark.parametrize("space, expected", [
    (PROJECTIVE_PLANE, ["0", "Z/2", "0"]),
    (moore_space_z3(), ["0", "Z/3", "0"]),
    (klein_bottle(), ["0", "Z + Z/2", "0"]),
], ids=["sd-rp2", "sd-moore-z3", "sd-klein"])
def test_torsion_survives_the_cone(space, expected):
    """The subdivisions are clique complexes, so the torsion is read relative
    to the stars of a maximal clique; the oracle sees the whole complex."""
    cx = barycentric_subdivision(space)
    vm = cx.vertex_mask
    assert len(cone_clique(cx.graph, vm, homology._cone(cx.graph, vm))) == 3
    assert [str(g) for g in assert_clearing_agrees(cx)] == expected


@pytest.mark.parametrize("adjacency, expected", [
    ([0b01010, 0b00101, 0b01010, 0b00101, 0], ["Z", "Z"]),  # a 4-cycle and an isolated vertex
    ([0b010, 0b001, 0], ["Z", "0"]),  # an edge and an isolated vertex
    ([0, 0, 0, 0], ["Z^3"]),  # four points, no edge: the cone is one vertex
    ([0], ["0"]),
], ids=["cycle-and-point", "edge-and-point", "no-edge", "one-point"])
def test_cone_on_isolated_vertices(adjacency, expected):
    cx = clique_complex([str(v) for v in range(len(adjacency))], adjacency)
    cone = homology._cone(cx.graph, cx.vertex_mask)
    assert len(cone) == (2 if any(adjacency) else 1)
    assert [str(g) for g in assert_clearing_agrees(cx)] == expected
    vm = cx.vertex_mask
    assert_induced_matches_oracle(cx, [vm, vm & ~1, vm & ~(1 << len(adjacency) - 1), 1])


def cone_clique(graph, vm, cone):
    """The vertices of vm whose closed neighbourhoods `cone` lists, checked
    to be a maximal clique of vm: the common part of their closed
    neighbourhoods inside vm is the clique itself."""
    closed = [a | 1 << v for v, a in enumerate(graph)]
    clique = [v for v in range(len(graph)) if vm >> v & 1 and closed[v] in cone]
    assert len(clique) == len(cone)
    assert functools.reduce(operator.and_, (closed[v] for v in clique), vm) == \
        sum(1 << v for v in clique)
    return clique


def assert_cone_is_a_greedy_clique(graph, vm):
    """`_cone` gives the closed neighbourhoods of a greedy clique of vm: the
    vertex of most neighbours in vm, then, while the clique has common
    neighbours in vm, the one of them of most neighbours in vm, ties to the
    lower index."""
    degree = {v: (graph[v] & vm).bit_count() for v in range(len(graph)) if vm >> v & 1}
    clique, cand = [], set(degree)
    while cand:
        v = min(cand, key=lambda v: (-degree[v], v))
        clique.append(v)
        cand = {w for w in cand if graph[v] >> w & 1}
    cone = homology._cone(graph, vm)
    assert cone == tuple(graph[v] | 1 << v for v in clique)
    assert cone_clique(graph, vm, cone) == sorted(clique)
    return cone


def relative_face_count(cx, cone):
    return sum(len(level) for level in homology._relative(boundary_matrices(cx), cone).faces)


def test_cone_is_a_greedy_clique_on_the_paper_complexes(ss4, ws4, ss5, ws5):
    # the faces outside the stars of the clique: 9 of ss(4)'s 32, 2 of
    # ws(4)'s 35, 263 of ss(5)'s 1326, 80 of ws(5)'s 1867
    for sc, kept in ((ss4, 9), (ws4, 2), (ss5, 263), (ws5, 80)):
        cone = assert_cone_is_a_greedy_clique(sc.complex.graph, sc.complex.vertex_mask)
        assert relative_face_count(sc.complex, cone) == kept


def test_cleared_homology_on_paper_complexes(ss4, ws4, ss5, ws5):
    for sc in (ss4, ws4, ss5, ws5):
        assert_clearing_agrees(sc.complex)
    for sc in (ss5, ws5):
        assert_clearing_agrees(sc.complex.boundary())


def assert_only_uncleared_columns_reach_the_elimination(cx):
    """`reduced_homology` reduces the chain complex relative to the closed
    neighbourhoods of `_cone`'s clique: its d-faces are exactly those inside
    none of them, and b_0 has a row only when the cone is empty. Then
    `_rank_and_factors` receives exactly the uncleared ones of those columns,
    f_d - rank(b_{d+1}) of them, in face order for each d, top down, and
    pivots on the rows it pivots on when the cleared columns are passed in
    as empty ones. The count holds when every pivot of b_{d+1} is a unit, as
    on complexes without torsion: a pivot of the last phase, on an entry of
    least absolute value, adds rank and clears nothing."""
    calls = []
    real = homology._rank_and_factors

    def recording(nrows, cols):
        given = [dict(col) for col in cols]
        factors, pivot_rows = real(nrows, cols)
        calls.append((nrows, given, factors, pivot_rows))
        return factors, pivot_rows

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology, "_rank_and_factors", recording)
        groups = reduced_homology(cx)
    cone = homology._cone(cx.graph, cx.vertex_mask)
    assert bool(cone) == (cx.graph is not None and cx.vertex_mask != 0)
    ops = homology._relative(boundary_matrices(cx), cone)
    levels = list(cx.face_levels())
    assert len(ops) == len(levels)
    for level, kept in zip(levels, ops.faces):
        assert kept == [f for f in level if all(f & ~n for n in cone)]
    assert ops.nrows(0) == (0 if cone else 1)
    expected = []
    cleared, rank_above = frozenset(), 0
    for d in reversed(range(len(ops))):
        full = ops.columns(d)
        uncleared = [dict(col) for j, col in enumerate(full) if j not in cleared]
        assert len(uncleared) == len(ops.faces[d]) - rank_above
        cols = [{} if j in cleared else col for j, col in enumerate(full)]
        factors, pivot_rows = real(ops.nrows(d), cols)
        expected.append((ops.nrows(d), uncleared, factors, pivot_rows))
        cleared, rank_above = frozenset(pivot_rows), len(factors)
    assert calls == expected
    return groups


def test_only_uncleared_columns_reach_the_elimination_on_ss5(ss5):
    groups = assert_only_uncleared_columns_reach_the_elimination(ss5.complex)
    assert [str(g) for g in groups] == ["0", "0", "Z", "0", "0", "0"]


@settings(max_examples=150, deadline=None)
@given(random_clique_complexes())
def test_only_uncleared_columns_reach_the_elimination(cx):
    assert_only_uncleared_columns_reach_the_elimination(cx)


# --- full subcomplexes, each relative to its own cone ---------------------------------

def assert_induced_matches_oracle(cx, vmasks):
    """`reduced_homology` of the full subcomplex of cx on each vertex mask,
    reduced relative to its own cone, against the uncleared SNF of the same
    subcomplex, which never sees a cone."""
    induced = [cx.induced_mask(m) for m in vmasks]
    groups = [reduced_homology(x) for x in induced]
    assert groups == [uncleared_groups(x) for x in induced]
    return groups


# PROJECTIVE_PLANE beside a hollow triangle on three new vertices: torsion
# in one full subcomplex, and fewer dimensions in another
PLANE_AND_CIRCLE = Complex([str(k) for k in range(9)],
                           facet_tuples(PROJECTIVE_PLANE) + [(6, 7), (7, 8), (6, 8)])
SD_PLANE = barycentric_subdivision(PROJECTIVE_PLANE)


@settings(max_examples=300, deadline=None)
@given(st.one_of(random_clique_complexes(), random_facet_complexes(),
                 st.sampled_from([PLANE_AND_CIRCLE, SD_PLANE])), st.data())
def test_induced_homology_matches_the_uncleared_oracle(cx, data):
    # masks reach three bits past the vertex table, and negative ones are
    # complements, as deletion_mask passes them
    bound = 1 << len(cx.labels) + 3
    drawn = data.draw(st.lists(st.integers(-bound, bound - 1), max_size=6))
    assert_induced_matches_oracle(cx, [0, -1, cx.vertex_mask, *drawn])


def test_induced_homology_on_the_deletion_tables(ws4, ws5):
    for sc in (ws4, ws5):
        groups = assert_induced_matches_oracle(sc.complex, _deletion_masks(sc).values())
        assert len(groups) == 1 << 2 * (sc.n - 2)
        assert all(g.is_trivial for gs in groups for g in gs)


def test_induced_homology_keeps_torsion_and_trims_dimensions():
    plane, circle = (1 << 6) - 1, 0b111 << 6
    groups = assert_induced_matches_oracle(
        PLANE_AND_CIRCLE, [plane, circle, plane | circle, 1 << 6, 0, ~circle])
    assert [[str(g) for g in gs] for gs in groups] == [
        ["0", "Z/2", "0"], ["0", "Z"], ["Z", "Z + Z/2", "0"], ["0"], [], ["0", "Z/2", "0"]]


def test_induced_homology_inside_and_across_the_cone():
    """On sd(RP^2), a clique complex: the full subcomplex on the stars of
    its cone is contractible and keeps its trailing groups, and one half of
    the vertex table or the other has a cone of its own."""
    vm = SD_PLANE.vertex_mask
    stars = functools.reduce(operator.or_, homology._cone(SD_PLANE.graph, vm))
    halves = [(1 << 15) - 1, vm & ~((1 << 15) - 1)]
    groups = assert_induced_matches_oracle(SD_PLANE, [vm, stars, *halves])
    assert [str(g) for g in groups[0]] == ["0", "Z/2", "0"]
    assert [str(g) for g in groups[1]] == ["0", "0", "0"]
