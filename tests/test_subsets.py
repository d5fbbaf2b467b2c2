"""Predicates, frozen sets, and symmetries on bitmask subsets."""
import itertools

import pytest
from oracles import is_frozen_enumerated

from sepcomplex.subsets import (
    GENERATORS,
    GroundSizeError,
    complement_mask,
    elements_of,
    ground_mask,
    is_frozen,
    mask_from_elements,
    nonfrozen_subsets,
    parse_subset,
    precedes,
    reverse_mask,
    separation_graph,
    strongly_separated,
    subset_str,
    surrounds,
    weakly_separated,
)


def mask(*elems, n=9):
    return mask_from_elements(elems, n)


# --- independent oracle: surrounds by explicit partition search --------------

def surrounds_by_partition(a, b):
    ea, eb = elements_of(a), elements_of(b)

    def before(xs, ys):
        return not xs or not ys or max(xs) < min(ys)

    for k in range(len(ea) + 1):
        for part in itertools.combinations(ea, k):
            a1 = set(part)
            a2 = [x for x in ea if x not in a1]
            if before(sorted(a1), eb) and before(eb, a2):
                return True
    return False


def test_precedes_examples():
    assert precedes(mask(1, 2), mask(3, 5))
    assert precedes(0, mask(1))
    assert precedes(mask(1), 0)
    assert not precedes(mask(2), mask(1))


def test_precedes_rejects_overlap():
    with pytest.raises(ValueError):
        precedes(mask(1, 2), mask(2, 3))


def test_surrounds_examples():
    assert surrounds(mask(1, 4), mask(2, 3))
    assert surrounds_by_partition(mask(1, 4), mask(2, 3))
    assert surrounds(0, mask(2))
    assert not surrounds(mask(2), mask(1, 3))
    assert not surrounds_by_partition(mask(2), mask(1, 3))


def test_surrounds_matches_partition_oracle_exhaustively():
    for n in range(1, 6):
        for a in range(1 << n):
            for b in range(1 << n):
                if a & b:
                    continue
                assert surrounds(a, b) == surrounds_by_partition(a, b)


def test_strong_separation_examples():
    assert not strongly_separated(mask(2), mask(1, 3))
    assert not strongly_separated(mask(2, 3), mask(1, 4))
    assert strongly_separated(mask(1, 2), mask(1, 2, 4))  # nested
    assert strongly_separated(mask(3), mask(3))


def test_weak_separation_examples():
    assert weakly_separated(mask(2, 3), mask(1, 4))
    assert weakly_separated(mask(2, 4), mask(2, 4))
    assert not weakly_separated(mask(2), mask(1, 3))


def test_predicates_symmetric_exhaustively():
    for n in range(1, 6):
        for a in range(1 << n):
            for b in range(1 << n):
                assert strongly_separated(a, b) == strongly_separated(b, a)
                assert weakly_separated(a, b) == weakly_separated(b, a)


def test_strong_implies_weak_exhaustively():
    for n in range(1, 6):
        for a in range(1 << n):
            for b in range(1 << n):
                if strongly_separated(a, b):
                    assert weakly_separated(a, b)


def test_nested_pairs_separated_both_ways():
    for n in range(1, 6):
        for a in range(1 << n):
            for b in range(1 << n):
                if a & ~b == 0:
                    assert strongly_separated(a, b)
                    assert weakly_separated(a, b)


def test_separated_dispatch():
    # 23 and 14 are weakly but not strongly separated, so only the ws graph
    # joins them
    for relation, joined in (("ws", True), ("ss", False)):
        g = separation_graph(4, relation)
        i, j = g.vertices.index(mask(2, 3)), g.vertices.index(mask(1, 4))
        assert bool(g.adjacency[i] >> j & 1) is joined
    with pytest.raises(ValueError):
        separation_graph(4, "nope")


# --- frozen sets -------------------------------------------------------------

def test_frozen_examples():
    assert is_frozen(mask(1, 2, 3, n=5), 5)
    assert not is_frozen(mask(1, 4, n=4), 4)
    assert is_frozen(0, 4)
    assert is_frozen(ground_mask(4), 4)


def test_frozen_closed_form_matches_enumeration():
    for n in range(1, 11):
        for s in range(1 << n):
            expect = is_frozen(s, n)
            assert is_frozen_enumerated(s, n, "ws") == expect
            assert is_frozen_enumerated(s, n, "ss") == expect


def test_frozen_enumeration_cap():
    with pytest.raises(ValueError):
        is_frozen_enumerated(0, 21)


def test_nonfrozen_counts():
    for n in range(3, 11):
        assert len(nonfrozen_subsets(n)) == 2 ** n - 2 * n


# --- the symmetry generators ---------------------------------------------------

def test_generator_examples():
    assert complement_mask(mask(2, n=4), 4) == mask(1, 3, 4, n=4)
    assert reverse_mask(mask(1, 2, 4, n=4), 4) == mask(1, 3, 4, n=4)
    assert reverse_mask(mask(2, 5, n=6), 6) == mask(2, 5, n=6)
    for g in GENERATORS:
        with pytest.raises(GroundSizeError):
            g(0, 0)
        with pytest.raises(ValueError):
            g(1 << 4, 4)
        with pytest.raises(ValueError):
            g(-1, 4)


def test_action_respects_composition():
    # both generators are involutions and they commute
    for n in range(4, 7):
        for s in range(1 << n):
            assert complement_mask(complement_mask(s, n), n) == s
            assert reverse_mask(reverse_mask(s, n), n) == s
            assert complement_mask(reverse_mask(s, n), n) == reverse_mask(complement_mask(s, n), n)


# Klein four-group on the products of the generators C and R
KLEIN = {
    ("e", "e"): "e", ("e", "c"): "c", ("e", "r"): "r", ("e", "cr"): "cr",
    ("c", "e"): "c", ("c", "c"): "e", ("c", "r"): "cr", ("c", "cr"): "r",
    ("r", "e"): "r", ("r", "c"): "cr", ("r", "r"): "e", ("r", "cr"): "c",
    ("cr", "e"): "cr", ("cr", "c"): "r", ("cr", "r"): "c", ("cr", "cr"): "e",
}


def test_group_composition_table():
    # the four products of the generators are four distinct maps on the
    # subsets of [n] and compose by the Klein table: the generators span
    # the Klein four-group, nothing smaller
    for n in range(4, 7):
        subsets = range(1 << n)
        c = lambda s: complement_mask(s, n)
        r = lambda s: reverse_mask(s, n)
        products = {"e": lambda s: s, "c": c, "r": r, "cr": lambda s: c(r(s))}
        tables = {name: tuple(map(p, subsets)) for name, p in products.items()}
        assert len(set(tables.values())) == 4
        for (g, h), gh in KLEIN.items():
            assert tuple(products[g](products[h](s)) for s in subsets) == tables[gh]


@pytest.mark.parametrize("relation", ["ws", "ss"])
def test_generators_are_automorphisms_of_the_separation_graph(relation):
    for n in range(4, 9):
        graph = separation_graph(n, relation)
        index = {m: i for i, m in enumerate(graph.vertices)}
        full = ground_mask(n)
        pairs = {frozenset((1 << (k - 1), full ^ (1 << (k - 1)))) for k in range(2, n)}
        for g in GENERATORS:
            perm = [index[g(m, n)] for m in graph.vertices]  # KeyError if not onto
            assert sorted(perm) == list(range(len(perm)))
            for i, adj in enumerate(graph.adjacency):
                image = sum(1 << perm[j] for j in range(len(perm)) if adj >> j & 1)
                assert image == graph.adjacency[perm[i]]
            assert {frozenset(g(m, n) for m in pair) for pair in pairs} == pairs


def test_predicates_equivariant_exhaustively():
    for n in range(1, 6):
        for g in GENERATORS:
            for a in range(1 << n):
                ga = g(a, n)
                for b in range(1 << n):
                    gb = g(b, n)
                    assert strongly_separated(a, b) == strongly_separated(ga, gb)
                    assert weakly_separated(a, b) == weakly_separated(ga, gb)


# --- rendering ------------------------------------------------------------------

def test_subset_strings():
    assert subset_str(mask(1, 2, 3, 4, n=5), 5) == "1234"
    assert subset_str(0, 5) == "{}"
    assert subset_str(mask_from_elements([1, 10], 10), 10) == "1,10"
    assert parse_subset("1234", 5) == mask(1, 2, 3, 4, n=5)
    assert parse_subset("1,10", 10) == mask_from_elements([1, 10], 10)


def test_parse_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_subset("19", 5)
    with pytest.raises(ValueError):
        parse_subset("11", 5)
    # each element is a run of ASCII digits: no sign, underscore, space or other script
    for text, n in [("1_0", 12), ("+7", 12), (" 7", 12), ("1, 2", 12), ("7 ", 12),
                    ("\u0662", 4), ("1,", 12), ("", 4), ("", 12)]:
        with pytest.raises(ValueError, match="ASCII digits"):
            parse_subset(text, n)
    # subset_str never writes a leading zero, so an element written with one is refused
    for text in ("07", "1,07"):
        with pytest.raises(ValueError, match="leading zero"):
            parse_subset(text, 12)
    assert parse_subset("10", 12) == mask_from_elements([10], 12)
    for text, n in [("0", 4), ("1,0", 12)]:
        with pytest.raises(ValueError, match="element 0 outside"):
            parse_subset(text, n)


# --- the separation graph -------------------------------------------------------

def test_graph_n3():
    for relation in ("ss", "ws"):
        g = separation_graph(3, relation)
        assert [subset_str(v, 3) for v in g.vertices] == ["2", "13"]
        assert g.edge_count == 0


def test_graph_n4_counts():
    ss = separation_graph(4, "ss")
    ws = separation_graph(4, "ws")
    assert len(ss.vertices) == len(ws.vertices) == 8
    assert ss.edge_count == 16
    assert ws.edge_count == 17
    assert ss.vertices == ws.vertices
    for a, b in zip(ss.adjacency, ws.adjacency):
        assert a & ~b == 0
    assert ss.adjacency != ws.adjacency


def test_graph_edges_consistent_with_adjacency():
    g = separation_graph(4, "ws")
    for i, a in enumerate(g.adjacency):
        assert not a >> i & 1
        for j in range(len(g.vertices)):
            assert (a >> j & 1) == (g.adjacency[j] >> i & 1)
            assert bool(a >> j & 1) == (i != j and weakly_separated(g.vertices[i], g.vertices[j]))


def test_ground_size_validation():
    with pytest.raises(GroundSizeError):
        separation_graph(0, "ws")
    with pytest.raises(GroundSizeError):
        separation_graph(31, "ws")
