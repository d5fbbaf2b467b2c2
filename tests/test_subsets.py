"""Predicates, frozen sets, and symmetries on bitmask subsets."""
import itertools

import pytest

from sepcomplex.subsets import (
    GROUP,
    GroundSizeError,
    GroupElement,
    Subset,
    act,
    elements_of,
    ground_mask,
    is_frozen,
    is_frozen_enumerated,
    mask_from_elements,
    nonfrozen_subsets,
    parse_subset,
    precedes,
    separated,
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
    assert separated(mask(2, 3), mask(1, 4), "ws")
    assert not separated(mask(2, 3), mask(1, 4), "ss")
    with pytest.raises(ValueError):
        separated(1, 2, "nope")


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


# --- the symmetry group -------------------------------------------------------

def test_act_examples():
    assert act(GroupElement.COMPLEMENT, mask(2, n=4), 4) == mask(1, 3, 4, n=4)
    assert act(GroupElement.REVERSE, mask(1, 2, 4, n=4), 4) == mask(1, 3, 4, n=4)
    s = mask(2, 5, n=6)
    assert act(GroupElement.IDENTITY, s, 6) == s


def test_group_composition_table():
    e, c, r, cr = GROUP
    assert c.compose(c) is e
    assert r.compose(r) is e
    assert c.compose(r) is cr
    assert r.compose(c) is cr
    assert cr.compose(c) is r
    for g in GROUP:
        assert g.compose(e) is g
        assert g.inverse() is g


def test_action_respects_composition():
    n = 5
    for g in GROUP:
        for h in GROUP:
            for s in range(1 << n):
                assert act(g.compose(h), s, n) == act(g, act(h, s, n), n)


def test_predicates_equivariant_exhaustively():
    for n in range(1, 6):
        for g in GROUP:
            for a in range(1 << n):
                ga = act(g, a, n)
                for b in range(1 << n):
                    gb = act(g, b, n)
                    assert strongly_separated(a, b) == strongly_separated(ga, gb)
                    assert weakly_separated(a, b) == weakly_separated(ga, gb)


# --- rendering and the value type ---------------------------------------------

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


def test_subset_value_type():
    a = Subset.parse("23", 4)
    b = Subset.parse("14", 4)
    assert a.weakly_separated_from(b)
    assert not a.strongly_separated_from(b)
    assert str(a.apply(GroupElement.COMPLEMENT)) == "14"
    assert a.elements() == (2, 3)
    with pytest.raises(ValueError):
        a.weakly_separated_from(Subset.parse("2", 5))
    with pytest.raises(GroundSizeError):
        Subset(0, 0)


# --- the separation graph -------------------------------------------------------

def test_graph_n3():
    for relation in ("ss", "ws"):
        g = separation_graph(3, relation)
        assert [subset_str(v, 3) for v in g.vertices] == ["2", "13"]
        assert g.edge_count == 0


def test_graph_n4_counts():
    ss = separation_graph(4, "ss")
    ws = separation_graph(4, "ws")
    assert ss.vertex_count == ws.vertex_count == 8
    assert ss.edge_count == 16
    assert ws.edge_count == 17
    assert set(ss.edges()) < set(ws.edges())


def test_graph_edges_consistent_with_adjacency():
    g = separation_graph(4, "ws")
    for i, j in g.edges():
        assert g.has_edge(i, j) and g.has_edge(j, i)


def test_ground_size_validation():
    with pytest.raises(GroundSizeError):
        separation_graph(0, "ws")
    with pytest.raises(GroundSizeError):
        separation_graph(31, "ws")
