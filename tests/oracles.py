"""Reference oracles the tests compare the package's fast paths against.

Each is a definition-level form of something the package computes another
way, or a convenience only the tests need, kept independent of the paths it
checks: rational ranks with no Smith normal form, frozen sets against all
2^n subsets, cone points as the AND of the facets, coverings facet by facet.
"""
from __future__ import annotations

from fractions import Fraction

from sepcomplex.complexes import Complex, Covering, _mask_to_tuple
from sepcomplex.homology import SparseIntMatrix, boundary_matrices
from sepcomplex.subsets import (
    check_ground_size,
    check_mask,
    check_relation,
    strongly_separated,
    weakly_separated,
)


def betti_rational(x: Complex) -> list[int]:
    """Betti numbers via rank computations over the rationals only."""
    ops = boundary_matrices(x)
    ranks = [_rank_over_rationals(op) for op in ops] + [0]
    return [len(faces) - ranks[d] - ranks[d + 1] for d, faces in enumerate(ops.faces)]


def _rank_over_rationals(m: SparseIntMatrix) -> int:
    """Fraction-based sparse Gaussian elimination; independent of the SNF path."""
    grouped: dict[int, dict[int, Fraction]] = {}
    for (i, j), v in m.entries.items():
        grouped.setdefault(i, {})[j] = Fraction(v)
    rows = [r for r in grouped.values() if r]
    rank = 0
    while rows:
        rows.sort(key=len)
        pivot_row = rows.pop(0)
        pj = min(pivot_row)
        pv = pivot_row[pj]
        rank += 1
        for r in rows:
            w = r.get(pj)
            if w is None:
                continue
            scale = w / pv
            for j, x in pivot_row.items():
                nv = r.get(j, Fraction(0)) - scale * x
                if nv:
                    r[j] = nv
                else:
                    r.pop(j, None)
        rows = [r for r in rows if r]
    return rank


def is_frozen_enumerated(s: int, n: int, relation: str = "ws") -> bool:
    """Definition-level frozen test: compare against all 2^n subsets."""
    check_relation(relation)
    check_mask(s, check_ground_size(n))
    if n > 20:
        raise ValueError("enumeration-based frozen test capped at n = 20")
    pred = strongly_separated if relation == "ss" else weakly_separated
    return all(pred(s, t) for t in range(1 << n))


def facet_tuples(cx: Complex) -> list[tuple[int, ...]]:
    return [_mask_to_tuple(f) for f in cx.facets]


def euler_characteristic(cx: Complex) -> int:
    return sum(c if d % 2 == 0 else -c for d, c in enumerate(cx.face_counts()))


def cone_points(cx: Complex) -> tuple[int, ...]:
    """Vertices joinable to every face, i.e. those lying in every facet."""
    if cx.is_empty:
        return ()
    m = cx.facets[0]
    for f in cx.facets[1:]:
        m &= f
    return _mask_to_tuple(m)


def members_are_subcomplexes(covering: Covering) -> bool:
    return all(
        m.labels == covering.parent.labels
        and all(covering.parent.has_face_mask(f) for f in m.facets)
        for m in covering.members
    )


def covers_parent(covering: Covering) -> bool:
    return all(
        any(m.has_face_mask(f) for m in covering.members)
        for f in covering.parent.facets
    )
