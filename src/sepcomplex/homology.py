"""Exact reduced simplicial homology over the integers.

Boundary operators are assembled as sparse integer matrices and brought to
Smith normal form by a two-phase elimination: a sparse phase that pivots only
on +-1 entries (chosen by a Markowitz fill estimate, so the reduction stays
fraction-free and fast on boundary matrices), then a dense textbook phase on
whatever small residue is left. All arithmetic is arbitrary-precision.

`reduced_homology` reduces the operators from the top dimension down with
clearing (the twist of Chen-Kerber and Bauer-Kerber-Reininghaus): a d-face
whose row held a +-1 pivot of the sparse phase of b_{d+1} is skipped as a
column of b_d. The pivot block has determinant +-1 and b_d b_{d+1} = 0, so a
skipped column is an integer combination of the kept ones; the column lattice
of b_d, and with it its rank and invariant factors, is unchanged. Pivots of
the dense phase need not be units and never clear a column.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Sequence

from .complexes import Complex


class SparseIntMatrix:
    """Integer matrix stored as {(row, col): value} with no zero entries."""

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, nrows: int, ncols: int,
                 entries: Mapping[tuple[int, int], int] | None = None):
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.nrows = nrows
        self.ncols = ncols
        self.entries: dict[tuple[int, int], int] = {}
        if entries:
            for (i, j), v in entries.items():
                if not 0 <= i < nrows or not 0 <= j < ncols:
                    raise ValueError(f"entry ({i}, {j}) outside {nrows} x {ncols}")
                if v:
                    self.entries[(i, j)] = int(v)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "SparseIntMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        entries = {}
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                if v:
                    entries[(i, j)] = int(v)
        return cls(nrows, ncols, entries)

    def to_rows(self) -> list[list[int]]:
        rows = [[0] * self.ncols for _ in range(self.nrows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def multiply(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("inner dimensions differ")
        by_row: dict[int, list[tuple[int, int]]] = {}
        for (i, j), v in other.entries.items():
            by_row.setdefault(i, []).append((j, v))
        acc: dict[tuple[int, int], int] = {}
        for (i, k), v in self.entries.items():
            for j, w in by_row.get(k, ()):
                key = (i, j)
                acc[key] = acc.get(key, 0) + v * w
        return SparseIntMatrix(self.nrows, other.ncols,
                               {k: v for k, v in acc.items() if v})

    def __repr__(self) -> str:
        return f"SparseIntMatrix({self.nrows} x {self.ncols}, {self.nnz} nonzero)"


@dataclass(frozen=True)
class HomologyGroup:
    """A finitely generated abelian group: free rank plus torsion coefficients."""

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("torsion coefficients must form a divisibility chain")

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def __str__(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# boundary operators
# ---------------------------------------------------------------------------

def boundary_matrices(x: Complex) -> list[SparseIntMatrix]:
    """Boundary operators of the augmented chain complex, dimensions 0..dim.

    The degree-0 operator is the augmentation row (all ones), which makes the
    resulting homology reduced. Entry signs alternate over the vertices of a
    face in ascending order, starting with + for the omitted lowest vertex.
    """
    levels = x.face_levels()
    below = next(levels, [])
    if not below:
        return []
    out = [SparseIntMatrix(1, len(below), {(0, j): 1 for j in range(len(below))})]
    for faces in levels:
        index = {m: i for i, m in enumerate(below)}
        entries: dict[tuple[int, int], int] = {}
        for j, f in enumerate(faces):
            sign = 1
            rest = f
            while rest:
                low = rest & -rest
                rest ^= low
                entries[(index[f ^ low], j)] = sign
                sign = -sign
        out.append(SparseIntMatrix(len(below), len(faces), entries))
        below = faces
    return out


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def smith_normal_form(m: SparseIntMatrix) -> tuple[int, ...]:
    """Invariant factors d1 | d2 | ... | dr of an integer matrix."""
    _, factors, _ = _rank_and_factors(m)
    return factors


def _rank_and_factors(m: SparseIntMatrix, skip: frozenset[int] = frozenset()
                      ) -> tuple[int, tuple[int, ...], list[int]]:
    """Rank and invariant factors of `m` without the columns in `skip`, and
    the rows where the sparse phase pivoted on a +-1 entry.

    Skipping columns is sound only when they lie in the integer span of the
    kept ones; `reduced_homology` guarantees that by clearing.
    """
    rows: list[dict[int, int]] = [dict() for _ in range(m.nrows)]
    cols: list[dict[int, int]] = [dict() for _ in range(m.ncols)]
    for (i, j), v in m.entries.items():
        if j not in skip:
            rows[i][j] = v
            cols[j][i] = v

    heap: list[tuple[int, int, int]] = []
    for j, col in enumerate(cols):
        for i, v in col.items():
            if v == 1 or v == -1:
                heap.append(((len(rows[i]) - 1) * (len(col) - 1), i, j))
    heapq.heapify(heap)

    row_alive = bytearray(b"\x01") * m.nrows
    col_alive = bytearray(b"\x01") * m.ncols
    pivot_rows: list[int] = []

    while heap:
        cost, pi, pj = heapq.heappop(heap)
        if not (row_alive[pi] and col_alive[pj]):
            continue
        v = rows[pi].get(pj)
        if v is None or (v != 1 and v != -1):
            continue
        current = (len(rows[pi]) - 1) * (len(cols[pj]) - 1)
        if current > cost:
            heapq.heappush(heap, (current, pi, pj))
            continue
        prow = rows[pi]
        pcol = cols[pj]
        # clear the pivot column with row operations
        for r in list(pcol.keys()):
            if r == pi:
                continue
            w = rows[r].pop(pj)
            del pcol[r]
            fac = w * v  # w / v, v is a unit
            rr = rows[r]
            for c2, x in prow.items():
                if c2 == pj:
                    continue
                nv = rr.get(c2, 0) - fac * x
                if nv:
                    rr[c2] = nv
                    cols[c2][r] = nv
                    if nv == 1 or nv == -1:
                        heapq.heappush(heap, ((len(rr) - 1) * (len(cols[c2]) - 1), r, c2))
                else:
                    if c2 in rr:
                        del rr[c2]
                        del cols[c2][r]
        # the pivot row can now be dropped without fill
        for c2 in list(prow.keys()):
            if c2 != pj:
                del cols[c2][pi]
        row_alive[pi] = 0
        col_alive[pj] = 0
        pivot_rows.append(pi)

    rank = len(pivot_rows)
    residual_rows = [i for i in range(m.nrows) if row_alive[i] and rows[i]]
    factors = [1] * rank
    if residual_rows:
        residual_cols = sorted({j for i in residual_rows for j in rows[i]})
        cmap = {j: k for k, j in enumerate(residual_cols)}
        dense = [[0] * len(residual_cols) for _ in residual_rows]
        for a, i in enumerate(residual_rows):
            for j, v in rows[i].items():
                dense[a][cmap[j]] = v
        extra = _dense_snf(dense)
        rank += len(extra)
        factors.extend(extra)
    return rank, tuple(factors), pivot_rows


def _dense_snf(mat: list[list[int]]) -> list[int]:
    """Textbook Smith reduction on a small dense residue."""
    m = [row[:] for row in mat]
    nr = len(m)
    nc = len(m[0]) if m else 0
    factors: list[int] = []
    t = 0
    while t < min(nr, nc):
        pivot = None
        for i in range(t, nr):
            for j in range(t, nc):
                if m[i][j] and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        bi, bj = pivot
        m[t], m[bi] = m[bi], m[t]
        for row in m:
            row[t], row[bj] = row[bj], row[t]
        while True:
            clean = True
            for i in range(t + 1, nr):
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    for j in range(t, nc):
                        m[i][j] -= q * m[t][j]
                    if m[i][t]:
                        m[t], m[i] = m[i], m[t]
                        clean = False
            for j in range(t + 1, nc):
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    for i in range(t, nr):
                        m[i][j] -= q * m[i][t]
                    if m[t][j]:
                        for i in range(t, nr):
                            m[i][t], m[i][j] = m[i][j], m[i][t]
                        clean = False
            if clean:
                break
        factors.append(abs(m[t][t]))
        t += 1
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 1):
            a, b = factors[i], factors[i + 1]
            if b % a:
                g = gcd(a, b)
                factors[i], factors[i + 1] = g, a * b // g
                changed = True
    return factors


# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------

def reduced_homology(x: Complex) -> list[HomologyGroup]:
    """Reduced integer homology groups, one per dimension 0..dim(x).

    The rank in dimension d is f_d - rank(b_d) - rank(b_{d+1}); the torsion
    comes from the invariant factors of b_{d+1} exceeding 1. The operators
    are reduced from the top dimension down, and b_d skips as columns the
    d-faces whose rows held the unit pivots of b_{d+1} (clearing, see the
    module docstring), which leaves every rank and invariant factor as it is.
    """
    mats = boundary_matrices(x)
    if not mats:
        return []
    ranks = [0] * (len(mats) + 1)
    torsions: list[tuple[int, ...]] = [()] * (len(mats) + 1)
    cleared: frozenset[int] = frozenset()
    for d in reversed(range(len(mats))):
        ranks[d], factors, pivot_rows = _rank_and_factors(mats[d], cleared)
        torsions[d] = tuple(t for t in factors if t > 1)
        cleared = frozenset(pivot_rows)
    out = []
    for d, mat in enumerate(mats):
        betti = mat.ncols - ranks[d] - ranks[d + 1]
        out.append(HomologyGroup(betti, torsions[d + 1]))
    return out


def betti_rational(x: Complex) -> list[int]:
    """Betti numbers via rank computations over the rationals only."""
    mats = boundary_matrices(x)
    if not mats:
        return []
    ranks = [_rank_over_rationals(mat) for mat in mats]
    ranks.append(0)
    return [mat.ncols - ranks[d] - ranks[d + 1] for d, mat in enumerate(mats)]


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


def homology_summary(groups: Iterable[HomologyGroup]) -> list[dict]:
    return [
        {"dim": d, "rank": g.rank, "torsion": list(g.torsion)}
        for d, g in enumerate(groups)
    ]


def format_homology(groups: Iterable[HomologyGroup]) -> str:
    return "\n".join(f"H~{d} = {g}" for d, g in enumerate(groups))
