"""Exact reduced simplicial homology over the integers.

Boundary operators are sparse integer matrices, brought to Smith normal form
by a three-phase elimination. The peel pivots on each +-1 entry alone in its
row (a free face, the elementary collapse of Kaczynski-Mrozek-Slusarek),
which deletes its column and causes no fill, until no such row is left. Only
the columns it leaves, and the rows they touch, go on: a Markowitz phase
pivots on their +-1 entries, cheapest fill estimate first from a heap, so the
reduction stays fraction-free, and a dense textbook phase takes whatever
small residue is left. All arithmetic is arbitrary-precision.

Only the face lists of the complex are kept. Each operator is built from them
when it is needed, one at a time, as the implicit boundary matrix of Ripser
(Bauer) is: `reduced_homology` builds b_d straight into the column dicts of
the elimination, just before it reduces b_d, and drops it before b_{d-1}.

`reduced_homology` reduces the operators from the top dimension down with
clearing (the twist of Chen-Kerber and Bauer-Kerber-Reininghaus): a d-face
whose row held a +-1 pivot of b_{d+1}, in the peel or the Markowitz phase, is
omitted from the columns of b_d, which are never built. A peel pivot is a
unit pivot of the same elimination whose pivot row has no other entry, so its
row operations only zero the rest of its column, and the pivot block still
has determinant +-1. With b_d b_{d+1} = 0, an omitted column is then an
integer combination of the kept ones; the column lattice of b_d, and with it
its rank and invariant factors, is unchanged. Pivots of the dense phase need
not be units and never clear a column.
"""
from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

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

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:
        return f"SparseIntMatrix({self.nrows} x {self.ncols}, {self.nnz} nonzero)"


@dataclass(frozen=True)
class HomologyGroup:
    """A finitely generated abelian group: free rank plus torsion coefficients."""

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"negative rank {self.rank}")
        if any(t < 2 for t in self.torsion):
            raise ValueError(f"torsion coefficients must be at least 2: {self.torsion}")
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

class BoundaryOperators(Sequence[SparseIntMatrix]):
    """The boundary operators of a complex's augmented chain complex,
    dimensions 0..dim, built one at a time from its face lists.

    Indexing builds one operator as a `SparseIntMatrix`; `columns` builds the
    same operator as the column dicts the elimination works on. Only the face
    lists are kept, so no two operators need to be alive at once.
    """

    __slots__ = ("faces",)

    def __init__(self, faces: list[list[int]]):
        self.faces = faces  # faces[d]: the d-faces as masks, in walker order

    def __len__(self) -> int:
        return len(self.faces)

    def __getitem__(self, d: int | slice) -> SparseIntMatrix | list[SparseIntMatrix]:
        if isinstance(d, slice):
            return [self[i] for i in range(*d.indices(len(self)))]
        d = range(len(self))[d]  # negative indices and IndexError as for a list
        op = SparseIntMatrix(self.nrows(d), len(self.faces[d]))
        entries = op.entries  # filled in place, since the constructor would copy them all
        for j, col in enumerate(self.columns(d)):
            for i, v in col.items():
                entries[(i, j)] = v
        return op

    def nrows(self, d: int) -> int:
        return len(self.faces[d - 1]) if d else 1

    def columns(self, d: int, skip: frozenset[int] = frozenset()) -> list[dict[int, int]]:
        """The columns of b_d, 0 <= d < len(self), as {row: value} dicts in face
        order; the columns in `skip` are omitted. Signs alternate over the
        vertices of a face in ascending order, + for the facet without the
        lowest vertex."""
        faces = self.faces[d]
        if d == 0:
            return [{0: 1} for j in range(len(faces)) if j not in skip]
        index = {m: i for i, m in enumerate(self.faces[d - 1])}
        cols: list[dict[int, int]] = []
        for j, f in enumerate(faces):
            if j in skip:
                continue
            col: dict[int, int] = {}
            sign = 1
            rest = f
            while rest:
                low = rest & -rest
                rest ^= low
                col[index[f ^ low]] = sign
                sign = -sign
            cols.append(col)
        return cols


def boundary_matrices(x: Complex) -> BoundaryOperators:
    """Boundary operators of the augmented chain complex, dimensions 0..dim.

    The degree-0 operator is the augmentation row (all ones), which makes the
    resulting homology reduced. The faces are walked here; each operator is
    built when it is asked for.
    """
    return BoundaryOperators(list(x.face_levels()))


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def smith_normal_form(m: SparseIntMatrix) -> tuple[int, ...]:
    """Invariant factors d1 | d2 | ... | dr of an integer matrix."""
    cols: list[dict[int, int]] = [{} for _ in range(m.ncols)]
    for (i, j), v in m.entries.items():
        cols[j][i] = v
    return _rank_and_factors(m.nrows, cols)[0]


def _rank_and_factors(nrows: int, cols: list[dict[int, int]]
                      ) -> tuple[tuple[int, ...], list[int]]:
    """Invariant factors of the matrix with `nrows` rows and the columns
    `cols` ({row: value} dicts, reduced in place), one per unit of rank, and
    the rows where the peel or the Markowitz phase pivoted on a +-1 entry.

    The peel pivots on each +-1 entry alone in its row, deleting its column,
    until no such row is left. It keeps per row only the number of live
    entries and the XOR of their column indices, which for a row with one
    entry is that entry's column. The rows wait in a first-in first-out
    queue: the rows in index order, then each row as it drops to one entry.
    The order decides which of two singleton rows on one column pivots, and
    so which columns clearing removes from the next operator down. It leaves
    none of the 205200 pivots of ws(6) to the Markowitz phase; popping the
    rows as a stack left 45140.

    Only the columns the peel leaves (208 of ss(6)), renumbered in their
    order so that heap ties break alike, make the heap and the dicts of the
    rows they touch; `_dense_snf` takes what the Markowitz phase leaves.
    """
    pivot_rows: list[int] = []
    count = [0] * nrows
    xor = [0] * nrows
    for j, col in enumerate(cols):
        for i in col:
            count[i] += 1
            xor[i] ^= j
    queue = deque(i for i, c in enumerate(count) if c == 1)
    while queue:
        pi = queue.popleft()
        if count[pi] != 1:
            continue  # its column went with an earlier peel pivot
        pj = xor[pi]
        pcol = cols[pj]
        v = pcol[pi]
        if v != 1 and v != -1:
            continue  # left to the later phases
        for r in pcol:
            count[r] -= 1
            xor[r] ^= pj
            if count[r] == 1:
                queue.append(r)
        pcol.clear()
        pivot_rows.append(pi)

    cols = [col for col in cols if col]  # renumbered in the same order
    if not cols:
        return (1,) * len(pivot_rows), pivot_rows
    touched = sorted({i for col in cols for i in col})
    rows: list[dict[int, int] | None] = [None] * nrows
    for i in touched:
        rows[i] = {}
    for j, col in enumerate(cols):
        for i, v in col.items():
            rows[i][j] = v

    heap = [((len(rows[i]) - 1) * (len(col) - 1), i, j)
            for j, col in enumerate(cols) for i, v in col.items() if v == 1 or v == -1]
    heapq.heapify(heap)

    row_alive = bytearray(b"\x01") * nrows
    col_alive = bytearray(b"\x01") * len(cols)

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

    residual_rows = [i for i in touched if row_alive[i] and rows[i]]
    factors = [1] * len(pivot_rows)
    if residual_rows:
        residual_cols = sorted({j for i in residual_rows for j in rows[i]})
        factors.extend(_dense_snf([[rows[i].get(j, 0) for j in residual_cols]
                                   for i in residual_rows]))
    return tuple(factors), pivot_rows


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
    are reduced from the top dimension down, and b_d omits the columns of the
    d-faces whose rows held the unit pivots of b_{d+1} (clearing, see the
    module docstring), which leaves every rank and invariant factor as it is.
    Each b_d is built just before it is reduced, without its cleared columns.
    """
    ops = boundary_matrices(x)
    top = len(ops)
    ranks = [0] * (top + 1)
    torsions: list[tuple[int, ...]] = [()] * (top + 1)
    cleared: frozenset[int] = frozenset()
    for d in reversed(range(top)):
        factors, pivot_rows = _rank_and_factors(ops.nrows(d), ops.columns(d, cleared))
        ranks[d] = len(factors)
        torsions[d] = tuple(t for t in factors if t > 1)
        cleared = frozenset(pivot_rows)
    return [HomologyGroup(len(faces) - ranks[d] - ranks[d + 1], torsions[d + 1])
            for d, faces in enumerate(ops.faces)]


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


def homology_summary(groups: Iterable[HomologyGroup]) -> list[dict]:
    return [
        {"dim": d, "rank": g.rank, "torsion": list(g.torsion)}
        for d, g in enumerate(groups)
    ]


def format_homology(groups: Iterable[HomologyGroup]) -> str:
    return "\n".join(f"H~{d} = {g}" for d, g in enumerate(groups))
