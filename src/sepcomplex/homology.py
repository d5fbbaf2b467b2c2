"""Exact reduced simplicial homology over the integers.

Before any column is built, the chain complex is shrunk by a contractible
subcomplex, as the coreduction algorithm of Mrozek-Batko removes one vertex,
since H~(X) = H(X, v). Let X be a clique complex and K = {v_1, ..., v_k} a
clique of it. The full subcomplexes on the closed neighbourhoods N[v_i] are
cones on the v_i, and any intersection of some of them is the full
subcomplex on the common part of their neighbourhoods, which holds every
v_i it was taken over, so it is a cone again. Their nerve is a full simplex,
so their union A is contractible (the nerve theorem, Bjorner), and the long
exact sequence of the pair gives H~_d(X) = H_d(X, A) in every dimension,
torsion included. C(X, A) has one generator per face inside no N[v_i] (an
up-set of the faces), its boundary is the usual one with the faces of A left
out (the relative complex of Kaczynski-Mrozek-Slusarek), and it has no
augmentation row. `_cone` picks K, greedily and maximal: on ss(6) 32417 of
the 187200 faces are left, on ws(6) 5360 of 410399. A complex without a
graph takes the empty cone, A empty, which is the augmented complex on the
same code path. The lemma needs X to be the clique complex of its graph on
its vertex mask, which every `Complex` with a graph is, the full
subcomplexes of `Complex.induced_mask` among them: each deletion
intersection of the covering checks is reduced here, relative to a cone of
its own.

Those faces are never listed with the rest: `Complex.face_levels(avoid)`
walks only the branches of the clique walk that can still leave every
N[v_i], 36569 walk nodes on ss(6) and 9012 on ws(6). `BoundaryOperators`
holds the complex and its masks and walks on first use, so the full walk
that `boundary_matrices` stands for runs only when its operators are read.

Boundary operators are sparse integer matrices, brought to Smith normal form
by a three-phase elimination. The peel pivots on each +-1 entry alone in its
row (a free face, the elementary collapse of Kaczynski-Mrozek-Slusarek),
which deletes its column and causes no fill, until no such row is left. Only
the columns it leaves, and the rows they touch, go on, as row and column
dicts kept in step: a Markowitz phase pivots on their +-1 entries, cheapest
fill estimate first from a heap, so the reduction stays fraction-free; then
what is left, with no unit entry, is reduced on the same dicts, each time by
an entry of least absolute value, not by a pivot held at one place through
Euclid steps, which can make the entries grow without bound (Kannan-Bachem).
All arithmetic is arbitrary-precision.

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
its rank and invariant factors, is unchanged. Pivots of the last phase need
not be units and never clear a column.
"""
from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from math import gcd

from .complexes import Complex, _mask_to_tuple


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
    """The boundary operators of the chain complex of `complex` relative to
    the full subcomplexes on the vertex masks `avoid`, dimensions
    0..dim(complex), built one at a time.

    Its generators are the faces inside none of the masks, walked by
    `Complex.face_levels(avoid)` on first use and padded with empty levels
    up to the complex's top dimension. With no masks, the rows of b_0 are
    the empty face, which makes the homology reduced; otherwise there are
    none, as relative to a nonempty subcomplex. Indexing builds one operator
    as a `SparseIntMatrix`; `columns` builds the same operator as the column
    dicts the elimination works on. Only the face lists are kept, so no two
    operators need to be alive at once.
    """

    __slots__ = ("complex", "avoid", "_faces")

    def __init__(self, x: Complex, avoid: tuple[int, ...] = ()):
        self.complex = x
        self.avoid = avoid
        self._faces: list[list[int]] | None = None

    @property
    def faces(self) -> list[list[int]]:
        """faces[d]: the d-faces as masks, in walker order."""
        if self._faces is None:
            faces = list(self.complex.face_levels(self.avoid))
            self._faces = faces + [[] for _ in range(len(self) - len(faces))]
        return self._faces

    def __len__(self) -> int:
        return self.complex.dimension() + 1

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

    def _rows(self, d: int) -> list[int]:
        return self.faces[d - 1] if d else ([] if self.avoid else [0])

    def nrows(self, d: int) -> int:
        return len(self._rows(d))

    def columns(self, d: int, skip: frozenset[int] = frozenset()) -> list[dict[int, int]]:
        """The columns of b_d, 0 <= d < len(self), as {row: value} dicts in face
        order; the columns in `skip` are omitted, and so are the facets of a
        face that are not rows. Signs alternate over the vertices of a face in
        ascending order, + for the facet without the lowest vertex."""
        index = {m: i for i, m in enumerate(self._rows(d))}
        cols: list[dict[int, int]] = []
        for j, f in enumerate(self.faces[d]):
            if j in skip:
                continue
            col: dict[int, int] = {}
            sign = 1
            rest = f
            while rest:
                low = rest & -rest
                rest ^= low
                i = index.get(f ^ low)
                if i is not None:
                    col[i] = sign
                sign = -sign
            cols.append(col)
        return cols


def boundary_matrices(x: Complex) -> BoundaryOperators:
    """Boundary operators of the augmented chain complex, dimensions 0..dim.

    The degree-0 operator is the augmentation row (all ones), which makes the
    resulting homology reduced. The faces are walked when first asked for,
    and each operator is built when it is asked for.
    """
    return BoundaryOperators(x)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def smith_normal_form(m: SparseIntMatrix) -> tuple[int, ...]:
    """Invariant factors d1 | d2 | ... | dr of an integer matrix, by the
    elimination of `_rank_and_factors`."""
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
    so which columns clearing removes from the next operator down. On the
    chain complex of ws(6) relative to its cone (`reduced_homology`) it
    pivots 2680 times and leaves no column to the Markowitz phase; popping
    the rows as a stack left 179.

    Only the columns the peel leaves (12 of ss(6)'s), renumbered in their
    order so that heap ties break alike, make the heap and the dicts of the
    rows they touch. The Markowitz phase pivots on their +-1 entries. What it
    leaves (nothing on the paper complexes) is reduced one pivot at a time on
    an entry of least absolute value, ties to the lower row, then column:
    floor-quotient row and column operations clear its column and row, and
    it is recorded once it stands alone, else a smaller remainder pivots
    next. Those values are turned into a divisibility chain by gcd and lcm
    of neighbours. `_subtract` does every row and column operation.
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

    while heap:
        cost, pi, pj = heapq.heappop(heap)
        v = rows[pi].get(pj)  # None once row pi or column pj has pivoted
        if v is None or (v != 1 and v != -1):
            continue
        current = (len(rows[pi]) - 1) * (len(cols[pj]) - 1)
        if current > cost:
            heapq.heappush(heap, (current, pi, pj))
            continue
        prow = rows[pi]
        # clear the pivot column with row operations
        for r in [r for r in cols[pj] if r != pi]:
            _subtract(rows, cols, r, pi, rows[r][pj] * v)  # w / v, v is a unit
            rr = rows[r]
            for c in prow:
                x = rr.get(c)
                if x == 1 or x == -1:
                    heapq.heappush(heap, ((len(rr) - 1) * (len(cols[c]) - 1), r, c))
        # the pivot row can now be dropped without fill
        for c in prow:
            del cols[c][pi]
        prow.clear()
        pivot_rows.append(pi)

    # what is left has no +-1 entry: pivot on an entry of least absolute value,
    # reduce its row and column by it, and record it once it stands alone
    factors: list[int] = []
    while True:
        live = [(abs(v), i, j) for i in touched for j, v in rows[i].items()]
        if not live:
            break
        _, pi, pj = min(live)
        v = rows[pi][pj]
        for r in [r for r in cols[pj] if r != pi]:
            _subtract(rows, cols, r, pi, rows[r][pj] // v)
        for c in [c for c in rows[pi] if c != pj]:
            _subtract(cols, rows, c, pj, cols[c][pi] // v)
        if len(rows[pi]) == len(cols[pj]) == 1:
            factors.append(abs(v))
            rows[pi].clear()
            cols[pj].clear()
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 1):
            a, b = factors[i], factors[i + 1]
            if b % a:
                g = gcd(a, b)
                factors[i], factors[i + 1] = g, a * b // g
                changed = True
    return (1,) * len(pivot_rows) + tuple(factors), pivot_rows


def _subtract(lines: list, cross: list, dst: int, src: int, q: int) -> None:
    """lines[dst] -= q * lines[src] on sparse {index: value} lines, keeping
    the transposed lines `cross` in step: rows and columns, either way round."""
    line = lines[dst]
    for k, x in lines[src].items():
        nv = line.get(k, 0) - q * x
        if nv:
            line[k] = nv
            cross[k][dst] = nv
        elif k in line:
            del line[k]
            del cross[k][dst]


# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------

def reduced_homology(x: Complex) -> list[HomologyGroup]:
    """Reduced integer homology groups, one per dimension 0..dim(x).

    The groups are read off the chain complex of x relative to the stars of
    a greedy clique (`_cone`, `_relative`, see the module docstring), which
    has the same homology by the nerve theorem and only the faces outside
    those stars. `boundary_matrices(x)` walks nothing unless its operators
    are read, and the relative complex walks only the faces outside the
    stars, so no full walk of x runs here. The rank in dimension d
    is the number of those d-faces less rank(b_d) and rank(b_{d+1}); the
    torsion comes from the invariant factors of b_{d+1} exceeding 1. The
    operators are reduced from the top dimension down, and b_d omits the
    columns of the d-faces whose rows held the unit pivots of b_{d+1}
    (clearing), which leaves every rank and invariant factor as it is. Each
    b_d is built just before it is reduced, without its cleared columns.
    """
    ops = _relative(boundary_matrices(x), _cone(x.graph, x.vertex_mask))
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


def _cone(graph: Sequence[int] | None, vm: int) -> tuple[int, ...]:
    """The closed neighbourhoods in `graph` of a greedy maximal clique of vm:
    u, the vertex of vm with the most neighbours in vm, then, while the
    clique has common neighbours in vm, the one of them with the most
    neighbours in vm, ties to the lower index. One mask for an isolated
    vertex, none without a graph or a vertex.

    The union of the full subcomplexes on these masks is contractible: any
    intersection of some of them is the full subcomplex on the common part
    of their masks, a cone on each clique vertex whose mask it was taken
    over, so their nerve is a full simplex (the nerve theorem, Bjorner).
    """
    if graph is None or not vm:
        return ()
    degree = {v: (graph[v] & vm).bit_count() for v in _mask_to_tuple(vm)}
    clique = []
    cand = vm
    while cand:
        v = max(_mask_to_tuple(cand), key=lambda v: (degree[v], -v))
        clique.append(v)
        cand &= graph[v]
    return tuple(graph[v] | 1 << v for v in clique)


def _relative(ops: BoundaryOperators, cone: tuple[int, ...]) -> BoundaryOperators:
    """The chain complex of ops's complex relative to the full subcomplexes
    on the masks of `cone`: the faces inside none of them, and no
    augmentation row unless the cone is empty. Its faces are walked on first
    use, and only those outside the masks are visited."""
    return BoundaryOperators(ops.complex, cone)


def homology_summary(groups: Iterable[HomologyGroup]) -> list[dict]:
    return [
        {"dim": d, "rank": g.rank, "torsion": list(g.torsion)}
        for d, g in enumerate(groups)
    ]


def format_homology(groups: Iterable[HomologyGroup]) -> str:
    return "\n".join(f"H~{d} = {g}" for d, g in enumerate(groups))
