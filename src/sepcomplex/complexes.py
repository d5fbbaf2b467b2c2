"""Abstract simplicial complexes stored by facets over a fixed vertex table.

Faces are encoded as bitmasks over vertex positions. A complex keeps the full
vertex table of its parent, so subcomplex operations (star, link, deletion,
induced, intersection) preserve vertex indices. Complexes built from a graph
carry the adjacency masks along; induced-type operations keep that structure,
which speeds up face enumeration and membership tests.

Every face enumeration reads the one walker Complex.face_levels: a clique
walk with a graph, facet subsets without. The collapse enumerates no faces.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import chain, combinations, islice
from operator import or_
from typing import Any, Iterable, Iterator, Mapping, Sequence

from .subsets import check_ground_size, check_relation, is_frozen, parse_subset

ISOMORPHISM_VERTEX_CAP = 64
NERVE_INDEX_CAP = 20


def _mask_of(face: Iterable[int], n_labels: int) -> int:
    m = 0
    for v in face:
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n_labels:
            raise ValueError(f"vertex index {v!r} is not an integer in range({n_labels})")
        m |= 1 << v
    return m


def _mask_to_tuple(m: int) -> tuple[int, ...]:
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return tuple(out)


def _permute_mask(m: int, perm: Sequence[int] | Mapping[int, int]) -> int:
    """The mask of the vertices perm[v], v in m; perm a sequence or a dict."""
    r = 0
    rest = m
    while rest:
        low = rest & -rest
        rest ^= low
        r |= 1 << perm[low.bit_length() - 1]
    return r


def _maximal(masks: Iterable[int]) -> tuple[int, ...]:
    """Drop masks contained in another; dedupe; sort ascending. Distinct
    masks of one size never contain each other, so each mask is tested only
    against the kept masks of larger size, all at once: holders[v] has bit i
    set when kept[i] holds vertex v, and a mask lies in a larger kept one iff
    the AND of holders over its vertices has a bit below its size class."""
    by_size = sorted(set(masks), key=lambda m: (m.bit_count(), m), reverse=True)
    kept: list[int] = []
    holders: dict[int, int] = {}  # keyed by the vertex's bit
    size, larger = -1, 0
    for m in by_size:
        if m.bit_count() != size:
            size, larger = m.bit_count(), (1 << len(kept)) - 1
        common, rest = larger, m
        while rest and common:
            low = rest & -rest
            rest ^= low
            common &= holders.get(low, 0)
        if m and not common:
            bit, rest = 1 << len(kept), m
            kept.append(m)
            while rest:
                low = rest & -rest
                rest ^= low
                holders[low] = holders.get(low, 0) | bit
    kept.sort()
    return tuple(kept)


def _least_dominated(adj: Sequence[int], alive: int) -> tuple[int, int] | None:
    """The first dominated vertex (u, u), else edge (u, v) with u < v, of
    the clique complex of `adj` on `alive` in face_levels order, or None. A
    face whose vertices have the common neighbours C is dominated iff some w
    in C has C inside its closed neighbourhood."""
    vertices = _mask_to_tuple(alive)
    edges = ((u, v) for u in vertices for v in _mask_to_tuple(adj[u] >> u + 1 << u + 1))
    for u, v in chain(zip(vertices, vertices), edges):
        common = adj[u] & adj[v]
        if any(not common & ~(adj[w] | 1 << w) for w in _mask_to_tuple(common)):
            return u, v
    return None


class Complex:
    """Immutable simplicial complex: vertex labels plus maximal faces,
    `vertex_mask`, the union of the faces, and `graph`, the adjacency masks
    when this is a clique complex of a known graph, else None."""

    __slots__ = ("labels", "facets", "graph", "vertex_mask")

    def __init__(self, labels: Sequence[str], facets: Iterable[Iterable[int]]):
        masks = [_mask_of(f, len(labels)) for f in facets]
        self.labels = tuple(labels)
        self.facets = _maximal(masks)
        self.graph = None
        self.vertex_mask = reduce(or_, self.facets, 0)

    @classmethod
    def _trusted(cls, labels: tuple[str, ...], facet_masks: tuple[int, ...],
                 graph: tuple[int, ...] | None) -> "Complex":
        """Internal constructor for facet masks already known maximal and sorted."""
        obj = cls.__new__(cls)
        obj.labels = labels
        obj.facets = facet_masks
        obj.graph = graph
        obj.vertex_mask = reduce(or_, facet_masks, 0)
        return obj

    # -- basics ------------------------------------------------------------

    def vertices(self) -> tuple[int, ...]:
        """Indices of vertices present in the complex, ascending."""
        return _mask_to_tuple(self.vertex_mask)

    @property
    def is_empty(self) -> bool:
        return not self.facets

    def dimension(self) -> int:
        """Largest face dimension; -1 for the empty complex."""
        return max((f.bit_count() for f in self.facets), default=0) - 1

    def is_pure(self) -> bool:
        sizes = {f.bit_count() for f in self.facets}
        return len(sizes) <= 1

    def facet_tuples(self) -> list[tuple[int, ...]]:
        return [_mask_to_tuple(f) for f in self.facets]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Complex)
                and self.labels == other.labels
                and self.facets == other.facets)

    def __hash__(self) -> int:
        return hash((self.labels, self.facets))

    def __repr__(self) -> str:
        return f"Complex({len(self.vertices())} vertices, {len(self.facets)} facets, dim {self.dimension()})"

    # -- membership and enumeration ----------------------------------------

    def has_face_mask(self, m: int) -> bool:
        if m == 0:
            return not self.is_empty
        g = self.graph
        if g is not None:
            if m & ~self.vertex_mask:
                return False
            rest = m
            while rest:
                low = rest & -rest
                v = low.bit_length() - 1
                rest ^= low
                if m & ~(g[v] | low):
                    return False
            return True
        return any(m & ~f == 0 for f in self.facets)

    def face_levels(self) -> Iterator[list[int]]:
        """Faces of each dimension from 0 up, one list of masks per dimension.

        Each list is in lexicographic order of the sorted vertex tuples. A
        clique complex is walked breadth-first, each face carrying the common
        neighbours above its top vertex; a facet-only complex takes the
        subsets of its facets. The lists are the walker's own: read them,
        do not modify them.
        """
        g = self.graph
        if g is None:
            # 1 << v grows with v, so bit tuples sort like vertex tuples
            bits = [tuple(1 << v for v in _mask_to_tuple(f)) for f in self.facets]
            for k in range(1, self.dimension() + 2):
                found: set[tuple[int, ...]] = set()
                for b in bits:
                    found.update(combinations(b, k))
                yield [sum(c) for c in sorted(found)]
            return
        faces, cands = [0], [self.vertex_mask]
        while True:
            next_faces: list[int] = []
            next_cands: list[int] = []
            for m, cand in zip(faces, cands):
                rest = cand
                while rest:
                    low = rest & -rest
                    rest ^= low
                    next_faces.append(m | low)
                    next_cands.append(rest & g[low.bit_length() - 1])
            if not next_faces:
                return
            yield next_faces
            faces, cands = next_faces, next_cands

    def iter_face_masks(self) -> Iterator[int]:
        """All nonempty faces as masks, by dimension then lexicographic order."""
        for level in self.face_levels():
            yield from level

    def faces_of_dim(self, d: int) -> list[tuple[int, ...]]:
        """All d-dimensional faces as sorted index tuples, lexicographic order."""
        if d < 0:
            raise ValueError("dimension must be nonnegative")
        level = next(islice(self.face_levels(), d, None), [])
        return [_mask_to_tuple(m) for m in level]

    def face_counts(self) -> tuple[int, ...]:
        """Number of faces per dimension (the f-vector)."""
        return tuple(len(level) for level in self.face_levels())

    def euler_characteristic(self) -> int:
        return sum(c if d % 2 == 0 else -c for d, c in enumerate(self.face_counts()))

    # -- subcomplexes --------------------------------------------------------

    def _require_face(self, m: int, what: str) -> None:
        if not self.has_face_mask(m):
            raise ValueError(f"{what} requires a face of the complex")

    def star_mask(self, m: int) -> "Complex":
        """Faces whose union with the face m is still a face."""
        self._require_face(m, "star")
        kept = tuple(f for f in self.facets if f & m == m)
        return Complex._trusted(self.labels, kept, self.graph)

    def deletion_mask(self, m: int) -> "Complex":
        """Faces disjoint from the vertex set m."""
        return self.induced_mask(~m)

    def link_mask(self, m: int) -> "Complex":
        """Star intersected with deletion: faces joinable to and disjoint from the face m."""
        self._require_face(m, "link")
        kept = tuple(sorted(f & ~m for f in self.facets if f & m == m))
        kept = tuple(k for k in kept if k)
        return Complex._trusted(self.labels, kept, self.graph)

    def induced_mask(self, vm: int) -> "Complex":
        """Subcomplex of faces supported on the vertex set vm."""
        kept = _maximal(f & vm for f in self.facets)
        return Complex._trusted(self.labels, kept, self.graph)

    def intersection(self, other: "Complex") -> "Complex":
        """Faces common to both complexes (same vertex table required)."""
        if self.labels != other.labels:
            raise ValueError("intersection requires complexes over the same vertex table")
        common = _maximal(f & g for f in self.facets for g in other.facets)
        graph = self.graph if self.graph is not None and self.graph is other.graph else None
        return Complex._trusted(self.labels, common, graph)

    def cone_points(self) -> tuple[int, ...]:
        """Vertices joinable to every face, i.e. those lying in every facet."""
        if self.is_empty:
            return ()
        m = self.facets[0]
        for f in self.facets[1:]:
            m &= f
        return _mask_to_tuple(m)

    def boundary(self) -> "Complex":
        """Subcomplex generated by codimension-1 faces lying in exactly one facet."""
        if not self.is_pure():
            raise ValueError("boundary is defined for pure complexes only")
        counts: dict[int, int] = {}
        for f in self.facets:
            rest = f
            while rest:
                low = rest & -rest
                rest ^= low
                r = f ^ low
                counts[r] = counts.get(r, 0) + 1
        ridges = tuple(sorted(r for r, c in counts.items() if c == 1 and r))
        return Complex._trusted(self.labels, ridges, None)

    def components(self) -> list["Complex"]:
        """Maximal connected pieces, ordered by smallest vertex index. Each
        facet joins the pieces whose vertex masks it meets."""
        pieces: dict[int, list[int]] = {}  # facets, keyed by the piece's vertex mask
        for f in self.facets:
            mask, fs = f, [f]
            for m in [m for m in pieces if m & f]:
                mask |= m
                fs += pieces.pop(m)
            pieces[mask] = fs
        return [Complex._trusted(self.labels, tuple(sorted(pieces[m])), self.graph)
                for m in sorted(pieces, key=lambda m: m & -m)]

    # -- collapsing ----------------------------------------------------------

    def greedy_collapse(self) -> "CollapseOutcome":
        """On a clique complex, repeatedly delete the faces containing the
        least dominated vertex, else edge: one whose faces all share a vertex
        outside it. That is a strong collapse (Barmak-Minian) or an edge
        collapse (Boissonnat-Pritam), and leaves the clique complex of a
        smaller graph, so each step edits adjacency masks; a dominated face
        of dimension 2 or more is no step. Reaching a single vertex certifies
        contractibility; getting stuck decides nothing."""
        if self.graph is None:
            raise ValueError("the greedy collapse runs on clique complexes only")
        alive = self.vertex_mask
        adj = [a & alive for a in self.graph]
        steps = 0
        while alive & (alive - 1):
            face = _least_dominated(adj, alive)
            if face is None:
                return CollapseOutcome("stuck", steps)
            u, v = face
            if u == v:
                alive ^= 1 << u
                adj = [a & alive for a in adj]
            else:
                adj[u] ^= 1 << v
                adj[v] ^= 1 << u
            steps += 1
        return CollapseOutcome("collapsed-to-point" if alive else "stuck", steps)

    # -- serialization ---------------------------------------------------------

    def to_dict(self, n: int | None = None, relation: str | None = None) -> dict:
        return {
            "n": n,
            "relation": relation,
            "vertices": list(self.labels),
            "facets": sorted(list(_mask_to_tuple(f)) for f in self.facets),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Complex":
        """Inverse of to_dict; raises ValueError on a malformed mapping, a
        repeated index in a facet among them. With a ground size 'n', each
        label must name its own subset of [n], and a non-frozen one when the
        mapping also gives its 'relation'."""
        if not isinstance(data, Mapping):
            raise ValueError("complex JSON must be an object")
        labels, facets = data.get("vertices"), data.get("facets")
        if not isinstance(labels, list) or not isinstance(facets, list):
            raise ValueError("complex JSON needs lists under 'vertices' and 'facets'")
        if not all(isinstance(v, str) for v in labels) or len(set(labels)) < len(labels):
            raise ValueError("vertex labels must be distinct strings")
        if not all(isinstance(f, list) for f in facets):
            raise ValueError("each facet must be a list of vertex indices")
        n, relation = data.get("n"), data.get("relation")
        if relation is not None:
            check_relation(relation)
            if n is None:
                raise ValueError("complex JSON with a 'relation' needs its ground size 'n'")
        if n is not None:
            check_ground_size(n)
            named: dict[int, str] = {}
            for label in labels:
                try:
                    s = parse_subset(label, n)
                except ValueError as exc:
                    raise ValueError(
                        f"vertex label {label!r} is not a subset of [{n}]: {exc}") from None
                if relation is not None and is_frozen(s, n):
                    raise ValueError(f"vertex label {label!r} is a frozen subset of [{n}], "
                                     f"not a vertex of a {relation} complex")
                if s in named:
                    raise ValueError(
                        f"vertex labels {named[s]!r} and {label!r} name the same subset")
                named[s] = label
        cx = cls(labels, facets)  # first rejects an index that is no integer in range
        repeated = [v for f in facets for v, count in Counter(f).items() if count > 1]
        if repeated:
            raise ValueError(f"vertex index {repeated[0]} is repeated in a facet")
        return cx


@dataclass(frozen=True)
class CollapseOutcome:
    """Result of a greedy collapse run."""

    status: str  # "collapsed-to-point" or "stuck"
    steps: int

    @property
    def collapsed(self) -> bool:
        return self.status == "collapsed-to-point"


# ---------------------------------------------------------------------------
# construction helpers
# ---------------------------------------------------------------------------

def clique_complex(labels: Sequence[str], adjacency: Sequence[int]) -> Complex:
    """Complex whose faces are the cliques of the given graph.

    adjacency[i] is a bitmask of neighbours of vertex i; every vertex of the
    table is a vertex of the complex (isolated vertices become facets).
    """
    n = len(labels)
    if len(adjacency) != n:
        raise ValueError("adjacency size must match the vertex table")
    adj = tuple(int(a) for a in adjacency)
    for i, a in enumerate(adj):
        if a >> i & 1:
            raise ValueError(f"vertex {i} adjacent to itself")
        if a >= 1 << n:
            raise ValueError("adjacency mask outside vertex table")
    for i, a in enumerate(adj):
        rest = a
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            rest ^= low
            if not adj[j] >> i & 1:
                raise ValueError("adjacency must be symmetric")
    facets = _bron_kerbosch(adj, n)
    return Complex._trusted(tuple(labels), tuple(sorted(facets)), adj)


def _bron_kerbosch(adj: Sequence[int], n: int) -> list[int]:
    """Maximal cliques via pivoting; deterministic order."""
    out: list[int] = []
    if n == 0:
        return out

    def expand(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(r)
            return
        px = p | x
        best_u, best = -1, -1
        rest = px
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            rest ^= low
            c = (p & adj[u]).bit_count()
            if c > best:
                best, best_u = c, u
        cand = p & ~adj[best_u]
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            expand(r | low, p & adj[v], x & adj[v])
            p &= ~low
            x |= low

    expand(0, (1 << n) - 1, 0)
    return out


def cross_polytope_boundary(m: int) -> Complex:
    """Boundary complex of the m-dimensional cross polytope.

    m antipodal vertex pairs, every vertex adjacent to all but its partner;
    a simplicial (m-1)-sphere.
    """
    if m < 1:
        raise ValueError("cross polytope dimension must be positive")
    labels = []
    for i in range(1, m + 1):
        labels.extend((f"+{i}", f"-{i}"))
    full = (1 << (2 * m)) - 1
    adjacency = []
    for v in range(2 * m):
        partner = v ^ 1
        adjacency.append(full & ~(1 << v) & ~(1 << partner))
    return clique_complex(labels, adjacency)


# ---------------------------------------------------------------------------
# coverings and nerves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Covering:
    """An indexed family of subcomplexes of a parent complex."""

    parent: Complex
    members: tuple[Complex, ...]
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.members) != len(self.labels):
            raise ValueError("one label per member required")

    def members_are_subcomplexes(self) -> bool:
        return all(
            m.labels == self.parent.labels
            and all(self.parent.has_face_mask(f) for f in m.facets)
            for m in self.members
        )

    def covers_parent(self) -> bool:
        return all(
            any(m.has_face_mask(f) for m in self.members)
            for f in self.parent.facets
        )


def nerve(covering: Covering) -> Complex:
    """Complex on the covering's index set recording nonempty intersections."""
    k = len(covering.members)
    if k > NERVE_INDEX_CAP:
        raise ValueError(f"nerve computation capped at {NERVE_INDEX_CAP} members")
    nonempty: dict[int, Complex] = {}
    frontier: list[tuple[int, Complex]] = []
    for i, m in enumerate(covering.members):
        if not m.is_empty:
            nonempty[1 << i] = m
            frontier.append((1 << i, m))
    while frontier:
        nxt: list[tuple[int, Complex]] = []
        for smask, inter in frontier:
            top = smask.bit_length() - 1
            for j in range(top + 1, k):
                jm = covering.members[j]
                if jm.is_empty:
                    continue
                deeper = inter.intersection(jm)
                if not deeper.is_empty:
                    nonempty[smask | (1 << j)] = deeper
                    nxt.append((smask | (1 << j), deeper))
        frontier = nxt
    return Complex._trusted(covering.labels, _maximal(nonempty.keys()), None)


# ---------------------------------------------------------------------------
# isomorphism testing
# ---------------------------------------------------------------------------

def isomorphic(x: Complex, y: Complex) -> dict[int, int] | None:
    """Search for a facet-preserving vertex bijection; None if there is none.

    Exact backtracking over present vertices, for small complexes: the
    vertices of x, in ascending order, each map to an unused vertex of y of
    equal 1-skeleton degree that keeps adjacency and non-adjacency with the
    vertices already mapped. A complete map is accepted if it sends every
    facet of x to a facet of y; with equal facet counts it is then a bijection
    on facets.
    """
    vx, vy = x.vertices(), y.vertices()
    if len(vx) != len(vy) or len(x.facets) != len(y.facets):
        return None
    if len(vx) > ISOMORPHISM_VERTEX_CAP:
        raise ValueError(f"isomorphism search capped at {ISOMORPHISM_VERTEX_CAP} vertices")

    def skeleton(c: Complex, verts: tuple[int, ...]) -> dict[int, int]:
        adj = {v: 0 for v in verts}
        for f in c.facets:
            t = _mask_to_tuple(f)
            for a, b in combinations(t, 2):
                adj[a] |= 1 << b
                adj[b] |= 1 << a
        return adj

    adjx, adjy = skeleton(x, vx), skeleton(y, vy)
    y_facets = set(y.facets)
    mapping: dict[int, int] = {}

    def backtrack(i: int) -> bool:
        if i == len(vx):
            return all(_permute_mask(f, mapping) in y_facets for f in x.facets)
        v = vx[i]
        degree = adjx[v].bit_count()
        used = set(mapping.values())
        for w in vy:
            if (w in used or adjy[w].bit_count() != degree
                    or any((adjx[v] >> u & 1) != (adjy[w] >> fu & 1)
                           for u, fu in mapping.items())):
                continue
            mapping[v] = w
            if backtrack(i + 1):
                return True
            del mapping[v]
        return False

    if backtrack(0):
        return dict(mapping)
    return None
