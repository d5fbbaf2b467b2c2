"""Abstract simplicial complexes stored by facets over a fixed vertex table.

Faces are encoded as bitmasks over vertex positions. A complex keeps the full
vertex table of its parent, so subcomplex operations (star, link, deletion,
induced, intersection) preserve vertex indices. Complexes built from a graph
carry the adjacency masks along; induced-type operations keep that structure,
which speeds up face enumeration and membership tests.

Every face enumeration, homology's boundary matrices included, reads the one
walker Complex.face_levels: a clique walk with a graph, facet subsets without.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from typing import Any, Iterable, Iterator, Mapping, Sequence

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


def _maximal(masks: Iterable[int]) -> tuple[int, ...]:
    """Drop masks contained in another; dedupe; sort ascending."""
    by_size = sorted(set(masks), key=lambda m: (m.bit_count(), m), reverse=True)
    kept: list[int] = []
    for m in by_size:
        if m and not any(m & ~k == 0 for k in kept):
            kept.append(m)
    kept.sort()
    return tuple(kept)


def _least_free_face(face: int, above: int, containers: list[int]) -> tuple[int, int] | None:
    """The lexicographically least free face extending `face` by vertices in
    `above`, with its one facet; None if there is none.

    `containers` are the facets holding `face`: two or more, or every facet
    at the root (face 0, above -1). Extensions are tried in ascending vertex
    order and each is walked before the next, so faces come in lexicographic
    order of their vertex tuples.
    """
    union = 0
    for f in containers:
        union |= f
    rest = union & above
    while rest:
        low = rest & -rest
        rest ^= low
        inside = [f for f in containers if f & low]
        child = face | low
        if len(inside) > 1:
            found = _least_free_face(child, -(low << 1), inside)
            if found is not None:
                return found
        elif inside[0] != child:
            return child, inside[0]
    return None


class Complex:
    """Immutable simplicial complex: vertex labels plus maximal faces."""

    __slots__ = ("labels", "facets", "_graph", "_vmask", "_fvec")

    def __init__(self, labels: Sequence[str], facets: Iterable[Iterable[int]]):
        masks = [_mask_of(f, len(labels)) for f in facets]
        self.labels = tuple(labels)
        self.facets = _maximal(masks)
        self._graph = None
        self._vmask = None
        self._fvec = None

    @classmethod
    def _trusted(cls, labels: tuple[str, ...], facet_masks: tuple[int, ...],
                 graph: tuple[int, ...] | None) -> "Complex":
        """Internal constructor for facet masks already known maximal and sorted."""
        obj = cls.__new__(cls)
        obj.labels = labels
        obj.facets = facet_masks
        obj._graph = graph
        obj._vmask = None
        obj._fvec = None
        return obj

    @classmethod
    def empty(cls, labels: Sequence[str] = ()) -> "Complex":
        return cls(labels, [])

    # -- basics ------------------------------------------------------------

    @property
    def graph(self) -> tuple[int, ...] | None:
        """Adjacency masks when this is a clique complex of a known graph."""
        return self._graph

    @property
    def vertex_mask(self) -> int:
        vm = self._vmask
        if vm is None:
            vm = 0
            for f in self.facets:
                vm |= f
            self._vmask = vm
        return vm

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
        g = self._graph
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

    def has_face(self, face: Iterable[int]) -> bool:
        return self.has_face_mask(_mask_of(face, len(self.labels)))

    def face_levels(self) -> Iterator[list[int]]:
        """Faces of each dimension from 0 up, one list of masks per dimension.

        Each list is in lexicographic order of the sorted vertex tuples. A
        clique complex is walked breadth-first, each face carrying the common
        neighbours above its top vertex; a facet-only complex takes the
        subsets of its facets. The lists are the walker's own: read them,
        do not modify them.
        """
        g = self._graph
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
        if self._fvec is None:
            self._fvec = tuple(len(level) for level in self.face_levels())
        return self._fvec

    def f_vector(self) -> tuple[int, ...]:
        return self.face_counts()

    def euler_characteristic(self) -> int:
        return sum(c if d % 2 == 0 else -c for d, c in enumerate(self.face_counts()))

    # -- subcomplexes --------------------------------------------------------

    def _require_face(self, m: int, what: str) -> None:
        if not self.has_face_mask(m):
            raise ValueError(f"{what} requires a face of the complex")

    def star_mask(self, m: int) -> "Complex":
        self._require_face(m, "star")
        kept = tuple(f for f in self.facets if f & m == m)
        return Complex._trusted(self.labels, kept, self._graph)

    def star(self, face: Iterable[int]) -> "Complex":
        """Faces whose union with the given face is still a face."""
        return self.star_mask(_mask_of(face, len(self.labels)))

    def deletion_mask(self, m: int) -> "Complex":
        kept = _maximal(f & ~m for f in self.facets)
        return Complex._trusted(self.labels, kept, self._graph)

    def deletion(self, vertex_set: Iterable[int]) -> "Complex":
        """Faces disjoint from the given vertex set."""
        return self.deletion_mask(_mask_of(vertex_set, len(self.labels)))

    def link_mask(self, m: int) -> "Complex":
        self._require_face(m, "link")
        kept = tuple(sorted(f & ~m for f in self.facets if f & m == m))
        kept = tuple(k for k in kept if k)
        return Complex._trusted(self.labels, kept, self._graph)

    def link(self, face: Iterable[int]) -> "Complex":
        """Star intersected with deletion: faces joinable to and disjoint from the face."""
        return self.link_mask(_mask_of(face, len(self.labels)))

    def induced_mask(self, vm: int) -> "Complex":
        kept = _maximal(f & vm for f in self.facets)
        return Complex._trusted(self.labels, kept, self._graph)

    def induced(self, vertex_set: Iterable[int]) -> "Complex":
        """Subcomplex of faces supported on the given vertices."""
        return self.induced_mask(_mask_of(vertex_set, len(self.labels)))

    def intersection(self, other: "Complex") -> "Complex":
        """Faces common to both complexes (same vertex table required)."""
        if self.labels != other.labels:
            raise ValueError("intersection requires complexes over the same vertex table")
        common = _maximal(f & g for f in self.facets for g in other.facets)
        graph = self._graph if self._graph is not None and self._graph is other._graph else None
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
        """Maximal connected pieces, ordered by smallest vertex index."""
        parent: dict[int, int] = {}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for v in self.vertices():
            parent[v] = v
        for f in self.facets:
            vs = _mask_to_tuple(f)
            for v in vs[1:]:
                ra, rb = find(vs[0]), find(v)
                if ra != rb:
                    parent[rb] = ra
        groups: dict[int, list[int]] = {}
        for f in self.facets:
            root = find(_mask_to_tuple(f)[0])
            groups.setdefault(root, []).append(f)
        ordered = sorted(groups.values(), key=lambda fs: min(fs))
        return [Complex._trusted(self.labels, tuple(sorted(fs)), self._graph) for fs in ordered]

    # -- collapsing ----------------------------------------------------------

    def greedy_collapse(self) -> "CollapseOutcome":
        """Repeatedly remove the lexicographically least free face with its facet.

        A free face is a non-maximal face contained in exactly one facet.
        Each step finds it with one depth-first walk over the faces in
        lexicographic order of their vertex tuples: a face carries the
        facets containing it, only faces in two or more facets are extended
        (by vertices above their top vertex, ascending), and the walk stops
        at the first face in exactly one facet that is not that facet.
        Reaching a single vertex certifies contractibility; getting stuck
        decides nothing.
        """
        facets = set(self.facets)
        steps = 0
        while True:
            if len(facets) == 1 and next(iter(facets)).bit_count() == 1:
                return CollapseOutcome("collapsed-to-point", 1, steps)
            found = _least_free_face(0, -1, list(facets))
            if found is None:
                return CollapseOutcome("stuck", len(facets), steps)
            sm, big = found
            facets.remove(big)
            rest = sm
            while rest:
                low = rest & -rest
                rest ^= low
                cand = big ^ low
                if cand and not any(cand & ~g == 0 for g in facets):
                    facets.add(cand)
            steps += 1

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
        """Inverse of to_dict; raises ValueError on a malformed mapping."""
        if not isinstance(data, Mapping):
            raise ValueError("complex JSON must be an object")
        labels, facets = data.get("vertices"), data.get("facets")
        if not isinstance(labels, list) or not isinstance(facets, list):
            raise ValueError("complex JSON needs lists under 'vertices' and 'facets'")
        if not all(isinstance(v, str) for v in labels) or len(set(labels)) < len(labels):
            raise ValueError("vertex labels must be distinct strings")
        if not all(isinstance(f, list) for f in facets):
            raise ValueError("each facet must be a list of vertex indices")
        return cls(labels, facets)


@dataclass(frozen=True)
class CollapseOutcome:
    """Result of a greedy collapse run."""

    status: str  # "collapsed-to-point" or "stuck"
    remaining_facets: int
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


def clique_complex_of_graph(graph) -> Complex:
    """Clique complex of a SeparationGraph-like object (vertices + adjacency)."""
    from .subsets import subset_str  # local import to keep this module generic

    labels = [subset_str(v, graph.n) for v in graph.vertices]
    return clique_complex(labels, graph.adjacency)


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


def star_intersection(x: Complex, sigma: Iterable[int], tau: Iterable[int]) -> Complex:
    """st(sigma) meet st(tau); in a clique complex this equals st(sigma | tau)."""
    sm = _mask_of(sigma, len(x.labels))
    tm = _mask_of(tau, len(x.labels))
    if not x.has_face_mask(sm | tm):
        raise ValueError("star_intersection requires the union to be a face")
    return x.star_mask(sm).intersection(x.star_mask(tm))


# ---------------------------------------------------------------------------
# coverings and nerves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Covering:
    """An indexed family of subcomplexes of a parent complex."""

    parent: Complex
    members: tuple[Complex, ...]
    labels: tuple[str, ...]
    index_action: Mapping[Any, tuple[int, ...]] | None = None

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

    Exact backtracking over present vertices, pruned by facet-size profiles
    and 1-skeleton adjacency. Intended for small complexes.
    """
    vx, vy = x.vertices(), y.vertices()
    if len(vx) != len(vy) or len(x.facets) != len(y.facets):
        return None
    if max(len(vx), len(vy)) > ISOMORPHISM_VERTEX_CAP:
        raise ValueError(f"isomorphism search capped at {ISOMORPHISM_VERTEX_CAP} vertices")
    if sorted(f.bit_count() for f in x.facets) != sorted(f.bit_count() for f in y.facets):
        return None
    if x.face_counts() != y.face_counts():
        return None

    def skeleton(c: Complex, verts: tuple[int, ...]) -> dict[int, int]:
        adj = {v: 0 for v in verts}
        for f in c.facets:
            t = _mask_to_tuple(f)
            for a, b in combinations(t, 2):
                adj[a] |= 1 << b
                adj[b] |= 1 << a
        return adj

    adjx, adjy = skeleton(x, vx), skeleton(y, vy)

    def profile(c: Complex, adj: dict[int, int]) -> dict[int, tuple]:
        prof = {}
        for v in adj:
            sizes = sorted(f.bit_count() for f in c.facets if f >> v & 1)
            prof[v] = (adj[v].bit_count(), tuple(sizes))
        return prof

    px, py = profile(x, adjx), profile(y, adjy)
    cands = {v: [w for w in vy if py[w] == px[v]] for v in vx}
    if any(not c for c in cands.values()):
        return None
    order = sorted(vx, key=lambda v: (len(cands[v]), v))
    y_facets = set(y.facets)
    mapping: dict[int, int] = {}
    used = set()

    def translate(mask: int) -> int:
        out = 0
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            out |= 1 << mapping[low.bit_length() - 1]
        return out

    def backtrack(i: int) -> bool:
        if i == len(order):
            return all(translate(f) in y_facets for f in x.facets)
        v = order[i]
        for w in cands[v]:
            if w in used:
                continue
            ok = True
            for u, fu in mapping.items():
                if (adjx[v] >> u & 1) != (adjy[w] >> fu & 1):
                    ok = False
                    break
            if not ok:
                continue
            mapping[v] = w
            used.add(w)
            if backtrack(i + 1):
                return True
            del mapping[v]
            used.remove(w)
        return False

    if backtrack(0):
        return dict(mapping)
    return None
