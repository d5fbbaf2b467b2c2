"""Builders for the separation complexes, their antipodal subcomplex, the
vertexwise retraction data, and the deletion covering.

The separation complex for a relation is the clique complex of the separation
graph on non-frozen subsets of [n]. Vertices are labelled by subset strings
and ordered canonically by mask value.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Callable, Iterable

from . import subsets
from .complexes import Complex, Covering, clique_complex
from .subsets import separation_graph, subset_str

DEFAULT_ENUMERATION_CAP = 7


class CapExceeded(ValueError):
    """Requested ground size is above the enumeration cap."""


def check_enumeration_cap(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> None:
    """Reject a cap below 1 (ValueError) and a ground size n above the cap
    (CapExceeded)."""
    if cap < 1:
        raise ValueError(f"the enumeration cap must be at least 1, got {cap}")
    if n > cap:
        raise CapExceeded(f"n = {n} exceeds the enumeration cap {cap}")


def check_face_budget(cx: Complex, cap: int) -> None:
    """Bound face enumeration, which may walk every subset of every facet,
    by the cap: a facet may have at most C(cap - 1, 2) vertices, the facet
    size of the ss and ws complexes at the cap, and all facets together at
    most 2^(C(cap - 1, 2) + cap) subsets, as many as 2^cap facets of that
    size have. Raises CapExceeded. Every file is held to it, a built
    complex only by the verbs and named checks that walk its faces."""
    most, size = comb(cap - 1, 2), cx.dimension() + 1
    if size > most:
        raise CapExceeded(f"a facet of {size} vertices exceeds {most}, the facet size "
                          f"of ss({cap}) and ws({cap}) at the enumeration cap {cap}")
    subsets = sum(1 << f.bit_count() for f in cx.facets)
    budget = 1 << min(most + cap, subsets.bit_length())  # no huge power for a huge cap
    if subsets > budget:
        raise CapExceeded(f"the {len(cx.facets)} facets have {subsets} subsets, above "
                          f"{budget} = 2^({most} + {cap}), the subsets of 2^{cap} facets "
                          f"of {most} vertices at the enumeration cap {cap}")


@dataclass(frozen=True)
class SeparationComplex:
    """A separation complex, or its full subcomplex on `masks`, with ground-set bookkeeping."""

    n: int
    relation: str
    complex: Complex
    masks: tuple[int, ...]  # subset mask per vertex, canonical order
    _index: dict = field(init=False, repr=False, compare=False)
    _images: dict | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_index", {m: i for i, m in enumerate(self.masks)})

    def vertex_index(self, subset: int | str) -> int:
        mask = subsets.parse_subset(subset, self.n) if isinstance(subset, str) else subset
        try:
            return self._index[mask]
        except KeyError:
            raise ValueError(
                f"{subset_str(mask, self.n)} is not a vertex of the {self.relation}({self.n}) complex"
            ) from None

    def face_mask(self, face: Iterable[int | str]) -> int:
        """Vertex-index mask of the face on the given subsets (masks or strings)."""
        return sum(1 << i for i in {self.vertex_index(s) for s in face})

    def vertex_permutation(self, g: Callable[[int, int], int]) -> tuple[int, ...]:
        """Index permutation induced by a symmetry generator of the ground set
        (one of subsets.GENERATORS)."""
        return tuple(self._index[g(m, self.n)] for m in self.masks)

    def singleton_pair_indices(self) -> tuple[tuple[int, int], ...]:
        """Vertex index pairs (k, complement of k) for k = 2..n-1."""
        full = subsets.ground_mask(self.n)
        return tuple((self._index[1 << (k - 1)], self._index[full ^ (1 << (k - 1))])
                     for k in range(2, self.n))

    def antipodal_vertex_indices(self) -> tuple[int, ...]:
        """The pair vertices in pair order: {k}, then its complement, for
        k = 2..n-1. Index i of the deletion covering deletes the i-th."""
        return tuple(v for pair in self.singleton_pair_indices() for v in pair)

    @property
    def retraction_images(self) -> dict[int, int]:
        """Retraction image mask (retraction_image_mask) of every nonempty
        face, keyed by face mask in the order of Complex.iter_face_masks; an
        image may be empty. Defined on ss(n), n >= 4, and built on first use.
        Every check reads this one dict: read it, do not modify it. Three
        sweeps read it: verify.chain_violations, equivariance_violations and
        carrier_violations. The first two rely on its order, by dimension,
        which puts a face less one vertex one level before the face.

        Built at O(1) per face in the same order. The image of f depends on f
        only through c(f), the pair vertices v whose closed neighbourhood
        N[v] = g[v] | 1 << v holds f, kept as one bit per pair vertex. c(f)
        is c(f less its lowest vertex v), one level down, ANDed with the pair
        vertices of N[v], from c of the empty face, all of them; each
        distinct c calls retraction_image_mask once, on its first face.

        Kept in a dataclass field: functools.cached_property would write
        the instance __dict__, which makes every later attribute read on the
        complex slower on CPython 3.11."""
        if self._images is None:
            if self.relation != "ss":
                raise ValueError("the retraction is defined on the strong-separation complex")
            if self.n < 4:
                raise ValueError("the retraction is defined for n >= 4")
            g = self.complex.graph
            pair_vertices = self.antipodal_vertex_indices()
            near = {1 << v: sum(1 << k for k, p in enumerate(pair_vertices)
                                if (a | 1 << v) >> p & 1)
                    for v, a in enumerate(g)}  # keyed by the vertex's bit
            images, memo = {}, {}  # memo: the image per distinct c
            below, here, size = {}, {0: (1 << len(pair_vertices)) - 1}, 0  # c, by dimension
            for f in self.complex.iter_face_masks():
                if f.bit_count() != size:
                    below, here, size = here, {}, f.bit_count()
                low = f & -f
                c = here[f] = below[f ^ low] & near[low]
                img = memo.get(c)
                if img is None:
                    img = memo[c] = retraction_image_mask(self, f)
                images[f] = img
            object.__setattr__(self, "_images", images)
        return self._images


def build(n: int, relation: str, cap: int = DEFAULT_ENUMERATION_CAP) -> SeparationComplex:
    """Clique complex of the separation graph on non-frozen subsets of [n].

    Empty for n <= 2 (every subset is frozen there). Ground sizes above
    `cap` (default 7) are rejected, as is a cap below 1.
    """
    subsets.check_ground_size(n)
    subsets.check_relation(relation)
    check_enumeration_cap(n, cap)
    graph = separation_graph(n, relation)
    labels = [subset_str(v, n) for v in graph.vertices]
    cx = clique_complex(labels, graph.adjacency)
    return SeparationComplex(n, relation, cx, graph.vertices)


# ---------------------------------------------------------------------------
# the antipodal subcomplex
# ---------------------------------------------------------------------------

def antipodal_subcomplex(n: int) -> SeparationComplex:
    """K(n): ss(n) induced on the singletons 2..n-1 and their complements,
    built from the strong relation on those 2(n-2) subsets alone. Its n-2
    pairs (singleton_pair_indices) make it a cross-polytope boundary, which
    the report's cross-polytope-isomorphism row checks."""
    full = subsets.ground_mask(n)
    if n < 4:
        raise ValueError("the antipodal subcomplex needs n >= 4")
    masks = tuple(sorted(
        m for k in range(2, n) for m in (1 << (k - 1), full ^ (1 << (k - 1)))))
    adjacency = [sum(1 << j for j, b in enumerate(masks)
                     if b != a and subsets.strongly_separated(a, b)) for a in masks]
    cx = clique_complex([subset_str(m, n) for m in masks], adjacency)
    return SeparationComplex(n, "ss", cx, masks)


# ---------------------------------------------------------------------------
# the vertexwise retraction data
# ---------------------------------------------------------------------------

def retraction_image_mask(sc: SeparationComplex, face_mask: int) -> int:
    """Vertex-index mask of the retraction image; may be empty (callers decide).

    Pair vertex v is in it iff face + v is a face, i.e. the face lies in the
    closed neighbourhood of v, and face + partner(v) is not. So the image
    depends on the face only through the pair vertices whose closed
    neighbourhood holds it; SeparationComplex.retraction_images relies on
    that and calls this once per such set."""
    g = sc.complex.graph
    out = 0
    for i, j in sc.singleton_pair_indices():
        extends_i = face_mask & ~(g[i] | 1 << i) == 0
        if extends_i != (face_mask & ~(g[j] | 1 << j) == 0):
            out |= 1 << (i if extends_i else j)
    return out


# ---------------------------------------------------------------------------
# the deletion covering
# ---------------------------------------------------------------------------

def deletion_covering(sc: SeparationComplex) -> Covering:
    """Covering of the weak-separation complex by deletions of the singletons
    2..n-1 and their complements. Member i deletes vertex
    sc.antipodal_vertex_indices()[i]."""
    if sc.relation != "ws":
        raise ValueError("the deletion covering is defined on the weak-separation complex")
    if sc.n < 4:
        raise ValueError("the deletion covering needs n >= 4")
    deleted = sc.antipodal_vertex_indices()
    members = [sc.complex.deletion_mask(1 << v) for v in deleted]
    labels = [f"dl({sc.complex.labels[v]})" for v in deleted]
    return Covering(sc.complex, tuple(members), tuple(labels))
