"""Subsets of [n] = {1, ..., n} as bitmasks, separation predicates, and symmetries.

A subset S of [n] is stored as an integer mask with bit k-1 set iff k is in S.
Masks give a canonical total order on subsets (numeric value); every vertex
ordering downstream derives from it.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator

MAX_GROUND_SIZE = 30  # masks must fit a machine word with headroom
RELATIONS = ("ws", "ss")


class GroundSizeError(ValueError):
    pass


def check_ground_size(n: int) -> int:
    if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= MAX_GROUND_SIZE:
        raise GroundSizeError(f"ground size must be an integer in 1..{MAX_GROUND_SIZE}, got {n!r}")
    return n


def check_relation(relation: str) -> str:
    if relation not in RELATIONS:
        raise ValueError(f"relation must be one of {RELATIONS}, got {relation!r}")
    return relation


def ground_mask(n: int) -> int:
    """Mask of the full ground set [n]."""
    return (1 << check_ground_size(n)) - 1


def check_mask(s: int, n: int) -> int:
    if not isinstance(s, int) or s < 0 or s >= (1 << n):
        raise ValueError(f"mask {s!r} does not encode a subset of [{n}]")
    return s


def mask_from_elements(elements: Iterable[int], n: int) -> int:
    m = 0
    for k in elements:
        if not 1 <= k <= n:
            raise ValueError(f"element {k} outside [1, {n}]")
        bit = 1 << (k - 1)
        if m & bit:
            raise ValueError(f"repeated element {k}")
        m |= bit
    return m


def elements_of(s: int) -> tuple[int, ...]:
    """1-based elements of a mask, ascending."""
    out = []
    while s:
        low = s & -s
        out.append(low.bit_length())
        s ^= low
    return tuple(out)


def subset_str(s: int, n: int) -> str:
    """Brace-free digit string for n <= 9 (e.g. 1234), comma-separated above."""
    if s == 0:
        return "{}"
    elems = elements_of(s)
    if n <= 9:
        return "".join(str(k) for k in elems)
    return ",".join(str(k) for k in elems)


def parse_subset(text: str, n: int) -> int:
    """Inverse of subset_str for nonempty subsets."""
    text = text.strip()
    if not text or text == "{}":
        return 0
    if "," in text:
        return mask_from_elements((int(t) for t in text.split(",")), n)
    if n <= 9:
        return mask_from_elements((int(ch) for ch in text), n)
    return mask_from_elements([int(text)], n)


# ---------------------------------------------------------------------------
# separation predicates
# ---------------------------------------------------------------------------

def precedes(a: int, b: int) -> bool:
    """True iff every element of a is smaller than every element of b.

    Empty sets compare as True on either side (max of the empty set is
    treated as -inf and min as +inf). Inputs must be disjoint.
    """
    if a & b:
        raise ValueError("precedes requires disjoint subsets")
    if a == 0 or b == 0:
        return True
    return a.bit_length() - 1 < (b & -b).bit_length() - 1


def surrounds(a: int, b: int) -> bool:
    """True iff a splits as a1 | a2 with a1 entirely before b and a2 entirely after.

    Equivalent threshold form: no element of a lies within [min(b), max(b)].
    Inputs must be disjoint; empty a or b always surround.
    """
    if a & b:
        raise ValueError("surrounds requires disjoint subsets")
    if a == 0 or b == 0:
        return True
    lo = (b & -b).bit_length() - 1
    hi = b.bit_length() - 1
    span = ((1 << (hi + 1)) - 1) ^ ((1 << lo) - 1)
    return a & span == 0


def strongly_separated(a: int, b: int) -> bool:
    """True iff a-b lies entirely before b-a or vice versa."""
    d1 = a & ~b
    d2 = b & ~a
    return precedes(d1, d2) or precedes(d2, d1)


def weakly_separated(a: int, b: int) -> bool:
    """True iff the difference of the not-larger set surrounds the other difference."""
    d1 = a & ~b
    d2 = b & ~a
    ca = a.bit_count()
    cb = b.bit_count()
    return (ca <= cb and surrounds(d1, d2)) or (cb <= ca and surrounds(d2, d1))


def separated(a: int, b: int, relation: str) -> bool:
    check_relation(relation)
    return strongly_separated(a, b) if relation == "ss" else weakly_separated(a, b)


def is_frozen(s: int, n: int) -> bool:
    """True iff s is separated from every subset of [n], under either relation.

    These are exactly the initial segments {1..k} and final segments {k..n},
    the empty set and [n] included, and the characterization is the same for
    both relations (is_frozen_enumerated provides the definition-level check).
    """
    check_mask(s, check_ground_size(n))
    if s & (s + 1) == 0:
        return True
    c = ground_mask(n) ^ s
    return c & (c + 1) == 0


def is_frozen_enumerated(s: int, n: int, relation: str = "ws") -> bool:
    """Definition-level frozen test: compare against all 2^n subsets."""
    check_relation(relation)
    check_mask(s, check_ground_size(n))
    if n > 20:
        raise ValueError("enumeration-based frozen test capped at n = 20")
    pred = strongly_separated if relation == "ss" else weakly_separated
    return all(pred(s, t) for t in range(1 << n))


def nonfrozen_subsets(n: int) -> list[int]:
    """All non-frozen subsets of [n] in canonical (numeric mask) order."""
    check_ground_size(n)
    return [s for s in range(1 << n) if not is_frozen(s, n)]


# ---------------------------------------------------------------------------
# the symmetry group: complementation and order reversal
# ---------------------------------------------------------------------------

class GroupElement(enum.Enum):
    """The Klein four-group generated by set complementation and by the
    order-reversing relabeling k -> n+1-k."""

    IDENTITY = "e"
    COMPLEMENT = "complement"
    REVERSE = "reverse"
    COMPLEMENT_REVERSE = "complement-reverse"

    def compose(self, other: "GroupElement") -> "GroupElement":
        c = (self in (GroupElement.COMPLEMENT, GroupElement.COMPLEMENT_REVERSE)) ^ (
            other in (GroupElement.COMPLEMENT, GroupElement.COMPLEMENT_REVERSE)
        )
        r = (self in (GroupElement.REVERSE, GroupElement.COMPLEMENT_REVERSE)) ^ (
            other in (GroupElement.REVERSE, GroupElement.COMPLEMENT_REVERSE)
        )
        return _FROM_PARTS[(c, r)]

    def inverse(self) -> "GroupElement":
        # every element is an involution
        return self

    def __str__(self) -> str:
        return self.value


_FROM_PARTS = {
    (False, False): GroupElement.IDENTITY,
    (True, False): GroupElement.COMPLEMENT,
    (False, True): GroupElement.REVERSE,
    (True, True): GroupElement.COMPLEMENT_REVERSE,
}

GROUP = (
    GroupElement.IDENTITY,
    GroupElement.COMPLEMENT,
    GroupElement.REVERSE,
    GroupElement.COMPLEMENT_REVERSE,
)


def reverse_mask(s: int, n: int) -> int:
    """Apply k -> n+1-k elementwise."""
    out = 0
    for k in elements_of(s):
        out |= 1 << (n - k)
    return out


def act(g: GroupElement, s: int, n: int) -> int:
    """Apply a symmetry to a subset of [n]."""
    check_mask(s, check_ground_size(n))
    if g is GroupElement.IDENTITY:
        return s
    if g is GroupElement.COMPLEMENT:
        return ground_mask(n) ^ s
    if g is GroupElement.REVERSE:
        return reverse_mask(s, n)
    return ground_mask(n) ^ reverse_mask(s, n)


# ---------------------------------------------------------------------------
# ground-set value type for API edges (validation + rendering)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Subset:
    """A subset of [n] carrying its ground size, for validated pairwise use."""

    bits: int
    n: int

    def __post_init__(self) -> None:
        check_mask(self.bits, check_ground_size(self.n))

    @classmethod
    def of(cls, elements: Iterable[int], n: int) -> "Subset":
        return cls(mask_from_elements(elements, n), n)

    @classmethod
    def parse(cls, text: str, n: int) -> "Subset":
        return cls(parse_subset(text, n), n)

    def _paired(self, other: "Subset") -> int:
        if self.n != other.n:
            raise ValueError(f"mismatched ground sizes {self.n} and {other.n}")
        return other.bits

    def precedes(self, other: "Subset") -> bool:
        return precedes(self.bits, self._paired(other))

    def surrounds(self, other: "Subset") -> bool:
        return surrounds(self.bits, self._paired(other))

    def strongly_separated_from(self, other: "Subset") -> bool:
        return strongly_separated(self.bits, self._paired(other))

    def weakly_separated_from(self, other: "Subset") -> bool:
        return weakly_separated(self.bits, self._paired(other))

    def is_frozen(self) -> bool:
        return is_frozen(self.bits, self.n)

    def apply(self, g: GroupElement) -> "Subset":
        return Subset(act(g, self.bits, self.n), self.n)

    def elements(self) -> tuple[int, ...]:
        return elements_of(self.bits)

    def __str__(self) -> str:
        return subset_str(self.bits, self.n)


# ---------------------------------------------------------------------------
# the separation graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeparationGraph:
    """Graph on the non-frozen subsets of [n]; edges join separated pairs.

    vertices are masks in canonical order; adjacency[i] is a bitmask over
    vertex positions.
    """

    n: int
    relation: str
    vertices: tuple[int, ...]
    adjacency: tuple[int, ...]

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adjacency) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for i, a in enumerate(self.adjacency):
            rest = a >> (i + 1) << (i + 1)
            while rest:
                low = rest & -rest
                yield (i, low.bit_length() - 1)
                rest ^= low

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.adjacency[i] >> j & 1)


def separation_graph(n: int, relation: str) -> SeparationGraph:
    """Build the graph of separated non-frozen subsets of [n]."""
    check_ground_size(n)
    check_relation(relation)
    verts = nonfrozen_subsets(n)
    pred = strongly_separated if relation == "ss" else weakly_separated
    m = len(verts)
    adjacency = [0] * m
    for i in range(m):
        vi = verts[i]
        for j in range(i + 1, m):
            if pred(vi, verts[j]):
                adjacency[i] |= 1 << j
                adjacency[j] |= 1 << i
    return SeparationGraph(n, relation, tuple(verts), tuple(adjacency))
