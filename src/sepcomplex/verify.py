"""Machine checks for the structural claims about separation complexes.

Each check compares a computed quantity against a frozen expected value and
yields a CheckResult row. Contractibility-style claims are never decided;
they are certified in decreasing strength: a cone point, a full greedy
collapse, or (inconclusively) trivial reduced homology alone. The collapse
(Complex.greedy_collapse) runs on the graph of a clique complex: each step
deletes the least dominated vertex, else edge; never a larger face.
Every retraction row reads the complex's one table of retraction images,
SeparationComplex.retraction_images, which is built on first use, and
sweeps every face, or every face of K(n) for identity-on-cross-polytope;
none samples. The chain condition counts the faces that have a violating
subface. The carrier-containment, retraction-equivariance and
chain-condition sweeps cost O(1) per face, and all three count exactly
what a face-by-face test would. The table lists the faces by dimension, and
the walk that built it records each face's parent, f less its top vertex,
by its index one level down (SeparationComplex.retraction_tree). Folding
along that index, level by level into lists, the equivariance sweep builds
f's permuted mask, and the chain sweep the union of the images of f's
vertices, which is the union of its proper subfaces' images wherever each
image lies inside its vertices' union, as on the paper's tables. Where one
does not, the chain sweep carries the excess up from each face's facets,
exactly, level by level. Carrier containment tests f | img against one
mask per distinct image, the closed neighbourhoods of its vertices ANDed,
which is exact because f is a clique. The covering
checks work on vertex masks: the members of the deletion covering and of
each star covering are full subcomplexes, so every intersection is the
parent induced on the AND of their vertex masks. Every deletion row, the
members and the union included, reads one table of those masks. Each
entry is built once as a Complex, its facets read off the graph,
and the homology and certificate rows both read those complexes.

One table, CHECKS, lists the named checks for both `sepcx verify`
(run_named_check) and `sepcx reproduce-paper` (full_report). Every row,
figures and boundary findings included, builds its complexes through the
builder it is given, so the report builds each of ss/ws(3), (4), (5) once
and `verify` applies its cap to all of them.
"""
from __future__ import annotations

import functools
import json
from collections import Counter
from dataclasses import asdict, dataclass
from itertools import islice
from math import comb
from operator import and_, countOf, ne, or_
from typing import Callable, Iterable, Sequence

from .complexes import (
    Complex,
    _mask_to_tuple,
    _maximal,
    _permute_mask,
    cross_polytope_boundary,
    isomorphic,
)
from .homology import HomologyGroup, reduced_homology
from .separation import (
    DEFAULT_ENUMERATION_CAP,
    SeparationComplex,
    antipodal_subcomplex,
    build,
    check_enumeration_cap,
    check_face_budget,
)
from .subsets import GENERATORS, MAX_GROUND_SIZE, ground_mask

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"
SKIPPED = "SKIPPED"


@dataclass(frozen=True)
class CheckResult:
    check: str
    scope: str
    expected: str
    computed: str
    status: str
    witness: str = ""

    @property
    def failed(self) -> bool:
        return self.status == FAIL


def _row(check: str, scope: str, expected, computed, witness: str = "",
         inconclusive: bool = False) -> CheckResult:
    e, c = str(expected), str(computed)
    if e == c:
        status = PASS
    elif inconclusive:
        status = INCONCLUSIVE
    else:
        status = FAIL
    return CheckResult(check, scope, e, c, status, witness)


def any_failed(results: Iterable[CheckResult]) -> bool:
    return any(r.failed for r in results)


def _tally(results: Sequence[CheckResult]) -> dict[str, int]:
    """Rows per status, keyed by the status in lower case."""
    counts = Counter(r.status for r in results)
    return {s.lower(): counts[s] for s in (PASS, FAIL, INCONCLUSIVE, SKIPPED)}


def results_to_json(results: Sequence[CheckResult]) -> str:
    payload = {"checks": [asdict(r) for r in results], "summary": _tally(results)}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def format_results(results: Sequence[CheckResult]) -> str:
    lines = []
    for r in results:
        line = f"{r.check} [{r.scope}]: {r.status}"
        if r.status not in (PASS, SKIPPED):
            line += f" (expected {r.expected}, computed {r.computed})"
        elif r.expected:
            line += f" ({r.computed})"
        if r.witness:
            line += f" -- {r.witness}"
        lines.append(line)
    t = _tally(results)
    lines.append(f"{t['pass']} passed, {t['fail']} failed, "
                 f"{t['inconclusive']} inconclusive, {t['skipped']} skipped")
    return "\n".join(lines)


def _homology_str(groups: Sequence[HomologyGroup]) -> str:
    return "; ".join(f"H~{d} = {g}" for d, g in enumerate(groups))


def _expected_groups(length: int, nontrivial: dict[int, HomologyGroup]) -> list[HomologyGroup]:
    return [nontrivial.get(d, HomologyGroup(0)) for d in range(length)]


# ---------------------------------------------------------------------------
# figure-level counts
# ---------------------------------------------------------------------------

Builder = Callable[[int, str], SeparationComplex]


def figure_checks(get: Builder = build) -> list[CheckResult]:
    """The counts of the paper's figures at n = 3, 4, building with get(n, rel)."""
    out = []
    for relation in ("ss", "ws"):
        sc = get(3, relation)
        out.append(_row(f"vertices {relation}(3)", "n=3",
                        "('13', '2')", str(tuple(sorted(sc.complex.labels)))))
        counts = sc.complex.face_counts()
        edge_count = counts[1] if len(counts) > 1 else 0
        out.append(_row(f"edges {relation}(3)", "n=3", 0, edge_count))
    ss4, ws4 = get(4, "ss"), get(4, "ws")
    out.append(_row("f-vector ss(4)", "n=4", (8, 16, 8), ss4.complex.face_counts()))
    out.append(_row("f-vector ws(4)", "n=4", (8, 17, 10), ws4.complex.face_counts()))

    def edge_labels(sc: SeparationComplex) -> set[frozenset[str]]:
        return {frozenset(sc.complex.labels[v] for v in e)
                for e in sc.complex.faces_of_dim(1)}

    ss_edges, ws_edges = edge_labels(ss4), edge_labels(ws4)
    out.append(_row("edge containment ss(4) in ws(4)", "n=4", True, ss_edges <= ws_edges))
    extra = {tuple(sorted(e)) for e in ws_edges - ss_edges}
    out.append(_row("extra ws(4) edge", "n=4", "{('14', '23')}", str(extra)))
    return out


# ---------------------------------------------------------------------------
# homology shadows
# ---------------------------------------------------------------------------

def contractibility_shadow(sc: SeparationComplex) -> list[CheckResult]:
    """Trivial reduced homology, plus a collapse by dominated vertices and
    edges. A stuck collapse refutes nothing (a subdivided dunce hat is
    contractible and sticks), so its row reads INCONCLUSIVE, never FAIL."""
    scope = f"{sc.relation}({sc.n})"
    groups = reduced_homology(sc.complex)
    trivial = all(g.is_trivial for g in groups)
    outcome = sc.complex.greedy_collapse()
    return [_row(f"homology-trivial {scope}", scope, True, trivial,
                 witness=_homology_str(groups) if not trivial else ""),
            _row(f"collapse-certificate {scope}", scope,
                 "collapsed-to-point", outcome.status,
                 witness=f"{outcome.steps} steps",
                 inconclusive=True)]


def sphere_shadow(sc: SeparationComplex) -> CheckResult:
    """Reduced homology of a single sphere of dimension n-3."""
    scope = f"{sc.relation}({sc.n})"
    groups = reduced_homology(sc.complex)
    expected = _expected_groups(len(groups), {sc.n - 3: HomologyGroup(1)})
    return _row(f"sphere-homology {scope}", scope,
                _homology_str(expected), _homology_str(groups))


def purity_check(sc: SeparationComplex) -> CheckResult:
    scope = f"{sc.relation}({sc.n})"
    expected_dim = comb(sc.n - 1, 2) - 1
    computed = (sc.complex.is_pure(), sc.complex.dimension())
    return _row(f"pure-of-dimension {scope}", scope,
                (True, expected_dim), computed)


# ---------------------------------------------------------------------------
# the antipodal subcomplex
# ---------------------------------------------------------------------------

def antipodal_checks(n: int) -> list[CheckResult]:
    scope = f"n={n}"
    sub = antipodal_subcomplex(n)
    reference = cross_polytope_boundary(n - 2)
    mapping = isomorphic(sub.complex, reference)
    out = [_row(f"cross-polytope-isomorphism K({n})", scope, True, mapping is not None)]
    groups = reduced_homology(sub.complex)
    expected = _expected_groups(len(groups), {n - 3: HomologyGroup(1)})
    out.append(_row(f"cross-polytope-homology K({n})", scope,
                    _homology_str(expected), _homology_str(groups)))
    return out


# ---------------------------------------------------------------------------
# retraction checks
# ---------------------------------------------------------------------------

def chain_violations(images: dict[int, int], pairs: Sequence[tuple[int, int]],
                     tree: Sequence[tuple[list[int], list[int]]]) -> int:
    """Faces with a nonempty proper subface whose image, joined with the
    face's own, holds one of the complementary `pairs`; a violation on any
    chain already shows on such a pair. Exhaustive, at O(1) per face.

    Let U(f) be the union of the images of the nonempty proper subfaces of
    f, and W(f) the union of the images of its vertices, folded along the
    walk's tree: W(f) = W(parent) | img(top), the parent being f less its
    top vertex. For |f| >= 2, U(f) = W(f) | X(f), X(f) the OR of the excess
    img(s) & ~W(s) over the proper subfaces s of f with |s| >= 2. So f
    violates iff img(f) holds a pair, or the partners of img(f) meet
    W(f) | X(f), or a proper subface's image holds a pair. Each level is
    built as lists off the level below and counted in one pass, unless an
    image there leaves W or holds a pair, or the level below has some
    excess: then the level is swept face by face, keeping the excess, on
    pair vertices, and a bit `held` for an image that holds a pair, where
    nonzero, each face ORing its facets' (looked up by face mask). On the
    paper's tables, where every image lies inside W, no level is. `tree`
    gives, per dimension, the parent index and top vertex of each face of
    `images`, in its order; SeparationComplex.retraction_tree, which the
    chain-condition rows pass with retraction_images, does.
    """
    pair_bits = sum(1 << i | 1 << j for i, j in pairs)
    held = 1 << pair_bits.bit_length()
    partners = {img: sum((img >> i & 1) << j | (img >> j & 1) << i for i, j in pairs)
                for img in set(images.values())}
    holding = {img for img, partner in partners.items() if partner & img}
    faces, values = iter(images), iter(images.values())
    vertex_images: dict[int, int] = {}  # by vertex index
    w = [0]  # W per face of the level below, from the empty face
    extra_below: dict[int, int] = {}  # excess and `held` per face where nonzero
    violations = 0
    for size, (parents, tops) in enumerate(tree, 1):
        level, imgs = list(islice(faces, len(tops))), list(islice(values, len(tops)))
        if size == 1:
            vertex_images = dict(zip(tops, imgs))
        w = list(map(or_, map(w.__getitem__, parents), map(vertex_images.__getitem__, tops)))
        if not (extra_below or not holding.isdisjoint(imgs)
                or any(map(ne, map(or_, imgs, w), w))):
            if size > 1:
                violations += len(imgs) - countOf(
                    map(and_, map(partners.__getitem__, imgs), map(or_, imgs, w)), 0)
            continue
        extra = {}
        for f, img, u in zip(level, imgs, w):
            x = 0
            if extra_below:
                rest = f
                while rest:
                    v = rest & -rest
                    rest ^= v
                    x |= extra_below.get(f ^ v, 0)
            partner = partners[img]
            if (partner & (img | u | x) or x & held) and size > 1:
                violations += 1
            x |= img & ~u & pair_bits | (held if partner & img else 0)
            if x:
                extra[f] = x
        extra_below = extra
    return violations


def carrier_violations(cx: Complex, images: dict[int, int]) -> int:
    """Faces f whose union with their image is not a face of the clique
    complex `cx`. Exact: f is a face, hence a clique, so f | img is a face iff
    it lies in the vertices of `cx` and in the closed neighbourhood
    g[v] | 1 << v of every v in img, one mask per distinct image, and the
    table is counted against those masks in one pass. `images` must be keyed
    by faces of `cx`; SeparationComplex.retraction_images, which the
    carrier-containment row passes, is.
    """
    g = cx.graph
    outside = {}
    for img in set(images.values()):
        c = cx.vertex_mask
        for v in _mask_to_tuple(img):
            c &= g[v] | 1 << v
        outside[img] = ~c
    values = images.values()
    return len(images) - countOf(
        map(and_, map(or_, images, values), map(outside.__getitem__, values)), 0)


def equivariance_violations(images: dict[int, int], perms: Sequence[Sequence[int]],
                            tree: Sequence[tuple[list[int], list[int]]]) -> int:
    """Pairs (perm, face f) with images[perm(f)] != perm(images[f]), one per
    mismatch; a face that perm sends to a non-face is one. Exact: perm(f) is
    perm(parent) | perm(top) along the walk's tree, the parent, f less its
    top vertex, permuted one level before; each level is built as a list and
    compared in one pass, and each distinct image is permuted once. `tree`
    gives, per dimension, the parent index and top vertex of every face of
    `images`, in its order; SeparationComplex.retraction_tree, which the
    retraction-equivariance row passes with retraction_images, does.
    """
    distinct = set(images.values())
    bad = 0
    for perm in perms:
        bits = [1 << w for w in perm]
        permuted = {img: _permute_mask(img, perm) for img in distinct}
        values = iter(images.values())
        pf = [0]  # the permuted face per face of the level below
        for parents, tops in tree:
            pf = list(map(or_, map(pf.__getitem__, parents), map(bits.__getitem__, tops)))
            imgs = islice(values, len(pf))
            bad += countOf(map(ne, map(images.get, pf), map(permuted.__getitem__, imgs)), True)
    return bad


def _violations_row(check: str, sc: SeparationComplex, violations: int) -> CheckResult:
    scope = f"ss({sc.n})"
    return _row(f"{check} {scope}", scope, 0, violations, witness="violations")


def retraction_checks(sc: SeparationComplex) -> list[CheckResult]:
    """The four retraction rows, off the complex's one image table
    (SeparationComplex.retraction_images): identity-on-cross-polytope over
    the faces of K(n), the others over every face."""
    images = sc.retraction_images
    kmask = sum(1 << i for i in sc.antipodal_vertex_indices())
    empty = countOf(images.values(), 0)
    not_fixed = sum(1 for f in sc.complex.induced_mask(kmask).iter_face_masks()
                    if images[f] != f)
    outside = carrier_violations(sc.complex, images)
    chain = chain_violations(images, sc.singleton_pair_indices(), sc.retraction_tree)
    return [
        _violations_row("image-nonempty", sc, empty),
        _violations_row("chain-condition", sc, chain),
        _violations_row("identity-on-cross-polytope", sc, not_fixed),
        _violations_row("carrier-containment", sc, outside),
    ]


# ---------------------------------------------------------------------------
# equivariance
# ---------------------------------------------------------------------------

def equivariance_checks(sc: SeparationComplex) -> list[CheckResult]:
    """Both symmetry generators preserve the facets, the cross-polytope's
    vertices and, on ss, the retraction images. Sweeping only the generators
    is exact: they are commuting involutions that generate the group, so a
    facet set, vertex set or map they both preserve, every product preserves."""
    scope = f"{sc.relation}({sc.n})"
    out = []
    facet_set = set(sc.complex.facets)
    antipodal = set(sc.antipodal_vertex_indices())

    perms = [sc.vertex_permutation(g) for g in GENERATORS]
    faces_preserved = all({_permute_mask(f, p) for f in facet_set} == facet_set for p in perms)
    antipodal_preserved = all({p[i] for i in antipodal} == antipodal for p in perms)
    out.append(_row(f"symmetries-preserve-facets {scope}", scope, True, faces_preserved))
    out.append(_row(f"symmetries-preserve-cross-polytope {scope}", scope, True,
                    antipodal_preserved))
    if sc.relation == "ss":
        bad = equivariance_violations(sc.retraction_images, perms, sc.retraction_tree)
        out.append(_violations_row("retraction-equivariance", sc, bad))
    return out


# ---------------------------------------------------------------------------
# the deletion covering
# ---------------------------------------------------------------------------

def _has_cone_point(graph: Sequence[int], m: int) -> bool:
    """Whether the clique complex of `graph` on the vertex mask m has a cone
    point: a vertex of m adjacent to all the others lies in every facet."""
    return any(m & ~(graph[v] | 1 << v) == 0 for v in _mask_to_tuple(m))


def contractibility_certificate(cx: Complex) -> str:
    """Strongest available certificate for a clique complex: "cone-point" if
    a vertex lies in every facet, else "collapsed-to-point" if the collapse
    by dominated vertices and edges reaches a vertex, else "none"."""
    if cx.graph is None:
        raise ValueError("contractibility certificates run on clique complexes only")
    if _has_cone_point(cx.graph, cx.vertex_mask):
        return "cone-point"
    if cx.greedy_collapse().collapsed:
        return "collapsed-to-point"
    return "none"


def _intersection_masks(parent_mask: int, member_masks: Sequence[int]) -> dict[int, int]:
    """Vertex masks of the intersections of every subset of the members,
    keyed by index mask, index mask 0 holding `parent_mask`. Precondition:
    each member is the parent's full subcomplex on its mask (a deletion, or a
    vertex star of a flag complex), so an intersection is the parent induced
    on the AND of the masks."""
    masks = {0: parent_mask}
    for smask in range(1, 1 << len(member_masks)):
        low = smask & -smask
        masks[smask] = masks[smask ^ low] & member_masks[low.bit_length() - 1]
    return masks


def _deletion_masks(sc: SeparationComplex) -> dict[int, int]:
    """The intersection table of deletion_covering(sc): index i deletes
    vertex sc.antipodal_vertex_indices()[i]."""
    vm = sc.complex.vertex_mask
    return _intersection_masks(vm, [vm & ~(1 << v) for v in sc.antipodal_vertex_indices()])


def _central_pair(sc: SeparationComplex) -> tuple[int, int]:
    """Vertex indices of {1, n} and its complement, the central edge."""
    ends = 1 | 1 << (sc.n - 1)
    return sc.vertex_index(ends), sc.vertex_index(ground_mask(sc.n) ^ ends)


def _member_rows(sc: SeparationComplex, masks: dict[int, int]) -> list[CheckResult]:
    """The members-are-subcomplexes and unions rows, read off the deletion
    table `masks`: each member's mask is the parent's less one vertex, and
    every facet of the parent lies inside some member's mask."""
    scope = f"ws({sc.n})"
    vm = sc.complex.vertex_mask
    members = [masks[1 << i] for i in range(2 * (sc.n - 2))]
    return [
        _row(f"covering-members-are-subcomplexes {scope}", scope, True,
             all(m & ~vm == 0 and (vm ^ m).bit_count() == 1 for m in members)),
        _row(f"covering-unions-to-complex {scope}", scope, True,
             all(any(f & ~m == 0 for m in members) for f in sc.complex.facets)),
    ]


def covering_checks(sc: SeparationComplex) -> list[CheckResult]:
    """The deletion covering: members, union, nerve, and every index-subset
    intersection, all read off the deletion table."""
    scope = f"ws({sc.n})"
    masks = _deletion_masks(sc)
    out = _member_rows(sc, masks)
    nerve_facets = _maximal(smask for smask, m in masks.items() if smask and m)
    want = 2 * (sc.n - 2)
    out.append(_row(f"covering-nerve-is-simplex {scope}", scope,
                    f"simplex on {want} vertices",
                    f"simplex on {want} vertices" if nerve_facets == ((1 << want) - 1,)
                    else f"facets {[_mask_to_tuple(f) for f in nerve_facets]}"))
    graph = sc.complex.graph
    i, j = _central_pair(sc)
    star = (graph[i] | 1 << i) & (graph[j] | 1 << j)  # the central edge's star
    total = len(masks)
    nonempty = sum(1 for m in masks.values() if m)
    contain_star = sum(1 for m in masks.values() if star & ~m == 0)
    inters = [sc.complex.induced_mask(m) for m in masks.values()]
    # reduce them all, then certify them all: one pass that builds, reduces
    # and certifies each intersection in turn was no faster on report-n5
    groups = [reduced_homology(x) for x in inters]
    worst = [format(smask, "b") for smask, gs in zip(masks, groups)
             if not all(g.is_trivial for g in gs)]
    trivial = total - len(worst)
    out.append(_row(f"covering-intersections-nonempty {scope}", scope,
                    f"{total}/{total}", f"{nonempty}/{total}"))
    out.append(_row(f"covering-intersections-contain-central-star {scope}", scope,
                    f"{total}/{total}", f"{contain_star}/{total}"))
    out.append(_row(f"covering-intersections-homology-trivial {scope}", scope,
                    f"{total}/{total}", f"{trivial}/{total}",
                    witness="; ".join(worst)))
    tally = Counter(contractibility_certificate(x) for x in inters)
    computed = (f"cone-point {tally['cone-point']}, "
                f"collapsed {tally['collapsed-to-point']}, "
                f"uncertified {tally['none']}")
    out.append(CheckResult(
        f"covering-intersection-certificates {scope}", scope,
        "0 uncertified", computed,
        PASS if tally["none"] == 0 else INCONCLUSIVE))
    return out


def star_cover_checks(sc: SeparationComplex) -> list[CheckResult]:
    """Inside each deletion intersection that deletes a vertex of every
    complementary pair, the stars of the central pair and of the kept pair
    vertices cover it, and each nonempty intersection of those stars has a
    cone point. A failure is named by its deletion indices sigma.

    Read off the closed neighbourhoods N[v]: in a flag complex the star of v
    is induced on N[v], and each intersection is an induced clique complex,
    so `_has_cone_point` decides it on the graph."""
    scope = f"ws({sc.n})"
    closed = [a | 1 << v for v, a in enumerate(sc.complex.graph)]
    centre = _central_pair(sc)
    pair_vertices = sc.antipodal_vertex_indices()
    clean, bad = 0, []
    for smask, kept in _deletion_masks(sc).items():
        if not all(smask >> 2 * m & 3 for m in range(sc.n - 2)):
            continue
        cover = [*centre, *(v for i, v in enumerate(pair_vertices) if not smask >> i & 1)]
        stars = [closed[v] & kept for v in cover]
        # every face of the intersection lies in f & kept for some facet f of sc
        covers = all(any(f & kept & ~star == 0 for star in stars) for f in sc.complex.facets)
        inters = [m for tmask, m in _intersection_masks(kept, stars).items() if tmask and m]
        if covers and all(_has_cone_point(sc.complex.graph, m) for m in inters):
            clean += 1
        else:
            bad.append(f"{scope} sigma={{{','.join(map(str, _mask_to_tuple(smask)))}}}")
    total = clean + len(bad)
    return [_row(f"star-cover-cone-points-all {scope}", scope,
                 f"{total} intersections clean", f"{clean} intersections clean",
                 witness="; ".join(bad))]


# ---------------------------------------------------------------------------
# boundary findings at n = 5
# ---------------------------------------------------------------------------

def _two_cross_polytopes(cx: Complex, m: int) -> bool:
    """Whether cx has two components, each an (m-1)-sphere cross-polytope boundary."""
    pieces = cx.components()
    reference = cross_polytope_boundary(m)
    return len(pieces) == 2 and all(isomorphic(p, reference) is not None for p in pieces)


def boundary_findings(get: Builder = build) -> list[CheckResult]:
    """Purity, boundary homology, and the anomalous links at n = 5, building
    the complexes with get(n, rel)."""
    ss5, ws5 = get(5, "ss"), get(5, "ws")
    out = [purity_check(sc) for sc in (get(4, "ss"), get(4, "ws"), ss5, ws5)]

    expected_by_relation = {
        "ss": {2: HomologyGroup(1), 3: HomologyGroup(9), 4: HomologyGroup(1)},
        "ws": {2: HomologyGroup(1), 4: HomologyGroup(1)},
    }
    boundaries = {}
    for sc in (ss5, ws5):
        bd = sc.complex.boundary()
        boundaries[sc.relation] = bd
        groups = reduced_homology(bd)
        expected = _expected_groups(len(groups), expected_by_relation[sc.relation])
        for d, g in enumerate(expected):
            if not g.is_trivial:
                out.append(_row(f"H~{d}(boundary {sc.relation}5)", f"boundary {sc.relation}(5)",
                                str(g), str(groups[d])))
        others = [f"H~{d}" for d, g in enumerate(groups)
                  if expected[d].is_trivial and not g.is_trivial]
        out.append(_row(f"other-groups-trivial (boundary {sc.relation}5)",
                        f"boundary {sc.relation}(5)", "all 0",
                        "all 0" if not others else ", ".join(others)))

    bd_ws = boundaries["ws"]
    for label in ("15", "234"):
        lk = bd_ws.link_mask(1 << ws5.vertex_index(label))
        groups = reduced_homology(lk)
        got = f"H~1 = {groups[1]}, H~3 = {groups[3]}"
        out.append(_row(f"link-homology lk({label})", "boundary ws(5)",
                        "H~1 = Z, H~3 = Z", got,
                        witness=_homology_str(groups)))

    lk_edge = bd_ws.link_mask(ws5.face_mask(("15", "234")))
    out.append(_row("link-f-vector lk(15,234)", "boundary ws(5)",
                    (12, 24, 16), lk_edge.face_counts()))
    out.append(_row("link-two-octahedra lk(15,234)", "boundary ws(5)",
                    True, _two_cross_polytopes(lk_edge, 3)))

    bd_ss = boundaries["ss"]
    lk_face = bd_ss.link_mask(ss5.face_mask(("2", "23", "234")))
    out.append(_row("link-f-vector lk(2,23,234)", "boundary ss(5)",
                    (8, 8), lk_face.face_counts()))
    out.append(_row("link-two-squares lk(2,23,234)", "boundary ss(5)",
                    True, _two_cross_polytopes(lk_face, 2)))
    groups = reduced_homology(lk_face)
    out.append(_row("link-homology lk(2,23,234)", "boundary ss(5)",
                    "H~0 = Z; H~1 = Z^2", _homology_str(groups)))
    return out


# ---------------------------------------------------------------------------
# the check table: `sepcx verify` and the report both read it
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Check:
    """A named check: run(get, n, rel) gives its rows, building complexes with
    get(n, rel); rel is None if it takes no relation. The report runs it at
    each n in report_sizes(nmax), relations innermost, announcing `stage`.
    run_named_check holds the complex it builds on each relation in `walks`
    to the face budget first: the relations whose faces it walks, and ws for
    cone-points, whose star covers sweep every facet once per deletion
    entry."""

    name: str
    relations: tuple[str, ...]  # the relations it runs on; --relation narrows them
    sizes: range  # the ground sizes it is defined at
    run: Callable[..., list[CheckResult]]
    stage: str = ""
    report_sizes: Callable[[int], Iterable[int]] = lambda nmax: ()
    walks: tuple[str, ...] = ()


_PAPER_SIZES = range(4, MAX_GROUND_SIZE + 1)  # the claims are about n >= 4


def _built_sizes(nmax: int) -> range:
    """Ground sizes whose ss and ws complexes the report builds and shares."""
    return range(4, min(nmax, 5) + 1)


# In report order. Rows call each check by its module-global name, so that
# replacing a module attribute (as span tracing does) reaches the report.
CHECKS = (
    Check("figures", (), range(3, 5), lambda get, n, rel: figure_checks(get),
          "figure counts", lambda nmax: (3,)),
    Check("contractibility", ("ws",), _PAPER_SIZES,
          lambda get, n, rel: contractibility_shadow(get(n, rel)),
          "contractibility shadow {rel}({n})", _built_sizes, walks=("ws",)),
    Check("sphere", ("ss",), _PAPER_SIZES,
          lambda get, n, rel: [sphere_shadow(get(n, rel))],
          "sphere shadow {rel}({n})", _built_sizes, walks=("ss",)),
    Check("purity", ("ss", "ws"), _PAPER_SIZES,
          lambda get, n, rel: [purity_check(get(n, rel))]),
    Check("cross-polytope", (), _PAPER_SIZES, lambda get, n, rel: antipodal_checks(n),
          "cross polytope n={n}", lambda nmax: range(4, 8)),
    Check("retraction", ("ss",), _PAPER_SIZES,
          lambda get, n, rel: retraction_checks(get(n, rel)),
          "retraction checks {rel}({n})", _built_sizes, walks=("ss",)),
    Check("lemma-4-4", ("ss",), _PAPER_SIZES,
          lambda get, n, rel: [_violations_row(
              "image-nonempty", sc := get(n, rel),
              countOf(sc.retraction_images.values(), 0))],
          walks=("ss",)),
    Check("chain-condition", ("ss",), _PAPER_SIZES,
          lambda get, n, rel: [_violations_row(
              "chain-condition", sc := get(n, rel),
              chain_violations(sc.retraction_images, sc.singleton_pair_indices(),
                               sc.retraction_tree))],
          walks=("ss",)),
    Check("equivariance", ("ss", "ws"), _PAPER_SIZES,
          lambda get, n, rel: equivariance_checks(get(n, rel)),
          "equivariance {rel}({n})", _built_sizes, walks=("ss",)),
    Check("covering", ("ws",), _PAPER_SIZES,
          lambda get, n, rel: covering_checks(sc := get(n, rel)) + star_cover_checks(sc),
          "covering checks {rel}({n})", _built_sizes, walks=("ws",)),
    Check("cone-points", ("ws",), _PAPER_SIZES,
          lambda get, n, rel: star_cover_checks(get(n, rel)), walks=("ws",)),
    Check("boundary-findings", (), range(5, 6),
          lambda get, n, rel: boundary_findings(get=get),
          "boundary findings n={n}", lambda nmax: (5,) if nmax >= 5 else ()),
)

CHECK_NAMES = tuple(check.name for check in CHECKS)


def run_named_check(name: str, n: int, relation: str | None = None,
                    cap: int = DEFAULT_ENUMERATION_CAP) -> list[CheckResult]:
    """Run one row of CHECKS at ground size n, on `relation` if given, else
    on every relation the check takes. Raises CapExceeded, before any face
    walk, if n is above the cap or a complex the check walks is above the
    face budget (check_face_budget)."""
    check = next((c for c in CHECKS if c.name == name), None)
    if check is None:
        raise ValueError(f"unknown check {name!r}")
    if relation is not None and relation not in check.relations:
        raise ValueError(f"check {name} does not take --relation {relation}")
    if n not in check.sizes:
        lo, hi = check.sizes[0], check.sizes[-1]
        raise ValueError(f"check {name} is defined at n = {lo}"
                         + (f"..{hi}" if hi > lo else "") + f", got n = {n}")
    check_enumeration_cap(n, cap)
    get = functools.cache(lambda m, rel: build(m, rel, cap))
    relations = (relation,) if relation else check.relations or (None,)
    for rel in relations:
        if rel in check.walks:
            check_face_budget(get(n, rel).complex, cap)
    return [row for rel in relations for row in check.run(get, n, rel)]


# ---------------------------------------------------------------------------
# the full report
# ---------------------------------------------------------------------------

def full_report(nmax: int = 5,
                progress: Callable[[str], None] | None = None) -> list[CheckResult]:
    """Every machine check up to ground size nmax, 4 <= nmax <= 6: the rows
    of CHECKS that the report runs, in table order and sharing the complexes
    they build, then at nmax = 6 the purity and sphere homology of ss(6) and
    the contractibility shadow of ws(6): its homology and its collapse.
    """
    if not 4 <= nmax <= 6:
        raise ValueError(f"the report runs at 4 <= n <= 6, got n = {nmax}")
    say = progress or (lambda msg: None)
    results: list[CheckResult] = []
    get = functools.cache(build)
    for check in CHECKS:
        for n in check.report_sizes(nmax):
            for rel in check.relations or (None,):
                say(check.stage.format(n=n, rel=rel))
                results.extend(check.run(get, n, rel))

    if nmax == 6:
        say("sphere shadow ss(6)")
        ss6 = build(6, "ss")
        results.append(purity_check(ss6))
        results.append(sphere_shadow(ss6))
        say("contractibility shadow ws(6)")
        results.extend(contractibility_shadow(build(6, "ws")))
    return results
