"""Span tracing for the traced benchmark run.

The program has no internal spans, so the traced run wraps the public
functions of each sepcomplex module from the outside. Each name is patched
where it is looked up: module-level functions in every sepcomplex namespace
that imported them, `Complex` methods on the class. A span is recorded per
wrapped call (per resumption for a generator): name, start, end and parent.
Spans are kept in compact arrays and written out when the run ends.

The per-layer metrics are read off the spans:
  <span>.s       inclusive seconds, outermost spans of that name only
  <span>.self_s  seconds minus the time covered by child spans
  <span>.calls   number of calls
  anything else  an exact count recorded at the span boundary

`homology.smith_normal_form.dim<d>.s` is a probe, not a span of the measured
work: after the work, the public `smith_normal_form` is run again on every
matrix `boundary_matrices` returned, one span per dimension. That matches the
work inside `reduced_homology` while it reduces each matrix on its own.
"""
from __future__ import annotations

import functools
import json
import re
import sys
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Callable

DIMS = range(10)

# progress messages of full_report(5), in order
STAGES = (
    "figure counts",
    "contractibility shadow ws(4)", "contractibility shadow ws(5)",
    "sphere shadow ss(4)", "sphere shadow ss(5)",
    "cross polytope n=4", "cross polytope n=5",
    "cross polytope n=6", "cross polytope n=7",
    "retraction checks ss(4)", "retraction checks ss(5)",
    "equivariance ss(4)", "equivariance ws(4)",
    "equivariance ss(5)", "equivariance ws(5)",
    "covering checks ws(4)", "covering checks ws(5)",
    "boundary findings n=5",
)


def stage_slug(message: str) -> str:
    """'covering checks ws(5)' -> 'covering_checks_ws5'."""
    text = re.sub(r"[()=]", "", message.lower())
    return re.sub(r"[^a-z0-9]+", "_", text).strip("_")


_KNOWN_STAGES = {stage_slug(m) for m in STAGES}


def _stage_span(message: str) -> str:
    slug = stage_slug(message)
    return f"verify.stage.{slug if slug in _KNOWN_STAGES else 'other'}"


def _layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    s, count = "s", "count"
    out = [
        ("subsets.separation_graph.s", s, "lower"),
        ("subsets.separation_graph.edges", count, "lower"),
        ("separation.build.s", s, "lower"),
        ("separation.build.calls", count, "lower"),
        ("separation.retraction_image_mask.s", s, "lower"),
        ("separation.retraction_image_mask.calls", count, "lower"),
        ("separation.deletion_covering.s", s, "lower"),
        ("complexes.clique_complex.s", s, "lower"),
        ("complexes.clique_complex.facets", count, "lower"),
        ("complexes.faces.s", s, "lower"),
        ("complexes.faces.self_s", s, "lower"),
        ("complexes.faces.count", count, "lower"),
        ("complexes.has_face_mask.s", s, "lower"),
        ("complexes.has_face_mask.calls", count, "lower"),
        ("complexes.intersection.s", s, "lower"),
        ("complexes.intersection.calls", count, "lower"),
        ("complexes.nerve.s", s, "lower"),
        ("complexes.isomorphic.s", s, "lower"),
        ("complexes.isomorphic.calls", count, "lower"),
        ("complexes.greedy_collapse.s", s, "lower"),
        ("complexes.greedy_collapse.calls", count, "lower"),
        ("complexes.greedy_collapse.steps", count, "lower"),
        ("complexes.greedy_collapse.collapsed_ratio", "ratio", "higher"),
        ("homology.reduced_homology.s", s, "lower"),
        ("homology.reduced_homology.self_s", s, "lower"),
        ("homology.reduced_homology.calls", count, "lower"),
        ("homology.boundary_matrices.s", s, "lower"),
        ("homology.boundary_matrices.faces", count, "lower"),
        ("homology.boundary_matrices.nnz", count, "lower"),
    ]
    for d in DIMS:
        out += [(f"homology.dim{d}.{k}", count, "lower") for k in ("rows", "cols", "nnz")]
    out += [(f"homology.smith_normal_form.dim{d}.s", s, "lower") for d in DIMS]
    out += [(f"verify.stage.{stage_slug(m)}.s", s, "lower") for m in STAGES]
    out += [
        ("verify.stage.other.s", s, "lower"),
        ("verify.full_report.s", s, "lower"),
        ("verify.retraction_checks.s", s, "lower"),
        ("verify.equivariance_checks.s", s, "lower"),
        ("cli.main.s", s, "lower"),
        ("cli.main.self_s", s, "lower"),
        ("trace.wall_s", s, "lower"),
    ]
    return out


LAYER_METRICS = _layer_metrics()


class Tracer:
    """Records spans and counts; aggregates inclusive and self time online."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, name, start, child seconds]
        self._depth: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(int)
        self.retained_matrices: list[list] = []

    def enter(self, name: str) -> None:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_end.append(0.0)
        self._depth[name] += 1
        start = perf_counter()
        self.span_start.append(start)
        self._stack.append([index, name, start, 0.0])

    def exit(self) -> bool:
        """Close the innermost span; True when no span of its name is still open."""
        end = perf_counter()
        index, name, start, child = self._stack.pop()
        self.span_end[index] = end
        duration = end - start
        if self._stack:
            self._stack[-1][3] += duration
        self.self_time[name] += duration - child
        self._depth[name] -= 1
        outermost = self._depth[name] == 0
        if outermost:
            self.inclusive[name] += duration
        return outermost

    def metrics(self) -> dict[str, float]:
        calls = self.calls["complexes.greedy_collapse"]
        if calls:
            self.counts["complexes.greedy_collapse.collapsed_ratio"] = (
                self.counts["complexes.greedy_collapse.collapsed"] / calls)
        out = {}
        for name, _, _ in LAYER_METRICS:
            base, _, kind = name.rpartition(".")
            if kind == "s":
                out[name] = self.inclusive.get(base, 0.0)
            elif kind == "self_s":
                out[name] = self.self_time.get(base, 0.0)
            elif kind == "calls":
                out[name] = self.calls.get(base, 0)
            else:
                out[name] = self.counts.get(name, 0)
        return out

    def write_spans(self, path) -> None:
        """Write every span: a JSON header line (span names, span count,
        array type codes, byte order), then the raw bytes of the name-index,
        parent, start and end arrays, in that order. `read_spans` reads it."""
        columns = [("name", self.span_name), ("parent", self.span_parent),
                   ("start", self.span_start), ("end", self.span_end)]
        header = {"names": self.names, "count": len(self.span_start),
                  "byteorder": sys.byteorder,
                  "columns": [[key, column.typecode] for key, column in columns]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for _, column in columns:
                column.tofile(fh)


def read_spans(path) -> list[dict]:
    """The spans of a file written by `Tracer.write_spans`, as dicts with
    id, name, parent id (-1 for none), start and end."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = {}
        for key, typecode in header["columns"]:
            column = array(typecode)
            column.fromfile(fh, header["count"])
            if header["byteorder"] != sys.byteorder:
                column.byteswap()
            columns[key] = column
    names = header["names"]
    return [{"id": i, "name": names[columns["name"][i]], "parent": columns["parent"][i],
             "start": columns["start"][i], "end": columns["end"][i]}
            for i in range(header["count"])]


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

OnResult = Callable[[Tracer, object, bool], None]


def _wrap_call(tracer: Tracer, span: str, fn: Callable, on_result: OnResult | None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.enter(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            outermost = tracer.exit()
        tracer.calls[span] += 1
        if on_result is not None:
            on_result(tracer, result, outermost)
        return result
    return traced


def _wrap_iter(tracer: Tracer, span: str, fn: Callable, on_result: OnResult | None):
    """Generator wrapper: one span per resumption, so consumer time between
    items is not charged to the generator's layer."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        it = fn(*args, **kwargs)
        tracer.calls[span] += 1
        while True:
            tracer.enter(span)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                outermost = tracer.exit()
            if on_result is not None:
                on_result(tracer, 1, outermost)
            yield item
    return traced


def _wrap_full_report(tracer: Tracer, span: str, fn: Callable, on_result: OnResult | None):
    """Times full_report and, through its progress callback, each stage:
    a stage runs from its progress message to the next one or the end."""
    @functools.wraps(fn)
    def traced(*args, progress=None, **kwargs):
        stage_open = False

        def stages(message: str) -> None:
            nonlocal stage_open
            if stage_open:
                tracer.exit()
            tracer.enter(_stage_span(message))
            stage_open = True
            if progress is not None:
                progress(message)

        tracer.enter(span)
        try:
            return fn(*args, progress=stages, **kwargs)
        finally:
            if stage_open:
                tracer.exit()
            tracer.exit()
            tracer.calls[span] += 1
    return traced


def _count(metric: str, measure: Callable[[object], float]) -> OnResult:
    def on_result(tracer: Tracer, result, outermost: bool) -> None:
        if outermost:
            tracer.counts[metric] += measure(result)
    return on_result


def _collapse(tracer: Tracer, outcome, outermost: bool) -> None:
    tracer.counts["complexes.greedy_collapse.steps"] += outcome.steps
    tracer.counts["complexes.greedy_collapse.collapsed"] += int(outcome.collapsed)


def _matrices(tracer: Tracer, mats, outermost: bool) -> None:
    counts = tracer.counts
    for d, m in enumerate(mats):
        counts["homology.boundary_matrices.faces"] += m.ncols
        counts["homology.boundary_matrices.nnz"] += m.nnz
        counts[f"homology.dim{d}.rows"] += m.nrows
        counts[f"homology.dim{d}.cols"] += m.ncols
        counts[f"homology.dim{d}.nnz"] += m.nnz
    tracer.retained_matrices.append(mats)


def _targets():
    """(owner, attribute, span, wrapper, on_result) for every traced name."""
    from sepcomplex import cli, complexes, homology, separation, subsets, verify

    cx = complexes.Complex
    faces = "complexes.faces"
    return [
        (subsets, "separation_graph", "subsets.separation_graph", _wrap_call,
         _count("subsets.separation_graph.edges", lambda g: g.edge_count)),
        (separation, "build", "separation.build", _wrap_call, None),
        (separation, "retraction_image_mask", "separation.retraction_image_mask",
         _wrap_call, None),
        (separation, "deletion_covering", "separation.deletion_covering", _wrap_call, None),
        (complexes, "clique_complex", "complexes.clique_complex", _wrap_call,
         _count("complexes.clique_complex.facets", lambda c: len(c.facets))),
        (complexes, "nerve", "complexes.nerve", _wrap_call, None),
        (complexes, "isomorphic", "complexes.isomorphic", _wrap_call, None),
        (cx, "faces_of_dim", faces, _wrap_call, _count(f"{faces}.count", len)),
        (cx, "face_counts", faces, _wrap_call, _count(f"{faces}.count", sum)),
        (cx, "iter_face_masks", faces, _wrap_iter, _count(f"{faces}.count", lambda _: 1)),
        (cx, "has_face_mask", "complexes.has_face_mask", _wrap_call, None),
        (cx, "intersection", "complexes.intersection", _wrap_call, None),
        (cx, "greedy_collapse", "complexes.greedy_collapse", _wrap_call, _collapse),
        (homology, "reduced_homology", "homology.reduced_homology", _wrap_call, None),
        (homology, "boundary_matrices", "homology.boundary_matrices", _wrap_call, _matrices),
        (verify, "full_report", "verify.full_report", _wrap_full_report, None),
        (verify, "retraction_checks", "verify.retraction_checks", _wrap_call, None),
        (verify, "equivariance_checks", "verify.equivariance_checks", _wrap_call, None),
        (cli, "main", "cli.main", _wrap_call, None),
    ]


def _namespaces() -> list:
    import sepcomplex
    from sepcomplex import cli, complexes, homology, separation, subsets, verify
    return [sepcomplex, subsets, complexes, homology, separation, verify, cli]


class Patches:
    """Installs the wrappers; `restore` puts back every attribute it replaced."""

    def __init__(self, tracer: Tracer) -> None:
        self._saved: list[tuple[object, str, object]] = []
        namespaces = _namespaces()
        for owner, attr, span, wrapper, on_result in _targets():
            original = vars(owner)[attr]
            traced = wrapper(tracer, span, original, on_result)
            if isinstance(owner, type):
                self._replace(owner, attr, traced)
                continue
            for module in namespaces:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, name, traced)

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def snf_probe(tracer: Tracer) -> None:
    """Re-run the public smith_normal_form on every retained boundary matrix,
    one span per dimension. Run it after the work, with the patches removed."""
    from sepcomplex.homology import smith_normal_form

    for mats in tracer.retained_matrices:
        for d, m in enumerate(mats):
            tracer.enter(f"homology.smith_normal_form.dim{d}")
            smith_normal_form(m)
            tracer.exit()
    tracer.retained_matrices.clear()
