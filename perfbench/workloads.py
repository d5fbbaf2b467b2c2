"""The benchmark's workloads: how each builds its inputs, runs, and is checked.

Each workload runs once per fresh worker process. `setup` builds the inputs
(timed as set-up), `run` does the measured work, and `check` compares the
output with the stored references and returns the problems found. sepcomplex
is imported lazily so that the worker can time the import itself.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from typing import Any, Callable

REPORT_ARGS = ["reproduce-paper", "--n", "5", "--format", "json"]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], Any]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any, dict], tuple[list[str], dict]]


# ---------------------------------------------------------------------------
# report-n5: `sepcx reproduce-paper --n 5 --format json`, in-process
# ---------------------------------------------------------------------------

def _report_setup(seed: int) -> None:
    return None  # a fixed paper instance: the report builds its own complexes


def _report_run(_inputs) -> tuple[int, str]:
    from sepcomplex import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(REPORT_ARGS)
    return code, out.getvalue()


def _report_check(_inputs, output: tuple[int, str], ref: dict) -> tuple[list[str], dict]:
    code, text = output
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    info = {"sha256": digest, "sha256_matches": digest == ref["sha256"]}
    problems = []
    if code != ref["exit_code"]:
        problems.append(f"exit code {code}, expected {ref['exit_code']}")
    try:
        rows = json.loads(text)["checks"]
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"report is not the expected JSON: {exc}"], info
    status = {r["check"]: r["status"] for r in rows}
    bad = [r["check"] for r in rows if r["status"] in ("FAIL", "INCONCLUSIVE")]
    if bad:
        problems.append(f"rows failed or inconclusive: {bad}")
    not_passed = [name for name in ref["rows"] if status.get(name) != "PASS"]
    if not_passed:
        problems.append(f"reference rows missing or not PASS: {not_passed}")
    return problems, info


# ---------------------------------------------------------------------------
# homology-ss6: reduced homology of ss(6), vertices relabelled by the seed
# ---------------------------------------------------------------------------

def _relabelled_ss6(seed: int):
    """build(6, "ss") with its vertices permuted by a seeded shuffle, rebuilt
    through the public clique_complex. Seed 0 keeps the canonical order."""
    from sepcomplex import complexes, separation

    cx = separation.build(6, "ss").complex
    size = len(cx.labels)
    perm = list(range(size))
    if seed:
        random.Random(seed).shuffle(perm)
    labels = [""] * size
    adjacency = [0] * size
    for i, neighbours in enumerate(cx.graph):
        labels[perm[i]] = cx.labels[i]
        mask = 0
        rest = neighbours
        while rest:
            low = rest & -rest
            rest ^= low
            mask |= 1 << perm[low.bit_length() - 1]
        adjacency[perm[i]] = mask
    return complexes.clique_complex(labels, adjacency)


def _homology_run(cx) -> list:
    from sepcomplex import homology

    return homology.reduced_homology(cx)


def _homology_check(cx, groups: list, ref: dict) -> tuple[list[str], dict]:
    problems = []
    got = [str(g) for g in groups]
    if got != ref["groups"]:
        problems.append(f"groups {got}, expected {ref['groups']}")
    f_vector = list(cx.face_counts())
    if f_vector != ref["f_vector"]:
        problems.append(f"f-vector {f_vector}, expected {ref['f_vector']}")
    return problems, {}


# ---------------------------------------------------------------------------
# checks-ss6: retraction and equivariance checks on ss(6)
# ---------------------------------------------------------------------------

def _checks_setup(seed: int):
    from sepcomplex import separation

    return separation.build(6, "ss")  # a fixed paper instance: no seed


def _checks_run(sc) -> list:
    from sepcomplex import verify

    return verify.retraction_checks(sc) + verify.equivariance_checks(sc)


def _checks_check(_sc, rows: list, ref: dict) -> tuple[list[str], dict]:
    got = [{"check": r.check, "computed": r.computed, "status": r.status} for r in rows]
    if got != ref["rows"]:
        return [f"rows {got}, expected {ref['rows']}"], {}
    return [], {}


WORKLOADS = {
    w.name: w for w in (
        Workload("report-n5", _report_setup, _report_run, _report_check),
        Workload("homology-ss6", _relabelled_ss6, _homology_run, _homology_check),
        Workload("checks-ss6", _checks_setup, _checks_run, _checks_check),
    )
}
