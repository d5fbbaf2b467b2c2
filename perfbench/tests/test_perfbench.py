"""Tests of the benchmark's own code: the BENCHMARK.json contract, the
reference checks and fail_rate, the tracer's patches and counts, the seeded
relabelling, and the comparison verdicts."""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sepcomplex import complexes, homology, separation, verify  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _references() -> dict:
    return json.loads((BENCH / "references.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# BENCHMARK.json
# ---------------------------------------------------------------------------

def test_benchmark_json_follows_the_contract():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    names = []
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    assert names == list(workloads.WORKLOADS)
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_per_layer_metrics_match_the_tracer_and_end_to_end_match_the_runner():
    spec = _spec()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == tracing.LAYER_METRICS
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)


# ---------------------------------------------------------------------------
# reference checks and fail_rate
# ---------------------------------------------------------------------------

def _checks_rows(ref: dict) -> list:
    return [verify.CheckResult(r["check"], "ss(6)", r["computed"], r["computed"], r["status"])
            for r in ref["rows"]]


def test_checks_reference_passes_and_tampered_reference_fails():
    ref = _references()["checks-ss6"]
    check = workloads.WORKLOADS["checks-ss6"].check
    rows = _checks_rows(ref)
    assert check(None, rows, ref) == ([], {})
    tampered = json.loads(json.dumps(ref))
    tampered["rows"][2]["computed"] = "1"
    assert check(None, rows, tampered)[0]


def test_homology_check_compares_groups_and_f_vector():
    cx = separation.build(4, "ss").complex
    groups = homology.reduced_homology(cx)
    ref = {"groups": [str(g) for g in groups], "f_vector": list(cx.face_counts())}
    check = workloads.WORKLOADS["homology-ss6"].check
    assert check(cx, groups, ref)[0] == []
    assert check(cx, groups, dict(ref, f_vector=[8, 16, 9]))[0]
    assert check(cx, groups, dict(ref, groups=["0", "0"]))[0]


def test_report_check_reports_digest_and_missing_rows():
    ref = _references()["report-n5"]
    rows = [{"check": name, "status": "PASS"} for name in ref["rows"]]
    text = json.dumps({"checks": rows})
    check = workloads.WORKLOADS["report-n5"].check
    problems, info = check(None, (0, text), ref)
    assert problems == [] and info["sha256_matches"] is False
    assert check(None, (1, text), ref)[0]
    assert check(None, (0, json.dumps({"checks": rows[1:]})), ref)[0]
    rows[0]["status"] = "INCONCLUSIVE"
    assert check(None, (0, json.dumps({"checks": rows})), ref)[0]


def test_tampered_reference_is_counted_in_fail_rate(monkeypatch, tmp_path):
    ref = _references()
    tampered = json.loads(json.dumps(ref))
    tampered["checks-ss6"]["rows"][0]["status"] = "FAIL"
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(tampered), encoding="utf-8")
    check = workloads.WORKLOADS["checks-ss6"].check
    rows = _checks_rows(ref["checks-ss6"])

    def fake_spawn(args, timeout):
        # the worker's check step, against the references file it was given
        refs = json.loads(Path(args[4]).read_text(encoding="utf-8"))["checks-ss6"]
        problems, info = check(None, rows, refs)
        return {"setup_s": 0.01, "wall_s": 1.0, "cpu_s": 1.0, "peak_rss_mb": 10.0,
                "problems": problems, "info": info}, ""

    monkeypatch.setattr(run, "_spawn", fake_spawn)
    good = run.run_workload("checks-ss6", 0, 0, False)["result"]
    monkeypatch.setattr(run, "REFERENCES", path)
    bad = run.run_workload("checks-ss6", 0, 0, False)["result"]
    assert (good["correct"], good["failed"], good["attempted"]) == (True, 0, 1)
    assert (bad["correct"], bad["failed"], bad["attempted"]) == (False, 1, 1)


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def _snapshot() -> list[tuple[object, dict]]:
    return [(owner, dict(vars(owner)))
            for owner in tracing._namespaces() + [complexes.Complex]]


def test_patches_restore_every_attribute():
    before = _snapshot()
    original_build = verify.build
    with tracing.Patches(tracing.Tracer()):
        assert verify.build is not original_build
        assert separation.build is not original_build
    for owner, attrs in before:
        now = vars(owner)
        assert set(now) == set(attrs)
        assert all(now[k] is v for k, v in attrs.items()), owner


def test_dimension_columns_sum_to_the_f_vector_total():
    cx = separation.build(5, "ss").complex
    tracer = tracing.Tracer()
    with tracing.Patches(tracer):
        homology.reduced_homology(cx)
    tracing.snf_probe(tracer)
    values = tracer.metrics()
    cols = sum(values[f"homology.dim{d}.cols"] for d in tracing.DIMS)
    assert cols == values["homology.boundary_matrices.faces"] == sum(cx.face_counts())
    assert values["homology.reduced_homology.calls"] == 1
    assert values["homology.smith_normal_form.dim2.s"] > 0
    inner = values["homology.boundary_matrices.s"] + values["homology.reduced_homology.self_s"]
    assert inner == pytest.approx(values["homology.reduced_homology.s"])


def test_stages_cover_full_report_and_counts_repeat():
    def traced_report() -> dict:
        tracer = tracing.Tracer()
        with tracing.Patches(tracer):
            verify.full_report(4)
        return tracer.metrics()

    first, second = traced_report(), traced_report()
    stages = sum(v for k, v in first.items() if k.startswith("verify.stage."))
    assert stages == pytest.approx(first["verify.full_report.s"], rel=0.05)
    assert first["verify.stage.other.s"] == 0
    counts = [name for name, unit, _ in tracing.LAYER_METRICS if unit == "count"]
    assert [first[c] for c in counts] == [second[c] for c in counts]
    assert first["complexes.greedy_collapse.calls"] > 0


def test_generator_spans_exclude_the_consumer():
    cx = separation.build(4, "ss").complex
    tracer = tracing.Tracer()
    with tracing.Patches(tracer):
        masks = [m for m in cx.iter_face_masks() if cx.has_face_mask(m)]
    values = tracer.metrics()
    assert values["complexes.faces.count"] == len(masks) == sum(cx.face_counts())
    assert values["complexes.has_face_mask.calls"] == len(masks)
    faces = tracer.names.index("complexes.faces")
    probe = tracer.names.index("complexes.has_face_mask")
    parents = {tracer.span_name[tracer.span_parent[i]]
               for i in range(len(tracer.span_start))
               if tracer.span_name[i] == probe and tracer.span_parent[i] >= 0}
    assert faces not in parents


def test_spans_round_trip(tmp_path):
    tracer = tracing.Tracer()
    tracer.enter("outer")
    tracer.enter("inner")
    tracer.exit()
    tracer.exit()
    tracer.write_spans(tmp_path / "x.spans")
    spans = tracing.read_spans(tmp_path / "x.spans")
    assert [(s["id"], s["name"], s["parent"]) for s in spans] == [
        (0, "outer", -1), (1, "inner", 0)]
    assert spans[0]["start"] <= spans[1]["start"] <= spans[1]["end"] <= spans[0]["end"]


def test_stage_slug():
    assert tracing.stage_slug("covering checks ws(5)") == "covering_checks_ws5"
    assert tracing.stage_slug("cross polytope n=7") == "cross_polytope_n7"


# ---------------------------------------------------------------------------
# workloads and runner
# ---------------------------------------------------------------------------

def test_seed_zero_is_the_canonical_order_and_seeds_keep_the_f_vector():
    ref = _references()["homology-ss6"]
    canonical = separation.build(6, "ss").complex
    same = workloads._relabelled_ss6(0)
    assert same.labels == canonical.labels and same.facets == canonical.facets
    for seed in (1, 2):
        cx = workloads._relabelled_ss6(seed)
        assert cx.labels != canonical.labels
        assert sorted(cx.labels) == sorted(canonical.labels)
        assert list(cx.face_counts()) == ref["f_vector"]
    assert workloads._relabelled_ss6(1).labels == workloads._relabelled_ss6(1).labels


def test_runner_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report-n5", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def _verdict(parent, change, bound=0.1):
    return compare.verdict(parent, change, list(zip(parent, change)), bound, True)


def test_compare_verdicts():
    parent = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.05]
    assert _verdict(parent, [v * 0.8 for v in parent]) == ("improved", 10)
    assert _verdict(parent, [v * 1.02 for v in parent])[0] == "no worse within bound"
    assert _verdict(parent, [v * 1.3 for v in parent])[0] == "worse"
    noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 7.0, 13.0, 9.0, 11.0]
    assert _verdict(noisy, list(noisy))[0] == "unresolved"


def test_compare_needs_ten_pairs():
    parent = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    assert _verdict(parent, [v * 0.5 for v in parent]) == ("unresolved", 9)


def _runs(wall: list[float], failed: int = 0) -> dict:
    return {"homology-ss6": [
        {"seed": seed, "values": {"wall_s": w}, "attempted": 1, "failed": int(seed < failed)}
        for seed, w in enumerate(wall)]}


def test_compare_refuses_a_change_that_fails_more_units():
    spec = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower",
                            "bound": 0.25}]}
    parent = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.05]
    faster = [v * 0.5 for v in parent]
    ok = compare.compare(_runs(parent), _runs(faster), spec)
    assert ok[-1].endswith("improved")
    broken = compare.compare(_runs(parent), _runs(faster, failed=1), spec)
    assert "change 1 of 10" in broken[1]
    assert broken[-1].endswith("failed")
