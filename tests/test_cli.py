"""The command-line surface: verbs, formats, exit codes, round trips."""
import hashlib
import json
import random
import re
import shlex
import time
from itertools import combinations
from pathlib import Path

import pytest
from oracles import facet_tuples

from sepcomplex import build
from sepcomplex.cli import _load_complex, build_parser, main
from sepcomplex.complexes import CollapseOutcome, Complex
from sepcomplex.separation import DEFAULT_ENUMERATION_CAP


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_and_fvector(tmp_path, capsys):
    out = tmp_path / "ss4.json"
    code, _, _ = run_cli(capsys, "build", "--n", "4", "--relation", "ss", "--out", str(out))
    assert code == 0
    code, stdout, _ = run_cli(capsys, "fvector", str(out))
    assert code == 0
    assert stdout.strip() == "8 16 8"
    # a cap this large must not build 2^(C(cap - 1, 2) + cap) as its budget
    assert run_cli(capsys, "fvector", str(out), "--cap", "100000000000") == (0, "8 16 8\n", "")
    out = tmp_path / "ws5.json"
    assert run_cli(capsys, "build", "--n", "5", "--relation", "ws", "--out", str(out))[0] == 0
    code, stdout, _ = run_cli(capsys, "fvector", str(out))
    assert code == 0
    assert stdout.split() == [str(c) for c in build(5, "ws").complex.face_counts()]


def test_round_trip_preserves_facets(tmp_path, capsys):
    out = tmp_path / "ws4.json"
    assert run_cli(capsys, "build", "--n", "4", "--relation", "ws", "--out", str(out))[0] == 0
    loaded = Complex.from_dict(json.loads(out.read_text()))
    direct = build(4, "ws").complex
    assert loaded.facets == direct.facets
    assert loaded.labels == direct.labels


def test_fvector_from_flags(capsys):
    code, stdout, _ = run_cli(capsys, "fvector", "--n", "4", "--relation", "ws")
    assert code == 0
    assert stdout.strip() == "8 17 10"


def test_homology_text_and_json(capsys):
    code, stdout, _ = run_cli(capsys, "homology", "--n", "4", "--relation", "ss")
    assert code == 0
    assert stdout.splitlines() == ["H~0 = 0", "H~1 = Z", "H~2 = 0"]
    code, stdout, _ = run_cli(capsys, "homology", "--n", "4", "--relation", "ss",
                              "--format", "json")
    assert json.loads(stdout) == [
        {"dim": 0, "rank": 0, "torsion": []},
        {"dim": 1, "rank": 1, "torsion": []},
        {"dim": 2, "rank": 0, "torsion": []},
    ]


def test_link_verb_matches_library(tmp_path, capsys):
    src = tmp_path / "ss5.json"
    run_cli(capsys, "build", "--n", "5", "--relation", "ss", "--out", str(src))
    code, stdout, _ = run_cli(capsys, "link", str(src), "--face", "2,23,234")
    assert code == 0
    got = Complex.from_dict(json.loads(stdout))
    sc = build(5, "ss")
    want = sc.complex.link_mask(sc.face_mask(["2", "23", "234"]))
    assert got.facets == want.facets


def test_star_and_deletion_verbs(capsys):
    code, stdout, _ = run_cli(capsys, "star", "--n", "4", "--relation", "ss",
                              "--face", "13")
    assert code == 0
    star = Complex.from_dict(json.loads(stdout))
    assert not star.is_empty
    code, stdout, _ = run_cli(capsys, "deletion", "--n", "4", "--relation", "ss",
                              "--face", "13")
    assert code == 0
    deleted = Complex.from_dict(json.loads(stdout))
    assert "13" not in {deleted.labels[v] for f in facet_tuples(deleted) for v in f}


def test_boundary_verb_and_gate(capsys):
    code, stdout, _ = run_cli(capsys, "boundary", "--n", "5", "--relation", "ws")
    assert code == 0
    bd = Complex.from_dict(json.loads(stdout))
    assert bd.dimension() == 4
    code, stdout, _ = run_cli(capsys, "boundary", "--n", "6", "--relation", "ss")
    assert code == 0
    assert Complex.from_dict(json.loads(stdout)).dimension() == 8


def test_fvector_and_homology_write_to_out(tmp_path, capsys):
    out = tmp_path / "F"
    assert run_cli(capsys, "fvector", "--n", "4", "--relation", "ss",
                   "--out", str(out)) == (0, "", "")
    assert out.read_text() == "8 16 8\n"
    assert run_cli(capsys, "homology", "--n", "4", "--relation", "ws",
                   "--out", str(out)) == (0, "", "")
    assert out.read_text() == "H~0 = 0\nH~1 = 0\nH~2 = 0\n"
    assert run_cli(capsys, "homology", "--n", "4", "--relation", "ws",
                   "--format", "json", "--out", str(out)) == (0, "", "")
    assert json.loads(out.read_text()) == [
        {"dim": d, "rank": 0, "torsion": []} for d in range(3)]


# the smallest valid call of each verb
MINIMAL_CALLS = {
    "build": ("--n", "4", "--relation", "ss"),
    "fvector": ("--n", "4", "--relation", "ss"),
    "homology": ("--n", "4", "--relation", "ss"),
    "link": ("--n", "4", "--relation", "ss", "--face", "13"),
    "star": ("--n", "4", "--relation", "ss", "--face", "13"),
    "deletion": ("--n", "4", "--relation", "ss", "--face", "13"),
    "boundary": ("--n", "4", "--relation", "ss"),
    "verify": ("figures", "--n", "3"),
    "reproduce-paper": ("--n", "4"),
}


def test_every_verb_writes_to_out_and_not_to_stdout(tmp_path, capsys):
    verbs = build_parser()._subparsers._group_actions[0].choices
    assert set(verbs) == set(MINIMAL_CALLS)
    for verb, parser in verbs.items():
        assert "--out" in {o for a in parser._actions for o in a.option_strings}, verb
        out = tmp_path / f"{verb}.out"
        assert run_cli(capsys, verb, *MINIMAL_CALLS[verb], "--out", str(out)) == (0, "", ""), verb
        assert out.read_text(), verb


# each export verb, its extra arguments, and the library call it stands for
EXPORT_VERBS = [
    ("build", (), lambda sc: sc.complex),
    ("star", ("--face", "15,234"), lambda sc: sc.complex.star_mask(sc.face_mask(["15", "234"]))),
    ("deletion", ("--face", "2"), lambda sc: sc.complex.deletion_mask(sc.face_mask(["2"]))),
    ("boundary", (), lambda sc: sc.complex.boundary()),
]


@pytest.mark.parametrize("verb, extra, library", EXPORT_VERBS, ids=[v[0] for v in EXPORT_VERBS])
def test_export_verbs_write_the_library_complex(tmp_path, capsys, ws5, verb, extra, library):
    want = library(ws5).to_dict(5, "ws")
    code, stdout, _ = run_cli(capsys, verb, "--n", "5", "--relation", "ws", *extra)
    assert code == 0
    assert json.loads(stdout) == want
    if verb != "build":  # build takes no input file
        path = tmp_path / "ws5.json"
        path.write_text(json.dumps(ws5.complex.to_dict(5, "ws")))
        code, stdout, _ = run_cli(capsys, verb, str(path), *extra)
        assert code == 0
        assert json.loads(stdout) == want


def test_build_without_n_and_relation_exits_2(capsys):
    code, stdout, err = run_cli(capsys, "build")
    assert (code, stdout) == (2, "")
    assert err == "error: provide an input file or both --n and --relation\n"


def test_bad_face_label(capsys):
    code, _, err = run_cli(capsys, "link", "--n", "4", "--relation", "ss",
                           "--face", "99")
    assert code == 2
    assert "not a vertex label" in err
    for verb in ("link", "star", "deletion"):
        code, stdout, err = run_cli(capsys, verb, "--n", "4", "--relation", "ss",
                                    "--face", "13,13")
        assert code == 2
        assert stdout == ""
        assert err.startswith("error:") and "'13' is repeated" in err


def test_faces_of_labels_with_commas_take_semicolons(tmp_path, capsys):
    # labels at n >= 10 hold commas, so ';' separates the vertices of a face
    path = tmp_path / "n10.json"
    path.write_text(json.dumps({"n": 10, "vertices": ["1,10", "2,3", "4,5", "6,7"],
                                "facets": [[0, 1, 2], [1, 3], [2, 3]]}))
    cx = Complex.from_dict(json.loads(path.read_text()))
    for verb, face, mask in (("star", "1,10;2,3", 0b0011), ("link", "2,3", 0b0010),
                             ("link", "1,10 ; 4,5", 0b0101)):
        code, stdout, _ = run_cli(capsys, verb, str(path), "--face", face)
        assert code == 0, (verb, face)
        want = cx.star_mask(mask) if verb == "star" else cx.link_mask(mask)
        assert Complex.from_dict(json.loads(stdout)).facets == want.facets
    for face, message in (("1,10;1,10", "'1,10' is repeated"),
                          ("1,10;2", "'2' is not a vertex label")):
        code, stdout, err = run_cli(capsys, "star", str(path), "--face", face)
        assert (code, stdout) == (2, ""), face
        assert message in err


def test_missing_input(capsys):
    code, _, err = run_cli(capsys, "fvector")
    assert code == 2
    assert "input file" in err
    code, _, _ = run_cli(capsys, "fvector", "/nonexistent/path.json")
    assert code == 2


@pytest.mark.parametrize("payload, message", [
    ([], "must be an object"),
    ({"vertices": ["1", "2"]}, "needs lists"),
    ({"vertices": ["1", "2"], "facets": {"0": [0]}}, "needs lists"),
    ({"facets": [[0]]}, "needs lists"),
    ({"vertices": "12", "facets": [[0]]}, "needs lists"),
    ({"vertices": ["1", 2], "facets": [[0]]}, "distinct strings"),
    ({"vertices": ["1", "1"], "facets": [[0, 1]]}, "distinct strings"),
    ({"vertices": ["1", "2"], "facets": [0, 1]}, "list of vertex indices"),
    ({"n": "x", "vertices": ["1"], "facets": [[0]]}, "ground size must be"),
    ({"n": 0, "vertices": ["1"], "facets": [[0]]}, "ground size must be"),
    ({"relation": "zz", "vertices": ["1"], "facets": [[0]]}, "relation must be"),
    ({"n": True, "vertices": ["1"], "facets": [[0]]}, "ground size must be"),
    ({"n": 4, "vertices": ["2", "x"], "facets": [[0, 1]]}, "'x' is not a subset of [4]"),
    ({"n": 4, "vertices": ["2", "25"], "facets": [[0, 1]]}, "'25' is not a subset of [4]"),
    ({"n": 4, "vertices": ["2", "22"], "facets": [[0, 1]]}, "'22' is not a subset of [4]"),
    ({"n": 4, "relation": "ss", "vertices": ["2", "12"], "facets": [[0, 1]]},
     "'12' is a frozen subset of [4]"),
    ({"n": 4, "relation": "ws", "vertices": ["{}", "2"], "facets": [[0, 1]]},
     "'{}' is a frozen subset of [4]"),
    ({"n": 4, "relation": "zz", "vertices": ["x"], "facets": [[0]]}, "relation must be"),
    ({"n": 4, "vertices": ["23", "32"], "facets": [[0, 1]]}, "name the same subset"),
    ({"vertices": ["a", "b", "c"], "facets": [[True, False], [2]]}, "True is not an integer"),
    ({"relation": "ss", "vertices": ["zz"], "facets": [[0]]}, "needs its ground size 'n'"),
    ({"vertices": ["a", "b", "c"], "facets": [[0, 0, 1], [2]]}, "vertex index 0 is repeated"),
    ({"vertices": ["a", "b"], "facets": [[0, 0]]}, "vertex index 0 is repeated in a facet"),
    ({"n": 12, "vertices": ["1_0", "+7", "3"], "facets": [[0, 1, 2]]},
     "'1_0' is not a subset of [12]"),
    ({"n": 12, "vertices": ["3", "+7"], "facets": [[0, 1]]}, "'+7' is not a subset of [12]"),
    ({"n": 4, "vertices": ["1", "\u0662"], "facets": [[0, 1]]},
     "'\u0662' is not a subset of [4]"),
    ({"n": 12, "vertices": ["07", "3"], "facets": [[0, 1]]}, "'07' is not a subset of [12]"),
    pytest.param("[" * 100000 + "]" * 100000, "nested too deeply", id="deep-nesting"),
])
def test_malformed_complex_json_exits_2(tmp_path, capsys, payload, message):
    path = tmp_path / "bad.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    code, _, err = run_cli(capsys, "fvector", str(path))
    assert code == 2
    assert err.startswith("error:")
    assert message in err


def test_cap_exit_code(capsys):
    code, _, err = run_cli(capsys, "build", "--n", "9", "--relation", "ss")
    assert code == 3
    assert "cap" in err


def test_cap_variable_is_ignored(capsys, monkeypatch):
    for value in ("abc", "-5", "0"):
        monkeypatch.setenv("SEPCX_CAP", value)
        for argv in (("build", "--n", "4", "--relation", "ss"),
                     ("verify", "figures", "--n", "3"), ("reproduce-paper", "--n", "4")):
            code, _, err = run_cli(capsys, *argv)
            assert code == 0
            assert err == ""


@pytest.mark.parametrize("cap", ["-1", "0"])
def test_cap_below_one_exits_2(tmp_path, capsys, cap):
    path = tmp_path / "ws4.json"
    path.write_text(json.dumps(build(4, "ws").complex.to_dict(4, "ws")))
    for argv in (("build", "--n", "4", "--relation", "ss"), ("verify", "figures", "--n", "3"),
                 ("fvector", str(path))):
        code, _, err = run_cli(capsys, *argv, "--cap", cap)
        assert code == 2
        assert err.startswith("error:")
        assert f"at least 1, got {cap}" in err


def _one_facet_file(tmp_path, size):
    path = tmp_path / f"facet{size}.json"
    path.write_text(json.dumps({"vertices": [f"v{i}" for i in range(size)],
                                "facets": [list(range(size))]}))
    return path


def test_facet_above_the_cap_exits_3_before_enumerating(tmp_path, capsys):
    # C(cap - 1, 2) vertices, the facet size of ss(cap) and ws(cap): 15 at cap 7
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "fvector", str(_one_facet_file(tmp_path, 30)))
    assert time.perf_counter() - start < 1
    assert code == 3
    assert "a facet of 30 vertices exceeds 15" in err and "cap 7" in err
    code, _, err = run_cli(capsys, "fvector", str(_one_facet_file(tmp_path, 16)))
    assert code == 3
    assert "a facet of 16 vertices exceeds 15" in err
    code, stdout, _ = run_cli(capsys, "fvector", str(_one_facet_file(tmp_path, 15)))
    assert code == 0
    assert stdout.split()[:2] == ["15", "105"]
    code, stdout, _ = run_cli(capsys, "fvector", str(_one_facet_file(tmp_path, 16)),
                              "--cap", "8")
    assert code == 0
    assert stdout.split()[:2] == ["16", "120"]


def _facets_file(tmp_path, nverts, facets):
    path = tmp_path / f"facets{len(facets)}.json"
    path.write_text(json.dumps({"vertices": [f"v{i}" for i in range(nverts)],
                                "facets": [list(f) for f in facets]}))
    return path


def test_facet_subsets_above_the_budget_exit_3(tmp_path, capsys):
    # cap 4: facets of at most C(3, 2) = 3 vertices, 2^(3 + 4) = 128 subsets in all
    triples = list(combinations(range(8), 3))
    code, stdout, _ = run_cli(capsys, "fvector", str(_facets_file(tmp_path, 8, triples[:16])),
                              "--cap", "4")
    assert code == 0
    assert stdout.split()[-1] == "16"
    code, stdout, err = run_cli(capsys, "fvector", str(_facets_file(tmp_path, 8, triples[:17])),
                                "--cap", "4")
    assert code == 3
    assert stdout == ""
    assert "the 17 facets have 136 subsets, above 128 = 2^(3 + 4)" in err


def test_built_complexes_above_the_budget_exit_3(capsys):
    # ss(7) and ws(7): 24698 and 259480 facets of C(6, 2) = 15 vertices
    for argv, facets in ((("fvector", "--n", "7", "--relation", "ss"), 24698),
                         (("homology", "--n", "7", "--relation", "ws"), 259480)):
        code, stdout, err = run_cli(capsys, *argv)
        assert code == 3
        assert stdout == ""
        assert f"the {facets} facets have {facets << 15} subsets, above 4194304" in err
    code, stdout, _ = run_cli(capsys, "fvector", "--n", "6", "--relation", "ws")
    assert code == 0
    assert stdout == "52 843 6356 26501 66816 106391 107924 67770 24052 3694\n"


def test_named_checks_that_walk_faces_are_held_to_the_budget(capsys, monkeypatch):
    # ss(7) is over the default budget, so the retraction rows exit 3 rather
    # than walk its faces, while purity reads only facets and runs
    code, stdout, err = run_cli(capsys, "verify", "retraction", "--n", "7", "--relation", "ss")
    assert (code, stdout) == (3, "")
    assert "the 24698 facets have 809304064 subsets, above 4194304" in err
    assert run_cli(capsys, "verify", "purity", "--n", "7")[0] == 0
    # at --cap 6 the budget is 2^(10 + 6) subsets, under ss(6) and ws(6):
    # every check that walks their faces exits 3 before any face is walked
    # (equivariance too, on ss, unless --relation ws narrows it; cone-points,
    # which sweeps every facet once per deletion entry, is held too), and
    # the checks that read only facets or K(6) still pass
    def no_walk(cx):
        raise AssertionError("a face walk before the budget was checked")

    with monkeypatch.context() as m:
        m.setattr(Complex, "face_levels", no_walk)
        for check in ("sphere", "contractibility", "retraction", "lemma-4-4",
                      "chain-condition", "covering", "cone-points", "equivariance"):
            code, stdout, err = run_cli(capsys, "verify", check, "--n", "6", "--cap", "6")
            assert (code, stdout) == (3, ""), check
            assert "subsets, above 65536 = 2^(10 + 6)" in err
    for argv in (("purity",), ("cross-polytope",), ("equivariance", "--relation", "ws")):
        code, stdout, _ = run_cli(capsys, "verify", *argv, "--n", "6", "--cap", "6")
        assert code == 0 and "0 failed" in stdout, argv


def test_many_facets_exit_3_before_enumerating(tmp_path, capsys):
    rng = random.Random(11)
    facets = {tuple(sorted(rng.sample(range(30), 15))) for _ in range(10000)}
    path = _facets_file(tmp_path, 30, sorted(facets))
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "fvector", str(path))
    assert time.perf_counter() - start < 1
    assert code == 3
    assert f"the {len(facets)} facets have {len(facets) << 15} subsets, above 4194304" in err


def test_many_facets_of_mixed_sizes_load_fast(tmp_path, capsys):
    # every edge lies outside the triangles, so all 16000 facets are maximal
    rng = random.Random(5)
    triangles = set()
    while len(triangles) < 8000:
        triangles.add(tuple(sorted(rng.sample(range(300), 3))))
    covered = {e for t in triangles for e in combinations(t, 2)}
    edges = set()
    while len(edges) < 8000:
        e = tuple(sorted(rng.sample(range(300), 2)))
        if e not in covered:
            edges.add(e)
    path = _facets_file(tmp_path, 300, sorted(triangles) + sorted(edges))
    start = time.perf_counter()
    code, stdout, _ = run_cli(capsys, "fvector", str(path))
    assert time.perf_counter() - start < 2
    assert code == 0
    assert stdout.split()[1:] == [str(len(covered) + 8000), "8000"]


def test_exported_n6_complexes_fit_the_default_budget(tmp_path, ss6):
    for sc in (ss6, build(6, "ws")):
        path = tmp_path / f"{sc.relation}6.json"
        path.write_text(json.dumps(sc.complex.to_dict(sc.n, sc.relation)))
        cx, n, relation = _load_complex(str(path), DEFAULT_ENUMERATION_CAP)
        assert (cx.facets, n, relation) == (sc.complex.facets, 6, sc.relation)


def test_verify_cross_polytope_respects_the_cap(capsys):
    code, _, err = run_cli(capsys, "verify", "cross-polytope", "--n", "8")
    assert code == 3
    assert "cap" in err


def test_verify_boundary_findings_respects_the_cap(capsys):
    code, stdout, err = run_cli(capsys, "verify", "boundary-findings", "--n", "5",
                                "--cap", "4")
    assert code == 3
    assert stdout == ""
    assert "cap" in err


def test_verify_figures_respects_the_cap(capsys):
    code, stdout, err = run_cli(capsys, "verify", "figures", "--n", "3", "--cap", "3")
    assert code == 3
    assert stdout == ""
    assert "cap" in err


@pytest.mark.parametrize("check, n", [
    ("figures", "99"), ("figures", "5"), ("boundary-findings", "4"), ("purity", "3"),
])
def test_verify_rejects_a_size_the_check_is_not_defined_at(capsys, check, n):
    code, stdout, err = run_cli(capsys, "verify", check, "--n", n)
    assert code == 2
    assert stdout == ""
    assert f"check {check} is defined at n = " in err


@pytest.mark.parametrize("check, relation", [
    ("lemma-4-4", "ws"), ("chain-condition", "ws"), ("retraction", "ws"),
    ("covering", "ss"), ("cone-points", "ss"), ("cross-polytope", "ss"),
])
def test_verify_rejects_a_relation_the_check_cannot_take(capsys, check, relation):
    code, stdout, err = run_cli(capsys, "verify", check, "--n", "4",
                                "--relation", relation)
    assert code == 2
    assert stdout == ""
    assert f"does not take --relation {relation}" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "no-such-check", "--n", "4"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_reproduce_paper_takes_n_4_to_6_and_no_size_flags(capsys):
    code, stdout, err = run_cli(capsys, "reproduce-paper", "--n", "7")
    assert code == 2
    assert stdout == ""
    assert "4 <= n <= 6" in err
    with pytest.raises(SystemExit) as exc:
        main(["reproduce-paper", "--n", "6", "--allow-heavy"])
    assert exc.value.code == 2
    capsys.readouterr()


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_names_only_existing_verbs_and_options():
    readme = README.read_text(encoding="utf-8")
    parser = build_parser()
    blocks = readme.split("```")
    commands = [line for block in blocks[1::2] for line in block.splitlines()
                if line.startswith("sepcx ")]
    assert commands
    for line in commands:
        parser.parse_args(shlex.split(line, comments=True)[1:])  # SystemExit if stale
    verbs = parser._subparsers._group_actions[0].choices.values()
    options = {o for p in verbs for a in p._actions for o in a.option_strings}
    spans = [span for block in blocks[0::2] for span in re.findall(r"`([^`]+)`", block)
             if not span.startswith("pip ")]
    named = {o for span in spans for o in re.findall(r"--[a-z][a-z-]*", span)}
    assert named and named <= options, named - options


def test_readme_python_example_prints_what_its_comments_say(capsys):
    blocks = README.read_text(encoding="utf-8").split("```")[1::2]
    [code] = [b.removeprefix("python\n") for b in blocks if b.startswith("python\n")]
    exec(compile(code, str(README), "exec"), {})
    first, *groups = capsys.readouterr().out.splitlines()
    comment = re.search(r"face_counts\(\)\)\s+# (.*)$", code, re.M).group(1)
    assert first == comment == "(22, 140, 370, 460, 272, 62)"
    assert "# one Z in dimension 2" in code
    assert [g for g in groups if not g.endswith(" = 0")] == ["H~2 = Z"]


def test_verify_verb(capsys):
    code, stdout, _ = run_cli(capsys, "verify", "lemma-4-4", "--n", "4")
    assert code == 0
    assert "PASS" in stdout
    code, stdout, _ = run_cli(capsys, "verify", "purity", "--n", "4",
                              "--format", "json")
    assert code == 0
    assert json.loads(stdout)["summary"]["fail"] == 0


def test_stuck_collapse_is_inconclusive_at_n4(capsys, monkeypatch):
    # a collapse that sticks refutes nothing: a subdivided dunce hat is contractible and sticks
    monkeypatch.setattr(Complex, "greedy_collapse",
                        lambda self: CollapseOutcome("stuck", 0))
    code, stdout, _ = run_cli(capsys, "verify", "contractibility", "--n", "4")
    assert code == 0
    assert "collapse-certificate ws(4) [ws(4)]: INCONCLUSIVE" in stdout
    assert "0 failed, 1 inconclusive" in stdout


def test_reproduce_paper_small_and_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code, _, _ = run_cli(capsys, "reproduce-paper", "--n", "4",
                         "--format", "json", "--out", str(a))
    assert code == 0
    code, _, _ = run_cli(capsys, "reproduce-paper", "--n", "4",
                         "--format", "json", "--out", str(b))
    assert code == 0
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["summary"]["fail"] == 0
    assert payload["summary"]["pass"] == len(payload["checks"])


def test_reproduce_paper_text_output(capsys):
    code, stdout, _ = run_cli(capsys, "reproduce-paper", "--n", "4")
    assert code == 0
    assert "f-vector ss(4) [n=4]: PASS" in stdout


# progress lines of `reproduce-paper --n 4`, in order
REPORT_N4_STAGES = [
    "figure counts", "contractibility shadow ws(4)", "sphere shadow ss(4)",
    "cross polytope n=4", "cross polytope n=5", "cross polytope n=6",
    "cross polytope n=7", "retraction checks ss(4)", "equivariance ss(4)",
    "equivariance ws(4)", "covering checks ws(4)",
]


def test_reproduce_paper_n4_is_byte_identical(capsys):
    code, stdout, err = run_cli(capsys, "reproduce-paper", "--n", "4",
                                "--format", "json", "--progress")
    assert code == 0
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == (
        "ae32888c1b11f8b43d1bd9dc7bc6468511303cfd7cb0cac85add0ce4bea7119f")
    assert err.splitlines() == [f"... {stage}" for stage in REPORT_N4_STAGES]


# progress lines of `reproduce-paper --n 5`, in order
REPORT_N5_STAGES = [
    "figure counts", "contractibility shadow ws(4)", "contractibility shadow ws(5)",
    "sphere shadow ss(4)", "sphere shadow ss(5)", "cross polytope n=4",
    "cross polytope n=5", "cross polytope n=6", "cross polytope n=7",
    "retraction checks ss(4)", "retraction checks ss(5)", "equivariance ss(4)",
    "equivariance ws(4)", "equivariance ss(5)", "equivariance ws(5)",
    "covering checks ws(4)", "covering checks ws(5)", "boundary findings n=5",
]


def test_reproduce_paper_n5_is_byte_identical(capsys):
    code, stdout, err = run_cli(capsys, "reproduce-paper", "--n", "5",
                                "--format", "json", "--progress")
    assert code == 0
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == (
        "4655f47bd3e9766a3faf9efa5c2b117f4a9751c0cfdd7d9cd84cdae97ae9b9b2")
    assert err.splitlines() == [f"... {stage}" for stage in REPORT_N5_STAGES]
