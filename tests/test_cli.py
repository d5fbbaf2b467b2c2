"""The command-line surface: verbs, formats, exit codes, round trips."""
import hashlib
import json
import re
import shlex
from pathlib import Path

import pytest

from sepcomplex import build
from sepcomplex.cli import build_parser, main
from sepcomplex.complexes import Complex


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
    want = sc.complex.link(sc.face_indices(["2", "23", "234"]))
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
    assert "13" not in {deleted.labels[v] for f in deleted.facet_tuples() for v in f}


def test_boundary_verb_and_gate(capsys):
    code, stdout, _ = run_cli(capsys, "boundary", "--n", "5", "--relation", "ws")
    assert code == 0
    bd = Complex.from_dict(json.loads(stdout))
    assert bd.dimension() == 4
    code, stdout, _ = run_cli(capsys, "boundary", "--n", "6", "--relation", "ss")
    assert code == 0
    assert Complex.from_dict(json.loads(stdout)).dimension() == 8


def test_bad_face_label(capsys):
    code, _, err = run_cli(capsys, "link", "--n", "4", "--relation", "ss",
                           "--face", "99")
    assert code == 2
    assert "not a vertex label" in err


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
])
def test_malformed_complex_json_exits_2(tmp_path, capsys, payload, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, _, err = run_cli(capsys, "fvector", str(path))
    assert code == 2
    assert err.startswith("error:")
    assert message in err


def test_cap_exit_code(capsys):
    code, _, err = run_cli(capsys, "build", "--n", "9", "--relation", "ss")
    assert code == 3
    assert "cap" in err


def test_malformed_cap_variable_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("SEPCX_CAP", "abc")
    for argv in (("build", "--n", "4", "--relation", "ss"), ("verify", "figures", "--n", "3")):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error:")
        assert "SEPCX_CAP" in err


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


def test_readme_names_only_existing_verbs_and_options():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
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


def test_verify_verb(capsys):
    code, stdout, _ = run_cli(capsys, "verify", "lemma-4-4", "--n", "4")
    assert code == 0
    assert "PASS" in stdout
    code, stdout, _ = run_cli(capsys, "verify", "purity", "--n", "4",
                              "--format", "json")
    assert code == 0
    assert json.loads(stdout)["summary"]["fail"] == 0


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
        "4d9c411709a77d7736733e000c31fbdd42796981befafd443805777fc33931cd")
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
        "c3847b0398fcad0ee7a2fa1a1eead830dcd8410a09a81c01deadf5f823c56430")
    assert err.splitlines() == [f"... {stage}" for stage in REPORT_N5_STAGES]
