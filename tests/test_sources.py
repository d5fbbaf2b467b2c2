"""The sources keep to the Python version the package declares, use what they
import, import nothing outside the standard library, and define nothing that
goes unused; the README names only what exists."""
import ast
import importlib
import inspect
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "sepcomplex").glob("*.py"))
OLDEST = (3, 10)  # README and pyproject.toml: Python 3.10+


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_sources_parse_as_the_oldest_supported_python(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST)


def test_the_version_guard_rejects_newer_syntax():
    assert SOURCES
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=OLDEST)


def unused_imports(tree):
    """Names a module imports and never reads, in order of import."""
    imported = [alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_modules_use_every_name_they_import(path):
    # __init__ imports its names to re-export them
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_import_scan_sees_an_unused_name():
    tree = ast.parse("from __future__ import annotations\nimport os\n"
                     "from typing import Any, List as L\nx: Any = os.sep\n")
    assert unused_imports(tree) == ["L"]


def foreign_imports(tree):
    """The absolute imports of a module whose top-level package is not in the
    standard library, by dotted name: `import` statements, then `from` ones."""
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names]
    names += [node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and not node.level]
    return [name for name in names if name.split(".")[0] not in sys.stdlib_module_names]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_modules_import_only_the_standard_library(path):
    # pyproject.toml declares no dependency, so a clean install has nothing
    # else, whatever the environment running the tests may hold
    assert foreign_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_cli_loads_no_rational_arithmetic():
    # fractions, and decimal, which it imports, serve only the tests' rational
    # oracle, so they stay out of every run's start-up
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import sepcomplex.cli; "
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-I", "-c", code],
                         capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"


def test_the_dependency_scan_sees_a_foreign_import():
    tree = ast.parse("from __future__ import annotations\nimport os.path, numpy\n"
                     "from . import homology\nfrom .complexes import Complex\n"
                     "from collections import deque\nfrom scipy.sparse import csr_matrix\n"
                     "def f():\n    import networkx as nx\n")
    assert foreign_imports(tree) == ["numpy", "networkx", "scipy.sparse"]


ENVIRONMENT = {"environ", "getenv", "putenv"}


def environment_reads(tree):
    """Where a module touches the process environment, as `line:name`:
    attributes `os.environ`, `os.getenv` and `os.putenv`, and those names
    imported from os."""
    found = [(node.lineno, f"os.{node.attr}") for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT
             and isinstance(node.value, ast.Name) and node.value.id == "os"]
    found += [(node.lineno, f"from os import {alias.name}") for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module == "os"
              for alias in node.names if alias.name in ENVIRONMENT]
    return [f"{line}:{name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_modules_do_not_read_the_environment(path):
    # the cap and every other setting arrive as arguments, so results never
    # depend on ambient state
    assert environment_reads(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_environment_scan_sees_every_read():
    tree = ast.parse("import os\nfrom os import getenv as g, sep\n"
                     "x = os.environ.get('A', os.sep)\ny = os.getenv('B')\n"
                     "os.putenv('C', '1')\nz = g('D')\n")
    assert environment_reads(tree) == [
        "2:from os import getenv", "3:os.environ", "4:os.getenv", "5:os.putenv"]


def unreferenced_definitions(trees, package):
    """Module-level functions and classes of the `package` modules, and the
    methods of those classes, that no tree in `trees` (path -> ast) refers to
    by a Name, an Attribute, an import alias or an equal string constant.
    Dunder methods are called by the language; the imports of an __init__
    module only re-export, so they do not count."""
    refs = set()
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                refs.add(node.value)
            elif isinstance(node, ast.alias) and not path.endswith("__init__.py"):
                refs.update((node.name.split(".")[-1], node.asname))
    unused = []
    for path in package:
        for node in trees[path].body:
            defs = []
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((node.name, node.name))
            if isinstance(node, ast.ClassDef):
                defs.extend((f"{node.name}.{f.name}", f.name) for f in node.body
                            if isinstance(f, ast.FunctionDef)
                            and not (f.name.startswith("__") and f.name.endswith("__")))
            unused.extend(f"{path}:{qualname}" for qualname, name in defs if name not in refs)
    return unused


def test_every_definition_is_referenced():
    paths = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    trees = {str(p.relative_to(ROOT)): ast.parse(p.read_text(encoding="utf-8")) for p in paths}
    package = [str(p.relative_to(ROOT)) for p in SOURCES]
    assert unreferenced_definitions(trees, package) == []


# Defined in the package, referenced only from the tests and perfbench's
# tracer, which patches or calls them; they move with ROADMAP item 3
TEST_ONLY = {
    "complexes.py:nerve",
    "homology.py:smith_normal_form",
    "separation.py:deletion_covering",
}


def test_the_package_alone_leaves_only_the_test_only_names_unreferenced():
    # equality: a new test-only helper fails, and so does a listed name that
    # gains a caller in the package
    trees = {str(p.relative_to(ROOT)): ast.parse(p.read_text(encoding="utf-8"))
             for p in SOURCES}
    prefix = "src/sepcomplex/"
    assert {name.removeprefix(prefix) for name in unreferenced_definitions(trees, list(trees))
            } == TEST_ONLY


def tracer_pinned_names(tree):
    """The attribute strings of the tuples `_targets()` returns, and the names
    `snf_probe` imports, in a tree of perfbench/tracing.py."""
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    names = {node.elts[1].value for node in ast.walk(functions["_targets"])
             if isinstance(node, ast.Tuple) and len(node.elts) > 1
             and isinstance(node.elts[1], ast.Constant) and isinstance(node.elts[1].value, str)}
    names.update(alias.name for node in ast.walk(functions["snf_probe"])
                 if isinstance(node, ast.ImportFrom) for alias in node.names)
    return names


def test_every_test_only_name_is_pinned_by_the_tracer():
    # the set may only shrink: a test-only helper belongs in the tests
    pinned = tracer_pinned_names(
        ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8")))
    assert {"has_face_mask", "greedy_collapse", "smith_normal_form"} <= pinned
    assert [name for name in sorted(TEST_ONLY)
            if name.partition(":")[2].rpartition(".")[2] not in pinned] == []


def test_the_definition_scan_sees_an_unreferenced_name():
    trees = {
        "pkg/__init__.py": ast.parse("from .mod import C, dead, used\n"),
        "pkg/mod.py": ast.parse("class C:\n    def __len__(self):\n        return 0\n"
                                "    def kept(self):\n        pass\n"
                                "    def gone(self):\n        pass\n"
                                "def used():\n    return C().kept()\n"
                                "def dead():\n    pass\n"
                                "def patched():\n    pass\n"),
        "tests/t.py": ast.parse("import pkg.mod as m\nfrom pkg import used\n"
                                "setattr(m, 'patched', None)\n"),
    }
    assert unreferenced_definitions(trees, ["pkg/__init__.py", "pkg/mod.py"]) == [
        "pkg/mod.py:C.gone", "pkg/mod.py:dead"]


def package_heads():
    """The package, its modules and their classes, by the name a document
    uses for them: `sepcomplex`, `verify`, `Complex` and so on."""
    heads = {"sepcomplex": importlib.import_module("sepcomplex")}
    for path in SOURCES:
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"sepcomplex.{path.stem}")
        heads[path.stem] = module
        heads.update((name, value) for name, value in vars(module).items()
                     if inspect.isclass(value) and value.__module__ == module.__name__)
    return heads


def unresolved_names(text, heads):
    """The backticked dotted names in `text` whose head is in `heads` and
    whose attributes do not resolve with getattr, with the count of names
    whose head is in `heads`."""
    named = [name for name in re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", text)
             if name.split(".")[0] in heads]
    unresolved = []
    for name in named:
        head, *attrs = name.split(".")
        value = heads[head]
        for attr in attrs:
            value = getattr(value, attr, None)
            if value is None:
                unresolved.append(name)
                break
    return unresolved, len(named)


def test_readme_names_resolve():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    heads = package_heads()
    assert {"verify", "separation", "Complex", "SeparationComplex"} <= set(heads)
    unresolved, named = unresolved_names(text, heads)
    assert unresolved == []
    for name in ("verify._deletion_masks", "Complex.intersection",
                 "SeparationComplex.retraction_images"):
        assert f"`{name}`" in text
    assert named >= 10


def test_the_name_scan_sees_a_stale_name():
    text = ("`verify.CHECKS`, `verify.gone`, `Complex.from_dict.nope`, "
            "`sc.anything`, `sepcomplex.separation`, `build(n, relation)`")
    assert unresolved_names(text, package_heads()) == (
        ["verify.gone", "Complex.from_dict.nope"], 4)
