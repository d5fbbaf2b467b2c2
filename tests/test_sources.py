"""The sources keep to the Python version the package declares, and use what they import."""
import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "sepcomplex").glob("*.py"))
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
