"""Every name a package module imports is used in that module. No linter
ships with the package's tooling, so this stands in for an unused-import rule."""

import ast
from pathlib import Path

import pytest

import fssfunnel

PACKAGE = Path(fssfunnel.__file__).parent
# __init__.py imports names only to export them.
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """``line N: name`` for each imported name the source never refers to;
    ``from __future__`` imports are exempt."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_an_unused_import_is_reported():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from math import inf, log\n"
        "def f(x):\n"
        "    from .model import Rank\n"
        "    return log(x) + os.sep\n"
    )
    assert unused_imports(source) == ["line 3: j", "line 4: inf", "line 6: Rank"]


def test_only_a_type_checking_guard_imports_typing():
    # Annotations take Callable from collections.abc, so no module needs
    # typing at run time; synth imports it only for its TYPE_CHECKING guard.
    found = []
    for module in MODULES:
        tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "typing":
                found += [(module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(module, "") for alias in node.names if alias.name == "typing"]
    assert found == [("synth.py", "TYPE_CHECKING")]
