"""Every name a package module imports is used in that module, and every
module it imports is in the standard library. No linter ships with the
package's tooling, so this stands in for an unused-import rule and for a
dependency check."""

import ast
import sys
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


def outside_the_standard_library(source: str) -> list[str]:
    """``line N: module`` for each absolute import, at module level or inside
    a function, of a module that is not in the standard library."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [
            f"line {node.lineno}: {name}" for name in names
            if name.partition(".")[0] not in sys.stdlib_module_names
        ]
    return found


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_every_import_is_in_the_standard_library(module):
    # The package declares no dependencies: assess, synth and the library
    # run on a bare interpreter.
    assert outside_the_standard_library((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_an_import_outside_the_standard_library_is_reported():
    source = (
        "from __future__ import annotations\n"
        "import math, os.path\n"
        "from _statistics import _normal_dist_inv_cdf\n"
        "from .model import Rank\n"
        "def f():\n"
        "    import numpy as np\n"
        "    from scipy.stats import norm\n"
        "    return np, norm, Rank\n"
    )
    assert outside_the_standard_library(source) == ["line 6: numpy", "line 7: scipy.stats"]


def test_no_module_imports_typing():
    # Annotations take Callable from collections.abc, so no module needs
    # typing at run time.
    found = []
    for module in MODULES:
        tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "typing":
                found += [(module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(module, "") for alias in node.names if alias.name == "typing"]
    assert found == []
