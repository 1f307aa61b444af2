"""Every name a package module imports is used in that module, every
module it imports is in the standard library, and every private name it
defines is used. No linter ships with the package's tooling, so this stands
in for an unused-import rule, a dependency check and a dead-code rule."""

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


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """``module: name`` for each private name defined at module level (by
    ``def``, ``class`` or assignment) that no module refers to. Dunder names
    such as ``__version__`` are read from outside, so they are exempt."""
    defined = []
    used = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [
                (module, name) for name in names
                if name.startswith("_") and not name.endswith("__")
            ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [f"{module}: {name}" for module, name in defined if name not in used]


def test_every_private_name_is_used():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_names(sources) == []


def test_an_unused_private_name_is_reported():
    sources = {
        "a.py": (
            "__version__ = '1.0'\n"
            "_LIMIT = 32\n"
            "_set_a, _set_b = 1, 2\n"
            "def _helper(x):\n"
            "    return x < _LIMIT\n"
            "def _leftover(x):\n"
            "    return _helper(x)\n"
            "class _Base:\n"
            "    _fields = ()\n"
        ),
        "b.py": "from .a import _Base, _set_b\nclass C(_Base):\n    pass\nprint(_set_b)\n",
    }
    assert unreferenced_private_names(sources) == ["a.py: _set_a", "a.py: _leftover"]
