"""The package sums floats with ``math.fsum`` only. The built-in ``sum`` of
floats rounds at every step before CPython 3.12 and compensates from 3.12 on,
so a float ``sum`` would make report bytes depend on the CPython version. The
built-in is kept at the listed sites, which add integers."""

import ast
from pathlib import Path

import fssfunnel

PACKAGE = Path(fssfunnel.__file__).parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))

# (module, enclosing function, the name the result is assigned to).
INTEGER_SUMS = [
    ("cli.py", "run_assessment", "flagged"),
    ("funnel.py", "fit_pooled", "total_n"),
    ("synth.py", "generate_synthetic_dataset", "targets"),
]


def builtin_sums(module: str, source: str) -> list[tuple[str, str | None, str | None]]:
    """A site for each reference to the name ``sum``, in source order."""
    sites = []

    def visit(node, function, target):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            target = names[0] if names else None
        elif isinstance(node, ast.Name) and node.id == "sum":
            sites.append((module, function, target))
        for child in ast.iter_child_nodes(node):
            visit(child, function, target)

    visit(ast.parse(source), None, None)
    return sites


def test_the_builtin_sum_adds_integers_only_at_the_listed_sites():
    found = []
    for module in MODULES:
        found += builtin_sums(module, (PACKAGE / module).read_text(encoding="utf-8"))
    assert found == INTEGER_SUMS


def test_a_new_sum_is_reported():
    source = (
        "def f(values):\n"
        "    total = sum(values)\n"
        "    return map(sum, values)\n"
        "mean = lambda v: sum(v) / len(v)\n"
    )
    assert builtin_sums("m.py", source) == [
        ("m.py", "f", "total"), ("m.py", "f", None), ("m.py", None, "mean"),
    ]
