"""The package sums floats with ``math.fsum`` only. The built-in ``sum`` of
floats rounds at every step before CPython 3.12 and compensates from 3.12 on,
so a float ``sum`` would make report bytes depend on the CPython version. The
built-in is kept at the listed sites, which add integers. A running ``+=`` of
floats rounds at every step, so its result depends on the order of its terms;
it is kept at the listed sites, which count, concatenate or step a solver or a
tick, not accumulate data."""

import ast

from helpers import MODULES, PACKAGE, sites

# (module, enclosing function, the name the result is assigned to).
INTEGER_SUMS = [
    ("cli.py", "run_assessment", "flagged"),
    ("funnel.py", "fit_pooled", "total_n"),
    ("synth.py", "_institution_sizes", "missing"),
    ("synth.py", "generate_synthetic_dataset", "targets"),
]

# (module, enclosing function, the target of the ``+=``), in source order.
# Two add floats, and neither sums data: ``_nice_ticks``'s ``value`` steps
# along an axis and ``solve_zero_skew``'s ``b`` is the Brent step. The rest
# add integers or concatenate lists and strings.
AUGMENTED_ADDITIONS = [
    ("cli.py", "_read_rows", "line"),
    ("cli.py", "_array", "pieces"),
    ("cli.py", "emit_report", "pieces"),
    ("model.py", "first_slot", "i"),
    ("model.py", "validate_dataset", "count"),
    ("model.py", "apply_exclusions", "dropped_researchers"),
    ("render.py", "_nice_ticks", "value"),
    ("render.py", "render_funnel_svg", "parts"),
    ("render.py", "render_funnel_svg", "parts"),
    ("render.py", "render_qq_svg", "parts"),
    ("render.py", "render_qq_svg", "parts"),
    ("render.py", "render_caterpillar_svg", "y_values"),
    ("render.py", "render_caterpillar_svg", "parts"),
    ("render.py", "render_caterpillar_svg", "parts"),
    ("synth.py", "_institution_sizes", "sizes[index]"),
    ("transform.py", "solve_zero_skew", "b"),
]


def builtin_sums(module: str, source: str) -> list[tuple[str, str | None, str | None]]:
    """A site for each reference to the name ``sum``, in source order."""
    return sites(module, source, lambda node: isinstance(node, ast.Name) and node.id == "sum")


def augmented_additions(module: str, source: str) -> list[tuple[str, str | None, str | None]]:
    """A site for each ``+=``, in source order."""
    return sites(
        module, source,
        lambda node: isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add),
    )


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


def test_the_package_adds_with_plus_equals_only_at_the_listed_sites():
    found = []
    for module in MODULES:
        found += augmented_additions(module, (PACKAGE / module).read_text(encoding="utf-8"))
    assert found == AUGMENTED_ADDITIONS


def test_a_new_accumulator_is_reported():
    source = (
        "def f(values):\n"
        "    total = 0.0\n"
        "    for x in values:\n"
        "        total += x\n"
        "    counts[x] += 1\n"
        "    return total\n"
    )
    assert augmented_additions("m.py", source) == [
        ("m.py", "f", "total"), ("m.py", "f", "counts[x]"),
    ]
