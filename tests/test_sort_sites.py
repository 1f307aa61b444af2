"""Only the report orders institutions. Every stage before it keeps the order
it is given: the readers keep row order, validation keeps file order,
``apply_exclusions`` groups in row order and every sum is ``math.fsum``, so
no earlier order moves a bit of the report. A sort is kept at the listed
sites, each of which puts an output or a statistic in its defined order."""

import ast

from helpers import MODULES, PACKAGE, sites

# (module, enclosing function), in source order.
SORT_SITES = [
    # Byline slots by position, as the reader oracles pin them.
    ("cli.py", "read_publications_csv"),
    # The allowed values named in a config-file message.
    ("cli.py", "_convert"),
    # Order statistics of the adjusted means.
    ("funnel.py", "qq_points"),
    # The one order of institutions: the report's.
    ("funnel.py", "build_funnel_report"),
    # Competition ranks count the strictly greater means.
    ("funnel.py", "performance_ranks"),
    # The band polylines' x grid.
    ("render.py", "render_funnel_svg"),
    # Institutions by mean, the caterpillar plot's layout.
    ("render.py", "render_caterpillar_svg"),
]


def sort_sites(module: str, source: str) -> list[tuple[str, str | None]]:
    """A site for each reference to the name ``sorted`` and each attribute
    ``sort``, in source order."""
    return [
        (module, function)
        for module, function, _ in sites(
            module,
            source,
            lambda node: (isinstance(node, ast.Name) and node.id == "sorted")
            or (isinstance(node, ast.Attribute) and node.attr == "sort"),
        )
    ]


def test_the_package_sorts_only_at_the_listed_sites():
    found = []
    for module in MODULES:
        found += sort_sites(module, (PACKAGE / module).read_text(encoding="utf-8"))
    assert found == SORT_SITES


def test_a_new_sort_is_reported():
    source = (
        "def group(records):\n"
        "    by_id = sorted(records)\n"
        "    records.sort(key=len)\n"
        "    return map(sorted, by_id)\n"
        "ordered = lambda v: sorted(v)\n"
    )
    assert sort_sites("m.py", source) == [
        ("m.py", "group"), ("m.py", "group"), ("m.py", "group"), ("m.py", None),
    ]
