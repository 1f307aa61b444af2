"""Construction shortcuts and reference parsers shared by the test modules."""

import ast
import re
from pathlib import Path

import fssfunnel
from fssfunnel.funnel import build_funnel_report
from fssfunnel.model import (
    AssessmentConfig,
    AuthorSlot,
    CitationBaseline,
    PublicationRecord,
    Rank,
    ResearcherRecord,
)

# The package's source files, for the tests that scan it.
PACKAGE = Path(fssfunnel.__file__).parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))


def byline(*institutions, researcher_ids=None):
    """Author slots in byline order; researcher_ids aligns with institutions."""
    ids = researcher_ids or [None] * len(institutions)
    return tuple(
        AuthorSlot(i + 1, rid, inst)
        for i, (rid, inst) in enumerate(zip(ids, institutions))
    )


def researcher(rid, inst="u01", rank=Rank.ASSISTANT, years=4):
    return ResearcherRecord(rid, inst, "Biochemistry", rank, years)


def publication(pid, citations, authors, year=2008, category="Biochemistry"):
    return PublicationRecord(pid, year, category, citations, tuple(authors))


def baseline(entries=None):
    return CitationBaseline(entries or {(2008, "Biochemistry"): 5.0})


def make_report(fss_by_institution, **config_kwargs):
    """Full report built from raw per-institution productivity values."""
    return build_funnel_report(
        fss_by_institution, AssessmentConfig(min_faculty=1, **config_kwargs)
    )


def reference_slot(part):
    """A byline slot as (position, researcher id or None, institution), or
    the reason it does not parse: the slot grammar, written out directly."""
    fields = part.split(":")
    if len(fields) != 3:
        return f"slot {part!r} is not position:researcher_id:institution_id"
    pos_text, rid, inst = (field.strip() for field in fields)
    if not re.fullmatch(r"[+-]?[0-9]+", pos_text):
        return f"not an integer: {pos_text!r}"
    if int(pos_text) < 1:
        return f"must be >= 1, got {int(pos_text)}"
    if not rid:
        return f"slot {part!r} has no researcher id"
    if not inst:
        return f"slot {part!r} has no institution"
    return int(pos_text), None if rid == "-" else rid, inst


SLOT_DEFECTS = {
    "blank researcher id": lambda pos, rid, inst: f"{pos}: :{inst}",
    "empty researcher id": lambda pos, rid, inst: f"{pos}::{inst}",
    "blank institution": lambda pos, rid, inst: f"{pos}:{rid}: ",
    "position 0": lambda pos, rid, inst: f"0:{rid}:{inst}",
    "position x": lambda pos, rid, inst: f"x:{rid}:{inst}",
    "position 1_0": lambda pos, rid, inst: f"1_0:{rid}:{inst}",
    "full-width position": lambda pos, rid, inst: f"\uff12:{rid}:{inst}",
    "two fields": lambda pos, rid, inst: f"{pos}:{rid}",
    "four fields": lambda pos, rid, inst: f"{pos}:{rid}:{inst}:X",
    "empty part": lambda pos, rid, inst: "",
}


def sites(module: str, source: str, wanted) -> list[tuple[str, str | None, str | None]]:
    """A site for each node that ``wanted`` accepts, in source order: its
    enclosing function and the target of the assignment it is part of."""
    found = []

    def visit(node, function, target):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            target = names[0] if names else None
        elif isinstance(node, ast.AugAssign):
            target = ast.unparse(node.target)
        if wanted(node):
            found.append((module, function, target))
        for child in ast.iter_child_nodes(node):
            visit(child, function, target)

    visit(ast.parse(source), None, None)
    return found
