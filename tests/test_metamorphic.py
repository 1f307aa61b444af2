"""Metamorphic properties of ``assess``: the report and the SVGs are a
function of the data, not of the order of the CSV rows or the scale of the
citation counts."""

import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fssfunnel.cli import main

# assess flag -> file it writes
OUTPUTS = {
    "report": "report.json",
    "funnel-svg": "funnel.svg",
    "qq-svg": "qq.svg",
    "caterpillar-svg": "caterpillar.svg",
}
INPUTS = ("researchers.csv", "publications.csv", "baselines.csv", "config.txt")

seeds = st.none() | st.integers(0, 2**32 - 1)


def _assess(inputs: Path, out: Path) -> dict[str, bytes]:
    out.mkdir()
    args = ["assess", "--quiet", "--config", str(inputs / "config.txt")]
    for name in ("researchers", "publications", "baselines"):
        args += [f"--{name}", str(inputs / f"{name}.csv")]
    for flag, name in OUTPUTS.items():
        args += [f"--{flag}", str(out / name)]
    assert main(args) == 0
    return {name: (out / name).read_bytes() for name in OUTPUTS.values()}


@pytest.fixture(scope="module")
def synth(tmp_path_factory):
    """The default synth fixture's input texts and the outputs of assess on it."""
    root = tmp_path_factory.mktemp("synth")
    assert main(["synth", "--out-dir", str(root / "in"), "--quiet"]) == 0
    texts = {name: (root / "in" / name).read_text(encoding="utf-8") for name in INPUTS}
    return texts, _assess(root / "in", root / "out")


def _assess_texts(texts: dict[str, str]) -> dict[str, bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp, "in")
        inputs.mkdir()
        for name, text in texts.items():
            (inputs / name).write_text(text, encoding="utf-8")
        return _assess(inputs, Path(tmp, "out"))


def _shuffled(text: str, seed: int | None) -> str:
    """The CSV text with its data rows in a seeded random order (the fixture
    has no quoted line breaks, so a row is a line)."""
    header, *rows = text.splitlines(keepends=True)
    if seed is not None:
        random.Random(seed).shuffle(rows)
    return header + "".join(rows)


def _scaled_column(text: str, column: int, scale) -> str:
    header, *rows = text.splitlines()
    lines = [header]
    for row in rows:
        cells = row.split(",")
        cells[column] = scale(cells[column])
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@given(researchers_seed=seeds, publications_seed=seeds)
@example(researchers_seed=1, publications_seed=2)
@settings(max_examples=8, deadline=None, derandomize=True)
def test_outputs_do_not_depend_on_row_order(synth, researchers_seed, publications_seed):
    texts, expected = synth
    texts = dict(texts)
    texts["researchers.csv"] = _shuffled(texts["researchers.csv"], researchers_seed)
    texts["publications.csv"] = _shuffled(texts["publications.csv"], publications_seed)
    assert _assess_texts(texts) == expected


@given(factor=st.sampled_from([2, 4, 8]))
@example(factor=2)
@example(factor=8)
@settings(max_examples=3, deadline=None, derandomize=True)
def test_outputs_do_not_depend_on_a_power_of_two_citation_scale(synth, factor):
    # Scaling citations and baselines by one power of two is exact in binary
    # floating point, so every normalized impact keeps its bits.
    texts, expected = synth
    texts = dict(texts)
    texts["publications.csv"] = _scaled_column(
        texts["publications.csv"], 3, lambda cell: str(int(cell) * factor)
    )
    texts["baselines.csv"] = _scaled_column(
        texts["baselines.csv"], 2, lambda cell: repr(float(cell) * factor)
    )
    assert _assess_texts(texts) == expected
