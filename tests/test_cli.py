import contextlib
import csv
import gc
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc
import xml.etree.ElementTree as ET
from enum import Enum
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fssfunnel
from fssfunnel import cli
from fssfunnel.cli import (
    RANK_CAVEAT,
    emit_report,
    main,
    parse_config_file,
    read_baselines_csv,
    read_publications_csv,
    read_researchers_csv,
)
from fssfunnel.errors import ParseError, ValidationErrors
from fssfunnel.funnel import (
    BandPoint,
    Classification,
    FunnelReport,
    InstitutionSummary,
    PooledFit,
    build_funnel_report,
)
from fssfunnel.model import (
    AssessmentConfig,
    AuthorSlot,
    CitationBaseline,
    PublicationRecord,
    Rank,
    ResearcherRecord,
    WeightingScheme,
    validate_dataset,
)
from fssfunnel.synth import generate_synthetic_dataset
from fssfunnel.transform import TransformSpec
from helpers import SLOT_DEFECTS, make_report, reference_slot

SALARY = {"Assistant": 1.0, "Associate": 1.4, "Full": 2.0}
BASELINE = {2008: 5.0, 2009: 4.0}

# rid, institution, rank, years_active
RESEARCHERS = [
    ("a1", "A", "Assistant", 4),
    ("a2", "A", "Associate", 5),
    ("a3", "A", "Full", 5),
    ("a4", "A", "Assistant", 3),
    ("a5", "A", "Associate", 4),
    ("a6", "A", "Assistant", 2),  # below tenure threshold, dropped
    ("b1", "B", "Assistant", 3),
    ("b2", "B", "Assistant", 4),
    ("b3", "B", "Associate", 5),
    ("b4", "B", "Full", 4),
    ("b5", "B", "Associate", 3),
    ("c1", "C", "Full", 5),
    ("c2", "C", "Assistant", 4),
    ("c3", "C", "Assistant", 5),
    ("c4", "C", "Associate", 4),  # no publications
    ("c5", "C", "Assistant", 3),  # single uncited publication
]

# pid, year, citations, authors cell (single-author except q2)
PUBLICATIONS = [
    ("q01", 2008, 10, "1:a1:A"),
    ("q02", 2009, 8, "1:a1:A;2:a2:A"),  # two authors, same institution: 0.5 each
    ("q03", 2008, 5, "1:a2:A"),
    ("q04", 2009, 12, "1:a3:A"),
    ("q05", 2008, 0, "1:a4:A"),
    ("q06", 2009, 6, "1:a5:A"),
    ("q07", 2008, 20, "1:a6:A"),  # authored by the dropped researcher
    ("q08", 2008, 3, "1:b1:B"),
    ("q09", 2009, 10, "1:b2:B"),
    ("q10", 2008, 15, "1:b3:B"),
    ("q11", 2009, 4, "1:b4:B"),
    ("q12", 2008, 7, "1:b5:B"),
    ("q13", 2008, 25, "1:c1:C"),
    ("q14", 2009, 2, "1:c2:C"),
    ("q15", 2008, 9, "1:c3:C"),
    ("q16", 2009, 0, "1:c5:C"),
]


def expected_institution_means():
    """Spreadsheet-style recomputation straight off the row literals."""
    contributions = {rid: 0.0 for rid, *_ in RESEARCHERS}
    for _, year, citations, authors in PUBLICATIONS:
        slots = [part.split(":") for part in authors.split(";")]
        share = 1.0 if len(slots) == 1 else 0.5  # only 1- and 2-author bylines here
        for _, rid, _ in slots:
            contributions[rid] += citations / BASELINE[year] * share
    fss = {}
    for rid, inst, rank, years in RESEARCHERS:
        if years < 3:
            continue
        fss.setdefault(inst, []).append(
            contributions[rid] / SALARY[rank] / years
        )
    return {inst: sum(values) / len(values) for inst, values in fss.items()}


def write_fixture(directory, researcher_rows=RESEARCHERS, publication_rows=PUBLICATIONS):
    researchers = ["researcher_id,institution_id,field_code,rank,years_active"]
    researchers += [
        f"{rid},{inst},Biochemistry,{rank},{years}"
        for rid, inst, rank, years in researcher_rows
    ]
    publications = ["publication_id,year,subject_category,citations,authors"]
    publications += [
        f"{pid},{year},Biochemistry,{cites},{authors}"
        for pid, year, cites, authors in publication_rows
    ]
    baselines = ["year,subject_category,mean_citations"]
    baselines += [f"{year},Biochemistry,{mean}" for year, mean in BASELINE.items()]

    paths = {}
    for name, lines in (
        ("researchers", researchers),
        ("publications", publications),
        ("baselines", baselines),
    ):
        path = directory / f"{name}.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths[name] = str(path)
    return paths


def assess_args(paths, out_dir, extra=()):
    return [
        "assess",
        "--researchers", paths["researchers"],
        "--publications", paths["publications"],
        "--baselines", paths["baselines"],
        "--report", str(out_dir / "report.json"),
        "--funnel-svg", str(out_dir / "funnel.svg"),
        "--qq-svg", str(out_dir / "qq.svg"),
        "--caterpillar-svg", str(out_dir / "caterpillar.svg"),
        *extra,
    ]


def test_end_to_end_fixture_matches_spreadsheet_oracle(tmp_path, capsys):
    paths = write_fixture(tmp_path)
    assert main(assess_args(paths, tmp_path)) == 0
    out = capsys.readouterr().out
    assert "dropped 1 researchers" in out

    report = json.loads((tmp_path / "report.json").read_text())
    institutions = report["institutions"]
    assert [i["id"] for i in institutions] == ["A", "B", "C"]
    assert all(i["size"] == 5 for i in institutions)

    expected = expected_institution_means()
    for entry in institutions:
        assert math.isclose(
            entry["mean_original"], expected[entry["id"]], rel_tol=1e-12
        )
        assert entry["classification"] in {
            "within", "above_inner", "above_outer", "below_inner", "below_outer"
        }
        assert entry["rank_with_caveat"]["rank"] in (1, 2, 3)
        assert "caveat" in entry["rank_with_caveat"]

    assert report["transform"]["delta"] > 0
    assert report["fit"]["total_n"] == 15
    assert report["fit"]["group_count"] == 3

    for svg_name in ("funnel.svg", "qq.svg", "caterpillar.svg"):
        root = ET.fromstring((tmp_path / svg_name).read_text())
        assert root.tag.endswith("svg")
    funnel_root = ET.fromstring((tmp_path / "funnel.svg").read_text())
    markers = [e for e in funnel_root.iter() if e.get("class", "").startswith("marker")]
    assert len(markers) == 3


def test_end_to_end_runs_are_byte_identical(tmp_path):
    paths = write_fixture(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    out_a.mkdir(), out_b.mkdir()
    assert main(assess_args(paths, out_a, extra=["--quiet"])) == 0
    assert main(assess_args(paths, out_b, extra=["--quiet"])) == 0
    for name in ("report.json", "funnel.svg", "qq.svg", "caterpillar.svg"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_duplicate_researcher_id_names_id_and_line(tmp_path, capsys):
    paths = write_fixture(tmp_path)
    content = (tmp_path / "researchers.csv").read_text().rstrip("\n")
    (tmp_path / "researchers.csv").write_text(
        content + "\na1,A,Biochemistry,Assistant,4\n", encoding="utf-8"
    )
    assert main(assess_args(paths, tmp_path)) == 1
    err = capsys.readouterr().err
    assert "a1" in err and ":18" in err
    assert not (tmp_path / "report.json").exists()


def test_byte_order_mark_is_accepted(tmp_path):
    # Spreadsheet exports often start with a UTF-8 byte order mark.
    paths = write_fixture(tmp_path)
    config = tmp_path / "config.txt"
    config.write_text("min_faculty=4\n", encoding="utf-8")
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.mkdir(), marked.mkdir()
    extra = ["--config", str(config), "--quiet"]
    assert main(assess_args(paths, plain, extra)) == 0
    for name in ("researchers", "publications", "baselines"):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    config.write_bytes(b"\xef\xbb\xbf" + config.read_bytes())
    assert main(assess_args(paths, marked, extra)) == 0
    for name in ("report.json", "funnel.svg", "qq.svg", "caterpillar.svg"):
        assert (marked / name).read_bytes() == (plain / name).read_bytes()


def test_padded_ids_match_as_unpadded(tmp_path):
    # Spreadsheet exports often pad cells: researcher and institution ids
    # match whether they are padded in researchers.csv, in a byline or in both.
    plain, padded = tmp_path / "plain", tmp_path / "padded"
    plain.mkdir(), padded.mkdir()
    assert main(assess_args(write_fixture(plain), plain, ["--quiet"])) == 0
    researchers = [(f" {rid} ", f"{inst}  ", *rest) for rid, inst, *rest in RESEARCHERS]
    publications = [(*row, cell.replace(":", " : ")) for *row, cell in PUBLICATIONS]
    paths = write_fixture(padded, researchers, publications)
    assert "1 : a1 : A;2 : a2 : A" in (padded / "publications.csv").read_text()
    assert main(assess_args(paths, padded, ["--quiet"])) == 0
    for name in ("report.json", "funnel.svg", "qq.svg", "caterpillar.svg"):
        assert (padded / name).read_bytes() == (plain / name).read_bytes()


@pytest.mark.parametrize("padded_file", ["publications.csv", "baselines.csv"])
def test_padded_subject_categories_match_as_unpadded(tmp_path, padded_file):
    # A category is stripped as ids are, so it still finds its baseline.
    plain, padded = tmp_path / "plain", tmp_path / "padded"
    plain.mkdir(), padded.mkdir()
    assert main(assess_args(write_fixture(plain), plain, ["--quiet"])) == 0
    paths = write_fixture(padded)
    path = padded / padded_file
    text = path.read_text(encoding="utf-8")
    assert text.count(",Biochemistry,") == text.count("\n") - 1
    path.write_text(text.replace(",Biochemistry,", ", Biochemistry  ,"), encoding="utf-8")
    assert main(assess_args(paths, padded, ["--quiet"])) == 0
    for name in ("report.json", "funnel.svg", "qq.svg", "caterpillar.svg"):
        assert (padded / name).read_bytes() == (plain / name).read_bytes()


def test_field_over_the_csv_size_limit_is_a_parse_error(tmp_path, capsys):
    # csv refuses a field over 131,072 characters; the run names the line the
    # row starts on instead of ending in a traceback.
    limit = csv.field_size_limit()
    byline = ";".join(["1:a1:A"] + [f"{i}:-:ext{i % 30}" for i in range(2, 16_001)])
    assert len(byline) > limit
    paths = write_fixture(tmp_path, publication_rows=PUBLICATIONS + [("q17", 2008, 1, byline)])
    assert main(assess_args(paths, tmp_path)) == 1
    line = len(PUBLICATIONS) + 2
    assert capsys.readouterr().err == (
        f"error: {paths['publications']}:{line}: column 'publication_id': "
        f"unreadable row: field larger than field limit ({limit})\n"
    )
    assert csv.field_size_limit() == limit
    assert not (tmp_path / "report.json").exists()


# Every check validation makes, but a duplicate researcher id, which the
# reader rejects first.
DEFECTIVE_RESEARCHERS = RESEARCHERS + [("zz", "B", "Full", 9)]  # 9 > 5 years
DEFECTIVE_PUBLICATIONS = PUBLICATIONS + [
    ("q20", 2008, 3, "1:a1:A;2:ghost:A"),  # unknown researcher
    ("q21", 2009, 3, "1:a2:A;3:-:X"),  # positions skip 2
    ("q22", 2008, 3, "1:b1:B;2:-:X;3:b1:B"),  # repeated author
    ("q23", 2011, 3, "1:c1:C"),  # no 2011 baseline
    ("q03", 2008, 4, "1:c2:C"),  # repeated publication id
]


def test_cli_and_library_report_the_same_violations_in_order(tmp_path, capsys):
    paths = write_fixture(tmp_path, DEFECTIVE_RESEARCHERS, DEFECTIVE_PUBLICATIONS)
    assert main(assess_args(paths, tmp_path)) == 1
    printed = capsys.readouterr().err.splitlines()

    researchers = [
        ResearcherRecord(rid, inst, "Biochemistry", rank, years)
        for rid, inst, rank, years in DEFECTIVE_RESEARCHERS
    ]
    publications = [
        PublicationRecord(pid, year, "Biochemistry", cites, tuple(
            AuthorSlot(int(position), None if rid == "-" else rid, inst)
            for position, rid, inst in (slot.split(":") for slot in cell.split(";"))
        ))
        for pid, year, cites, cell in DEFECTIVE_PUBLICATIONS
    ]
    baselines = CitationBaseline({(year, "Biochemistry"): mean for year, mean in BASELINE.items()})
    with pytest.raises(ValidationErrors) as exc:
        validate_dataset(researchers, publications, baselines, AssessmentConfig())

    assert len(exc.value.errors) == 6
    assert printed == [f"error: {violation}" for violation in exc.value.errors]


def test_missing_baselines_file_is_io_error(tmp_path, capsys):
    paths = write_fixture(tmp_path)
    paths["baselines"] = str(tmp_path / "nowhere.csv")
    assert main(assess_args(paths, tmp_path)) == 2
    assert "nowhere.csv" in capsys.readouterr().err


def test_validation_failure_reports_all_errors_and_writes_nothing(tmp_path, capsys):
    paths = write_fixture(tmp_path)
    pubs = (tmp_path / "publications.csv").read_text().rstrip("\n")
    pubs += "\nq90,2010,Biochemistry,5,1:a1:A"   # missing baseline
    pubs += "\nq91,2008,Biochemistry,5,1:zz:A\n"  # unknown researcher
    (tmp_path / "publications.csv").write_text(pubs, encoding="utf-8")
    assert main(assess_args(paths, tmp_path)) == 1
    err = capsys.readouterr().err
    assert "2010" in err and "zz" in err
    assert not (tmp_path / "report.json").exists()
    assert not (tmp_path / "funnel.svg").exists()


def test_years_active_beyond_period_is_rejected(tmp_path, capsys):
    paths = write_fixture(tmp_path)
    content = (tmp_path / "researchers.csv").read_text().rstrip("\n")
    (tmp_path / "researchers.csv").write_text(
        content + "\nzz,A,Biochemistry,Assistant,9\n", encoding="utf-8"
    )
    assert main(assess_args(paths, tmp_path)) == 1
    assert "zz" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, fragment",
    [
        ("unknown_key=3", "unknown configuration key"),
        ("min_faculty=lots", "bad value"),
        ("band_z_levels=3,2", "strictly increasing"),
        ("min_faculty=4\nmin_faculty=5", "'min_faculty': key given twice"),
        ("grand_mean_mode=median", "'grand_mean_mode': expected one of"),
        ("delta_bracket=0.5", "'delta_bracket': expected"),
        # A broken invariant is named at the first line by which the lines
        # read so far break it.
        ("min_faculty=2\n# note\nband_z_levels=3,2", "config.txt:3: column 'band_z_levels'"),
        ("period_start=2010\nperiod_end=2009", "config.txt:2: column 'period_end'"),
        # The first line alone breaks the period rule, but the second mends it.
        ("period_start=2015\nperiod_end=2020\ndelta_bracket=2,1",
         "config.txt:3: column 'delta_bracket'"),
        ("salary_coefficient_full=0\nmin_faculty=2",
         "config.txt:1: column 'salary_coefficient_full'"),
        # JSON holds no NaN or infinity, so a non-finite value fails here
        # rather than after the whole run.
        ("min_faculty=2\nsalary_coefficient_full=nan",
         "config.txt:2: column 'salary_coefficient_full': salary_coefficients must be finite"),
        ("salary_coefficient_full=inf", "config.txt:1: column 'salary_coefficient_full'"),
        ("band_z_levels=2,inf",
         "config.txt:1: column 'band_z_levels': band_z_levels must be finite"),
        ("delta_bracket=1e-9,inf",
         "config.txt:1: column 'delta_bracket': delta_bracket must be finite"),
        ("skewness_tolerance=nan",
         "config.txt:1: column 'skewness_tolerance': skewness_tolerance must be finite"),
        # An inner and an outer level, no more: a middle one would go unused.
        ("band_z_levels=1,2,3",
         "config.txt:1: column 'band_z_levels': expected 2 values, got '1,2,3'"),
        # Numbers follow the rules of number cells: no underscore, ASCII only.
        ("min_faculty=1_0", "config.txt:1: column 'min_faculty': bad value '1_0'"),
        ("min_faculty=2\nperiod_start=\uff12\uff10\uff10\uff18",
         "config.txt:2: column 'period_start': bad value '\uff12\uff10\uff10\uff18'"),
        ("skewness_tolerance=1_0e-9",
         "config.txt:1: column 'skewness_tolerance': bad value '1_0e-9'"),
    ],
)
def test_config_file_errors(tmp_path, capsys, line, fragment):
    paths = write_fixture(tmp_path)
    config = tmp_path / "config.txt"
    config.write_text(line + "\n", encoding="utf-8")
    code = main(assess_args(paths, tmp_path, extra=["--config", str(config)]))
    assert code == 1
    assert fragment in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_config_file_overrides(tmp_path):
    paths = write_fixture(tmp_path)
    config = tmp_path / "config.txt"
    config.write_text(
        "# comment line\nmin_faculty=4\nband_z_levels=1.5,2.5\n", encoding="utf-8"
    )
    assert main(assess_args(paths, tmp_path, extra=["--config", str(config), "--quiet"])) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["config"]["min_faculty"] == 4
    assert report["config"]["band_z_levels"] == [1.5, 2.5]
    assert report["institutions"][0]["inner_band"]["z"] == 1.5


NON_DEFAULT_CONFIG = """\
period_start=2007
period_end=2013
min_years_active=2
min_faculty=4
salary_coefficient_assistant=1.1
salary_coefficient_associate=1.5
salary_coefficient_full=2.5
band_z_levels=1.5,3.5
delta_bracket=1e-8,20
skewness_tolerance=1e-10
weighting_scheme=uniform
grand_mean_mode=group_means
skewness_target=institution_means
"""


def test_config_file_round_trips_every_key(tmp_path):
    paths = write_fixture(tmp_path)
    config = tmp_path / "config.txt"
    config.write_text(NON_DEFAULT_CONFIG, encoding="utf-8")
    assert parse_config_file(str(config)) == AssessmentConfig(
        period_start=2007,
        period_end=2013,
        min_years_active=2,
        min_faculty=4,
        salary_coefficients={Rank.ASSISTANT: 1.1, Rank.ASSOCIATE: 1.5, Rank.FULL: 2.5},
        band_z_levels=(1.5, 3.5),
        delta_bracket=(1e-8, 20.0),
        skewness_tolerance=1e-10,
        weighting_scheme=WeightingScheme.UNIFORM,
        grand_mean_mode="group_means",
        skewness_target="institution_means",
    )
    assert main(assess_args(paths, tmp_path, extra=["--config", str(config), "--quiet"])) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["config"] == {
        "period_start": 2007,
        "period_end": 2013,
        "min_years_active": 2,
        "min_faculty": 4,
        "salary_coefficients": {"Assistant": 1.1, "Associate": 1.5, "Full": 2.5},
        "band_z_levels": [1.5, 3.5],
        "delta_bracket": [1e-8, 20.0],
        "skewness_tolerance": 1e-10,
        "weighting_scheme": "uniform",
        "grand_mean_mode": "group_means",
        "skewness_target": "institution_means",
    }
    assert list(report["config"]) == list(AssessmentConfig._fields)


def test_degenerate_pipeline_is_exit_three(tmp_path, capsys):
    # All-zero productivity: the transform cannot run on a constant sample.
    paths = write_fixture(tmp_path)
    header, *rows = (tmp_path / "publications.csv").read_text().splitlines()
    (tmp_path / "publications.csv").write_text(header + "\n", encoding="utf-8")
    assert main(assess_args(paths, tmp_path)) == 3
    assert "pipeline" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_no_more_researchers_than_institutions_is_exit_three(tmp_path, capsys):
    # One researcher in each of three institutions: the pooled fit has no
    # degree of freedom left for the spread within institutions.
    paths = write_fixture(
        tmp_path,
        [row for row in RESEARCHERS if row[0] in ("a1", "b1", "c2")],
        [row for row in PUBLICATIONS if row[0] in ("q01", "q08", "q14")],
    )
    config = tmp_path / "config.txt"
    config.write_text("min_faculty=1\n", encoding="utf-8")
    assert main(assess_args(paths, tmp_path, ["--config", str(config)])) == 3
    assert capsys.readouterr().err == (
        "error: pipeline failed: pooled fit needs more observations than groups (N=3, J=3)\n"
    )
    assert not (tmp_path / "report.json").exists()


def test_zero_pooled_sd_is_exit_three(tmp_path, capsys):
    # Every researcher of an institution has the same FSS, and the
    # institutions differ: the pooled SD is 0.
    paths = write_fixture(tmp_path)
    researchers = ["researcher_id,institution_id,field_code,rank,years_active"]
    publications = ["publication_id,year,subject_category,citations,authors"]
    for inst, size, citations in (("A", 3, 2), ("B", 2, 10), ("C", 4, 20)):
        for i in range(size):
            rid = f"{inst.lower()}{i}"
            researchers.append(f"{rid},{inst},Biochemistry,Assistant,4")
            publications.append(f"p{rid},2008,Biochemistry,{citations},1:{rid}:{inst}")
    for name, lines in (("researchers", researchers), ("publications", publications)):
        (tmp_path / f"{name}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = tmp_path / "config.txt"
    config.write_text("min_faculty=2\n", encoding="utf-8")
    assert main(assess_args(paths, tmp_path, ["--config", str(config)])) == 3
    assert "pooled SD is 0" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "citations, mean, code, message",
    [
        ("1" + "0" * 400, "5.0", 3,
         "pipeline failed: FSS of researcher 'a1' is too large for a float"),
        ("1" + "0" * 307, "0.001", 3,
         "pipeline failed: FSS of researcher 'a1' is too large for a float"),
        # Past int()'s 4,300 digits the cell is read, and rejected, as any
        # other number cell is, and shown cut to 100 characters.
        ("1" + "0" * 5000, "5.0", 1,
         "{publications}:2: column 'citations': not an integer: '1"
         + "0" * 98 + "... (5001 characters)"),
    ],
    ids=["count-beyond-a-float", "impact-beyond-a-float", "count-beyond-int-text"],
)
def test_a_score_too_large_for_a_float_is_one_error_line(tmp_path, citations, mean, code, message):
    # Row q01 (2008, by a1): its count alone, or its count over a small
    # baseline, is past a float's range. The command line runs in a child, so
    # an uncaught exception would show as a traceback on its stderr.
    paths = write_fixture(tmp_path)
    publications = tmp_path / "publications.csv"
    publications.write_text(publications.read_text().replace(
        "q01,2008,Biochemistry,10,", f"q01,2008,Biochemistry,{citations},"
    ))
    baselines = tmp_path / "baselines.csv"
    baselines.write_text(
        baselines.read_text().replace("2008,Biochemistry,5.0", f"2008,Biochemistry,{mean}")
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fssfunnel.__file__)))
    result = subprocess.run(
        [sys.executable, "-m", "fssfunnel.cli", *assess_args(paths, tmp_path)],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == code
    assert "Traceback" not in result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: " + message.format(publications=publications))
    assert result.stdout == ""
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "header, column",
    [
        ("researcher_id,institution,field_code,rank,years_active", "institution"),
        ("researcher_id,institution_id,field_code,rank", "years_active"),
        ("researcher_id,institution_id,field_code,rank,years_active,note", "note"),
        ("x" * 5000, "x" * 5000),
    ],
    ids=["renamed", "missing", "extra", "long"],
)
def test_a_header_that_differs_is_named_by_its_first_differing_column(tmp_path, header, column):
    path = tmp_path / "researchers.csv"
    path.write_text(f"{header}\nr1,A,Biochemistry,Full,3\n", encoding="utf-8")
    with pytest.raises(ParseError) as caught:
        read_researchers_csv(str(path))
    assert caught.value.column == column
    assert str(caught.value).endswith(
        ": expected header researcher_id,institution_id,field_code,rank,years_active"
    )
    assert len(str(caught.value)) < len(str(path)) + 250


# Texts that input files hold by mistake, or that sit at a reader's edges: a
# float's range, int()'s digit limit, a byte that is not UTF-8, line ends,
# quoting and the byline's separators.
MUTATION_TOKENS = [
    b"1e308", b"1" + b"0" * 400, b"1" * 4301, b"nan", b"-0", b"\xff", b"\r", b"\n", b'"',
    b",", b";", b":", b"-", b"\x00", b"",
]
# The longest stderr line that a run may print beyond its file's path: two
# input texts each shown cut to errors._SHOWN characters, and fixed words.
MAX_LINE_BEYOND_PATH = 400


# Edits of the fixture's files, its config included: each cuts up to three
# bytes at one place of one file and puts a token there.
fixture_edits = st.lists(
    st.tuples(
        st.sampled_from(["researchers", "publications", "baselines", "config"]),
        st.integers(0, 2000),
        st.integers(0, 3),
        st.sampled_from(MUTATION_TOKENS),
    ),
    min_size=1,
    max_size=4,
)


@given(fixture_edits)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_no_input_ends_in_a_traceback_or_an_unbounded_line(tmp_path_factory, edits):
    with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as name:
        directory = Path(name)
        paths = write_fixture(directory)
        paths["config"] = str(directory / "config.txt")
        Path(paths["config"]).write_text(NON_DEFAULT_CONFIG, encoding="utf-8")
        for file, at, cut, token in edits:
            data = Path(paths[file]).read_bytes()
            at %= len(data) + 1
            Path(paths[file]).write_bytes(data[:at] + token + data[at + cut:])
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(assess_args(paths, directory, ["--config", paths["config"]]))
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in stderr.getvalue()
        for line in stderr.getvalue().splitlines():
            assert len(line.replace(name, "")) <= MAX_LINE_BEYOND_PATH, line
        outputs = ["report.json", "funnel.svg", "qq.svg", "caterpillar.svg"]
        if code:
            assert not any((directory / output).exists() for output in outputs)


def test_failed_write_leaves_no_output(tmp_path, capsys):
    paths = write_fixture(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    args = assess_args(paths, out, ["--quiet"])
    args[args.index("--funnel-svg") + 1] = str(tmp_path / "missing" / "funnel.svg")
    assert main(args) == 2
    assert "funnel.svg" in capsys.readouterr().err
    assert list(out.iterdir()) == []

    # A successful run's outputs get the mode of a plain write.
    assert main(assess_args(paths, out, ["--quiet"])) == 0
    plain = out / "plain.txt"
    plain.write_text("x", encoding="utf-8")
    assert (out / "report.json").stat().st_mode == plain.stat().st_mode
    assert sorted(p.name for p in out.iterdir()) == [
        "caterpillar.svg", "funnel.svg", "plain.txt", "qq.svg", "report.json",
    ]


def test_output_path_that_is_a_directory_leaves_no_output(tmp_path, capsys):
    # The directory is the last output written, so every other output would
    # already be renamed into place if the check came at rename time.
    paths = write_fixture(tmp_path)
    out = tmp_path / "out"
    (out / "taken").mkdir(parents=True)
    args = assess_args(paths, out, ["--quiet"])
    args[args.index("--caterpillar-svg") + 1] = str(out / "taken")
    assert main(args) == 2
    assert "Is a directory" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["taken"]
    assert list((out / "taken").iterdir()) == []


@pytest.mark.parametrize(
    "first, second",
    [("--report", "--funnel-svg"), ("--qq-svg", "--caterpillar-svg")],
)
def test_two_output_flags_naming_one_file_is_usage_error(tmp_path, capsys, first, second):
    paths = write_fixture(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    args = assess_args(paths, out)
    args[args.index(first) + 1] = str(out / "same")
    # Spelled differently, the same file.
    args[args.index(second) + 1] = str(out / "." / "same")
    assert main(args) == 2
    err = capsys.readouterr().err
    assert f"{first} and {second} both name" in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "source, output, spelling",
    [
        ("--researchers", "--report", "{path}"),
        ("--publications", "--funnel-svg", "./{name}"),
        ("--config", "--caterpillar-svg", "./{name}"),
    ],
)
def test_output_flag_naming_an_input_file_is_usage_error(
    tmp_path, capsys, monkeypatch, source, output, spelling
):
    paths = write_fixture(tmp_path)
    config = tmp_path / "config.txt"
    config.write_text("min_faculty=4\n", encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    args = assess_args(paths, out, ["--config", str(config)])
    target = Path(args[args.index(source) + 1])
    args[args.index(output) + 1] = spelling.format(path=target, name=target.name)
    monkeypatch.chdir(tmp_path)
    inputs = {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    assert main(args) == 2
    assert capsys.readouterr().err == (
        f"error: {source} and {output} both name {args[args.index(output) + 1]}\n"
    )
    assert {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == inputs
    assert list(out.iterdir()) == []


def test_failure_while_building_a_later_output_leaves_no_output(tmp_path, capsys):
    # Two institutions: the report and the funnel figure are built and
    # written to temp files, then the quantile plot, which needs three, fails.
    paths = write_fixture(
        tmp_path,
        [row for row in RESEARCHERS if row[1] != "C"],
        [row for row in PUBLICATIONS if not row[3].endswith(":C")],
    )
    out = tmp_path / "out"
    out.mkdir()
    assert main(assess_args(paths, out)) == 3
    assert capsys.readouterr().err == (
        "error: pipeline failed: quantile plot needs at least 3 adjusted means\n"
    )
    assert list(out.iterdir()) == []


NO_QQ_WARNING = (
    "warning: no quantile plot (qq_points is empty): it needs at least 3 "
    "institutions whose adjusted means are not all equal\n"
)
NO_SLOPE_WARNING = (
    "warning: no size regression (size_slope is null): it needs at least 3 "
    "institutions, not all of one size\n"
)


@pytest.mark.parametrize("quiet", [False, True])
def test_skipped_diagnostics_are_warnings(tmp_path, capsys, quiet):
    # Two institutions: the report is written without a quantile plot or a
    # size regression, and the run says so on stderr, --quiet or not.
    paths = write_fixture(
        tmp_path,
        [row for row in RESEARCHERS if row[1] != "C"],
        [row for row in PUBLICATIONS if not row[3].endswith(":C")],
    )
    args = assess_args(paths, tmp_path, ["--quiet"] if quiet else [])
    at = args.index("--qq-svg")
    del args[at:at + 2]
    assert main(args) == 0
    assert capsys.readouterr().err == NO_QQ_WARNING + NO_SLOPE_WARNING
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["diagnostics"]["qq_points"] == []
    assert report["diagnostics"]["size_slope"] is None
    assert report["transform"]["converged"] is True


def test_unconverged_shift_is_a_warning(tmp_path, capsys):
    # Fourteen small values and one of 50,000: ln(x + delta) stays right-skewed
    # for every delta up to the bracket cap, so the shift cannot converge.
    researchers, publications = [], []
    for i, citations in enumerate([*range(1, 15), 10**6]):
        rid, inst = f"r{i:02d}", "ABC"[(i >= 4) + (i >= 9)]  # 4, 5 and 6 members
        researchers.append((rid, inst, "Assistant", 4))
        publications.append((f"p{i:02d}", 2008, citations, f"1:{rid}:{inst}"))
    paths = write_fixture(tmp_path, researchers, publications)
    config = tmp_path / "config.txt"
    config.write_text("min_faculty=4\n", encoding="utf-8")
    outputs = []
    for quiet in (False, True):
        out = tmp_path / str(quiet)
        out.mkdir()
        args = assess_args(paths, out, ["--config", str(config)] + ["--quiet"] * quiet)
        assert main(args) == 0
        err = capsys.readouterr().err
        assert err.startswith(
            "warning: the zero-skewness shift did not converge: skewness 3.14 at "
            "delta=1e-09 after searching [1e-09, 1e+06]"
        )
        assert err.count("\n") == 1 and err.endswith("\n")
        outputs.append((out / "report.json").read_bytes())
    assert outputs[0] == outputs[1]
    transform = json.loads(outputs[0])["transform"]
    assert transform["converged"] is False and transform["delta"] == 1e-9


def test_synth_into_a_path_under_a_file_is_io_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x", encoding="utf-8")
    code = main(["synth", "--out-dir", str(blocker / "sub"), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "sub" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


def run_python(script: str) -> list[str]:
    """Words printed by ``script`` run in a fresh interpreter on this package."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fssfunnel.__file__)))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    return result.stdout.split()


# Each costs a cold process milliseconds that the default pipeline has no use
# for: numpy.ma came with np.unique, statistics, fractions and decimal with
# NormalDist, dataclasses and inspect (with ast, dis and tokenize) with the
# records, the rest with xml.sax.saxutils.
UNUSED_MODULES = (
    "numpy.ma", "xml.sax", "urllib.request", "http.client", "ssl", "email",
    "statistics", "fractions", "decimal",
    "dataclasses", "inspect", "ast", "dis", "tokenize",
)


def test_default_run_does_not_import_numpy_ma(tmp_path):
    paths = write_fixture(tmp_path)
    script = (
        "import sys\n"
        "from fssfunnel.cli import main\n"
        f"code = main({assess_args(paths, tmp_path, ['--quiet'])!r})\n"
        f"print(code, *[name for name in {UNUSED_MODULES!r} if name in sys.modules])\n"
    )
    assert run_python(script) == ["0"]


def test_importing_the_cli_loads_no_unused_module():
    script = f"import sys, fssfunnel.cli; print(*[m for m in {UNUSED_MODULES!r} if m in sys.modules])"
    assert run_python(script) == []


def test_importing_the_cli_loads_no_typing():
    # Without site, whose hooks may load typing on their own: typing.NamedTuple
    # or a run-time annotation would cost every run milliseconds.
    src = os.path.dirname(os.path.dirname(fssfunnel.__file__))
    script = (
        f"import sys; sys.path.insert(0, {src!r}); import fssfunnel.cli; "
        "print('typing' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, check=True
    )
    assert result.stdout.split() == ["False"]


def test_synth_runs_without_numpy(tmp_path):
    # synth draws with the standard library's random, so it needs no numpy
    # and writes what the library call writes with the same seed.
    script = (
        "import sys; sys.modules['numpy'] = None\n"
        "from fssfunnel.cli import main\n"
        f"sys.exit(main(['synth', '--out-dir', {str(tmp_path / 'cli')!r}, '--seed', '7']))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fssfunnel.__file__)))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    names = ["researchers.csv", "publications.csv", "baselines.csv", "config.txt"]
    assert sorted(p.name for p in (tmp_path / "cli").iterdir()) == sorted(names)
    generate_synthetic_dataset(str(tmp_path / "library"), seed=7)
    for name in names:
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "library" / name).read_bytes()


def test_neither_import_nor_assess_loads_numpy(tmp_path):
    # Only synth draws random numbers. numpy would cost every assess run
    # about 150 ms of start-up and 14 MB of peak RSS, and compiling the
    # generator's module a few ms more.
    paths = write_fixture(tmp_path)
    loaded = "print('numpy' in sys.modules, 'fssfunnel.synth' in sys.modules)\n"
    script = (
        "import sys\n"
        "import fssfunnel.cli\n"
        + loaded
        + f"code = fssfunnel.cli.main({assess_args(paths, tmp_path, ['--quiet'])!r})\n"
        "print(code)\n"
        + loaded
    )
    assert run_python(script) == ["False", "False", "0", "False", "False"]


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("case, code", [("ok", 0), ("duplicate", 1), ("degenerate", 3)])
def test_main_restores_the_collector_state(tmp_path, enabled, case, code):
    paths = write_fixture(tmp_path)
    publications = tmp_path / "publications.csv"
    if case == "duplicate":
        publications.write_text(publications.read_text() + "q01,2008,Biochemistry,1,1:a1:A\n")
    elif case == "degenerate":
        publications.write_text(publications.read_text().splitlines()[0] + "\n")
    was_enabled = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert main(assess_args(paths, tmp_path, ["--quiet"])) == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_paused_collector_leaves_cycles_independent_of_input_size(tmp_path):
    # A run keeps the collector off throughout, so what it cannot free must
    # not grow with the input: one fixture and one four times its size leave
    # the same number of unreachable objects.
    counts = []
    for name, institutions, total in (("one", 42, 877), ("four", 168, 3508)):
        out = tmp_path / name
        assert main([
            "synth", "--out-dir", str(out), "--institutions", str(institutions),
            "--total", str(total), "--quiet",
        ]) == 0
        args = [
            "assess", "--researchers", str(out / "researchers.csv"),
            "--publications", str(out / "publications.csv"),
            "--baselines", str(out / "baselines.csv"),
            "--config", str(out / "config.txt"),
            "--report", str(out / "report.json"), "--quiet",
        ]
        script = (
            "import gc\n"
            "from fssfunnel.cli import main\n"
            "gc.collect()\n"
            "phases = []\n"
            "gc.callbacks.append(lambda phase, info: phases.append(phase))\n"
            f"code = main({args!r})\n"
            "print(code, gc.isenabled(), len(phases), gc.collect())\n"
        )
        code, enabled, collections, unreachable = run_python(script)
        assert (code, enabled, collections) == ("0", "True", "0")
        counts.append(int(unreachable))
    assert counts[0] == counts[1]


def test_input_records_are_freed_before_the_report_is_built(tmp_path, monkeypatch):
    def alive() -> int:
        return sum(isinstance(obj, PublicationRecord) for obj in gc.get_objects())

    build = fssfunnel.cli.build_funnel_report
    seen = []

    def counting_build(values_by_institution, config):
        seen.append(alive())
        return build(values_by_institution, config)

    monkeypatch.setattr(fssfunnel.cli, "build_funnel_report", counting_build)
    paths = write_fixture(tmp_path)
    before = alive()
    assert main(assess_args(paths, tmp_path, ["--quiet"])) == 0
    assert seen == [before]


def test_researcher_records_are_freed_before_the_outputs_are_built(tmp_path, monkeypatch):
    def alive() -> int:
        return sum(isinstance(obj, ResearcherRecord) for obj in gc.get_objects())

    emit = fssfunnel.cli.emit_report
    seen = []

    def counting_emit(report):
        seen.append(alive())
        return emit(report)

    monkeypatch.setattr(fssfunnel.cli, "emit_report", counting_emit)
    paths = write_fixture(tmp_path)
    before = alive()
    assert main(assess_args(paths, tmp_path, ["--quiet"])) == 0
    assert seen == [before]


def test_output_stage_holds_under_one_and_three_quarter_copies_of_the_report(
    tmp_path, monkeypatch
):
    # 2,000 institutions of 2-3 researchers: the outputs outgrow the inputs.
    fixture = tmp_path / "fixture"
    assert main([
        "synth", "--out-dir", str(fixture), "--institutions", "2000",
        "--size-min", "2", "--size-max", "3", "--total", "5000", "--quiet",
    ]) == 0
    (fixture / "config.txt").write_text("min_faculty=2\n", encoding="utf-8")
    paths = {name: str(fixture / f"{name}.csv")
             for name in ("researchers", "publications", "baselines")}

    build = fssfunnel.cli.build_funnel_report
    traced_at_report = []

    def build_then_reset_peak(values_by_institution, config):
        report = build(values_by_institution, config)
        tracemalloc.reset_peak()
        traced_at_report.append(tracemalloc.get_traced_memory()[0])
        return report

    monkeypatch.setattr(fssfunnel.cli, "build_funnel_report", build_then_reset_peak)
    args = assess_args(paths, tmp_path, ["--config", str(fixture / "config.txt"), "--quiet"])
    tracemalloc.start()
    try:
        assert main(args) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Every output is built, written and dropped in turn, and the report, the
    # largest, is copied once from its pieces: the output stage's peak is the
    # text and the pieces, which hold each entry's variable part and share
    # every fixed and band text, not several whole copies.
    length = len((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert peak - traced_at_report[0] <= 1.7 * length


def test_publication_reader_peaks_near_the_size_it_returns(tmp_path):
    # Only external slot texts recur often enough to memoize. Researcher slot
    # texts seldom recur, so a memo of them would hold about one entry per
    # such slot, kept until the call returns.
    assert main(["synth", "--out-dir", str(tmp_path), "--quiet"]) == 0
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        records = read_publications_csv(str(tmp_path / "publications.csv"))
        returned, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert records
    assert peak - before <= 1.3 * (returned - before)


def test_repeated_publication_id_is_rejected(tmp_path, capsys):
    paths = write_fixture(tmp_path)
    publications = tmp_path / "publications.csv"
    rows = publications.read_text().splitlines()
    publications.write_text("\n".join(rows + [rows[3]]) + "\n", encoding="utf-8")
    assert main(assess_args(paths, tmp_path)) == 1
    assert capsys.readouterr().err == "error: duplicate publication id 'q03'\n"
    assert not (tmp_path / "report.json").exists()


def test_padded_publication_id_is_a_duplicate(tmp_path, capsys):
    # Publication ids are stripped as researcher ids are, so a padded copy of
    # an id is the same id.
    rows = PUBLICATIONS + [("q03 ", 2008, 4, "1:c2:C")]
    paths = write_fixture(tmp_path, publication_rows=rows)
    assert main(assess_args(paths, tmp_path)) == 1
    assert capsys.readouterr().err == "error: duplicate publication id 'q03'\n"
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("pid", ["", "  "])
def test_blank_publication_id_names_its_file_line(tmp_path, capsys, pid):
    rows = PUBLICATIONS[:2] + [(pid, 2008, 4, "1:c2:C")] + PUBLICATIONS[2:]
    paths = write_fixture(tmp_path, publication_rows=rows)
    assert main(assess_args(paths, tmp_path)) == 1
    assert capsys.readouterr().err == (
        f"error: {paths['publications']}:4: column 'publication_id': must not be blank\n"
    )
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "text, shown", [("nan", "nan"), ("1e400", "inf"), ("0", "0.0"), ("-1", "-1.0")]
)
def test_bad_baseline_mean_names_its_line(tmp_path, text, shown):
    path = tmp_path / "baselines.csv"
    path.write_text(
        "year,subject_category,mean_citations\n"
        "2008,Biochemistry,5\n"
        f"2009,Biochemistry,{text}\n",
        encoding="utf-8",
    )
    with pytest.raises(ParseError) as caught:
        read_baselines_csv(str(path))
    assert str(caught.value) == (
        f"{path}:3: column 'mean_citations': must be finite and > 0, got {shown}"
    )


@pytest.mark.parametrize("with_baseline", [False, True])
def test_publication_outside_the_period_changes_no_byte(tmp_path, with_baseline):
    paths = write_fixture(tmp_path)
    before, after = tmp_path / "before", tmp_path / "after"
    before.mkdir(), after.mkdir()
    assert main(assess_args(paths, before, ["--quiet"])) == 0
    with open(paths["publications"], "a", encoding="utf-8") as handle:
        handle.write("q99,1990,Biochemistry,500,1:a1:A\n")
    if with_baseline:
        with open(paths["baselines"], "a", encoding="utf-8") as handle:
            handle.write("1990,Biochemistry,3.0\n")
    assert main(assess_args(paths, after, ["--quiet"])) == 0
    for name in ("report.json", "funnel.svg", "qq.svg", "caterpillar.svg"):
        assert (after / name).read_bytes() == (before / name).read_bytes()


@pytest.mark.parametrize(
    "name, old, new, message",
    [
        ("researchers.csv", b"a2,A,", b"a2,\xffA,",
         "researchers.csv:3: column 'institution_id': not UTF-8: byte 0xff"),
        ("publications.csv", b"q16,2009,", b"q16,20\xe909,",
         "publications.csv:17: column 'year': not UTF-8: byte 0xe9"),
        ("config.txt", b"min_faculty=4", b"min_faculty=\xff4",
         "config.txt:2: column 'min_faculty': not UTF-8: byte 0xff"),
    ],
    ids=["researchers", "publications", "config"],
)
def test_non_utf8_input_is_parse_error(tmp_path, capsys, name, old, new, message):
    paths = write_fixture(tmp_path)
    config = tmp_path / "config.txt"
    config.write_text("# faculty\nmin_faculty=4\n", encoding="utf-8")
    target = tmp_path / name
    target.write_bytes(target.read_bytes().replace(old, new))
    assert main(assess_args(paths, tmp_path, ["--config", str(config)])) == 1
    assert capsys.readouterr().err == f"error: {tmp_path / message}\n"
    assert not (tmp_path / "report.json").exists()


# Each file has a defect above a byte that is not UTF-8; the defect comes
# first in file order, so it is named, however the text is decoded.
@pytest.mark.parametrize(
    "read, data, message",
    [
        (read_researchers_csv,
         b"researcher_id,institution_id,field_code,rank,years_active\n"
         b"r1,A,Biochemistry,Full\nr2,A,Bio\xffchemistry,Full,3\n",
         "2: column 'researcher_id': expected 5 fields, got 4"),
        (read_researchers_csv,
         b"researcher_id,institution_id,field_code,rank,years_active\n"
         b"r1,A,Biochemistry,Full,3\nr1,A,Biochemistry,Full,3\nr2,A,Bio\xff,Full,3\n",
         "3: column 'researcher_id': duplicate researcher id 'r1' (first seen on line 2)"),
        (read_baselines_csv,
         b"year,subject_category,mean_citations\n2008,Biochemistry,0\n2009,Bio\xff,1\n",
         "2: column 'mean_citations': must be finite and > 0, got 0.0"),
        (parse_config_file, b"no_such_key=1\nmin_faculty=2\xff\n",
         "1: column 'no_such_key': unknown configuration key"),
        # Not the invariant of the lines above the byte: a later line may mend it.
        (parse_config_file, b"min_faculty=0\nmin_faculty=2\xff\n",
         "2: column 'min_faculty': not UTF-8: byte 0xff"),
    ],
    ids=["field-count", "duplicate-id", "baseline-mean", "config-key", "config-invariant"],
)
def test_a_defect_above_a_bad_byte_is_named_first(tmp_path, read, data, message):
    path = tmp_path / "input"
    path.write_bytes(data)
    with pytest.raises(ParseError) as caught:
        read(str(path))
    assert str(caught.value) == f"{path}:{message}"


# The byte lies past the reader's first decoded chunk, so the rows above it are
# checked before the text that holds it is decoded.
def test_a_defect_far_above_a_bad_byte_is_named_first(tmp_path):
    path = tmp_path / "researchers.csv"
    rows = "".join(f"r{i},A,Biochemistry,Full,3\n" for i in range(3000))
    path.write_bytes(
        f"researcher_id,institution_id,field_code,rank,years_active\n{rows}"
        "r7,A,Biochemistry,Full,3\nr9999,A,Bio".encode() + b"\xff,Full,3\n"
    )
    with pytest.raises(ParseError) as caught:
        read_researchers_csv(str(path))
    assert str(caught.value) == (
        f"{path}:3002: column 'researcher_id': duplicate researcher id 'r7' (first seen on line 9)"
    )


# A bad byte's line is counted with the line ends that number the rows:
# csv's for a CSV file, str.splitlines' for the config.
@pytest.mark.parametrize(
    "read, data, message",
    [
        (read_researchers_csv,
         b"researcher_id,institution_id,field_code,rank,years_active\r"
         b"r1,A,Biochemistry,Full,3\rr2,A,Bio\xffchemistry,Full,3\r",
         "3: column 'field_code': not UTF-8: byte 0xff"),
        (parse_config_file, b"min_faculty=4\rperiod_start=\xff\n",
         "2: column 'period_start': not UTF-8: byte 0xff"),
        # A lone CR inside a quoted field ends a line for csv, so the next row
        # starts on line 4.
        (read_baselines_csv,
         b'year,subject_category,mean_citations\n2008,"Plant\rscience",5\n2009,Bio\xff,1\n',
         "4: column 'subject_category': not UTF-8: byte 0xff"),
    ],
    ids=["researchers-cr", "config-cr", "baselines-quoted-cr"],
)
def test_a_bad_byte_is_named_at_the_line_its_row_is_counted_on(tmp_path, read, data, message):
    path = tmp_path / "input"
    path.write_bytes(data)
    with pytest.raises(ParseError) as caught:
        read(str(path))
    assert str(caught.value) == f"{path}:{message}"


# Runs main on argv[1] and prints its exit code and how often each input
# path in argv[2:] was opened.
OPEN_COUNTS = """\
import collections, json, sys
from fssfunnel.cli import main
inputs = set(sys.argv[2:])
opened = collections.Counter()
def count(event, args):
    if event == "open" and args[0] in inputs:
        opened[args[0]] += 1
sys.addaudithook(count)
code = main(json.loads(sys.argv[1]))
print(json.dumps([code, [opened[path] for path in sys.argv[2:]]]))
"""


@pytest.mark.parametrize("bad", [None, "researchers", "publications", "baselines", "config"])
def test_each_input_is_opened_once(tmp_path, bad):
    paths = write_fixture(tmp_path)
    paths["config"] = str(tmp_path / "config.txt")
    Path(paths["config"]).write_text("min_faculty=4\nperiod_start=2008\n", encoding="utf-8")
    names = ["researchers", "publications", "baselines", "config"]
    inputs = [paths[name] for name in names]
    if bad is not None:  # in the last row, found after every row above it is read
        target = Path(paths[bad])
        target.write_bytes(target.read_bytes()[:-2] + b"\xff\n")
    args = assess_args(paths, tmp_path, ["--config", paths["config"], "--quiet"])
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fssfunnel.__file__)))
    result = subprocess.run(
        [sys.executable, "-c", OPEN_COUNTS, json.dumps(args), *inputs],
        capture_output=True, text=True, env=env, check=True,
    )
    code, counts = json.loads(result.stdout)
    # Read in flag order, so a run stops opening files at the bad one.
    read = len(names) if bad is None else names.index(bad) + 1
    assert (code, counts) == (0 if bad is None else 1, [1] * read + [0] * (len(names) - read))


def test_parse_error_names_file_line_and_column(tmp_path, capsys):
    paths = write_fixture(tmp_path)
    content = (tmp_path / "publications.csv").read_text().replace("q01,2008,", "q01,round8,")
    (tmp_path / "publications.csv").write_text(content, encoding="utf-8")
    assert main(assess_args(paths, tmp_path)) == 1
    err = capsys.readouterr().err
    assert "publications.csv:2" in err and "year" in err


# Line 2 opens a quoted field that line 3 closes, so the next row is on line 4.
@pytest.mark.parametrize(
    "row, message",
    [
        ("r2,A,Biochemistry,Boss,3",
         "researchers.csv:4: column 'rank': "
         "expected one of Assistant/Associate/Full, got 'Boss'"),
        ("r1,A,Biochemistry,Full,3",
         "researchers.csv:4: column 'researcher_id': "
         "duplicate researcher id 'r1' (first seen on line 2)"),
        ("r2,,Biochemistry,Full,3",
         "researchers.csv:4: column 'institution_id': must not be blank"),
        (" ,A,Biochemistry,Full,3",
         "researchers.csv:4: column 'researcher_id': must not be blank"),
    ],
    ids=["bad-rank", "duplicate-id", "blank-institution", "blank-researcher"],
)
def test_researcher_errors_name_the_file_line_after_a_multiline_field(
    tmp_path, row, message
):
    path = tmp_path / "researchers.csv"
    path.write_text(
        "researcher_id,institution_id,field_code,rank,years_active\n"
        'r1,"Univ\nof X",Biochemistry,Full,3\n'
        f"{row}\n",
        encoding="utf-8",
    )
    with pytest.raises(ParseError) as caught:
        read_researchers_csv(str(path))
    assert str(caught.value) == f"{tmp_path / message}"


def test_publication_errors_name_the_file_line_after_a_multiline_field(tmp_path):
    path = tmp_path / "publications.csv"
    path.write_text(
        "publication_id,year,subject_category,citations,authors\n"
        'q01,2008,"Bio\nchemistry",10,1:a1:A\n'
        "\n"
        "q02,round8,Biochemistry,8,1:a1:A\n",
        encoding="utf-8",
    )
    with pytest.raises(ParseError) as caught:
        read_publications_csv(str(path))
    assert str(caught.value) == f"{path}:5: column 'year': not an integer: 'round8'"


NUMBER_FILES = {
    "researchers": ("researcher_id,institution_id,field_code,rank,years_active",
                    "r1,U01,Biochemistry,Full,{}"),
    "publications": ("publication_id,year,subject_category,citations,authors",
                     "q01,{},Biochemistry,8,1:r1:U01"),
    "citations": ("publication_id,year,subject_category,citations,authors",
                  "q01,2009,Biochemistry,{},1:r1:U01"),
    "byline": ("publication_id,year,subject_category,citations,authors",
               "q01,2009,Biochemistry,8,{}:r1:U01"),
    "baselines": ("year,subject_category,mean_citations", "{},Biochemistry,5"),
    "means": ("year,subject_category,mean_citations", "2009,Biochemistry,{}"),
}
READERS = {
    "researchers": read_researchers_csv,
    "publications": read_publications_csv,
    "citations": read_publications_csv,
    "byline": read_publications_csv,
    "baselines": read_baselines_csv,
    "means": read_baselines_csv,
}


@pytest.mark.parametrize(
    "kind, text, message",
    [
        ("researchers", "0_3", "column 'years_active': not an integer: '0_3'"),
        ("researchers", "\uff14", "column 'years_active': not an integer: '\uff14'"),
        ("researchers", "\u0663", "column 'years_active': not an integer: '\u0663'"),
        ("publications", "2_009", "column 'year': not an integer: '2_009'"),
        ("citations", "1_0", "column 'citations': not an integer: '1_0'"),
        ("byline", "1_0", "column 'authors': not an integer: '1_0'"),
        ("baselines", "2_009", "column 'year': not an integer: '2_009'"),
        ("means", "1_0.5", "column 'mean_citations': not a number: '1_0.5'"),
        ("means", "\uff11\uff10", "column 'mean_citations': not a number: '\uff11\uff10'"),
    ],
    ids=[
        "years-underscore", "years-full-width", "years-arabic-indic", "year-underscore",
        "citations-underscore", "position-underscore", "baseline-year-underscore",
        "mean-underscore", "mean-full-width",
    ],
)
def test_number_cells_take_ascii_digits_only(tmp_path, kind, text, message):
    header, row = NUMBER_FILES[kind]
    path = tmp_path / "cells.csv"
    path.write_text(f"{header}\n{row.format(text)}\n", encoding="utf-8")
    with pytest.raises(ParseError) as caught:
        READERS[kind](str(path))
    assert str(caught.value) == f"{path}:2: {message}"


def test_number_cells_take_padding_and_a_sign(tmp_path):
    header, row = NUMBER_FILES["researchers"]
    path = tmp_path / "researchers.csv"
    path.write_text(f"{header}\n{row.format(' +3 ')}\n", encoding="utf-8")
    assert read_researchers_csv(str(path))[0].years_active == 3
    path.write_text(f"{header}\n{row.format('-1')}\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"column 'years_active': must be >= 0, got -1$"):
        read_researchers_csv(str(path))
    header, row = NUMBER_FILES["means"]
    path = tmp_path / "baselines.csv"
    path.write_text(f"{header}\n{row.format(' 1.5e1 ')}\n", encoding="utf-8")
    assert read_baselines_csv(str(path)).entries == {(2009, "Biochemistry"): 15.0}


@pytest.mark.parametrize(
    "kind, good, bad, message",
    [
        ("researchers", "r1,U01,Biochemistry,Full,3", "r2,U01,Biochemistry,Full,\uff13",
         "column 'years_active': not an integer: '\uff13'"),
        ("publications", "q01,2009,Biochemistry,8,1:r1:U01", "q02,20_09,Biochemistry,8,1:r1:U01",
         "column 'year': not an integer: '20_09'"),
    ],
)
def test_a_bad_number_after_a_good_one_fails_at_its_own_line(
    tmp_path, kind, good, bad, message
):
    # Each distinct number text is converted once per call; a bad one is never kept.
    path = tmp_path / "cells.csv"
    path.write_text(f"{NUMBER_FILES[kind][0]}\n{good}\n{bad}\n", encoding="utf-8")
    with pytest.raises(ParseError) as caught:
        READERS[kind](str(path))
    assert str(caught.value) == f"{path}:3: {message}"


@pytest.mark.parametrize("year_first", [False, True], ids=["position-first", "year-first"])
def test_one_number_text_is_read_by_its_own_column(tmp_path, year_first):
    # A slot position is stripped before it is read, so "\u00a03" (a no-break
    # space, then 3) is position 3; a year is read as it stands, so the same
    # text fails. A memo shared by the two columns would carry one verdict
    # over to the other, whichever row comes first.
    header = NUMBER_FILES["publications"][0]
    position_row = "q01,2009,Biochemistry,8,1:r1:U01;2:-:X;\u00a03:-:X"
    year_row = "q02,\u00a03,Biochemistry,8,1:r1:U01"
    rows = [year_row, position_row] if year_first else [position_row, year_row]
    path = tmp_path / "publications.csv"
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as caught:
        read_publications_csv(str(path))
    line = 2 if year_first else 3
    assert str(caught.value) == f"{path}:{line}: column 'year': not an integer: '\\xa03'"
    path.write_text(f"{header}\n{position_row}\n", encoding="utf-8")
    [pub] = read_publications_csv(str(path))
    assert [slot.position for slot in pub.authors] == [1, 2, 3]


# Each bad cell sits on line 3, after line 2 parsed slots of similar text.
VALID_BYLINE = "1:a1:A;2:a2:A;3:-:X"


@pytest.mark.parametrize(
    "cell, reason",
    [
        ("1:a1:A;2:a2", "slot '2:a2' is not position:researcher_id:institution_id"),
        ("1:a1:A;2:a2:A:X", "slot '2:a2:A:X' is not position:researcher_id:institution_id"),
        ("1:a1:A;x:a2:A", "not an integer: 'x'"),
        ("1:a1:A; 2.0:a2:A", "not an integer: '2.0'"),
        ("0:a1:A;2:a2:A", "must be >= 1, got 0"),
        ("1:a1:A;2:a2:", "slot '2:a2:' has no institution"),
        ("1:a1:A;2:a2: ", "slot '2:a2: ' has no institution"),
        ("1:a1:A;2::A", "slot '2::A' has no researcher id"),
        ("1: :A;2:a2:A", "slot '1: :A' has no researcher id"),
        # Past int()'s 4,300-digit limit, read by the rule of every number cell.
        pytest.param(
            "1:a1:A;" + "1" * 5000 + ":a2:A",
            "not an integer: '" + "1" * 99 + "... (5000 characters)",
            id="position-past-the-digit-limit",
        ),
    ],
)
def test_byline_parse_errors_name_line_and_slot(tmp_path, cell, reason):
    path = tmp_path / "publications.csv"
    path.write_text(
        "publication_id,year,subject_category,citations,authors\n"
        f"q01,2008,Biochemistry,10,{VALID_BYLINE}\n"
        f'q02,2009,Biochemistry,8,"{cell}"\n',
        encoding="utf-8",
    )
    with pytest.raises(ParseError) as caught:
        read_publications_csv(str(path))
    assert caught.value.line == 3
    assert str(caught.value) == f"{path}:3: column 'authors': {reason}"


def test_byline_out_of_order_is_sorted_by_position(tmp_path):
    path = tmp_path / "publications.csv"
    path.write_text(
        "publication_id,year,subject_category,citations,authors\n"
        "q01,2008,Biochemistry,10,1:a1:A;2:a2:B\n"
        "q02,2009,Biochemistry,8,2:a2:B;1:a1:A\n"
        "q03,2009,Biochemistry,8, 2:-:X ;1:a1:A\n",
        encoding="utf-8",
    )
    first, second, third = read_publications_csv(str(path))
    expected = (AuthorSlot(1, "a1", "A"), AuthorSlot(2, "a2", "B"))
    assert first.authors == second.authors == expected
    assert third.authors == (AuthorSlot(1, "a1", "A"), AuthorSlot(2, None, "X"))


_PADDING = st.sampled_from(["", " ", "  "])


@st.composite
def byline_cells(draw):
    """A byline cell of padded researcher and ``-`` external slots in any
    position order, with at most one defect in one slot."""
    count = draw(st.integers(1, 6))
    positions = draw(st.permutations(range(1, count + 1)))
    parts = []
    for pos in positions:
        rid = draw(st.one_of(st.just("-"), st.from_regex(r"[a-z][a-z0-9_.-]{0,4}", fullmatch=True)))
        inst = draw(st.from_regex(r"[A-Z][A-Za-z0-9]{0,3}", fullmatch=True))
        pad = [draw(_PADDING) for _ in range(6)]
        parts.append([pos, rid, inst, f"{pad[0]}{pos}{pad[1]}:{pad[2]}{rid}{pad[3]}:{pad[4]}{inst}{pad[5]}"])
    defect = draw(st.one_of(st.none(), st.sampled_from(sorted(SLOT_DEFECTS))))
    if defect is not None:
        part = parts[draw(st.integers(0, count - 1))]
        part[3] = SLOT_DEFECTS[defect](*part[:3])
    return ";".join(part[3] for part in parts)


@given(byline_cells())
@example("1:a1:A; 2: :B")
@settings(max_examples=200, deadline=None, derandomize=True)
def test_byline_cells_parse_as_the_slot_grammar_says(tmp_path_factory, cell):
    path = tmp_path_factory.getbasetemp() / "bylines.csv"
    path.write_text(
        "publication_id,year,subject_category,citations,authors\n"
        f"q01,2008,Biochemistry,10,{VALID_BYLINE}\n"
        f'q02,2009,Biochemistry,8,"{cell}"\n',
        encoding="utf-8",
    )
    expected = [reference_slot(part) for part in cell.split(";")]
    reason = next((slot for slot in expected if isinstance(slot, str)), None)
    if reason is not None:
        with pytest.raises(ParseError) as caught:
            read_publications_csv(str(path))
        assert str(caught.value) == f"{path}:3: column 'authors': {reason}"
        return
    authors = read_publications_csv(str(path))[1].authors
    expected.sort(key=lambda slot: slot[0])
    assert authors == tuple(AuthorSlot(*slot) for slot in expected)


def test_readers_hold_each_repeated_value_once(tmp_path):
    researchers = tmp_path / "researchers.csv"
    researchers.write_text(
        "researcher_id,institution_id,field_code,rank,years_active\n"
        "a1,U01,Biochemistry,Full,4\n"
        "a2,U01,Biochemistry,Assistant,3\n",
        encoding="utf-8",
    )
    first, second = read_researchers_csv(str(researchers))
    assert first.institution_id is second.institution_id
    assert first.field_code is second.field_code

    publications = tmp_path / "publications.csv"
    publications.write_text(
        "publication_id,year,subject_category,citations,authors\n"
        "q01,2010,Biochemistry,10,1:a1:U01;2:a2:U01\n"
        "q02,2010,Biochemistry,8,1:a2:U01;2:-:U02;3:a1:U01\n",
        encoding="utf-8",
    )
    first, second = read_publications_csv(str(publications))
    assert first.year is second.year
    assert first.subject_category is second.subject_category
    slots = first.authors + second.authors
    # The same id at another position is another slot text, but one id object.
    for rid in ("a1", "a2"):
        held = [slot.researcher_id for slot in slots if slot.researcher_id == rid]
        assert len(held) == 2 and held[0] is held[1]
    institutions = [slot.institution_id for slot in slots if slot.institution_id == "U01"]
    assert len(institutions) == 4
    assert all(inst is institutions[0] for inst in institutions)


def test_slots_hold_the_assessed_researchers_own_ids(tmp_path, monkeypatch):
    # The command line hands the researchers it read to the publication
    # reader, so a slot naming one holds the record's own id strings.
    paths = write_fixture(tmp_path)
    seen = []

    def spy(researchers, publications, baselines, config):
        seen.append((researchers, publications))
        return validate(researchers, publications, baselines, config)

    validate = fssfunnel.cli.validate_dataset
    monkeypatch.setattr(fssfunnel.cli, "validate_dataset", spy)
    assert main(assess_args(paths, tmp_path, ["--quiet"])) == 0
    [(researchers, publications)] = seen
    by_id = {r.researcher_id: r for r in researchers}
    slots = [slot for p in publications for slot in p.authors if slot.researcher_id is not None]
    assert len(slots) == 17
    for slot in slots:
        record = by_id[slot.researcher_id]
        assert slot.researcher_id is record.researcher_id
        assert slot.institution_id is record.institution_id
    # The seeded read returns the records an unseeded one does.
    assert read_publications_csv(paths["publications"]) == publications


def test_an_id_outside_the_given_researchers_is_still_read(tmp_path):
    paths = write_fixture(tmp_path)
    publications = tmp_path / "publications.csv"
    publications.write_text(publications.read_text() + "q90,2008,Biochemistry,5,1:zz:Z;2:a1:A\n")
    researchers = read_researchers_csv(paths["researchers"])
    records = read_publications_csv(str(publications), researchers)
    assert records == read_publications_csv(str(publications))
    assert records[-1].authors == (AuthorSlot(1, "zz", "Z"), AuthorSlot(2, "a1", "A"))
    assert records[-1].authors[1].researcher_id is researchers[0].researcher_id
    with pytest.raises(ValidationErrors) as caught:
        validate_dataset(researchers, records, read_baselines_csv(paths["baselines"]),
                         AssessmentConfig())
    assert [str(e) for e in caught.value.errors] == [
        "publication 'q90' references unknown researcher 'zz'"
    ]


def test_rows_sharing_an_external_slot_text_share_its_slot(tmp_path):
    publications = tmp_path / "publications.csv"
    publications.write_text(
        "publication_id,year,subject_category,citations,authors\n"
        "q01,2010,Biochemistry,10,1:a1:U01;2:-:X\n"
        "q02,2010,Biochemistry,8,1:a2:U01;2:-:X\n",
        encoding="utf-8",
    )
    first, second = read_publications_csv(str(publications))
    assert first.authors[1] == AuthorSlot(2, None, "X")
    assert first.authors[1] is second.authors[1]


def test_synth_roundtrip_small(tmp_path):
    out = tmp_path / "fixture"
    assert main([
        "synth", "--out-dir", str(out), "--institutions", "4", "--size-min", "5",
        "--size-max", "9", "--total", "26", "--seed", "7", "--quiet",
    ]) == 0
    args = [
        "assess",
        "--researchers", str(out / "researchers.csv"),
        "--publications", str(out / "publications.csv"),
        "--baselines", str(out / "baselines.csv"),
        "--config", str(out / "config.txt"),
        "--report", str(tmp_path / "report.json"),
        "--quiet",
    ]
    assert main(args) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["fit"]["group_count"] == 4
    assert report["fit"]["total_n"] == 26


@pytest.mark.parametrize(
    "flags, kwargs",
    [
        ([], {}),
        (["--institutions", "6", "--size-min", "3", "--size-max", "9", "--total", "40",
          "--mean", "0.3", "--sd", "0.4", "--skewness", "2.5",
          "--institution-effect-sd", "0.2", "--seed", "7"],
         {"institutions": 6, "size_min": 3, "size_max": 9, "total_researchers": 40,
          "mean": 0.3, "sd": 0.4, "skewness": 2.5, "institution_effect_sd": 0.2,
          "seed": 7}),
    ],
    ids=["defaults", "every-flag"],
)
def test_synth_flags_map_onto_the_library_call(tmp_path, flags, kwargs):
    # A flag left out takes generate_synthetic_dataset's own default.
    cli_dir, library_dir = tmp_path / "cli", tmp_path / "library"
    assert main(["synth", "--out-dir", str(cli_dir), *flags, "--quiet"]) == 0
    generate_synthetic_dataset(str(library_dir), **kwargs)
    for name in ("researchers.csv", "publications.csv", "baselines.csv", "config.txt"):
        assert (cli_dir / name).read_bytes() == (library_dir / name).read_bytes()


def test_emit_report_round_trips_and_is_stable():
    report = make_report(
        {"A": [0.1, 0.5, 0.2, 0.9, 0.33], "B": [0.0, 0.41, 0.07, 0.64, 0.5, 0.28]}
    )
    text = emit_report(report)
    payload = json.loads(text)
    assert list(payload) == ["config", "transform", "fit", "institutions", "diagnostics"]
    assert len(payload["institutions"]) == payload["fit"]["group_count"]
    assert json.dumps(payload, indent=2, allow_nan=False) + "\n" == text
    for entry in payload["institutions"]:
        assert entry["classification"] in {
            "within", "above_inner", "above_outer", "below_inner", "below_outer"
        }
    # floats survive the round trip exactly
    assert payload["fit"]["grand_mean"] == report.fit.grand_mean
    assert payload["transform"]["delta"] == report.transform.delta
    assert payload["institutions"][0]["mean_transformed"] == report.summaries[0].mean_transformed


def test_qq_max_deviation_summary():
    # The report's normality summary: the largest |sample - theoretical| gap,
    # null when the report has no quantile plot.
    report = make_report({"A": [0.1, 0.4, 0.9, 0.2]})
    points = ((0.0, 0.1), (1.0, 0.7), (2.0, 2.05))
    diagnostics = json.loads(emit_report(report._replace(qq_points=points)))["diagnostics"]
    assert diagnostics["qq_max_abs_deviation"] == pytest.approx(0.3, abs=1e-12)
    assert json.loads(emit_report(report))["diagnostics"]["qq_max_abs_deviation"] is None


def test_int_band_levels_emit_the_bytes_of_float_levels():
    values = {"A": [0.1, 0.5, 0.2, 0.9, 0.33], "B": [0.0, 0.41, 0.07, 0.64, 0.5, 0.28]}
    assert emit_report(make_report(values, band_z_levels=(2, 3))) == emit_report(
        make_report(values, band_z_levels=(2.0, 3.0))
    )


@pytest.mark.parametrize(
    "given, default",
    [
        ({"delta_bracket": (1e-9, 10)}, {}),
        ({"skewness_tolerance": 1}, {"skewness_tolerance": 1.0}),
        (
            {"salary_coefficients": {Rank.ASSISTANT: 1, Rank.ASSOCIATE: 2, Rank.FULL: 3}},
            {"salary_coefficients": {Rank.ASSISTANT: 1.0, Rank.ASSOCIATE: 2.0, Rank.FULL: 3.0}},
        ),
        ({"min_faculty": np.int64(2)}, {"min_faculty": 2}),
    ],
    ids=["int_bracket", "int_tolerance", "int_salaries", "numpy_int"],
)
def test_equal_configs_emit_the_same_report(given, default):
    values = {"A": [0.1, 0.5, 0.2, 0.9, 0.33], "B": [0.0, 0.41, 0.07, 0.64, 0.5, 0.28]}
    config = AssessmentConfig(**given)
    assert config == AssessmentConfig(**default)
    assert emit_report(build_funnel_report(values, config)) == emit_report(
        build_funnel_report(values, AssessmentConfig(**default))
    )


def test_emit_report_writes_each_distinct_band_once(monkeypatch):
    # 2,000 institutions of two sizes share four bands: inner and outer at each size.
    rng = random.Random(5)
    report = make_report({
        f"u{j:04d}": [rng.lognormvariate(-1.5, 0.7) for _ in range(2 + j % 2)]
        for j in range(2000)
    })
    assert len({id(b) for s in report.summaries for b in (s.inner_band, s.outer_band)}) == 4
    calls = []
    band = cli._band
    monkeypatch.setattr(cli, "_band", lambda point: calls.append(point) or band(point))
    text = emit_report(report)
    assert len(calls) == 4
    assert text == dumped(report)


# The report's JSON as json.dumps writes it from a plain payload: the oracle
# for emit_report, which fills templates instead.
def payload(report):
    def json_value(value):
        if isinstance(value, Enum):
            return value.value
        if isinstance(value, tuple):
            return list(value)
        if isinstance(value, dict):
            return {key.value: item for key, item in value.items()}
        return value

    def band(point):
        return {"z": point.level_z, "lower": point.lower, "upper": point.upper}

    return {
        "config": {
            name: json_value(getattr(report.config, name)) for name in report.config._fields
        },
        "transform": {
            "delta": report.transform.delta,
            "achieved_skewness": report.transform.achieved_skewness,
            "converged": report.transform.converged,
        },
        "fit": {
            "grand_mean": report.fit.grand_mean,
            "pooled_sd": report.fit.pooled_sd,
            "total_n": report.fit.total_n,
            "group_count": report.fit.group_count,
        },
        "institutions": [
            {
                "id": s.institution_id,
                "size": s.size,
                "mean_original": s.mean_original,
                "mean_transformed": s.mean_transformed,
                "classification": s.classification.value,
                "inner_band": band(s.inner_band),
                "outer_band": band(s.outer_band),
                "rank_with_caveat": {
                    "rank": report.rankings[s.institution_id],
                    "caveat": RANK_CAVEAT,
                },
            }
            for s in report.summaries
        ],
        "diagnostics": {
            "qq_points": [list(pair) for pair in (report.qq_points or ())],
            "qq_max_abs_deviation": None
            if not report.qq_points
            else max(abs(y - x) for x, y in report.qq_points),
            "size_slope": None
            if report.size_slope is None
            else {"slope": report.size_slope[0], "standard_error": report.size_slope[1]},
        },
    }


def dumped(report) -> str:
    return json.dumps(payload(report), indent=2, allow_nan=False) + "\n"


def one_institution_report(institution_id, value):
    band = BandPoint(3, 2.0, value, value)
    summary = InstitutionSummary(
        institution_id, 3, value, value, Classification.WITHIN, band, band
    )
    return FunnelReport(
        fit=PooledFit(value, 1.0, 3, 1),
        transform=TransformSpec(1.0, value, (1e-9, 10.0), True),
        summaries=(summary,),
        qq_points=((value, value),),
        size_slope=(value, value),
        rankings={institution_id: 1},
        config=AssessmentConfig(),
    )


finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.225e-308, 1e308, -1e308, 1e16, -3.0]),
    st.integers(-(2**60), 2**60).map(float),
)
ids = st.text(
    st.characters()
    | st.characters(categories=["Cc", "Cs"])
    | st.sampled_from(['"', "\\", "/", "%", "é", " ", "\U0001f600"]),
    max_size=8,
)
# A library caller may give the z levels as ints; json writes those as ints.
band_points = st.builds(
    BandPoint, st.integers(1, 10**6), finite_floats | st.integers(1, 5),
    finite_floats, finite_floats,
)
summaries = st.builds(
    InstitutionSummary, ids, st.integers(1, 10**6), finite_floats, finite_floats,
    st.sampled_from(Classification), band_points, band_points,
)


@st.composite
def reports(draw):
    rows = draw(
        st.lists(summaries, min_size=1, max_size=6, unique_by=lambda s: s.institution_id)
    )
    ranks = draw(st.lists(st.integers(1, 10**6), min_size=len(rows), max_size=len(rows)))
    pairs = st.tuples(finite_floats, finite_floats)
    return FunnelReport(
        fit=draw(st.builds(
            PooledFit, finite_floats, finite_floats, st.integers(1), st.integers(1)
        )),
        transform=draw(st.builds(
            TransformSpec, finite_floats, finite_floats,
            pairs, st.booleans(),
        )),
        summaries=tuple(rows),
        qq_points=draw(st.none() | st.lists(pairs, max_size=4).map(tuple)),
        size_slope=draw(st.none() | pairs),
        rankings={s.institution_id: rank for s, rank in zip(rows, ranks)},
        config=AssessmentConfig(),
    )


@given(reports())
@example(one_institution_report("Università \"Sapienza\" \\ 東京\ud800", 0.25))
@example(one_institution_report("u01", -0.0))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_emit_report_writes_the_bytes_of_json_dumps(report):
    try:
        expected = dumped(report)
    except ValueError as exc:
        # Two finite QQ coordinates 1e308 apart overflow the deviation.
        with pytest.raises(ValueError) as caught:
            emit_report(report)
        assert str(caught.value) == str(exc)
    else:
        assert emit_report(report) == expected


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "where", ["mean_original", "mean_transformed", "band", "qq_points", "size_slope"]
)
def test_emit_report_rejects_a_non_finite_float_as_json_dumps_does(bad, where):
    report = one_institution_report("u01", 0.5)
    summary = report.summaries[0]
    if where in ("mean_original", "mean_transformed"):
        report = report._replace(summaries=(summary._replace(**{where: bad}),))
    elif where == "band":
        outer = summary.outer_band._replace(lower=bad)
        report = report._replace(summaries=(summary._replace(outer_band=outer),))
    elif where == "qq_points":
        report = report._replace(qq_points=((0.5, 0.5), (bad, 0.5)))
    else:
        report = report._replace(size_slope=(0.5, bad))
    with pytest.raises(ValueError) as expected:
        dumped(report)
    with pytest.raises(ValueError) as caught:
        emit_report(report)
    message = f"Out of range float values are not JSON compliant: {bad!r}"
    assert str(caught.value) == str(expected.value) == message


# 2,000 institutions of 5 to 59 shifted lognormal values clipped at 0, as
# synth draws FSS, drawn without numpy so that nothing in the child can see
# NPY_DISABLE_CPU_FEATURES unless the report path itself imports numpy.
DISPATCH_REPORT = """
import random
import sys
from fssfunnel.cli import emit_report
from fssfunnel.funnel import build_funnel_report
from fssfunnel.model import AssessmentConfig
rng = random.Random(7)
values = {
    f"u{j:04d}": [
        max(rng.lognormvariate(-1.5, 1.0) - 0.05, 0.0) for _ in range(rng.randint(5, 59))
    ]
    for j in range(2000)
}
sys.stdout.write(emit_report(build_funnel_report(values, AssessmentConfig(min_faculty=1))))
"""


def test_cpu_dispatch_moves_no_report_byte():
    # numpy may dispatch np.log to an AVX-512 kernel that differs from the
    # baseline kernel in the last bit. The report takes each log from the C
    # library and each sum from math.fsum, so turning those kernels off must
    # not move one byte; a report path that brought np.log back would fail
    # here on an AVX-512 host.
    default = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fssfunnel.__file__)))
    default.pop("NPY_DISABLE_CPU_FEATURES", None)
    baseline = dict(default, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
    reports = []
    for env in (default, baseline):
        result = subprocess.run(
            [sys.executable, "-c", DISPATCH_REPORT],
            capture_output=True, text=True, env=env, check=True,
        )
        reports.append(result.stdout)
    assert len(json.loads(reports[0])["institutions"]) == 2000
    assert reports[0] == reports[1]
