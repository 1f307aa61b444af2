import gc
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import fields, replace
from enum import Enum

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fssfunnel
from fssfunnel.cli import (
    RANK_CAVEAT,
    emit_report,
    main,
    parse_config_file,
    read_publications_csv,
    read_researchers_csv,
)
from fssfunnel.errors import ParseError
from fssfunnel.funnel import (
    BandPoint,
    Classification,
    FunnelReport,
    InstitutionSummary,
    PooledFit,
    qq_max_deviation,
)
from fssfunnel.model import (
    AssessmentConfig,
    AuthorSlot,
    PublicationRecord,
    Rank,
    ValidatedDataset,
    WeightingScheme,
)
from fssfunnel.transform import TransformSpec
from helpers import make_report

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


def write_fixture(directory):
    researchers = ["researcher_id,institution_id,field_code,rank,years_active"]
    researchers += [
        f"{rid},{inst},Biochemistry,{rank},{years}"
        for rid, inst, rank, years in RESEARCHERS
    ]
    publications = ["publication_id,year,subject_category,citations,authors"]
    publications += [
        f"{pid},{year},Biochemistry,{cites},{authors}"
        for pid, year, cites, authors in PUBLICATIONS
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
band_z_levels=1.5,2.5,3.5
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
        band_z_levels=(1.5, 2.5, 3.5),
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
        "band_z_levels": [1.5, 2.5, 3.5],
        "delta_bracket": [1e-8, 20.0],
        "skewness_tolerance": 1e-10,
        "weighting_scheme": "uniform",
        "grand_mean_mode": "group_means",
        "skewness_target": "institution_means",
    }
    assert list(report["config"]) == [f.name for f in fields(AssessmentConfig)]


def test_degenerate_pipeline_is_exit_three(tmp_path, capsys):
    # All-zero productivity: the transform cannot run on a constant sample.
    paths = write_fixture(tmp_path)
    header, *rows = (tmp_path / "publications.csv").read_text().splitlines()
    (tmp_path / "publications.csv").write_text(header + "\n", encoding="utf-8")
    assert main(assess_args(paths, tmp_path)) == 3
    assert "pipeline" in capsys.readouterr().err
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
# for: numpy.ma comes with np.unique, the rest with xml.sax.saxutils.
UNUSED_MODULES = ("numpy.ma", "xml.sax", "urllib.request", "http.client", "ssl", "email")


def test_default_run_does_not_import_numpy_ma(tmp_path):
    paths = write_fixture(tmp_path)
    script = (
        "import sys\n"
        "from fssfunnel.cli import main\n"
        f"code = main({assess_args(paths, tmp_path, ['--quiet'])!r})\n"
        f"print(code, *[name for name in {UNUSED_MODULES!r} if name in sys.modules])\n"
    )
    assert run_python(script) == ["0"]


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
        return sum(
            isinstance(obj, (PublicationRecord, ValidatedDataset)) for obj in gc.get_objects()
        )

    build = fssfunnel.cli.build_funnel_report
    seen = []

    def counting_build(population, scores, config):
        seen.append(alive())
        return build(population, scores, config)

    monkeypatch.setattr(fssfunnel.cli, "build_funnel_report", counting_build)
    paths = write_fixture(tmp_path)
    before = alive()
    assert main(assess_args(paths, tmp_path, ["--quiet"])) == 0
    assert seen == [before]


def test_repeated_publication_id_is_rejected(tmp_path, capsys):
    paths = write_fixture(tmp_path)
    publications = tmp_path / "publications.csv"
    rows = publications.read_text().splitlines()
    publications.write_text("\n".join(rows + [rows[3]]) + "\n", encoding="utf-8")
    assert main(assess_args(paths, tmp_path)) == 1
    assert capsys.readouterr().err == "error: duplicate publication id 'q03'\n"
    assert not (tmp_path / "report.json").exists()


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


def test_int_band_levels_emit_the_bytes_of_float_levels():
    values = {"A": [0.1, 0.5, 0.2, 0.9, 0.33], "B": [0.0, 0.41, 0.07, 0.64, 0.5, 0.28]}
    assert emit_report(make_report(values, band_z_levels=(2, 3))) == emit_report(
        make_report(values, band_z_levels=(2.0, 3.0))
    )


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
            f.name: json_value(getattr(report.config, f.name)) for f in fields(report.config)
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
            else qq_max_deviation(report.qq_points),
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
        adjusted_means=(value,),
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
        adjusted_means=(),
        qq_points=draw(st.none() | st.lists(pairs, max_size=4).map(tuple)),
        size_slope=draw(st.none() | pairs),
        rankings={s.institution_id: rank for s, rank in zip(rows, ranks)},
        config=AssessmentConfig(),
    )


@given(reports())
@example(one_institution_report("Università \"Sapienza\" \\ 東京\ud800", 0.25))
@example(one_institution_report("u01", -0.0))
@settings(max_examples=100, deadline=None)
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
        report = replace(report, summaries=(replace(summary, **{where: bad}),))
    elif where == "band":
        outer = replace(summary.outer_band, lower=bad)
        report = replace(report, summaries=(replace(summary, outer_band=outer),))
    elif where == "qq_points":
        report = replace(report, qq_points=((0.5, 0.5), (bad, 0.5)))
    else:
        report = replace(report, size_slope=(0.5, bad))
    with pytest.raises(ValueError) as expected:
        dumped(report)
    with pytest.raises(ValueError) as caught:
        emit_report(report)
    message = f"Out of range float values are not JSON compliant: {bad!r}"
    assert str(caught.value) == str(expected.value) == message
