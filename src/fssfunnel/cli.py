"""Batch entry point: parse CSV inputs, run the assessment, write artifacts.

Input files (UTF-8, comma-separated, RFC 4180 quoting, header row required):

    researchers.csv   researcher_id,institution_id,field_code,rank,years_active
    publications.csv  publication_id,year,subject_category,citations,authors
    baselines.csv     year,subject_category,mean_citations

The ``authors`` cell packs the ordered byline into one field as
``position:researcher_id:institution_id`` slots joined by ``;``, with ``-``
for authors outside the assessed population, e.g. ``1:r0001:u01;2:-:ext07``.
Identifiers must not contain ``:`` or ``;``.

The optional config file is flat ``key=value`` text; unknown keys are errors.
Exit codes: 0 success, 1 parse/validation failure, 2 I/O failure (also two
output flags naming one file), 3 pipeline failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import gc
import io
import json
import math
import os
import sys
from dataclasses import fields
from enum import Enum
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .errors import AssessmentError, IoError, ParseError, ValidationErrors
from .funnel import FunnelReport, build_funnel_report, qq_max_deviation
from .indicator import ResearcherScore, fractional_weights, researcher_fss
from .model import (
    AssessablePopulation,
    AssessmentConfig,
    AuthorSlot,
    CitationBaseline,
    PublicationRecord,
    Rank,
    ResearcherRecord,
    apply_exclusions,
    validate_dataset,
)
from .render import render_caterpillar_svg, render_funnel_svg, render_qq_svg

RESEARCHER_HEADER = ["researcher_id", "institution_id", "field_code", "rank", "years_active"]
PUBLICATION_HEADER = ["publication_id", "year", "subject_category", "citations", "authors"]
BASELINE_HEADER = ["year", "subject_category", "mean_citations"]

RANK_CAVEAT = (
    "Point ranks ignore sampling uncertainty; differences between institutions "
    "inside the confidence bands are not statistically meaningful."
)

_RANK_BY_NAME = {r.value.lower(): r for r in Rank}


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------


def _read_rows(path: str, expected_header: list[str]):
    """(line, row) for each non-blank data row, read as the file is consumed.

    ``line`` is the file line the row starts on, so a quoted field that spans
    lines does not shift the line named for the rows after it."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            rows = csv.reader(handle)
            header = next(rows, None)
            if header is None:
                raise ParseError(
                    path, 1, expected_header[0], "file is empty; header row required"
                )
            if header != expected_header:
                raise ParseError(
                    path, 1, ",".join(header),
                    f"expected header {','.join(expected_header)}",
                )
            start = rows.line_num + 1
            for row in rows:
                line, start = start, rows.line_num + 1
                if not row:
                    continue
                if len(row) != len(expected_header):
                    raise ParseError(
                        path, line, expected_header[0],
                        f"expected {len(expected_header)} fields, got {len(row)}",
                    )
                yield line, row
    except OSError as exc:
        raise IoError(path, exc.strerror or str(exc)) from exc
    except UnicodeDecodeError:
        line, before, reason = _first_bad_byte(path)
        # The bad byte starts or continues the last field of the text before it.
        count = len(next(csv.reader([before + "?"])))
        column = expected_header[min(count, len(expected_header)) - 1]
        raise ParseError(path, line, column, reason) from None


def _first_bad_byte(path: str) -> tuple[int, str, str]:
    """Line of the first byte of ``path`` that is not UTF-8, the text before
    it on that line, and a reason naming the byte."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
        data.decode("utf-8")
    except OSError as exc:
        raise IoError(path, exc.strerror or str(exc)) from exc
    except UnicodeDecodeError as exc:
        start = exc.start
    else:
        raise IoError(path, "file changed while it was read")
    line_start = data.rfind(b"\n", 0, start) + 1
    before = data[line_start:start].decode("utf-8").lstrip("\ufeff")
    return data.count(b"\n", 0, start) + 1, before, f"not UTF-8: byte 0x{data[start]:02x}"


def _parse_int(path: str, line: int, column: str, text: str, minimum: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ParseError(path, line, column, f"not an integer: {text!r}") from None
    if value < minimum:
        raise ParseError(path, line, column, f"must be >= {minimum}, got {value}")
    return value


def read_researchers_csv(path: str) -> list[ResearcherRecord]:
    """Researchers in file order. Institution ids and field codes repeat
    down the file, so each distinct text is held once per call."""
    records = []
    seen: dict[str, int] = {}
    shared: dict[str, str] = {}
    for line, row in _read_rows(path, RESEARCHER_HEADER):
        rid, inst, field_code, rank_text, years_text = row
        if not rid.strip() or not inst.strip():
            column = "institution_id" if rid.strip() else "researcher_id"
            raise ParseError(path, line, column, "must not be blank")
        if rid in seen:
            raise ParseError(
                path, line, "researcher_id",
                f"duplicate researcher id {rid!r} (first seen on line {seen[rid]})",
            )
        seen[rid] = line
        rank = _RANK_BY_NAME.get(rank_text.strip().lower())
        if rank is None:
            raise ParseError(
                path, line, "rank",
                f"expected one of Assistant/Associate/Full, got {rank_text!r}",
            )
        years = _parse_int(path, line, "years_active", years_text, 0)
        records.append(ResearcherRecord(
            rid, shared.setdefault(inst, inst), shared.setdefault(field_code, field_code),
            rank, years,
        ))
    return records


def _parse_slot(path: str, line: int, part: str, shared: dict) -> AuthorSlot:
    fields = part.split(":")
    if len(fields) != 3:
        raise ParseError(
            path, line, "authors",
            f"slot {part!r} is not position:researcher_id:institution_id",
        )
    pos_text, rid, inst = fields
    position = _parse_int(path, line, "authors", pos_text.strip(), 1)
    inst = inst.strip()
    if not inst:
        raise ParseError(path, line, "authors", f"slot {part!r} has no institution")
    rid = rid.strip()
    return AuthorSlot(
        position,
        None if rid == "-" else shared.setdefault(rid, rid),
        shared.setdefault(inst, inst),
    )


_POSITION = attrgetter("position")


def read_publications_csv(path: str) -> list[PublicationRecord]:
    """Publications in file order, each byline sorted by position.

    Slot text repeats across bylines (external co-authors, a researcher at
    the same position), so each distinct text is parsed once per call and
    its frozen slot shared; only slots that parsed cleanly are kept. Years,
    subject categories and the ids inside slots repeat too, so each distinct
    value is held once per call."""
    records = []
    parsed: dict[str, AuthorSlot] = {}
    # str and int keys never collide, so one dict serves every shared value.
    shared: dict = {}
    for line, row in _read_rows(path, PUBLICATION_HEADER):
        pid, year_text, category, citations_text, authors_cell = row
        year = _parse_int(path, line, "year", year_text, 0)
        citations = _parse_int(path, line, "citations", citations_text, 0)
        authors = []
        for part in authors_cell.split(";"):
            slot = parsed.get(part)
            if slot is None:
                slot = parsed[part] = _parse_slot(path, line, part, shared)
            authors.append(slot)
        authors.sort(key=_POSITION)
        records.append(PublicationRecord(
            pid, shared.setdefault(year, year), shared.setdefault(category, category),
            citations, tuple(authors),
        ))
    return records


def read_baselines_csv(path: str) -> CitationBaseline:
    entries: dict[tuple[int, str], float] = {}
    for line, row in _read_rows(path, BASELINE_HEADER):
        year_text, category, mean_text = row
        year = _parse_int(path, line, "year", year_text, 0)
        try:
            mean = float(mean_text)
        except ValueError:
            raise ParseError(
                path, line, "mean_citations", f"not a number: {mean_text!r}"
            ) from None
        if not math.isfinite(mean) or mean <= 0:
            raise ParseError(path, line, "mean_citations", f"must be > 0, got {mean}")
        key = (year, category)
        if key in entries:
            raise ParseError(path, line, "year", f"duplicate baseline entry {key}")
        entries[key] = mean
    return CitationBaseline(entries)


def _config_file_keys() -> dict[str, tuple[str, object, Enum | None]]:
    """Config-file key -> (AssessmentConfig field, value type, dict key).

    A dict field keyed by an Enum takes one file key per member, spelled
    ``<key_prefix><member value, lower case>``; every other field is its own
    key with the field's type."""
    hints = get_type_hints(AssessmentConfig)
    keys = {}
    for f in fields(AssessmentConfig):
        hint = hints[f.name]
        if get_origin(hint) is dict:
            member_type, value_type = get_args(hint)
            for member in member_type:
                keys[f.metadata["key_prefix"] + member.value.lower()] = (
                    f.name, value_type, member,
                )
        else:
            keys[f.name] = (f.name, hint, None)
    return keys


def _convert(hint, text: str):
    """One config value as ``hint`` (a number type, an Enum or a tuple of
    numbers); ValueError with a message for the user on bad input."""
    if isinstance(hint, type) and issubclass(hint, Enum):
        allowed = sorted(member.value for member in hint)
        if text not in allowed:
            raise ValueError(f"expected one of {allowed}, got {text!r}")
        return hint(text)
    args = get_args(hint)
    try:
        if get_origin(hint) is not tuple:
            return hint(text)
        value = tuple(args[0](part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"bad value {text!r}") from None
    if args[-1] is not Ellipsis and len(value) != len(args):
        raise ValueError(f"expected {len(args)} values, got {text!r}")
    return value


def parse_config_file(path: str) -> AssessmentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise IoError(path, exc.strerror or str(exc)) from exc
    except UnicodeDecodeError:
        line_no, before, reason = _first_bad_byte(path)
        raise ParseError(path, line_no, before.partition("=")[0].strip(), reason) from None

    schema = _config_file_keys()
    seen: set[str] = set()
    entries: list[tuple[int, str, object]] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(path, line_no, stripped, "expected key=value")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in schema:
            raise ParseError(path, line_no, key, "unknown configuration key")
        if key in seen:
            raise ParseError(path, line_no, key, "key given twice")
        seen.add(key)
        try:
            converted = _convert(schema[key][1], value.strip())
        except ValueError as exc:
            raise ParseError(path, line_no, key, str(exc)) from None
        entries.append((line_no, key, converted))

    try:
        return AssessmentConfig(**_overrides(schema, entries))
    except ValueError as exc:
        message = str(exc)
    # Name the first line at which the lines read so far break this invariant.
    line_no, key = next(
        (line_no, key)
        for count, (line_no, key, _) in enumerate(entries, start=1)
        if _invariant_failure(schema, entries[:count]) == message
    )
    raise ParseError(path, line_no, key, message)


def _overrides(schema, entries) -> dict[str, object]:
    """AssessmentConfig keyword arguments from parsed (line, key, value)
    entries; a per-member key overrides one entry of its field's default."""
    defaults = AssessmentConfig()
    overrides: dict[str, object] = {}
    for _, key, value in entries:
        name, _, member = schema[key]
        if member is None:
            overrides[name] = value
        else:
            overrides.setdefault(name, dict(getattr(defaults, name)))[member] = value
    return overrides


def _invariant_failure(schema, entries) -> str | None:
    """The AssessmentConfig invariant these entries break, or None."""
    try:
        AssessmentConfig(**_overrides(schema, entries))
    except ValueError as exc:
        return str(exc)
    return None


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------


def _json_value(value):
    """A config field's value in JSON terms: Enums as their values, tuples as
    lists, Enum-keyed dicts keyed by member value."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, dict):
        return {key.value: item for key, item in value.items()}
    return value


# The parts of the report that grow with the institution count are filled
# into fixed templates: json's indenting encoder is pure Python and walks every
# value, while these give the same bytes at one ``%`` per entry.
_INSTITUTION = """\
    {
      "id": %s,
      "size": %d,
      "mean_original": %s,
      "mean_transformed": %s,
      "classification": %s,
      "inner_band": %s,
      "outer_band": %s,
      "rank_with_caveat": {
        "rank": %d,
        "caveat": CAVEAT
      }
    }""".replace("CAVEAT", encode_basestring_ascii(RANK_CAVEAT).replace("%", "%%"))
_BAND = """{
        "z": %s,
        "lower": %s,
        "upper": %s
      }"""
_QQ_POINT = """\
      [
        %s,
        %s
      ]"""
_SIZE_SLOPE = """{
      "slope": %s,
      "standard_error": %s
    }"""


def _number(value) -> str:
    """A number as ``json.dumps(..., allow_nan=False)`` writes it: a float by
    ``float.__repr__``, an int (the level of a ``BandPoint`` built with one)
    by ``int``'s."""
    if not isinstance(value, float):
        return int.__repr__(value)
    if not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return float.__repr__(value)


def _band(band) -> str:
    return _BAND % (_number(band.level_z), _number(band.lower), _number(band.upper))


def _array(items: list[str], indent: str) -> str:
    """A JSON array of already-indented item texts, closed at ``indent``."""
    return "[\n" + ",\n".join(items) + "\n" + indent + "]" if items else "[]"


def emit_report(report: FunnelReport) -> str:
    """The report as JSON text, with fixed key order and full-precision floats.

    The bytes are those of ``json.dumps(payload, indent=2, allow_nan=False)``,
    which writes the small config, transform and fit blocks; a non-finite
    float raises the same ValueError."""
    head = json.dumps(
        {
            "config": {
                f.name: _json_value(getattr(report.config, f.name))
                for f in fields(report.config)
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
        },
        indent=2,
        allow_nan=False,
    )
    rankings = report.rankings
    institutions = [
        _INSTITUTION % (
            encode_basestring_ascii(s.institution_id),
            s.size,
            _number(s.mean_original),
            _number(s.mean_transformed),
            encode_basestring_ascii(s.classification.value),
            _band(s.inner_band),
            _band(s.outer_band),
            rankings[s.institution_id],
        )
        for s in report.summaries
    ]
    qq = [_QQ_POINT % (_number(x), _number(y)) for x, y in report.qq_points or ()]
    slope = report.size_slope
    return "".join([
        head[:-2],  # without the closing "\n}"
        ',\n  "institutions": ',
        _array(institutions, "  "),
        ',\n  "diagnostics": {\n    "qq_points": ',
        _array(qq, "    "),
        ',\n    "qq_max_abs_deviation": ',
        _number(qq_max_deviation(report.qq_points)) if report.qq_points else "null",
        ',\n    "size_slope": ',
        "null" if slope is None else _SIZE_SLOPE % (_number(slope[0]), _number(slope[1])),
        "\n  }\n}\n",
    ])


def _write_all(outputs: dict[str, str]) -> None:
    """Write each destination's text through a uniquely named temp file
    beside it.

    A destination that is a directory is rejected before any temp file is
    written. Nothing is renamed until every temp file is written, so a write
    that fails (a missing directory, a full disk) leaves every destination as
    it was. Temp files not yet renamed when anything fails are removed; an
    OSError becomes an IoError naming the destination it hit. Temp files are
    created with mode 0o666, as ``open`` creates files, so the umask and
    default ACLs give each output the mode a plain write would.
    """
    for destination in outputs:
        if os.path.isdir(destination):
            raise IoError(destination, os.strerror(errno.EISDIR))
    pending: list[tuple[Path, str]] = []
    try:
        for destination, text in outputs.items():
            path = Path(destination)
            tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            pending.append((tmp, destination))
            with open(fd, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        while pending:
            tmp, destination = pending[0]
            os.replace(tmp, destination)
            pending.pop(0)
    except OSError as exc:
        raise IoError(destination, exc.strerror or str(exc)) from exc
    finally:
        for tmp, _ in pending:
            with contextlib.suppress(OSError):
                tmp.unlink()


# ---------------------------------------------------------------------------
# assessment run
# ---------------------------------------------------------------------------


_OUTPUT_FLAGS = ("report", "funnel_svg", "qq_svg", "caterpillar_svg")


def _duplicate_output(args: argparse.Namespace) -> str | None:
    """Why two output flags name one file, or None: the later write would
    silently replace the earlier one."""
    seen: dict[Path, str] = {}
    for name in _OUTPUT_FLAGS:
        destination = getattr(args, name)
        if not destination:
            continue
        flag = "--" + name.replace("_", "-")
        path = Path(destination).resolve()
        if path in seen:
            return f"{seen[path]} and {flag} both name {destination}"
        seen[path] = flag
    return None


def _read_and_score(
    args: argparse.Namespace,
) -> tuple[AssessablePopulation, list[ResearcherScore], AssessmentConfig]:
    """Read and validate the inputs, apply the exclusions and score every
    kept researcher. Only the population, the scores and the config leave
    this call, so the input records are freed before the report is built."""
    researchers = read_researchers_csv(args.researchers)
    publications = read_publications_csv(args.publications)
    baselines = read_baselines_csv(args.baselines)
    config = parse_config_file(args.config) if args.config else AssessmentConfig()
    dataset = validate_dataset(researchers, publications, baselines, config)
    population = apply_exclusions(dataset, config)
    scores = [
        researcher_fss(rec, dataset.publications_for(rec.researcher_id), baselines, config)
        for rec in population.researchers
    ]
    return population, scores, config


def run_assessment(args: argparse.Namespace) -> int:
    """The ``assess`` command on its parsed arguments; returns the exit code."""
    duplicate = _duplicate_output(args)
    if duplicate:
        print(f"error: {duplicate}", file=sys.stderr)
        return 2

    try:
        population, scores, config = _read_and_score(args)
        report = build_funnel_report(population, scores, config)
        outputs = {args.report: emit_report(report)}
        if args.funnel_svg:
            outputs[args.funnel_svg] = render_funnel_svg(report)
        if args.qq_svg:
            outputs[args.qq_svg] = render_qq_svg(report)
        if args.caterpillar_svg:
            outputs[args.caterpillar_svg] = render_caterpillar_svg(report)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValidationErrors as exc:
        for violation in exc.errors:
            print(f"error: {violation}", file=sys.stderr)
        return 1
    except IoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssessmentError as exc:
        print(f"error: pipeline failed: {exc}", file=sys.stderr)
        return 3

    try:
        _write_all(outputs)
    except IoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if not args.quiet:
        flagged = sum(
            1 for s in report.summaries if s.classification.value != "within"
        )
        print(
            f"assessed {report.fit.total_n} researchers in "
            f"{report.fit.group_count} institutions "
            f"(dropped {population.dropped_researchers} researchers, "
            f"{population.dropped_institutions} institutions); "
            f"delta={report.transform.delta:.6g} "
            f"converged={report.transform.converged}; "
            f"{flagged} institution(s) outside the inner bands"
        )
        for destination in outputs:
            print(f"wrote {destination}")
    return 0


# ---------------------------------------------------------------------------
# synthetic dataset generation
# ---------------------------------------------------------------------------


def solve_shifted_lognormal(mean: float, sd: float, skewness: float):
    """Parameters (theta, mu, sigma) of theta + LogNormal(mu, sigma) matching
    the requested mean, SD, and (positive) skewness."""
    if sd <= 0 or skewness <= 0:
        raise ValueError("sd and skewness must be positive")
    target = skewness**2

    def excess(w: float) -> float:
        return (w + 2.0) ** 2 * (w - 1.0) - target

    lo, hi = 1.0 + 1e-12, 2.0
    while excess(hi) < 0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if excess(mid) <= 0:
            lo = mid
        else:
            hi = mid
    w = 0.5 * (lo + hi)

    sigma = math.sqrt(math.log(w))
    scale = sd / math.sqrt(w * (w - 1.0))
    theta = mean - scale * math.sqrt(w)
    return theta, math.log(scale), sigma


def draw_fss_sample(
    rng: np.random.Generator, count: int, mean: float, sd: float, skewness: float
) -> np.ndarray:
    """Shifted-lognormal draws clipped at zero (mirrors nil-productivity cases)."""
    theta, mu, sigma = solve_shifted_lognormal(mean, sd, skewness)
    values = theta + np.exp(rng.normal(mu, sigma, size=count))
    return np.clip(values, 0.0, None)


def _institution_sizes(
    rng: np.random.Generator, count: int, size_min: int, size_max: int, total: int
) -> list[int]:
    total = min(max(total, count * size_min), count * size_max)
    raw = np.exp(rng.normal(0.0, 0.55, size=count))
    sizes = np.clip(
        np.round(raw * total / raw.sum()).astype(int), size_min, size_max
    )
    while sizes.sum() != total:
        index = int(rng.integers(count))
        if sizes.sum() < total and sizes[index] < size_max:
            sizes[index] += 1
        elif sizes.sum() > total and sizes[index] > size_min:
            sizes[index] -= 1
    return [int(s) for s in sizes]


_RANKS = (Rank.ASSISTANT, Rank.ASSOCIATE, Rank.FULL)
_RANK_PROBS = (0.35, 0.40, 0.25)


def generate_synthetic_dataset(
    out_dir: str,
    institutions: int = 42,
    size_min: int = 5,
    size_max: int = 61,
    total_researchers: int = 877,
    mean: float = 0.25,
    sd: float = 0.34,
    skewness: float = 3.1,
    institution_effect_sd: float = 0.0,
    seed: int = 12345,
) -> dict[str, str]:
    """Write a researchers/publications/baselines/config fixture under out_dir,
    for the default AssessmentConfig, which the written config file repeats.

    Each researcher's publications are reverse-engineered so the pipeline
    reproduces a target productivity drawn from the requested distribution:
    the researcher sits at a random byline position among unassessed
    co-authors, and citation counts are rounded to hit the target through the
    positional weight, salary coefficient, and years active.
    """
    if institutions < 1:
        raise ValueError("institutions must be >= 1")
    if not (1 <= size_min <= size_max):
        raise ValueError("need 1 <= size_min <= size_max")
    config = AssessmentConfig()
    rng = np.random.default_rng(seed)
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(out_dir, exc.strerror or str(exc)) from exc

    years = list(range(config.period_start, config.period_end + 1))
    baselines = {year: round(float(rng.uniform(8.0, 25.0)), 2) for year in years}
    category = "Biochemistry"

    sizes = _institution_sizes(rng, institutions, size_min, size_max, total_researchers)
    targets = draw_fss_sample(rng, sum(sizes), mean, sd, skewness)

    researcher_rows = []
    publication_rows = []
    index = 0
    pub_serial = 0
    for j, size in enumerate(sizes, start=1):
        inst = f"u{j:02d}"
        effect = (
            math.exp(rng.normal(0.0, institution_effect_sd))
            if institution_effect_sd > 0
            else 1.0
        )
        for _ in range(size):
            index += 1
            rid = f"r{index:04d}"
            rank = _RANKS[rng.choice(len(_RANKS), p=_RANK_PROBS)]
            salary = config.salary_coefficients[rank]
            tenure = int(rng.integers(config.min_years_active, config.period_length + 1))
            researcher_rows.append([rid, inst, category, rank.value, str(tenure)])

            target = float(targets[index - 1]) * effect
            pub_serial = _append_publications(
                publication_rows, rng, rid, inst, target, salary, tenure,
                years, baselines, category, pub_serial,
            )

    paths = {
        "researchers": str(out / "researchers.csv"),
        "publications": str(out / "publications.csv"),
        "baselines": str(out / "baselines.csv"),
        "config": str(out / "config.txt"),
    }
    _write_all({
        paths["researchers"]: _csv_text(RESEARCHER_HEADER, researcher_rows),
        paths["publications"]: _csv_text(PUBLICATION_HEADER, publication_rows),
        paths["baselines"]: _csv_text(
            BASELINE_HEADER,
            [[str(year), category, f"{baselines[year]:g}"] for year in years],
        ),
        paths["config"]: "\n".join(
            [
                "# synthetic fixture configuration",
                f"period_start={config.period_start}",
                f"period_end={config.period_end}",
                f"min_years_active={config.min_years_active}",
                f"min_faculty={config.min_faculty}",
            ]
        )
        + "\n",
    })
    return paths


def _append_publications(
    rows, rng, rid, inst, target, salary, tenure, years, baselines, category, serial
) -> int:
    if target <= 0:
        if rng.random() < 0.5:
            return serial  # no publications at all
        serial += 1
        byline, _ = _random_byline(rng, rid, inst)
        rows.append(
            [f"p{serial:05d}", str(int(rng.choice(years))), category, "0",
             _format_byline(byline)]
        )
        return serial

    pub_count = int(rng.integers(1, 4))
    shares = rng.random(pub_count)
    shares = shares / shares.sum()
    budget = target * salary * tenure
    for share in shares:
        serial += 1
        byline, index = _random_byline(rng, rid, inst)
        weight = fractional_weights(byline)[index]
        year = int(rng.choice(years))
        citations = max(0, round(share * budget * baselines[year] / weight))
        rows.append(
            [f"p{serial:05d}", str(year), category, str(citations),
             _format_byline(byline)]
        )
    return serial


def _random_byline(rng, rid, inst) -> tuple[tuple[AuthorSlot, ...], int]:
    """A byline among unassessed co-authors, and the index of ``rid``'s slot."""
    count = int(rng.integers(1, 9))
    position = int(rng.integers(count))
    slots = []
    for i in range(count):
        if i == position:
            slots.append(AuthorSlot(i + 1, rid, inst))
        else:
            slots.append(AuthorSlot(i + 1, None, f"ext{int(rng.integers(1, 30)):02d}"))
    # Force some intra-mural bylines so both weighting rules are exercised.
    if count >= 2 and rng.random() < 0.3:
        first, last = slots[0], slots[-1]
        if first.researcher_id is None:
            slots[0] = AuthorSlot(1, None, last.institution_id)
        elif last.researcher_id is None:
            slots[-1] = AuthorSlot(count, None, first.institution_id)
    return tuple(slots), position


def _format_byline(slots) -> str:
    return ";".join(
        f"{s.position}:{s.researcher_id or '-'}:{s.institution_id}" for s in slots
    )


def _csv_text(header: list[str], rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fssfunnel",
        description=(
            "Compute per-researcher productivity, aggregate it per institution, "
            "and assess institutional differences with funnel-plot confidence bands."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    assess = sub.add_parser("assess", help="run the assessment on CSV inputs")
    assess.add_argument("--researchers", required=True)
    assess.add_argument("--publications", required=True)
    assess.add_argument("--baselines", required=True)
    assess.add_argument("--config")
    assess.add_argument("--report", required=True, help="output JSON path")
    assess.add_argument("--funnel-svg")
    assess.add_argument("--qq-svg")
    assess.add_argument("--caterpillar-svg")
    assess.add_argument("--quiet", action="store_true")

    synth = sub.add_parser("synth", help="generate a synthetic CSV fixture")
    synth.add_argument("--out-dir", required=True)
    synth.add_argument("--institutions", type=int, default=42)
    synth.add_argument("--size-min", type=int, default=5)
    synth.add_argument("--size-max", type=int, default=61)
    synth.add_argument("--total", type=int, default=877)
    synth.add_argument("--mean", type=float, default=0.25)
    synth.add_argument("--sd", type=float, default=0.34)
    synth.add_argument("--skewness", type=float, default=3.1)
    synth.add_argument("--institution-effect-sd", type=float, default=0.0)
    synth.add_argument("--seed", type=int, default=12345)
    synth.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "assess":
        # A run builds many small objects that live until it ends, so the
        # cyclic collector would walk them again and again for nothing; the
        # few cycles a run makes are the same whatever the input size.
        enabled = gc.isenabled()
        gc.disable()
        try:
            return run_assessment(args)
        finally:
            if enabled:
                gc.enable()

    try:
        paths = generate_synthetic_dataset(
            args.out_dir,
            institutions=args.institutions,
            size_min=args.size_min,
            size_max=args.size_max,
            total_researchers=args.total,
            mean=args.mean,
            sd=args.sd,
            skewness=args.skewness,
            institution_effect_sd=args.institution_effect_sd,
            seed=args.seed,
        )
    except (IoError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.quiet:
        for name, path in paths.items():
            print(f"wrote {name}: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
