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
Exit codes: 0 success, 1 parse/validation failure, 2 I/O failure (also an
output flag naming a file that another flag names), 3 pipeline failure.
The ``synth`` command's generator lives in ``fssfunnel.synth``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import gc
import json
import math
import os
import sys
from collections.abc import Callable, Iterable
from enum import Enum
from itertools import zip_longest
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from pathlib import Path

from .errors import AssessmentError, IoError, ParseError, ValidationErrors, _shown
from .funnel import Classification, FunnelReport, build_funnel_report
from .indicator import researcher_fss
from .model import (
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
    lines does not shift the line named for the rows after it. A row that csv
    cannot read, such as one with a field over csv's size limit, is a
    ParseError for the line it starts on. A byte that is not UTF-8 is a
    defect of its cell (``_bad_byte``), named before any other defect of its
    row, at the line the row starts on plus the ``\\n``s before it in the
    row (a quoted field's lone ``\\r`` is not counted there)."""
    start = 1  # the line the next record starts on
    try:
        with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as handle:
            rows = csv.reader(handle)
            for row in rows:
                line, start = start, rows.line_num + 1
                bad = not "".join(row).isascii() and _bad_byte(row)
                if bad:
                    index, before, reason = bad
                    line += "".join(row[:index]).count("\n") + before.count("\n")
                    column = expected_header[min(index, len(expected_header) - 1)]
                    raise ParseError(path, line, column, reason)
                if line == 1:
                    if row != expected_header:
                        # Named by its first cell that differs, or the first one it lacks.
                        pairs = zip_longest(row, expected_header)
                        got, want = next(pair for pair in pairs if pair[0] != pair[1])
                        column = want if got is None else got
                        raise ParseError(
                            path, 1, column, f"expected header {','.join(expected_header)}"
                        )
                elif row:
                    if len(row) != len(expected_header):
                        raise ParseError(
                            path, line, expected_header[0],
                            f"expected {len(expected_header)} fields, got {len(row)}",
                        )
                    yield line, row
        if start == 1:
            raise ParseError(path, 1, expected_header[0], "file is empty; header row required")
    except csv.Error as exc:
        raise ParseError(path, start, expected_header[0], f"unreadable row: {exc}") from None
    except OSError as exc:
        raise IoError(path, exc.strerror or str(exc)) from exc


def _bad_byte(cells: list[str]) -> tuple[int, str, str] | None:
    """The first byte that is not UTF-8 in ``cells``, text read with
    ``errors="surrogateescape"``: (the index of its cell, the cell's text
    before it, a reason naming it), or None. Such a byte is read as a lone
    surrogate, which valid UTF-8 never decodes to."""
    for index, cell in enumerate(cells):
        try:
            cell.encode()
        except UnicodeEncodeError as exc:
            byte = ord(cell[exc.start]) - 0xDC00
            return index, cell[: exc.start], f"not UTF-8: byte 0x{byte:02x}"
    return None


def _ascii_number(convert, text: str):
    """``convert(text)``, ``convert`` being ``int`` or ``float``, of a cell
    or a config value. Both also read ``_`` between digits and any Unicode
    digit (full-width, Arabic-Indic); neither input takes them, so both
    raise ValueError here."""
    if not text.isascii() or "_" in text:
        raise ValueError(text)
    return convert(text)


def _parse_int(path: str, line: int, column: str, text: str, minimum: int) -> int:
    try:
        value = _ascii_number(int, text)
    except ValueError:
        raise ParseError(path, line, column, f"not an integer: {_shown(text)}") from None
    if value < minimum:
        raise ParseError(path, line, column, f"must be >= {minimum}, got {_shown(value)}")
    return value


def read_researchers_csv(path: str) -> list[ResearcherRecord]:
    """Researchers in file order. Institution ids, field codes and tenures
    repeat down the file, so each distinct id or code is held, and each
    distinct ``years_active`` text converted, once per call."""
    records = []
    seen: dict[str, int] = {}
    shared: dict[str, str] = {}
    tenures: dict[str, int] = {}
    for line, row in _read_rows(path, RESEARCHER_HEADER):
        rid, inst, field_code, rank_text, years_text = row
        # Stripped as the ids in a byline slot are, so the two still match.
        rid, inst = rid.strip(), inst.strip()
        if not rid or not inst:
            column = "institution_id" if rid else "researcher_id"
            raise ParseError(path, line, column, "must not be blank")
        first = seen.setdefault(rid, line)
        if first != line:
            raise ParseError(
                path, line, "researcher_id",
                f"duplicate researcher id {_shown(rid)} (first seen on line {first})",
            )
        rank = _RANK_BY_NAME.get(rank_text.strip().lower())
        if rank is None:
            raise ParseError(
                path, line, "rank",
                f"expected one of Assistant/Associate/Full, got {_shown(rank_text)}",
            )
        years = tenures.get(years_text)
        if years is None:
            years = tenures[years_text] = _parse_int(path, line, "years_active", years_text, 0)
        records.append(ResearcherRecord(
            rid, shared.setdefault(inst, inst), shared.setdefault(field_code, field_code),
            rank, years,
        ))
    return records


_POSITION = attrgetter("position")


def read_publications_csv(
    path: str, researchers: Iterable[ResearcherRecord] = ()
) -> list[PublicationRecord]:
    """Publications in file order, each byline sorted by position.

    An external slot's text (``2:-:ext07``) recurs across bylines, so each
    distinct one is parsed once per call and its frozen slot shared. A
    researcher's slot text seldom recurs (on the benchmark's ``bulk`` input,
    seed 3, 21,078 of 24,757 are distinct, where 93,455 external slots hold
    4,372 texts), so it is split where it occurs and never memoized. Each
    distinct year and position text is converted, and each category and id
    held, once per call. The ids of ``researchers`` seed that sharing, so a
    slot naming one of them holds the record's own id strings, not an equal
    copy; any other id is read as without them. Only clean values are
    memoized, so a bad text fails at its line."""
    records = []
    external: dict[str, AuthorSlot] = {}
    shared: dict[str, str] = {}
    for r in researchers:
        rid, inst = r.researcher_id, r.institution_id
        shared[rid] = rid
        shared[inst] = inst
    years: dict[str, int] = {}
    positions: dict[str, int] = {}
    for line, row in _read_rows(path, PUBLICATION_HEADER):
        pid, year_text, category, citations_text, authors_cell = row
        # Stripped as researcher ids are, so a padded copy is still a duplicate
        # and a padded category still finds its baseline.
        pid, category = pid.strip(), category.strip()
        if not pid:
            raise ParseError(path, line, "publication_id", "must not be blank")
        year = years.get(year_text)
        if year is None:
            year = years[year_text] = _parse_int(path, line, "year", year_text, 0)
        citations = _parse_int(path, line, "citations", citations_text, 0)
        authors = []
        for part in authors_cell.split(";"):
            slot = external.get(part)
            if slot is None:
                fields = part.split(":")
                if len(fields) != 3:
                    raise ParseError(
                        path, line, "authors",
                        f"slot {_shown(part)} is not position:researcher_id:institution_id",
                    )
                pos_text, rid, inst = fields
                position = positions.get(pos_text)
                if position is None:
                    position = positions[pos_text] = _parse_int(
                        path, line, "authors", pos_text.strip(), 1
                    )
                rid, inst = rid.strip(), inst.strip()
                if not rid or not inst:
                    missing = "institution" if rid else "researcher id"
                    raise ParseError(path, line, "authors", f"slot {_shown(part)} has no {missing}")
                slot = AuthorSlot(
                    position,
                    None if rid == "-" else shared.setdefault(rid, rid),
                    shared.setdefault(inst, inst),
                )
                if rid == "-":
                    external[part] = slot
            authors.append(slot)
        authors.sort(key=_POSITION)
        records.append(PublicationRecord(
            pid, year, shared.setdefault(category, category),
            citations, tuple(authors),
        ))
    return records


def read_baselines_csv(path: str) -> CitationBaseline:
    entries: dict[tuple[int, str], float] = {}
    for line, row in _read_rows(path, BASELINE_HEADER):
        year_text, category, mean_text = row
        category = category.strip()  # as in publications.csv
        year = _parse_int(path, line, "year", year_text, 0)
        try:
            mean = _ascii_number(float, mean_text)
        except ValueError:
            raise ParseError(
                path, line, "mean_citations", f"not a number: {_shown(mean_text)}"
            ) from None
        if not math.isfinite(mean) or mean <= 0:
            raise ParseError(
                path, line, "mean_citations", f"must be finite and > 0, got {mean}"
            )
        key = (year, category)
        if key in entries:
            raise ParseError(
                path, line, "year", f"duplicate baseline entry ({year}, {_shown(category)})"
            )
        entries[key] = mean
    return CitationBaseline(entries)


def _config_file_keys() -> dict[str, tuple[str, object, Enum | None]]:
    """Config-file key -> (AssessmentConfig field, default value, dict key).

    A dict field keyed by an Enum takes one file key per member, spelled
    ``<key prefix><member value, lower case>`` with the field's prefix in
    ``AssessmentConfig._key_prefixes``; every other field is its own key."""
    keys = {}
    for name in AssessmentConfig._fields:
        default = getattr(AssessmentConfig, name)
        if isinstance(default, dict):
            prefix = AssessmentConfig._key_prefixes[name]
            for member, item in default.items():
                keys[prefix + member.value.lower()] = (name, item, member)
        else:
            keys[name] = (name, default, None)
    return keys


def _convert(default, text: str):
    """One config value as the type of ``default`` (a number, an Enum member
    or a fixed-length tuple of numbers); ValueError with a message for the
    user on bad input. Numbers follow the rules of number cells
    (``_ascii_number``)."""
    if isinstance(default, Enum):
        allowed = sorted(member.value for member in type(default))
        if text not in allowed:
            raise ValueError(f"expected one of {allowed}, got {_shown(text)}")
        return type(default)(text)
    try:
        if not isinstance(default, tuple):
            return _ascii_number(type(default), text)
        value = tuple(_ascii_number(type(default[0]), part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"bad value {_shown(text)}") from None
    if len(value) != len(default):
        raise ValueError(f"expected {len(default)} values, got {_shown(text)}")
    return value


def parse_config_file(path: str) -> AssessmentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8-sig", errors="surrogateescape")
    except OSError as exc:
        raise IoError(path, exc.strerror or str(exc)) from exc

    schema = _config_file_keys()
    seen: set[str] = set()
    entries: list[tuple[int, str, object]] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        # A byte that is not UTF-8 comes before any other defect of its line,
        # under the key before it.
        bad = not line.isascii() and _bad_byte([line])
        if bad:
            _, before, reason = bad
            raise ParseError(path, line_no, before.partition("=")[0].strip(), reason)
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

    def config_of(count: int) -> AssessmentConfig | str:
        """The config of the first ``count`` entries, or the message of the invariant
        they break; a per-member key overrides one entry of its field's default."""
        overrides: dict[str, object] = {}
        for _, key, value in entries[:count]:
            name, _, member = schema[key]
            if member is None:
                overrides[name] = value
            else:
                overrides.setdefault(name, dict(getattr(AssessmentConfig, name)))[member] = value
        try:
            return AssessmentConfig(**overrides)
        except ValueError as exc:
            return str(exc)

    config = config_of(len(entries))
    if isinstance(config, AssessmentConfig):
        return config
    # Name the first line at which the lines read so far break this invariant.
    line_no, key, _ = next(
        entry for count, entry in enumerate(entries, start=1) if config_of(count) == config
    )
    raise ParseError(path, line_no, key, config)


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------


def _json_value(value):
    """A config field's value in JSON terms: Enums as their values,
    Enum-keyed dicts keyed by member value."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, dict):
        return {key.value: item for key, item in value.items()}
    return value


# The parts of the report that grow with the institution count are filled
# into fixed templates: json's indenting encoder is pure Python and walks every
# value, while these give the same bytes at one ``%`` per entry. An
# institution entry is its filled head, then its band texts, its rank and the
# fixed texts between them as pieces of their own, so no entry copies them.
_INSTITUTION_HEAD = """\
    {
      "id": %s,
      "size": %d,
      "mean_original": %s,
      "mean_transformed": %s,
      "classification": %s,
      "inner_band": """
_OUTER_BAND = ',\n      "outer_band": '
_RANK = ',\n      "rank_with_caveat": {\n        "rank": '
_CAVEAT = (
    ',\n        "caveat": ' + encode_basestring_ascii(RANK_CAVEAT) + "\n      }\n    }"
)
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


def _array(pieces: list[str], items, indent: str) -> None:
    """Append to ``pieces`` a JSON array closed at ``indent``, each item
    given as a tuple of its already-indented pieces after the separator
    ``",\\n"``, without joining the items into one text."""
    opened = len(pieces)
    for item in items:
        pieces += item
    if len(pieces) == opened:
        pieces.append("[]")
    else:
        pieces[opened] = "[\n"  # the first item's separator opens the array
        pieces.append("\n" + indent + "]")


def emit_report(report: FunnelReport) -> str:
    """The report as JSON text, with fixed key order and full-precision floats.

    The bytes are those of ``json.dumps(payload, indent=2, allow_nan=False)``,
    which writes the small config, transform and fit blocks; a non-finite
    float raises the same ValueError. Each institution entry is written as
    pieces: its head (id, size, the two means, the classification) filled
    from one template, each distinct band's text, written once and shared by
    every entry of that band, the entry's rank, and fixed texts shared by
    every entry. Every piece goes to one final join, so the text is copied
    once and no entry holds a copy of the texts it shares."""
    head = json.dumps(
        {
            "config": {
                name: _json_value(getattr(report.config, name))
                for name in report.config._fields
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
    # Written on first use, so a non-finite value raises where json.dumps
    # would. Keyed by id: the report keeps every band alive.
    band_texts: dict[int, str] = {}

    def band(point) -> str:
        text = band_texts.get(id(point))
        if text is None:
            text = band_texts[id(point)] = _band(point)
        return text

    pieces = [head[:-2], ',\n  "institutions": ']  # head without the closing "\n}"
    _array(pieces, (
        (
            ",\n",
            _INSTITUTION_HEAD % (
                encode_basestring_ascii(s.institution_id),
                s.size,
                _number(s.mean_original),
                _number(s.mean_transformed),
                encode_basestring_ascii(s.classification.value),
            ),
            band(s.inner_band),
            _OUTER_BAND,
            band(s.outer_band),
            _RANK,
            str(rankings[s.institution_id]),
            _CAVEAT,
        )
        for s in report.summaries
    ), "  ")
    pieces.append(',\n  "diagnostics": {\n    "qq_points": ')
    _array(pieces, (
        (",\n", _QQ_POINT % (_number(x), _number(y))) for x, y in report.qq_points or ()
    ), "    ")
    slope = report.size_slope
    pieces += (
        ',\n    "qq_max_abs_deviation": ',
        "null" if not report.qq_points
        else _number(max(abs(y - x) for x, y in report.qq_points)),
        ',\n    "size_slope": ',
        "null" if slope is None else _SIZE_SLOPE % (_number(slope[0]), _number(slope[1])),
        "\n  }\n}\n",
    )
    return "".join(pieces)


# Characters handed to the encoder at a time, so no encoded copy of a whole
# output is ever made.
_WRITE_SLICE = 1 << 16


def _write_all(outputs: dict[str, Callable[[], str]]) -> None:
    """Build each destination's text and write it through a uniquely named
    temp file beside it, one output at a time.

    A destination that is a directory is rejected before any text is built.
    Then each text is built, written in slices and dropped before the next
    one is built, so no two outputs are held at once. Nothing is renamed
    until every temp file is written, so a build that fails (any exception)
    or a write that fails (a missing directory, a full disk) leaves every
    destination as it was. Temp files not yet renamed when anything fails are
    removed; an OSError becomes an IoError naming the destination it hit.
    Temp files are created with mode 0o666, as ``open`` creates files, so the
    umask and default ACLs give each output the mode a plain write would.
    """
    for destination in outputs:
        if os.path.isdir(destination):
            raise IoError(destination, os.strerror(errno.EISDIR))
    pending: list[tuple[Path, str]] = []
    try:
        for destination, build in outputs.items():
            text = build()
            path = Path(destination)
            tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            pending.append((tmp, destination))
            with open(fd, "w", encoding="utf-8", newline="") as handle:
                for start in range(0, len(text), _WRITE_SLICE):
                    handle.write(text[start : start + _WRITE_SLICE])
            del text
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


_INPUT_FLAGS = ("researchers", "publications", "baselines", "config")
_OUTPUT_FLAGS = ("report", "funnel_svg", "qq_svg", "caterpillar_svg")


def _duplicate_output(args: argparse.Namespace) -> str | None:
    """Why an output flag names a file that an input flag or an earlier
    output flag names, or None: the write would silently replace that input
    or that earlier output."""
    seen: dict[Path, str] = {}
    for name in _INPUT_FLAGS + _OUTPUT_FLAGS:
        destination = getattr(args, name)
        if not destination:
            continue
        flag = "--" + name.replace("_", "-")
        path = Path(destination).resolve()
        if path in seen and name in _OUTPUT_FLAGS:
            return f"{seen[path]} and {flag} both name {destination}"
        seen.setdefault(path, flag)
    return None


def _read_and_score(
    args: argparse.Namespace,
) -> tuple[dict[str, list[float]], AssessmentConfig, tuple[int, int]]:
    """Read and validate the inputs, apply the exclusions and score every
    kept researcher. Only each institution's FSS values, the config and the
    counts of dropped researchers and institutions leave this call, so the
    input and researcher records are freed before the report is built."""
    researchers = read_researchers_csv(args.researchers)
    publications = read_publications_csv(args.publications, researchers)
    baselines = read_baselines_csv(args.baselines)
    config = parse_config_file(args.config) if args.config else AssessmentConfig()
    index = validate_dataset(researchers, publications, baselines, config)
    population = apply_exclusions(researchers, config)
    values = {
        inst: [
            researcher_fss(r, index.get(r.researcher_id, ()), baselines, config)
            for r in members
        ]
        for inst, members in population.institutions.items()
    }
    return values, config, (population.dropped_researchers, population.dropped_institutions)


def _warnings(report: FunnelReport) -> list[str]:
    """What a successful run should not be trusted on, one line each."""
    warnings = []
    spec = report.transform
    if not spec.converged:
        lo, hi = spec.bracket_used
        warnings.append(
            f"the zero-skewness shift did not converge: skewness "
            f"{spec.achieved_skewness:.3g} at delta={spec.delta:.6g} after searching "
            f"[{lo:g}, {hi:g}], so the transformed scale is not symmetric and the "
            f"bands may be miscalibrated"
        )
    if report.qq_points is None:
        warnings.append(
            "no quantile plot (qq_points is empty): it needs at least 3 "
            "institutions whose adjusted means are not all equal"
        )
    if report.size_slope is None:
        warnings.append(
            "no size regression (size_slope is null): it needs at least 3 "
            "institutions, not all of one size"
        )
    return warnings


def run_assessment(args: argparse.Namespace) -> int:
    """The ``assess`` command on its parsed arguments; returns the exit code."""
    duplicate = _duplicate_output(args)
    if duplicate:
        print(f"error: {duplicate}", file=sys.stderr)
        return 2

    try:
        values, config, dropped = _read_and_score(args)
        report = build_funnel_report(values, config)
        del values  # the outputs are built from the report alone
        # Each output is built only when _write_all reaches it.
        outputs = {args.report: lambda: emit_report(report)}
        if args.funnel_svg:
            outputs[args.funnel_svg] = lambda: render_funnel_svg(report)
        if args.qq_svg:
            outputs[args.qq_svg] = lambda: render_qq_svg(report)
        if args.caterpillar_svg:
            outputs[args.caterpillar_svg] = lambda: render_caterpillar_svg(report)
        _write_all(outputs)
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

    # Printed with or without --quiet: the report was written, but these say
    # which of its parts not to rely on.
    for warning in _warnings(report):
        print(f"warning: {warning}", file=sys.stderr)
    if not args.quiet:
        flagged = sum(
            1 for s in report.summaries if s.classification is not Classification.WITHIN
        )
        print(
            f"assessed {report.fit.total_n} researchers in "
            f"{report.fit.group_count} institutions "
            f"(dropped {dropped[0]} researchers, {dropped[1]} institutions); "
            f"delta={report.transform.delta:.6g} "
            f"converged={report.transform.converged}; "
            f"{flagged} institution(s) outside the inner bands"
        )
        for destination in outputs:
            print(f"wrote {destination}")
    return 0


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

    # An option left out takes synth.generate_synthetic_dataset's default, so
    # each default is written once, in that signature.
    synth = sub.add_parser(
        "synth", help="generate a synthetic CSV fixture", argument_default=argparse.SUPPRESS
    )
    synth.add_argument("--out-dir", required=True)
    synth.add_argument("--institutions", type=int)
    synth.add_argument("--size-min", type=int)
    synth.add_argument("--size-max", type=int)
    synth.add_argument("--total", type=int, dest="total_researchers", metavar="TOTAL")
    synth.add_argument("--mean", type=float)
    synth.add_argument("--sd", type=float)
    synth.add_argument("--skewness", type=float)
    synth.add_argument("--institution-effect-sd", type=float)
    synth.add_argument("--seed", type=int)
    synth.add_argument("--quiet", action="store_true", default=False)
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

    # Loaded here, so an ``assess`` run never compiles the generator.
    from .synth import generate_synthetic_dataset

    try:
        paths = generate_synthetic_dataset(**{
            name: value for name, value in vars(args).items()
            if name not in ("command", "quiet")
        })
    except (IoError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.quiet:
        for name, path in paths.items():
            print(f"wrote {name}: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
