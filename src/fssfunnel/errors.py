"""Exception types shared across the assessment pipeline.

Dataset validation collects individual violations (subclasses of
:class:`DataViolation`) and raises them bundled in :class:`ValidationErrors`,
so one ingestion run surfaces every data problem instead of the first.
A message shows each input text it names through :func:`_shown`, so a cell of
any length gives a line of bounded length.
"""

from __future__ import annotations

from math import log10

# The most characters of an input text that a message shows.
_SHOWN = 100


def _shown(value) -> str:
    """An input text, number or other value as a message shows it: its repr,
    or, if that is longer than ``_SHOWN`` characters, the repr's first
    ``_SHOWN`` characters and the full length of the text. An int too long
    for ``repr`` (past ``sys.get_int_max_str_digits()``) is shown by its
    sign, if negative, and its number of digits. A tuple, such as a
    baseline's (year, category) key, is shown part by part, each part by
    these rules."""
    if type(value) is tuple:
        return f"({', '.join(map(_shown, value))})"
    try:
        shown = repr(value)
    except ValueError:
        if not isinstance(value, int):
            raise
        # 2**(b-1) <= |value| < 2**b, so it has d or d + 1 digits, d as below.
        magnitude = abs(value)
        digits = int((magnitude.bit_length() - 1) * log10(2)) + 1
        sign = "-" if value < 0 else ""
        return f"{sign}<int of {digits + (magnitude >= 10**digits)} digits>"
    if len(shown) <= _SHOWN:
        return shown
    length = len(value) if isinstance(value, str) else len(shown)
    return f"{shown[:_SHOWN]}... ({length} characters)"


class AssessmentError(Exception):
    """Base class for every error raised by this package."""


class DataViolation(AssessmentError):
    """A single dataset problem; collected, not necessarily raised on its own."""


class MissingBaseline(DataViolation):
    def __init__(self, year: int, category: str):
        self.year = year
        self.category = category
        super().__init__(f"no citation baseline for ({year}, {_shown(category)})")


class DuplicateResearcherId(DataViolation):
    def __init__(self, researcher_id: str):
        self.researcher_id = researcher_id
        super().__init__(f"duplicate researcher id {_shown(researcher_id)}")


class DuplicatePublicationId(DataViolation):
    def __init__(self, publication_id: str):
        self.publication_id = publication_id
        super().__init__(f"duplicate publication id {_shown(publication_id)}")


class MalformedAuthorList(DataViolation):
    def __init__(self, publication_id: str, reason: str):
        self.publication_id = publication_id
        self.reason = reason
        super().__init__(f"publication {_shown(publication_id)}: {reason}")


class UnknownResearcherRef(DataViolation):
    def __init__(self, publication_id: str, researcher_id: str):
        self.publication_id = publication_id
        self.researcher_id = researcher_id
        super().__init__(
            f"publication {_shown(publication_id)} references unknown researcher "
            f"{_shown(researcher_id)}"
        )


class YearsOutOfRange(DataViolation):
    def __init__(self, researcher_id: str, years_active: int, period_length: int):
        self.researcher_id = researcher_id
        self.years_active = years_active
        self.period_length = period_length
        super().__init__(
            f"researcher {_shown(researcher_id)}: years_active {_shown(years_active)} exceeds "
            f"the {period_length}-year observation period"
        )


class NonFiniteScore(DataViolation):
    """A researcher's FSS is too large for a float: the citations over their
    baselines, or their sum over salary and years, overflow."""

    def __init__(self, researcher_id: str):
        self.researcher_id = researcher_id
        super().__init__(f"FSS of researcher {_shown(researcher_id)} is too large for a float")


class ValidationErrors(AssessmentError):
    """Bundle of every violation found while validating a dataset."""

    def __init__(self, errors: list[DataViolation]):
        self.errors = list(errors)
        lines = "\n".join(f"  - {e}" for e in self.errors)
        super().__init__(f"{len(self.errors)} dataset violation(s):\n{lines}")


class EmptyPopulation(AssessmentError):
    """Every institution was excluded; the assessment cannot proceed."""


class DegenerateSample(AssessmentError):
    """Too few values, or no variation, for the requested statistic or
    figure: a skewness, a pooled fit with no more observations than groups,
    a size slope, a quantile plot, or a figure with nothing to plot."""


class IoError(AssessmentError):
    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}")


class ParseError(AssessmentError):
    def __init__(self, file: str, line: int, column: str, reason: str):
        self.file = file
        self.line = line
        self.column = column
        self.reason = reason
        super().__init__(f"{file}:{line}: column {_shown(column)}: {reason}")
