"""In-memory spans around the public functions of the fssfunnel pipeline.

Wrappers are installed on the module attributes the pipeline looks up at call
time (``fssfunnel.cli.researcher_fss``, ``fssfunnel.funnel.performance_ranks``
and so on), so the package itself carries no tracing code. Each call records a
span with its name, start, end and parent; per-layer metrics are computed from
the spans after the run. A span name none of whose target attributes exists
is reported as absent, and every metric that depends on it is left out
instead of failing.
"""

from __future__ import annotations

import importlib
import math
import os
from dataclasses import dataclass, field
from time import perf_counter

# (span name, module, attribute). The attribute is the name the caller looks
# up, which is why a function imported into another module is wrapped there.
TARGETS = (
    ("cli.main", "fssfunnel.cli", "main"),
    ("cli.run_assessment", "fssfunnel.cli", "run_assessment"),
    ("cli.read_researchers_csv", "fssfunnel.cli", "read_researchers_csv"),
    ("cli.read_publications_csv", "fssfunnel.cli", "read_publications_csv"),
    ("cli.read_baselines_csv", "fssfunnel.cli", "read_baselines_csv"),
    ("cli.parse_config_file", "fssfunnel.cli", "parse_config_file"),
    ("cli.emit_report", "fssfunnel.cli", "emit_report"),
    ("model.validate_dataset", "fssfunnel.cli", "validate_dataset"),
    ("model.apply_exclusions", "fssfunnel.cli", "apply_exclusions"),
    ("indicator.researcher_fss", "fssfunnel.cli", "researcher_fss"),
    ("funnel.build_funnel_report", "fssfunnel.cli", "build_funnel_report"),
    ("transform.zero_skewness_delta", "fssfunnel.funnel", "zero_skewness_delta"),
    ("transform.solve_zero_skew", "fssfunnel.funnel", "solve_zero_skew"),
    ("transform.solve_zero_skew", "fssfunnel.transform", "solve_zero_skew"),
    ("funnel.fit_pooled", "fssfunnel.funnel", "fit_pooled"),
    ("funnel.classify_institution", "fssfunnel.funnel", "classify_institution"),
    ("funnel.confidence_bands", "fssfunnel.funnel", "confidence_bands"),
    ("funnel.adjusted_means", "fssfunnel.funnel", "adjusted_means"),
    ("funnel.qq_points", "fssfunnel.funnel", "qq_points"),
    ("funnel.size_slope", "fssfunnel.funnel", "size_slope"),
    ("funnel.performance_ranks", "fssfunnel.funnel", "performance_ranks"),
    ("render.render_funnel_svg", "fssfunnel.cli", "render_funnel_svg"),
    ("render.render_qq_svg", "fssfunnel.cli", "render_qq_svg"),
    ("render.render_caterpillar_svg", "fssfunnel.cli", "render_caterpillar_svg"),
)

PARSE = ("cli.read_researchers_csv", "cli.read_publications_csv",
         "cli.read_baselines_csv", "cli.parse_config_file")
TRANSFORM = ("transform.zero_skewness_delta", "transform.solve_zero_skew")
CLASSIFY = ("funnel.classify_institution", "funnel.confidence_bands")
DIAGNOSTICS = ("funnel.adjusted_means", "funnel.qq_points", "funnel.size_slope")
RENDER = ("render.render_funnel_svg", "render.render_qq_svg", "render.render_caterpillar_svg")

# Per-layer metric -> (unit, span names it needs). The driver adds
# trace.overhead_s, which needs the untraced runs as well.
METRICS = {
    "cli.parse_s": ("s", PARSE),
    "cli.rows_in": ("count", PARSE[:3]),
    "cli.slots_in": ("count", ("cli.read_publications_csv",)),
    "cli.bytes_in": ("bytes", PARSE),
    "cli.serialize_s": ("s", ("cli.emit_report",)),
    "cli.report_bytes": ("bytes", ("cli.emit_report",)),
    "cli.self_s": ("s", ("cli.run_assessment",)),
    "model.validate_s": ("s", ("model.validate_dataset",)),
    "model.exclude_s": ("s", ("model.apply_exclusions",)),
    "model.researchers_dropped": ("count", ("model.apply_exclusions",)),
    "model.institutions_dropped": ("count", ("model.apply_exclusions",)),
    "indicator.score_s": ("s", ("indicator.researcher_fss",)),
    "indicator.calls": ("count", ("indicator.researcher_fss",)),
    "indicator.pairs": ("count", ("indicator.researcher_fss",)),
    "indicator.slot_visits": ("count", ("indicator.researcher_fss",)),
    "transform.solve_s": ("s", TRANSFORM),
    "transform.objective_evals": ("count", ("transform.solve_zero_skew",)),
    "transform.bracket_doublings": ("count", ("transform.solve_zero_skew",)),
    "transform.converged": ("flag", ("transform.solve_zero_skew",)),
    "funnel.report_s": ("s", ("funnel.build_funnel_report",)),
    "funnel.fit_s": ("s", ("funnel.fit_pooled",)),
    "funnel.classify_s": ("s", CLASSIFY),
    "funnel.diagnostics_s": ("s", DIAGNOSTICS),
    "funnel.rank_s": ("s", ("funnel.performance_ranks",)),
    "funnel.self_s": ("s", ("funnel.build_funnel_report",)),
    "funnel.institutions": ("count", ("funnel.build_funnel_report",)),
    "render.svg_s": ("s", RENDER),
    "render.svg_bytes": ("bytes", RENDER),
    "render.points": ("count", RENDER),
}

# Spans whose arguments and result layer_metrics reads; every other span keeps
# only its name, times and parent, so thousands of small calls stay cheap.
DETAILED = frozenset(PARSE + RENDER + (
    "cli.emit_report", "model.apply_exclusions", "indicator.researcher_fss",
    "transform.solve_zero_skew", "funnel.build_funnel_report",
))


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int | None = None
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    result: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of one single-threaded run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.objective_evals = 0
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, function):
        tracer = self
        detailed = name in DETAILED

        def traced(*args, **kwargs):
            # The solver's objective is a local closure, so it is counted by
            # swapping in a counting wrapper on its way into the solver.
            if name == "transform.solve_zero_skew" and args:
                args = (tracer._count_evals(args[0]),) + args[1:]
            index = len(tracer.spans)
            span = Span(name, 0.0, parent=tracer._open[-1] if tracer._open else None)
            if detailed:
                span.args, span.kwargs = args, kwargs
            tracer.spans.append(span)
            tracer._open.append(index)
            span.start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                span.end = perf_counter()
                tracer._open.pop()
            if detailed:
                span.result = result
            return result

        return traced

    def _count_evals(self, objective):
        def counted(delta):
            self.objective_evals += 1
            return objective(delta)

        return counted

    def install(self, targets=TARGETS) -> set[str]:
        """Wrap every target that exists; return the span names with no
        target installed."""
        installed = set()
        for name, module_name, attribute in targets:
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                module = None
            original = getattr(module, attribute, None)
            if original is None:
                continue
            self._restore.append((module, attribute, original))
            setattr(module, attribute, self.wrap(name, original))
            installed.add(name)
        return {name for name, _, _ in targets} - installed

    def uninstall(self) -> None:
        while self._restore:
            module, attribute, original = self._restore.pop()
            setattr(module, attribute, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
    return own


def outermost(spans: list[Span], names) -> list[Span]:
    """Spans named in ``names`` with no ancestor also named there, so nested
    calls inside one group (classify_institution calling confidence_bands) are
    not counted twice."""
    names = set(names)
    found = []
    for span in spans:
        if span.name not in names:
            continue
        parent = span.parent
        while parent is not None and spans[parent].name not in names:
            parent = spans[parent].parent
        if parent is None:
            found.append(span)
    return found


def _arg(span: Span, position: int, keyword: str):
    return span.args[position] if len(span.args) > position else span.kwargs[keyword]


def _doublings(span: Span) -> int:
    """Upper-bracket doublings the solver made, from TransformSpec.bracket_used."""
    given = _arg(span, 1, "bracket")[1]
    used = span.result.bracket_used[1]
    return max(0, math.ceil(math.log2(used / given) - 1e-9))


def layer_metrics(tracer: Tracer, absent: set[str]) -> dict[str, float]:
    """Per-layer metrics of one traced run; metrics needing an absent span are
    left out."""
    spans = tracer.spans
    own = self_times(spans)

    def total(names) -> float:
        return sum(span.duration for span in outermost(spans, names))

    def named(name) -> list[Span]:
        return [span for span in spans if span.name == name]

    def own_time(name) -> float:
        return sum(own[i] for i, span in enumerate(spans) if span.name == name)

    def publications():
        return [p for span in named("cli.read_publications_csv") for p in span.result]

    solves = outermost(spans, ("transform.solve_zero_skew",))
    exclusions = named("model.apply_exclusions")
    scored = named("indicator.researcher_fss")
    rendered = outermost(spans, RENDER)
    compute = {
        "cli.parse_s": lambda: total(PARSE),
        "cli.rows_in": lambda: sum(
            len(span.result.entries if hasattr(span.result, "entries") else span.result)
            for span in outermost(spans, PARSE[:3])
        ),
        "cli.slots_in": lambda: sum(len(p.authors) for p in publications()),
        "cli.bytes_in": lambda: sum(
            os.path.getsize(_arg(span, 0, "path")) for span in outermost(spans, PARSE)
        ),
        "cli.serialize_s": lambda: total(("cli.emit_report",)),
        "cli.report_bytes": lambda: sum(
            len(span.result.encode("utf-8")) for span in named("cli.emit_report")
        ),
        "cli.self_s": lambda: own_time("cli.run_assessment"),
        "model.validate_s": lambda: total(("model.validate_dataset",)),
        "model.exclude_s": lambda: total(("model.apply_exclusions",)),
        "model.researchers_dropped": lambda: sum(
            span.result.dropped_researchers for span in exclusions
        ),
        "model.institutions_dropped": lambda: sum(
            span.result.dropped_institutions for span in exclusions
        ),
        "indicator.score_s": lambda: total(("indicator.researcher_fss",)),
        "indicator.calls": lambda: len(scored),
        "indicator.pairs": lambda: sum(
            len(_arg(span, 1, "publications")) for span in scored
        ),
        "indicator.slot_visits": lambda: sum(
            len(p.authors) for span in scored for p in _arg(span, 1, "publications")
        ),
        "transform.solve_s": lambda: total(TRANSFORM),
        "transform.objective_evals": lambda: tracer.objective_evals,
        "transform.bracket_doublings": lambda: sum(_doublings(span) for span in solves),
        "transform.converged": lambda: int(all(span.result.converged for span in solves)),
        "funnel.report_s": lambda: total(("funnel.build_funnel_report",)),
        "funnel.fit_s": lambda: total(("funnel.fit_pooled",)),
        "funnel.classify_s": lambda: total(CLASSIFY),
        "funnel.diagnostics_s": lambda: total(DIAGNOSTICS),
        "funnel.rank_s": lambda: total(("funnel.performance_ranks",)),
        "funnel.self_s": lambda: own_time("funnel.build_funnel_report"),
        "funnel.institutions": lambda: sum(
            len(span.result.summaries) for span in named("funnel.build_funnel_report")
        ),
        "render.svg_s": lambda: total(RENDER),
        "render.svg_bytes": lambda: sum(len(span.result.encode("utf-8")) for span in rendered),
        "render.points": lambda: sum(
            len(report.qq_points or ()) if span.name == "render.render_qq_svg"
            else len(report.summaries)
            for span in rendered
            for report in (_arg(span, 0, "report"),)
        ),
    }
    return {
        name: float(compute[name]())
        for name, (_, needs) in METRICS.items()
        if not absent.intersection(needs)
    }
