"""Tests of the benchmark's own parts: generator, output check and spans."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import traced_main  # noqa: E402
import workloads  # noqa: E402
from fssfunnel.cli import main as cli_main  # noqa: E402

SMALL = {"bulk": 0.01, "hyperauthor": 0.2, "wide": 0.01}


def assess(paths, out: Path) -> list[str]:
    out.mkdir(parents=True, exist_ok=True)
    return run.cli_args(paths, out) + ["--quiet"]


@pytest.fixture(scope="module")
def bulk_run(tmp_path_factory):
    """A small bulk input set, its reference and the CLI's report on it."""
    root = tmp_path_factory.mktemp("bulk")
    paths, _ = workloads.generate("bulk", 3, SMALL["bulk"]).write(root / "inputs")
    assert cli_main(assess(paths, root / "out")) == 0
    return paths, oracle.expected_report(paths), (root / "out" / "report.json").read_text()


@pytest.mark.parametrize("name", sorted(SMALL))
def test_generator_is_a_function_of_the_seed(name, tmp_path):
    _, first = workloads.generate(name, 5, SMALL[name]).write(tmp_path / "a")
    _, again = workloads.generate(name, 5, SMALL[name]).write(tmp_path / "b")
    _, other = workloads.generate(name, 6, SMALL[name]).write(tmp_path / "c")
    assert first == again
    assert first["publications"] != other["publications"]
    assert first["researchers"] != other["researchers"]


def test_checker_accepts_the_cli_report(bulk_run):
    _, expected, text = bulk_run
    assert expected.total_n > 0
    assert oracle.check_report(text, expected) == []


def test_checker_rejects_one_perturbed_mean(bulk_run):
    _, expected, text = bulk_run
    report = json.loads(text)
    report["institutions"][3]["mean_original"] *= 1 + 1e-10
    problems = oracle.check_report(json.dumps(report), expected)
    assert len(problems) == 1 and "mean_original" in problems[0]


def test_checker_rejects_one_wrong_label(bulk_run):
    _, expected, text = bulk_run
    report = json.loads(text)
    entry = report["institutions"][0]
    entry["classification"] = "above_outer" if entry["classification"] == "within" else "within"
    problems = oracle.check_report(json.dumps(report), expected)
    assert len(problems) == 1 and "classification" in problems[0]


def test_checker_rejects_malformed_svg():
    assert oracle.check_svg("<svg><g></svg>")
    assert oracle.check_svg('<svg xmlns="http://www.w3.org/2000/svg"></svg>') == []


def test_reference_credit_follows_both_rules():
    assert oracle.credit(["a"], "life_science") == [1.0]
    assert oracle.credit(["a", "b", "a"], "life_science") == pytest.approx([0.4, 0.2, 0.4])
    assert oracle.credit(["a", "b", "c", "d", "e"], "life_science") == pytest.approx(
        [0.30, 0.15, 0.10, 0.15, 0.30]
    )
    assert oracle.credit(["a", "b", "c"], "life_science") == pytest.approx(
        [0.3 / 0.75, 0.15 / 0.75, 0.3 / 0.75]
    )


def test_self_time_on_a_hand_built_span_tree():
    tree = [
        spans.Span("root", 0.0, 10.0),
        spans.Span("a", 1.0, 4.0, parent=0),
        spans.Span("b", 5.0, 9.0, parent=0),
        spans.Span("c", 6.0, 8.0, parent=2),
    ]
    assert spans.self_times(tree) == [3.0, 3.0, 2.0, 2.0]
    assert [s.name for s in spans.outermost(tree, ("b", "c"))] == ["b"]
    assert [s.name for s in spans.outermost(tree, ("a", "c"))] == ["a", "c"]


def test_missing_target_gives_an_absent_metric():
    import fssfunnel.funnel

    original = fssfunnel.funnel.performance_ranks
    tracer = spans.Tracer()
    absent = tracer.install([
        ("indicator.researcher_fss", "fssfunnel.cli", "no_such_function"),
        ("render.render_qq_svg", "fssfunnel.no_such_module", "render_qq_svg"),
        ("funnel.performance_ranks", "fssfunnel.funnel", "performance_ranks"),
        # One of two targets of a span name is missing: the name is present.
        ("transform.solve_zero_skew", "fssfunnel.funnel", "no_such_function"),
        ("transform.solve_zero_skew", "fssfunnel.transform", "solve_zero_skew"),
    ])
    try:
        assert absent == {"indicator.researcher_fss", "render.render_qq_svg"}
        assert fssfunnel.funnel.performance_ranks is not original
        metrics = spans.layer_metrics(tracer, absent)
    finally:
        tracer.uninstall()
    assert fssfunnel.funnel.performance_ranks is original
    assert not any(name.startswith(("indicator.", "render.")) for name in metrics)
    assert metrics["funnel.rank_s"] == 0.0
    assert "transform.objective_evals" in metrics


def test_traced_run_reports_every_layer_and_the_same_bytes(bulk_run, tmp_path):
    paths, _, untraced_report = bulk_run
    out = tmp_path / "traced"
    metrics_path = tmp_path / "metrics.json"
    assert traced_main.main([str(metrics_path), *assess(paths, out)]) == 0
    traced = json.loads(metrics_path.read_text())
    assert (out / "report.json").read_text() == untraced_report
    assert traced["absent"] == []
    assert set(traced["metrics"]) == set(spans.METRICS)
    assert traced["metrics"]["indicator.calls"] == json.loads(untraced_report)["fit"]["total_n"]
    assert traced["root_s"] >= traced["metrics"]["cli.parse_s"] > 0
