"""Benchmark of the ``fssfunnel assess`` command line, end to end and per layer.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload bulk --seed 1 --seconds 40 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 40 --trace 0

One client in a closed loop: the driver starts one ``assess`` child at a time
and waits for it before starting the next. The inputs for (workload, seed) are
generated once, before any timing, under ``.bench_work/`` in the checkout and
removed at exit.

``--trace 0`` reports the end-to-end metrics: wall_rel (an untraced child's
wall time over that of the ``reference.py`` children run around it),
peak_rss_mb of that child, and setup_s, the time of a fresh interpreter that
only imports ``fssfunnel.cli``, scaled by the same ``reference.py`` children
to seconds at the reference's nominal speed; each is the median over the
run. ``--trace 1`` adds traced children (``traced_main.py``) and reports the
per-layer metrics. Every
child's outputs are checked against ``oracle.py``; a child that exits non-zero
or fails the check counts as failed and its timings are dropped. The last line
of standard output is one JSON object with the keys correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import oracle
import workloads
from spans import METRICS

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Fewest measurement rounds per invocation, even when --seconds runs out first.
MIN_ROUNDS = 3
# Fixed nominal wall seconds of one reference.py child; setup_s is the set-up
# time at this reference speed. Its run medians on 2 vCPUs of the host the
# benchmark was written on were 0.45 to 0.6 s.
REFERENCE_S = 0.45
# A child still running after this many seconds is killed and counts as failed.
CHILD_TIMEOUT_S = 120
# The assess child: the console script's entry point, then a copy of
# /proc/self/status (for VmHWM, its peak RSS) to the path in argv[1]. The
# child's ru_maxrss from wait4 is no use: at exec the kernel seeds it with the
# parent's peak, so it reads at least the driver's own peak RSS.
CLI = (
    "import sys; from fssfunnel.cli import main; code = main(sys.argv[2:]); "
    "open(sys.argv[1], 'w').write(open('/proc/self/status').read()); sys.exit(code)"
)
IMPORT_ONLY = "import fssfunnel.cli"
# assess option -> file the child writes it to.
OUTPUTS = {
    "report": "report.json",
    "funnel-svg": "funnel.svg",
    "qq-svg": "qq.svg",
    "caterpillar-svg": "caterpillar.svg",
}

END_TO_END = {"wall_rel": "ratio", "peak_rss_mb": "MB", "setup_s": "s"}
# Printed on the summary lines but not part of the JSON result.
DIAGNOSTIC = {"wall_s": "s", "setup_wall_s": "s", "reference_s": "s"}
PER_LAYER = {name: unit for name, (unit, _) in METRICS.items()}
PER_LAYER["trace.overhead_s"] = "s"
# Disjoint stages of one traced run; transform and the funnel's own steps are
# inside funnel.report_s.
STAGES = ("cli.parse_s", "model.validate_s", "model.exclude_s", "indicator.score_s",
          "funnel.report_s", "cli.serialize_s", "render.svg_s", "cli.self_s")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], log: Path) -> tuple[float, int]:
    """Run one child to completion; return its wall seconds and exit code.
    A child still running after CHILD_TIMEOUT_S is killed and fails."""
    with open(log, "wb") as sink:
        start = perf_counter()
        try:
            code = subprocess.run(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                  stdout=sink, stderr=subprocess.STDOUT,
                                  timeout=CHILD_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            sink.write(f"killed after {CHILD_TIMEOUT_S} s\n".encode())
            code = -9
        return perf_counter() - start, code


def peak_rss_mb(status: Path) -> float:
    """VmHWM from a copy of the child's /proc/self/status, in MB."""
    for line in status.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise ValueError(f"no VmHWM line in {status}")


class Checker:
    """Checks one child's outputs; remembers verdicts by content digest, since
    identical bytes get an identical verdict, and requires every report of the
    invocation to be byte-identical to the first."""

    def __init__(self, expected: oracle.Expected):
        self.expected = expected
        self.report_digest: str | None = None
        self.verdicts: dict[str, list[str]] = {}

    def __call__(self, out: Path) -> list[str]:
        problems = []
        for key, name in OUTPUTS.items():
            try:
                data = (out / name).read_bytes()
            except OSError as exc:
                problems.append(f"{key}: {exc}")
                continue
            digest = hashlib.sha256(data).hexdigest()
            if key == "report":
                if self.report_digest is None:
                    self.report_digest = digest
                elif digest != self.report_digest:
                    problems.append("report bytes differ from the first run's")
            if digest not in self.verdicts:
                text = data.decode("utf-8", errors="replace")
                self.verdicts[digest] = (
                    oracle.check_report(text, self.expected) if key == "report"
                    else oracle.check_svg(text)
                )
            problems += self.verdicts[digest]
        return problems


def cli_args(inputs: dict[str, Path], out: Path) -> list[str]:
    args = ["assess"]
    for key in workloads.INPUT_NAMES:
        args += [f"--{key}", str(inputs[key])]
    for key, name in OUTPUTS.items():
        args += [f"--{key}", str(out / name)]
    return args


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


class Run:
    """One invocation: a workload, a seed, a window of measured children."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload, self.seed, self.work = workload, seed, work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.absent: list[str] = []
        self.samples: dict[str, list[float]] = {}

    def record(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def prepare(self) -> None:
        inputs = workloads.generate(self.workload, self.seed)
        self.inputs, self.digests = inputs.write(self.work / "inputs")
        del inputs
        self.check = Checker(oracle.expected_report(self.inputs))

    def setup(self) -> float:
        wall, code = spawn([sys.executable, "-c", IMPORT_ONLY], self.work / "setup.log")
        if code != 0:
            raise SystemExit(f"importing fssfunnel.cli failed:\n{self.log('setup.log')}")
        return wall

    def reference(self) -> float:
        """Wall time of one reference.py child, which tracks how fast the
        machine runs around each assess child; see README.md."""
        wall, code = spawn([sys.executable, str(BENCH / "reference.py")],
                           self.work / "reference.log")
        if code != 0:
            raise SystemExit(f"reference task failed:\n{self.log('reference.log')}")
        return wall

    def log(self, name: str) -> str:
        return (self.work / name).read_text(errors="replace")[-2000:]

    def untraced(self, before: float) -> tuple[float, float | None]:
        """One set-up child and one untraced assess child, after a
        reference.py child that took ``before`` seconds and before another.
        Return the second reference's seconds, which the next round starts
        from, and the assess child's seconds less the set-up child's, or
        None when the assess child failed."""
        out = fresh_dir(self.work / "out")
        status = self.work / "status.txt"
        status.unlink(missing_ok=True)
        setup = self.setup()
        wall, code = spawn([sys.executable, "-c", CLI, str(status), *cli_args(self.inputs, out)],
                           self.work / "assess.log")
        after = self.reference()
        reference = (before + after) / 2
        self.record("reference_s", reference)
        self.record("setup_wall_s", setup)
        self.record("setup_s", setup / reference * REFERENCE_S)
        if not self.accept(code, out, "assess.log"):
            return after, None
        self.record("wall_s", wall)
        self.record("wall_rel", wall / reference)
        self.record("peak_rss_mb", peak_rss_mb(status))
        return after, wall - setup

    def traced(self, untraced_main_s: float | None) -> None:
        out = fresh_dir(self.work / "traced")
        metrics_path = out / "metrics.json"
        argv = [sys.executable, str(BENCH / "traced_main.py"), str(metrics_path),
                *cli_args(self.inputs, out)]
        _, code = spawn(argv, self.work / "traced.log")
        if self.accept(code, out, "traced.log"):
            traced = json.loads(metrics_path.read_text())
            for name, value in traced["metrics"].items():
                self.record(name, value)
            root = traced["root_s"]
            if root is not None:
                self.record("trace.root_s", root)
                if untraced_main_s is not None:
                    self.record("trace.overhead_s", root - untraced_main_s)
            self.absent = traced["absent"]

    def accept(self, code: int, out: Path, log: str) -> bool:
        self.attempted += 1
        problems = [f"exit code {code}: {self.log(log)}"] if code != 0 else self.check(out)
        if problems:
            self.failed += 1
            self.problems += problems
        return not problems

    def measure(self, seconds: float, trace: bool) -> None:
        """Rounds of the untraced children and, when tracing, one traced
        child, so every sample sees the same machine conditions, until
        ``seconds`` have passed. trace.overhead_s is taken within a round."""
        deadline = perf_counter() + seconds
        rounds = 0
        reference = self.reference()
        while rounds < MIN_ROUNDS or perf_counter() < deadline:
            reference, untraced_main_s = self.untraced(reference)
            if trace:
                self.traced(untraced_main_s)
            rounds += 1

    def metrics(self, trace: bool) -> dict[str, float]:
        units = PER_LAYER if trace else END_TO_END
        return {name: statistics.median(self.samples[name])
                for name in units if self.samples.get(name)}

    def summary(self, trace: bool) -> list[str]:
        units = PER_LAYER if trace else {**END_TO_END, **DIAGNOSTIC}
        lines = [
            f"{self.workload} seed={self.seed} inputs "
            + " ".join(f"{key}:sha256={digest[:16]}" for key, digest in self.digests.items())
        ]
        for name, unit in units.items():
            values = self.samples.get(name)
            if not values:
                continue
            q1, median, q3 = quartiles(values)
            lines.append(
                f"{self.workload} {name} median={median:.6g} {unit} "
                f"q1={q1:.6g} q3={q3:.6g} n={len(values)}"
            )
        if trace and self.samples.get("trace.root_s"):
            root = statistics.median(self.samples["trace.root_s"])
            lines.append(f"{self.workload} share of traced cli.main ({root:.4g} s): " + " ".join(
                f"{name}={statistics.median(self.samples[name]) / root:.1%}"
                for name in STAGES if name in self.samples
            ))
        lines.append(
            f"{self.workload} failed_ratio={self.failed / max(1, self.attempted):.6g} "
            f"(failed={self.failed} attempted={self.attempted})"
        )
        return lines


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = fresh_dir(WORK / f"{workload}-{seed}-{os.getpid()}")
    try:
        run = Run(workload, seed, work)
        run.prepare()
        run.measure(seconds, trace)
        for line in run.summary(trace):
            print(line)
        for problem in run.problems[:20]:
            print(f"{workload} check failed: {problem}", file=sys.stderr)
        for name in run.absent:
            print(f"{workload} traced target absent: {name}", file=sys.stderr)
        units = PER_LAYER if trace else END_TO_END
        return {
            "correct": run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in run.metrics(trace).items()
            },
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    # SIGTERM unwinds like an error, so the running child is killed and the
    # work directory removed.
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fssfunnel" / "cli.py").is_file():
        print(f"error: no fssfunnel sources under {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
