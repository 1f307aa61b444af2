"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 benchmark/spread.py --workloads bulk,hyperauthor,wide --seeds 1-10 \\
        --seconds 40

For every workload and metric it prints the median of the per-run values and
the distance between their first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of that median, which is
how BENCHMARK.json's bounds are judged. Runs use ``--trace 0``: the bounds
apply to the end-to-end metrics only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",")]


def spread(values: list[float]) -> tuple[float, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("nan")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True, type=seeds)
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args()

    results: dict[str, list[dict]] = {}
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(argv, capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            results.setdefault(workload, []).append({"seed": seed, **result})
            values = " ".join(
                f"{name}={metric['value']:.6g}" for name, metric in result["metrics"].items()
            )
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)

    for workload, runs in results.items():
        for name in runs[0]["metrics"]:
            values = [run["metrics"][name]["value"] for run in runs if name in run["metrics"]]
            if len(values) < 2:
                continue
            median, share = spread(values)
            print(f"{workload} {name} median={median:.6g} iqr/median={share:.4f} n={len(values)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
