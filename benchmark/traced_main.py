"""Run ``fssfunnel.cli.main`` in this process with spans around each layer.

Usage: python3 benchmark/traced_main.py METRICS_JSON assess --researchers ...

Everything after METRICS_JSON is handed to ``fssfunnel.cli.main`` unchanged.
The per-layer metrics of the run, the duration of the root ``cli.main`` span
and the names of absent targets are written to METRICS_JSON.
"""

from __future__ import annotations

import json
import sys

import fssfunnel.cli

from spans import Tracer, layer_metrics


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    absent = tracer.install()
    try:
        code = fssfunnel.cli.main(cli_args)
    finally:
        tracer.uninstall()
    roots = [span for span in tracer.spans if span.name == "cli.main"]
    result = {
        "exit_code": code,
        "root_s": roots[0].duration if roots else None,
        "absent": sorted(absent),
        "metrics": layer_metrics(tracer, absent),
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
