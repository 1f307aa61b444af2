"""Fixed reference work for the benchmark's wall_rel metric.

Run as its own process, like an ``assess`` child: interpreter start, numpy
import, CSV parsing, grouping rows in dicts, numpy reductions and JSON
output, on the same rows every time. It never imports ``fssfunnel``, so a
change to the package cannot move it; it only tracks how fast the machine is
running when it is timed.
"""

import csv
import io
import json

import numpy as np

ROWS = 60_000


def main() -> str:
    rows = [
        [f"r{i:06d}", f"u{i % 397:05d}", str(i % 5 + 1), f"{(i * 7919) % 1000 / 7.0:.4f}"]
        for i in range(ROWS)
    ]
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    groups: dict[str, list[tuple[str, int, float]]] = {}
    for rid, inst, years, score in csv.reader(io.StringIO(buffer.getvalue())):
        groups.setdefault(inst, []).append((rid, int(years), float(score)))
    means = {
        inst: float(np.log(np.asarray([score for *_, score in members]) + 1.0).mean())
        for inst, members in groups.items()
    }
    return json.dumps(means, indent=2)


if __name__ == "__main__":
    main()
