"""Print every metric of recorded benchmark runs, by name, unit and count.

    python3 perfbench/report.py [RESULT.json ...]

With no arguments it reads every record in ``.perfbench_out/results``.
Records of one workload and mode are grouped: each metric's median over
the runs, its spread (distance between the first and third quartile
over the median, the figure the bounds in ``BENCHMARK.json`` are
checked against) and the median sample count per run.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

RESULTS = Path(__file__).resolve().parent.parent / ".perfbench_out" / "results"


def spread(values: list[float]) -> float:
    """Interquartile distance over the median (0 for fewer than 2 runs)."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def main(argv=None) -> int:
    paths = [Path(p) for p in (sys.argv[1:] if argv is None else argv)]
    if not paths:
        paths = sorted(RESULTS.glob("*.json"))
    groups: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for path in paths:
        record = json.loads(path.read_text())
        groups[(record["workload"]["name"], record["trace"])].append(record)
    if not groups:
        print("no benchmark records found", file=sys.stderr)
        return 1
    for (workload, trace), records in sorted(groups.items()):
        seeds = sorted(r["seed"] for r in records)
        failed = sum(r["failed"] for r in records)
        attempted = sum(r["attempted"] for r in records)
        env = records[0]["environment"]
        print(f"{workload}  trace={trace}  runs={len(records)}  seeds={seeds}  "
              f"failed={failed}/{attempted}  commit={env['git_commit']} "
              f"dirty={env['git_dirty']}  nproc={env['nproc']}")
        names = records[0]["metrics"]
        width = max(len(n) for n in names)
        for name in names:
            values = [r["metrics"][name]["value"] for r in records]
            n = statistics.median(r["metrics"][name]["n"] for r in records)
            unit = records[0]["metrics"][name]["unit"]
            print(f"  {name:<{width}}  {statistics.median(values):>14.6g} {unit:<12} "
                  f"spread={spread(values):.4f}  n={n:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
