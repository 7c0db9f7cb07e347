"""Run every workload untraced on ten seeds; store the runs, print the spreads.

    python3 perfbench/spread.py --out perfbench/results/SPREAD_<n>.json

Each run is its own ``run.py`` process, one after the other, with
``BENCHMARK.json``'s ``run_seconds``.  For each workload and end-to-end
metric the command prints the median and the spread, the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) over
the median, for the scaled metric of the result line and for the unscaled
time in the ``record`` line; and the metric's bound.  These spreads are what
the bounds in ``BENCHMARK.json`` rest on.  It exits with status 1 when a run
failed its correctness gate.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from record import BENCHMARK, RUN_SECONDS, WORKLOADS, run

SEEDS = range(10)


def spread(values) -> tuple[float, float]:
    """(median, interquartile distance over the median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write every record here as JSON")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    ok = True
    stored = {}
    for workload in WORKLOADS:
        records = []
        for seed in SEEDS:
            record, result = run(workload, seed, RUN_SECONDS, 0)
            ok &= result["correct"]
            records.append(record)
        stored[workload] = records
        print(f"{workload}: {len(records)} seeds")
        print(f"  {'metric':<14} {'median':>10} {'spread':>8} {'unscaled':>10} "
              f"{'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            median, iqr = spread([r["metrics"][name] for r in records])
            line = f"  {name:<14} {median:>10.4g} {iqr:>8.1%}"
            if name in records[0]["unscaled"]:
                raw_median, raw_iqr = spread([r["unscaled"][name] for r in records])
                line += f" {raw_median:>10.4g} {raw_iqr:>8.1%}"
            else:
                line += f" {'':>10} {'':>8}"
            print(f"{line} {bound:>6.0%}")

    if args.out:
        Path(args.out).write_text(json.dumps(stored, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
