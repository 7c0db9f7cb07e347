"""Run every workload untraced once and traced twice; print and store it all.

    python3 perfbench/record.py --out perfbench/results/BENCH_1.json

Each run is its own ``run.py`` process, one after the other.  The command
prints every end-to-end metric by name and unit for each workload, the
layer split of the traced run and the tracing overhead (traced minus
untraced unscaled wall time).  It is also the determinism self-test: it
exits with status 1 unless every work count of the two traced runs is
identical, and every run passed its correctness gate.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import COUNT_METRICS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
RUN_SECONDS = BENCHMARK["run_seconds"]
SEED = 0

# layer shares of the traced wall time worth printing next to the metrics
SHARES = ("milp.linprog.s", "engine.master_mip.s", "separation.mip.s",
          "graph.max_flow.s", "formulations.build_master.s", "engine.self_s")


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One run.py process; returns its record and its result line."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                          check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    lines = proc.stdout.splitlines()
    if not lines[-2].startswith("record "):
        raise SystemExit(f"{' '.join(cmd)}: no record line")
    return json.loads(lines[-2][len("record "):]), json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write every record here as JSON")
    args = parser.parse_args(argv)

    ok = True
    stored = {}
    for workload in WORKLOADS:
        untraced, result = run(workload, SEED, RUN_SECONDS, 0)
        traced = [run(workload, SEED, RUN_SECONDS, 1)[0] for _ in range(2)]
        stored[workload] = {"untraced": untraced, "traced": traced}
        ok &= result["correct"] and all(r["fail_ratio"] == 0 for r in traced)

        print(f"{workload} (seed {SEED}, {result['attempted']} cells, "
              f"{result['failed']} failed)")
        for name, metric in result["metrics"].items():
            print(f"  {name:<34} {metric['value']:>12.6g} {metric['unit']}")
        print(f"  {'fail_ratio':<34} {untraced['fail_ratio']:>12.6g} ratio")
        layers = traced[0]["metrics"]
        wall = layers["trace.wall_s"]
        overhead = wall - untraced["unscaled"]["wall_s"]
        print(f"  traced wall {wall:.3f} s: {overhead:+.3f} s against the untraced "
              f"run's unscaled {untraced['unscaled']['wall_s']:.3f} s; tracing "
              f"overhead from span count x span cost {layers['trace.overhead_s']:.3f} s")
        for name in SHARES:
            print(f"    {name:<32} {layers[name] / wall:>7.1%} of traced wall")
        diff = [
            name for name in COUNT_METRICS
            if traced[0]["metrics"][name] != traced[1]["metrics"][name]
        ]
        if diff or not all(r["counts_repeat"] for r in traced):
            ok = False
            print(f"  COUNTS DIFFER between runs or passes: {diff}")
        else:
            print(f"  all {len(COUNT_METRICS)} work counts identical in both traced runs")

    if args.out:
        Path(args.out).write_text(json.dumps(stored, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
