"""Solver benchmark: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload corpus-optimal --seed 0 --seconds 10 --trace 0

Run from the root of a checkout: the package is imported from ``src/``.
The workload's cells (see ``workloads.py``) run in whole passes until
``--seconds`` have gone by, and at least once.  Every outcome passes the
correctness gate, outside the timed region.

``--trace 0`` reports the end-to-end metrics.  Each cell's time is divided
by the machine's slowdown that the calibration probe (``calibration.py``)
read while the cell ran, and the median over the passes is taken: seconds
at nominal machine speed.  ``--trace 1`` routes the package's layer
boundaries through the span tracer (``tracer.py``) and reports the
per-layer metrics instead, unscaled: work counts from the first pass, times
as medians over the passes.  It writes every span to
``perfbench/out/<workload>-seed<seed>.jsonl.gz`` when the run ends.

The last line of standard output is the result.  The line before it,
starting with ``record``, holds everything else: the environment, the
unscaled times of every cell and pass, the probe readings and all metrics.
"""

import os

# BLAS and OpenMP size their thread pools when numpy loads: pin them first
for _var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS = ROOT / "perfbench" / "out"  # the traced run writes its spans here

SETUP_REPEATS = 5
# shift of the geometric mean of cell times: cells well under 10 ms count
# alike, and a 10 ms cell weighs about as much as an 8 s one
SGM_SHIFT_S = 0.01


def _commit() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def shifted_geomean(values, shift=SGM_SHIFT_S) -> float:
    return math.exp(statistics.fmean(math.log(v + shift) for v in values)) - shift


def timed(sampler, fn, *args):
    """``(start, end, seconds, result)`` of one call; ``seconds`` leaves out
    the time the sampler's handler took during the call."""
    spent0 = sampler.spent
    t0 = time.perf_counter()
    out = fn(*args)
    t1 = time.perf_counter()
    return t0, t1, t1 - t0 - (sampler.spent - spent0), out


def _run_cell(cell):
    try:
        return cell.run()
    except Exception as exc:  # noqa: BLE001 - a failed cell is a result
        return exc


def run_passes(cells, seconds, tracer, sampler):
    """Whole passes over the cells until ``seconds`` have gone by.

    Returns, per pass, the ``(start, end, seconds)`` of each cell, and the
    problems the gate found as ``(pass, cell label, description)``.
    """
    passes: list[list[tuple[float, float, float]]] = []
    problems: list[tuple[int, str, str]] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        pass_no = len(passes)
        timings = []
        for i, cell in enumerate(cells):
            tracer.cell = (pass_no, i)
            t0, t1, seconds_, out = timed(sampler, _run_cell, cell)
            tracer.cell = None
            timings.append((t0, t1, seconds_))
            if isinstance(out, Exception):
                problem = f"{type(out).__name__}: {out}"
            else:
                try:
                    problem = cell.check(out)
                except Exception as exc:  # noqa: BLE001
                    problem = f"check raised {type(exc).__name__}: {exc}"
            if problem is not None:
                problems.append((pass_no, cell.label, problem))
        passes.append(timings)
    return passes, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "cprsnp" / "__init__.py").is_file():
        print(f"run.py: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # the traced run is not scaled: its sampler never fires
    sampler = calibration.NullSampler() if args.trace else calibration.Sampler()
    with sampler:
        def load():
            import numpy
            import scipy
            import cprsnp
            import tracer
            import workloads
            return numpy, scipy, cprsnp, tracer, workloads

        import_start, _, import_s, modules = timed(sampler, load)
        numpy, scipy, cprsnp, tr, workloads = modules
        if Path(cprsnp.__file__).resolve().parent != SRC / "cprsnp":
            print(f"run.py: imported cprsnp from {cprsnp.__file__}", file=sys.stderr)
            return 2
        if args.workload not in workloads.WORKLOADS:
            print(f"run.py: unknown workload {args.workload!r}; "
                  f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
            return 2
        build = workloads.WORKLOADS[args.workload]

        tracer = tr.Tracer() if args.trace else tr.NullTracer()
        setups, generate_s = [], []
        for _ in range(SETUP_REPEATS):
            first_span = len(getattr(tracer, "spans", ()))
            *setup, cells = timed(sampler, build, args.seed, tracer)
            setups.append(setup)
            if args.trace:
                generate_s.append(sum(
                    end - start for _, start, end, *_ in tracer.spans[first_span:]
                ))
        with tr.patched(tracer) if args.trace else nullcontext([]) as unpatched:
            passes, problems = run_passes(cells, args.seconds, tracer, sampler)

    times = [[t for _, _, t in timings] for timings in passes]
    per_cell = [statistics.median(col) for col in zip(*times)]
    setup_s = import_s + statistics.median(t for _, _, t in setups)

    if args.trace:
        per_pass = [tr.layer_metrics(tracer.spans, p) for p in range(len(times))]
        metrics = {}
        for name in per_pass[0]:
            if name in tr.COUNT_METRICS:
                metrics[name] = per_pass[0][name]
            else:
                metrics[name] = statistics.median(m[name] for m in per_pass)
        metrics["instances.generate.s"] = statistics.median(generate_s)
        metrics["trace.wall_s"] = sum(per_cell)
        spans_per_pass = sum(1 for span in tracer.spans if span[4] is not None) / len(times)
        metrics["trace.overhead_s"] = spans_per_pass * tr.span_cost()
        units = {name: tr.unit_of(name) for name in metrics}
        counts_repeat = all(
            m[name] == per_pass[0][name] for m in per_pass for name in tr.COUNT_METRICS
        )
        slowdowns = None
        SPANS.mkdir(exist_ok=True)
        tracer.dump(SPANS / f"{args.workload}-seed{args.seed}.jsonl.gz")
    else:
        slowdowns = [[sampler.slowdown(t0, t1) for t0, t1, _ in timings]
                     for timings in passes]
        scaled = [
            statistics.median(t / s for t, s in zip(ts, ss))
            for ts, ss in zip(zip(*times), zip(*slowdowns))
        ]
        setup_slowdown = sampler.slowdown(import_start, setups[-1][1])
        metrics = {
            "wall_s": sum(scaled),
            "cell_s.sgm": shifted_geomean(scaled),
            "setup_s": setup_s / setup_slowdown,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"wall_s": "s", "cell_s.sgm": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        counts_repeat = None

    attempted = len(cells) * len(times)
    failed = len(problems)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "passes": len(times),
        "fail_ratio": failed / attempted,
        "metrics": metrics,
        "unscaled": {
            "wall_s": sum(per_cell),
            "cell_s.sgm": shifted_geomean(per_cell),
            "setup_s": setup_s,
            "import_s": import_s,
        },
        "counts_repeat": counts_repeat,
        "unpatched": unpatched,
        "problems": problems[:50],
        "cells": [cell.label for cell in cells],
        "cell_s": times,
        "slowdown": slowdowns,
    }
    for pass_no, label, problem in problems[:20]:
        print(f"FAIL pass {pass_no} {label}: {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(cells)} cells x {len(times)} passes, {failed} failed")
    for name, value in metrics.items():
        print(f"  {name:<38} {value:>14.6g} {units[name]}")
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
