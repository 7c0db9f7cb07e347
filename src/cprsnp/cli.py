"""Command line front end.

Subcommands: ``solve``, ``gen``, ``verify``, ``bench``.  Exit codes:
0 optimal / verified, 2 time limit hit, with the best design found, if any,
3 infeasible / design rejected, 4 input error.

Designs, solver logs and CSV reports are byte-stable across reruns, so
they go to stdout (or files); wall-clock progress goes to stderr.  The
bench text table is the one stdout artifact that carries timings.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bench as bench_mod
from .engine import FORMULATIONS, EngineOptions, format_cost, solve
from .formulations import FormulationError
from .graph import ArcMask, GraphError, augment, max_flow
from .instances import (
    GenerationError,
    ParseError,
    generate,
    parse_design,
    parse_instance,
    save_instance,
    write_design,
    write_instance,
)
from .milp import SolveStatus
from .verify import VerifyError, is_survivable

EXIT_OK = 0
EXIT_TIME_LIMIT = 2
EXIT_INFEASIBLE = 3
EXIT_INPUT = 4


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; 2 means "time limit" here
    def error(self, message):  # noqa: D102
        raise _CliError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cprsnp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("--instance", required=True)
    p_solve.add_argument("--formulation", choices=FORMULATIONS, default="bilevel")
    p_solve.add_argument("--time-limit", type=float, default=2000.0)
    p_solve.add_argument("--design-out", default=None)

    p_gen = sub.add_parser("gen", help="generate a random feasible instance")
    p_gen.add_argument("--nodes", type=int, required=True)
    p_gen.add_argument("--terminals", type=int, required=True)
    p_gen.add_argument("--arcs", type=int, required=True)
    p_gen.add_argument("--capacities", choices=("uniform", "random"), default="uniform")
    p_gen.add_argument("--uniform-capacity", type=int, default=None)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--k", type=int, default=1)
    p_gen.add_argument("--kp", type=int, default=0)
    p_gen.add_argument("--out", default=None)

    p_verify = sub.add_parser("verify", help="check a design against an instance")
    p_verify.add_argument("--instance", required=True)
    p_verify.add_argument("--design", required=True)

    p_bench = sub.add_parser("bench", help="compare formulations over a directory")
    p_bench.add_argument("--dir", required=True)
    p_bench.add_argument("--k-min", type=int, default=None)
    p_bench.add_argument("--k-max", type=int, default=None)
    p_bench.add_argument("--kp-min", type=int, default=None)
    p_bench.add_argument("--kp-max", type=int, default=None)
    p_bench.add_argument(
        "--formulations",
        default=",".join(FORMULATIONS),
        help="comma-separated subset of: " + ", ".join(FORMULATIONS),
    )
    p_bench.add_argument("--time-limit", type=float, default=2000.0)
    p_bench.add_argument("--out", default=None, help="CSV report path")
    return parser


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise _CliError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})")


def _options(time_limit: float) -> EngineOptions:
    try:
        return EngineOptions(time_limit_s=time_limit)
    except ValueError as exc:
        raise _CliError(f"--time-limit: {exc}")


def _cmd_solve(args) -> int:
    options = _options(args.time_limit)
    aug = augment(parse_instance(_read_text(args.instance)))
    solution = solve(aug, args.formulation, options)
    for line in solution.log_lines():
        print(line)
    if solution.status == SolveStatus.INFEASIBLE:
        print("status=Infeasible")
        return EXIT_INFEASIBLE
    if solution.design is None:  # out of time before any incumbent
        print(f"status={solution.status.value} cost=none gap=none")
    else:
        cost = format_cost(solution.cost)
        print(f"status={solution.status.value} cost={cost} gap={solution.gap:.4f}")
        design_text = write_design(solution.design, aug)
        if args.design_out is not None:
            Path(args.design_out).write_text(design_text, encoding="utf-8")
        else:
            sys.stdout.write(design_text)
    print(f"time {solution.seconds:.1f}s", file=sys.stderr)
    return EXIT_OK if solution.status == SolveStatus.OPTIMAL else EXIT_TIME_LIMIT


def _cmd_gen(args) -> int:
    instance = generate(
        nodes=args.nodes,
        terminals=args.terminals,
        arcs=args.arcs,
        capacity_mode=args.capacities,
        seed=args.seed,
        k=args.k,
        kp=args.kp,
        uniform_capacity=args.uniform_capacity,
    )
    if args.out is not None:
        save_instance(instance, args.out)
    else:
        sys.stdout.write(write_instance(instance))
    return EXIT_OK


def _cmd_verify(args) -> int:
    instance = parse_instance(_read_text(args.instance))
    aug = augment(instance)
    design = parse_design(_read_text(args.design), aug)
    routed = max_flow(aug, ArcMask.for_design(aug, design.selected)).value
    if routed < aug.demand:
        print(f"rejected: only {routed} of {aug.demand} units routed with no failures")
        return EXIT_INFEASIBLE
    ok, witness = is_survivable(aug, design)
    if ok:
        print(f"verified: design survives any {instance.k} failures")
        return EXIT_OK
    assert witness is not None
    arcs = " ".join(
        f"{aug.arcs[a].tail + 1}->{aug.arcs[a].head + 1}" for a in witness.sorted_arcs()
    )
    print(f"rejected: failing {arcs} cuts the demand")
    return EXIT_INFEASIBLE


def _bound_range(low: int | None, high: int | None) -> range | None:
    """The budgets from ``low`` to ``high``, a missing bound taking the
    other one; None when both are missing."""
    if low is None and high is None:
        return None
    low = high if low is None else low
    high = low if high is None else high
    return range(low, high + 1)


def _cmd_bench(args) -> int:
    options = _options(args.time_limit)
    directory = Path(args.dir)
    if not directory.is_dir():
        raise _CliError(f"{args.dir} is not a directory")
    paths = sorted(p for p in directory.iterdir() if p.is_file())
    if not paths:
        raise _CliError(f"no instance files in {args.dir}")
    instances = [parse_instance(_read_text(p)) for p in paths]
    names = tuple(name for name in args.formulations.split(",") if name)
    budgets = None
    k_range = _bound_range(args.k_min, args.k_max)
    kp_range = _bound_range(args.kp_min, args.kp_max)
    if k_range is None and kp_range is not None:
        raise _CliError("--kp-min/--kp-max need --k-min or --k-max")
    if k_range is not None:
        kp_range = range(1) if kp_range is None else kp_range
        budgets = [(k, kp) for k in k_range for kp in kp_range]
        if not budgets:
            raise _CliError("empty budget range")

    def progress(row: bench_mod.BenchResult) -> None:
        print(
            f"{row.label} k={row.k} kp={row.kp} {row.formulation}: "
            f"{row.status} ({row.seconds:.1f}s)",
            file=sys.stderr,
        )

    try:
        rows = bench_mod.bench(instances, names, options, budgets, progress)
    except ValueError as exc:  # the formulation list, or a budget pair
        raise _CliError(str(exc))
    sys.stdout.write(bench_mod.text_table(rows))
    if args.out is not None:
        Path(args.out).write_text(bench_mod.csv_report(rows), encoding="utf-8")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_bench(args)
    except (
        _CliError,
        ParseError,
        GenerationError,
        GraphError,
        FormulationError,
        VerifyError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
