"""Benchmark driver: run every formulation over a set of instances.

The CSV report is fully deterministic (no wall-clock columns) so repeated
runs on the same inputs produce identical bytes.  The text table carries
the timings and mirrors the usual comparison layout: one block of columns
per formulation, instances down the rows.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from .engine import FORMULATIONS, EngineOptions, solve
from .graph import GraphError, Instance, augment, format_cost
from .instances import instance_label

TABLE_ORDER = ("bilevel", "cutset", "flow")
TABLE_HEADINGS = {"bilevel": "Bilevel", "cutset": "Cut-set", "flow": "Flow"}


@dataclass(frozen=True)
class BenchResult:
    label: str
    k: int
    kp: int
    formulation: str
    status: str
    cost: float | None
    gap: float | None
    iterations: int
    seconds: float


def bench(
    instances: Sequence[Instance],
    formulations: Sequence[str] = FORMULATIONS,
    options: EngineOptions = EngineOptions(),
    budgets: Sequence[tuple[int, int]] | None = None,
    progress: Callable[[BenchResult], None] | None = None,
) -> list[BenchResult]:
    """One row per (instance, budget pair, formulation), in input order.

    ``budgets`` overrides the (k, kp) baked into each instance.  Every
    cell is built before the first solve, so a budget pair that an instance
    cannot take raises :class:`~cprsnp.graph.GraphError`, naming the
    instance and the pair, before any time is spent; a failed solve
    (engine error, unexpected exception) is recorded with status ``Error``
    rather than aborting the sweep.  ``formulations`` must name
    at least one formulation, each at most once.
    """
    if not formulations:
        raise ValueError("no formulation to run")
    for i, name in enumerate(formulations):
        if name not in FORMULATIONS:
            raise ValueError(f"unknown formulation {name!r}")
        if name in formulations[:i]:
            raise ValueError(f"formulation {name!r} listed twice")
    cells = []
    for instance in instances:
        pairs = budgets if budgets is not None else [(instance.k, instance.kp)]
        for k, kp in pairs:
            try:
                cells.append(replace(instance, k=k, kp=kp))
            except GraphError as exc:
                raise GraphError(
                    f"instance {instance_label(instance)} at k={k} kp={kp}: {exc}",
                    exc.place,
                ) from None
    rows: list[BenchResult] = []
    for cell in cells:
        aug = augment(cell)
        for name in formulations:
            try:
                sol = solve(aug, name, options)
                outcome = (
                    sol.status.value, sol.cost, sol.gap, sol.iterations, sol.seconds
                )
            except Exception as exc:  # noqa: BLE001 - keep the sweep alive
                outcome = (f"Error: {type(exc).__name__}", None, None, 0, 0.0)
            row = BenchResult(instance_label(cell), cell.k, cell.kp, name, *outcome)
            rows.append(row)
            if progress is not None:
                progress(row)
    return rows


def _fmt_cost(cost: float | None) -> str:
    if cost is None:
        return ""
    return format_cost(cost)


def csv_report(rows: Sequence[BenchResult]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["instance", "k", "kp", "formulation", "status", "cost", "gap", "iterations"]
    )
    for row in rows:
        writer.writerow(
            [
                row.label,
                row.k,
                row.kp,
                row.formulation,
                row.status,
                _fmt_cost(row.cost),
                "-" if row.gap is None else f"{row.gap:.4f}",
                row.iterations,
            ]
        )
    return out.getvalue()


def _cell(row: BenchResult | None) -> tuple[str, str]:
    if row is None:
        return ("-", "-")
    if row.status.startswith("Error") or row.gap is None:
        return ("err" if row.status.startswith("Error") else f"{row.seconds:.1f}", "-")
    return (f"{row.seconds:.1f}", f"{100.0 * row.gap:.1f}")


def text_table(rows: Sequence[BenchResult]) -> str:
    """Comparison table; repeated instance labels print as dashes."""
    by_key: dict[tuple[str, int, int], dict[str, BenchResult]] = {}
    key_order: list[tuple[str, int, int]] = []
    for row in rows:
        key = (row.label, row.k, row.kp)
        if key not in by_key:
            by_key[key] = {}
            key_order.append(key)
        by_key[key][row.formulation] = row

    used = [f for f in TABLE_ORDER if any(f in by_key[key] for key in key_order)]
    header_top = f"{'Instance':<12}{'k':>3}{'kp':>4}"
    header_sub = " " * 19
    for name in used:
        header_top += f"  {TABLE_HEADINGS[name]:>14}"
        header_sub += f"  {'t(s)':>7}{'gap%':>7}"
    lines = [header_top, header_sub, "-" * len(header_sub)]
    previous_label = None
    for key in key_order:
        label, k, kp = key
        shown = label if label != previous_label else "-" * len(label)
        previous_label = label
        line = f"{shown:<12}{k:>3}{kp:>4}"
        for name in used:
            t, gap = _cell(by_key[key].get(name))
            line += f"  {t:>7}{gap:>7}"
        lines.append(line)
    return "\n".join(lines) + "\n"
