"""Benchmark sweep, CSV report, and comparison table."""

from __future__ import annotations

import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import triangle

import cprsnp.bench as bench_mod
from cprsnp.bench import BenchResult, bench, csv_report, text_table
from cprsnp.engine import EngineOptions
from cprsnp.graph import MAX_COST, Arc, GraphError, format_cost
from cprsnp.instances import generate


OPTS = EngineOptions(time_limit_s=60.0)


def test_bench_all_formulations_agree_on_triangle():
    rows = bench([triangle(k=1, kp=0)], options=OPTS)
    assert [r.formulation for r in rows] == ["cutset", "flow", "bilevel"]
    assert all(r.status == "Optimal" for r in rows)
    assert {r.cost for r in rows} == {4.0}
    assert all(r.gap == 0.0 for r in rows)
    assert all(r.label == "3-1-3" for r in rows)
    assert all(r.iterations >= 1 for r in rows)


def test_csv_report_prints_large_costs_exactly():
    # MAX_COST + 2 + 1 needs ten digits; six significant ones rounded it
    tri = triangle()
    dear = replace(tri, arcs=(Arc(0, 1, float(MAX_COST), 1),) + tri.arcs[1:])
    lines = csv_report(bench([dear], options=OPTS)).splitlines()[1:]
    assert [line.split(",")[4:7] for line in lines] == [
        ["Optimal", "2147483650", "0.0000"]
    ] * 3


@pytest.mark.parametrize(
    "cost, text",
    [
        (0.0, "0"),
        (184.0, "184"),
        (1e6, "1000000"),
        (2147483650.0, "2147483650"),
        (0.5, "0.5"),
        (1e-07, "1e-07"),
        (2.25e-10, "2.25e-10"),
        (0.1 + 0.2, "0.30000000000000004"),
        (1234567.5, "1234567.5"),
    ],
)
def test_format_cost_reads_back_exactly(cost, text):
    assert format_cost(cost) == text
    assert float(text) == cost


@settings(max_examples=2000, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_cost_is_the_integer_or_repr(cost):
    text = format_cost(cost)
    assert text == (str(int(cost)) if cost.is_integer() else repr(cost))
    assert float(text) == cost
    # a :g text that reads back is the same text, except below the normal
    # range, where 5e-324 reads back from :g's 4.94066e-324 too
    short = f"{cost:g}"
    if not cost.is_integer() and abs(cost) >= sys.float_info.min:
        if float(short) == cost:
            assert short == text


def test_bench_budget_override():
    rows = bench(
        [triangle(k=1, kp=0)],
        formulations=["flow"],
        options=OPTS,
        budgets=[(1, 0), (1, 1), (2, 0)],
    )
    assert [(r.k, r.kp, r.status) for r in rows] == [
        (1, 0, "Optimal"),
        (1, 1, "Optimal"),
        (2, 0, "Infeasible"),
    ]
    assert [r.cost for r in rows] == [4.0, 2.0, None]
    assert rows[2].gap is None


def test_bench_checks_every_cell_before_the_first_solve(monkeypatch):
    # the triangle has three arcs, so k + kp = 4 is no cell of it; the
    # sweep would reach that pair only after both cells of the larger
    # instance and the triangle's first
    solved = []

    def boom(aug, name, options):
        solved.append(name)
        raise RuntimeError("no cell may be solved")

    monkeypatch.setattr(bench_mod, "solve", boom)
    larger = generate(6, 2, 12, seed=1)
    with pytest.raises(GraphError) as info:
        bench([larger, triangle()], ["cutset"], OPTS, budgets=[(1, 0), (3, 1)])
    assert str(info.value) == (
        "instance 3-1-3 at k=3 kp=1: k + kp = 4 exceeds arc count 3"
    )
    assert info.value.place == "budgets"
    assert solved == []


def test_bench_rejects_unknown_formulation():
    with pytest.raises(ValueError, match="unknown formulation"):
        bench([triangle(k=1, kp=0)], formulations=["cutset", "simplex"])


def test_bench_progress_callback():
    seen: list[BenchResult] = []
    rows = bench([triangle(k=1, kp=0)], options=OPTS, progress=seen.append)
    assert seen == rows


def test_bench_survives_engine_crash(monkeypatch):
    def boom(aug, name, options):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(bench_mod, "solve", boom)
    rows = bench([triangle(k=1, kp=0)], formulations=["cutset"])
    (row,) = rows
    assert row.status == "Error: RuntimeError"
    assert row.cost is None and row.gap is None
    assert row.iterations == 0


# ---------------------------------------------------------------------------
# reports


def test_csv_report_layout_and_determinism():
    first = bench([triangle(k=1, kp=1)], options=OPTS)
    second = bench([triangle(k=1, kp=1)], options=OPTS)
    text = csv_report(first)
    lines = text.splitlines()
    assert lines[0] == "instance,k,kp,formulation,status,cost,gap,iterations"
    assert lines[1].startswith("3-1-3,1,1,cutset,Optimal,2,0.0000,")
    # wall-clock never enters the CSV, so reruns match byte for byte
    assert text == csv_report(second)


def test_csv_report_handles_empty_cells():
    row = BenchResult("x-y-z", 2, 0, "flow", "Infeasible", None, None, 1, 0.5)
    lines = csv_report([row]).splitlines()
    assert lines[1] == "x-y-z,2,0,flow,Infeasible,,-,1"


def test_text_table_layout():
    rows = bench([triangle(k=1, kp=0)], options=OPTS, budgets=[(1, 0), (1, 1)])
    table = text_table(rows)
    lines = table.splitlines()
    assert lines[0].split() == ["Instance", "k", "kp", "Bilevel", "Cut-set", "Flow"]
    assert lines[1].split() == ["t(s)", "gap%"] * 3
    assert set(lines[2]) == {"-"}
    assert lines[3].startswith("3-1-3         1   0")
    # repeated labels collapse to dashes
    assert lines[4].startswith("-----         1   1")
    assert table.endswith("\n")


def test_text_table_error_and_missing_cells():
    rows = [
        BenchResult("a-b-c", 1, 0, "cutset", "Error: RuntimeError", None, None, 0, 0.0),
        BenchResult("a-b-c", 1, 0, "flow", "Feasible", 12.0, 0.25, 3, 1.234),
    ]
    lines = text_table(rows).splitlines()
    # only the formulations that appear get column blocks
    assert lines[0].split() == ["Instance", "k", "kp", "Cut-set", "Flow"]
    body = lines[3]
    assert "err" in body and "25.0" in body and "1.2" in body


def test_text_table_timeout_cell_shows_positive_gap():
    rows = [BenchResult("big", 1, 0, "bilevel", "Feasible", 99.0, 0.4321, 7, 45.0)]
    body = text_table(rows).splitlines()[3]
    assert "43.2" in body and "45.0" in body
