"""End-to-end guarantees, one test per shipped claim.

Each test prints one PASS/FAIL line through the ``acceptance`` fixture and
the terminal summary repeats them in order.  The heavy artifacts (the full
corpus sweep, the exhaustive-oracle runs) live in session fixtures so
several criteria can share them.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import replace

import pytest

from conftest import build_inner_flow, grown, random_design

from cprsnp.bench import bench, csv_report, text_table
from cprsnp.engine import FORMULATIONS, EngineOptions, solve
from cprsnp.formulations import (
    Design,
    FailureScenario,
    append_point,
    append_scenario,
    build_bilevel_master,
    build_flow_master,
    point_row_value,
)
from cprsnp.graph import augment, max_flow
from cprsnp.instances import generate, write_design
from cprsnp.milp import SolveStatus, solve_mip
from cprsnp.separation import (
    separate_bilevel,
    separate_cutset,
    separate_scenario,
    strengthen,
)
from cprsnp.verify import exhaustive_optimum, is_survivable


SWEEP_OPTIONS = EngineOptions(time_limit_s=8.0)
EXACT_OPTIONS = EngineOptions(time_limit_s=60.0)

DEFINITIVE = ("Optimal", "Infeasible")


@pytest.fixture(scope="session")
def sweep(suite):
    """Every corpus instance through every formulation, with a cell cap."""
    start = time.perf_counter()
    rows = bench(suite, options=SWEEP_OPTIONS)
    return rows, time.perf_counter() - start


@pytest.fixture(scope="session")
def oracle_runs(oracle_suite):
    """Engine solutions plus the exhaustive optimum on every small instance."""
    runs = []
    for inst in oracle_suite:
        aug = augment(inst)
        sols = {name: solve(aug, name, EXACT_OPTIONS) for name in FORMULATIONS}
        runs.append((inst, aug, sols, exhaustive_optimum(aug)))
    return runs


def _report_problems(problems: list[str]) -> None:
    for line in problems[:20]:
        print("  !", line)


def test_acceptance_1_cross_formulation_agreement(acceptance, suite, sweep):
    rows, elapsed = sweep
    problems: list[str] = []
    if len(suite) < 50:
        problems.append(f"corpus has only {len(suite)} instances")
    if elapsed >= 600.0:
        problems.append(f"sweep took {elapsed:.0f}s")
    assert len(rows) == 3 * len(suite)
    optimal_cells = 0
    for i, inst in enumerate(suite):
        cells = rows[3 * i : 3 * i + 3]
        tag = f"instance {i} ({cells[0].label} k={inst.k} kp={inst.kp})"
        for cell in cells:
            if cell.status.startswith("Error"):
                problems.append(f"{tag}: {cell.formulation} -> {cell.status}")
        costs = [c.cost for c in cells if c.status == "Optimal"]
        optimal_cells += len(costs)
        for cost in costs:
            if not float(cost).is_integer():
                problems.append(f"{tag}: non-integer optimum {cost}")
        if len({int(c) for c in costs}) > 1:
            problems.append(f"{tag}: optima disagree {costs}")
        # a timeout incumbent is an upper bound, never below a proven optimum
        if costs:
            for cell in cells:
                if cell.status == "Feasible" and cell.cost is not None:
                    if cell.cost < min(costs) - 1e-9:
                        problems.append(f"{tag}: incumbent {cell.cost} beats optimum")
        # an infeasibility proof forbids any incumbent on the same instance
        if any(c.status == "Infeasible" for c in cells):
            for cell in cells:
                if cell.cost is not None:
                    problems.append(f"{tag}: {cell.formulation} found cost "
                                    f"{cell.cost} despite an infeasibility proof")
    if optimal_cells < 30:
        problems.append(f"only {optimal_cells} cells reached Optimal")
    _report_problems(problems)
    print(f"  sweep: {len(rows)} cells, {optimal_cells} optimal, {elapsed:.0f}s")
    acceptance(
        1, "three formulations report identical optima across the corpus",
        not problems,
    )


def test_acceptance_2_exhaustive_oracle_agreement(acceptance, oracle_runs):
    problems: list[str] = []
    for i, (inst, aug, sols, best) in enumerate(oracle_runs):
        tag = f"small instance {i} (k={inst.k} kp={inst.kp})"
        for name, sol in sols.items():
            if best is None:
                if sol.status is not SolveStatus.INFEASIBLE:
                    problems.append(f"{tag}: {name} says {sol.status.value}, "
                                    "exhaustive search says infeasible")
            elif sol.status is not SolveStatus.OPTIMAL:
                problems.append(f"{tag}: {name} says {sol.status.value}, "
                                f"exhaustive search found {best[0]}")
            elif sol.cost != best[0]:
                problems.append(f"{tag}: {name} cost {sol.cost} != {best[0]}")
    _report_problems(problems)
    acceptance(
        2, "engine optima equal the exhaustive search on every small instance",
        not problems,
    )


def test_acceptance_3_survivability_soundness(acceptance, oracle_runs):
    problems: list[str] = []
    witnesses = 0
    for i, (inst, aug, sols, best) in enumerate(oracle_runs):
        for name, sol in sols.items():
            if sol.status is not SolveStatus.OPTIMAL:
                continue
            ok, witness = is_survivable(aug, sol.design)
            if not ok or witness is not None:
                problems.append(f"small instance {i}: {name} optimum not survivable")
                continue
            # breaking the design must produce a witness that max_flow confirms
            initial = sorted(a for a in sol.design.selected if not aug.is_fictive(a))
            if len(initial) < 2:
                continue
            damaged = Design.canonical(aug, initial[:-1], ())
            ok, witness = is_survivable(aug, damaged)
            if ok:
                continue
            witnesses += 1
            value = max_flow(aug, damaged.mask(aug, witness.arcs)).value
            if value >= aug.demand:
                problems.append(
                    f"small instance {i}: witness {sorted(witness.arcs)} "
                    f"leaves flow {value} >= {aug.demand}"
                )
    if witnesses < 5:
        problems.append(f"only {witnesses} witness scenarios exercised")
    _report_problems(problems)
    print(f"  witnesses re-checked: {witnesses}")
    acceptance(
        3, "optimal designs survive; every witness provably breaks the flow",
        not problems,
    )


def test_acceptance_4_separation_oracles_agree(acceptance, oracle_suite):
    problems: list[str] = []
    pairs = 0
    violated = 0
    for i, inst in enumerate(oracle_suite):
        aug = augment(inst)
        rng = random.Random(1000 + i)
        for _ in range(12):
            design = random_design(rng, aug)
            pairs += 1
            # the three oracles' MIP route (the cut search MIP), the
            # scenario search, and the cut and bilevel oracles' search route
            found = (
                separate_cutset(aug, design, brute_force_limit=0),
                separate_scenario(aug, design, brute_force_limit=0),
                separate_scenario(aug, design),
                separate_bilevel(aug, design, brute_force_limit=0),
                separate_cutset(aug, design),
                separate_bilevel(aug, design),
            )
            values = [None if v is None else v.value for v in found]
            if values.count(None) not in (0, len(values)):
                problems.append(f"pair {pairs}: verdicts split {values}")
                continue
            if values[0] is None:
                continue
            violated += 1
            if any(not float(v).is_integer() for v in values):
                problems.append(f"pair {pairs}: non-integer values {values}")
            if len({int(v) for v in values}) != 1:
                problems.append(f"pair {pairs}: values disagree {values}")
    if pairs < 200:
        problems.append(f"only {pairs} (instance, design) pairs")
    if violated < 30:
        problems.append(f"only {violated} violated pairs exercised")
    _report_problems(problems)
    print(f"  pairs: {pairs} total, {violated} violated")
    acceptance(
        4, "cut, scenario, and dual separation values coincide exactly",
        not problems,
    )


def test_acceptance_5_inner_flow_integrality(acceptance, oracle_suite):
    problems: list[str] = []
    triples = 0
    for i, inst in enumerate(oracle_suite):
        aug = augment(inst)
        rng = random.Random(2000 + i)
        for _ in range(6):
            design = random_design(rng, aug)
            candidates = sorted(
                a for a in design.selected
                if not aug.is_fictive(a) and a not in design.protected
            )
            size = rng.randint(0, min(aug.k, len(candidates)))
            attack = tuple(sorted(rng.sample(candidates, size)))
            triples += 1
            res = solve_mip(build_inner_flow(aug, design, attack))
            if res.status is not SolveStatus.OPTIMAL:
                problems.append(f"triple {triples}: LP status {res.status.value}")
                continue
            drift = max(
                (abs(v - round(v)) for v in res.values), default=0.0
            )
            if drift > 1e-6:
                problems.append(f"triple {triples}: fractional vertex ({drift:g})")
            masked = max_flow(aug, design.mask(aug, attack)).value
            if abs(-res.objective - masked) > 1e-6:
                problems.append(
                    f"triple {triples}: LP {-res.objective} != flow {masked}"
                )
    if triples < 100:
        problems.append(f"only {triples} (design, attack) triples")
    _report_problems(problems)
    print(f"  triples: {triples}")
    acceptance(
        5, "inner flow LP always lands on an integral vertex",
        not problems,
    )


def test_acceptance_6_row_monotonicity(acceptance, oracle_suite):
    problems: list[str] = []
    triples = 0
    for i, inst in enumerate(oracle_suite[:6]):
        aug = augment(inst)
        rng = random.Random(3000 + i)
        arcs = list(aug.initial_arcs)
        for _ in range(90):
            triples += 1
            lam = [rng.random() for _ in range(aug.arc_count)]
            gam = [rng.random() for _ in range(aug.arc_count)]
            ell = [rng.random() for _ in range(aug.arc_count)]
            big_sel = {a for a in arcs if rng.random() < 0.7}
            small_sel = {a for a in big_sel if rng.random() < 0.6}
            big_prot = {a for a in big_sel if rng.random() < 0.3}
            small_prot = {a for a in big_prot if a in small_sel and rng.random() < 0.6}
            g_big = point_row_value(aug, big_sel, big_prot, lam, gam, ell)
            g_small = point_row_value(aug, small_sel, small_prot, lam, gam, ell)
            if g_big < g_small - 1e-9:
                problems.append(
                    f"triple {triples}: row value shrank {g_big} < {g_small}"
                )
    if triples < 500:
        problems.append(f"only {triples} multiplier triples")

    # a strengthened row that rejects a design rejects everything below it
    cutoffs = 0
    for i, inst in enumerate(oracle_suite):
        aug = augment(inst)
        rng = random.Random(4000 + i)
        for _ in range(4):
            design = random_design(rng, aug)
            violation = separate_bilevel(aug, design)
            if violation is None:
                continue
            sharp = strengthen(aug, design, violation)
            point = sharp.point
            g_top = point_row_value(
                aug, design.selected, design.protected, point.lam, point.gam, point.ell
            )
            if g_top >= aug.demand - 1e-9:
                problems.append(f"strengthened row misses its own design ({g_top})")
                continue
            initial = sorted(a for a in design.selected if not aug.is_fictive(a))
            for _ in range(6):
                cutoffs += 1
                sub_sel = {a for a in initial if rng.random() < 0.7}
                sub_prot = {a for a in design.protected if a in sub_sel}
                g_sub = point_row_value(
                    aug, sub_sel, sub_prot, point.lam, point.gam, point.ell
                )
                if g_sub >= aug.demand - 1e-9:
                    problems.append(
                        f"nested design escapes a strengthened row ({g_sub})"
                    )
    if cutoffs < 40:
        problems.append(f"only {cutoffs} nested cutoff checks")
    _report_problems(problems)
    print(f"  triples: {triples}, nested cutoffs: {cutoffs}")
    acceptance(
        6, "master rows grow with the design; strengthened rows cut nested designs",
        not problems,
    )


def test_acceptance_7_master_growth(acceptance):
    problems: list[str] = []
    # full scenario enumeration: one flow column block per failure subset
    for nodes, terminals, arcs in ((6, 2, 10), (8, 3, 20)):
        inst = generate(nodes, terminals, arcs, "uniform", seed=5, k=3, kp=0)
        aug = augment(inst)
        m = aug.initial_arc_count
        assert m == arcs
        for k in (1, 2, 3):
            scenarios = [
                FailureScenario.of(aug, combo)
                for combo in itertools.combinations(range(m), k)
            ]
            model = grown(build_flow_master(aug), append_scenario, scenarios).model
            expected = math.comb(m, k) * aug.arc_count + 2 * aug.arc_count
            if model.num_vars != expected:
                problems.append(
                    f"|A_I|={m} k={k}: {model.num_vars} vars, expected {expected}"
                )

    # the dual master adds exactly one row per generated point
    inst = generate(7, 3, 14, "random", seed=3, k=2, kp=1)
    aug = augment(inst)
    rng = random.Random(7)
    points = []
    while len(points) < 5:
        violation = separate_bilevel(aug, random_design(rng, aug))
        if violation is not None and violation.point not in points:
            points.append(violation.point)
    base = build_bilevel_master(aug).model.num_constraints
    for n in range(len(points) + 1):
        master = grown(build_bilevel_master(aug), append_point, points[:n])
        rows = master.model.num_constraints
        if rows != base + n:
            problems.append(f"bilevel master: {rows} rows with {n} points")

    # observation only: which formulation copes best with a double failure
    inst = generate(30, 3, 60, "uniform", seed=7, k=2, kp=1, uniform_capacity=3)
    aug = augment(inst)
    outcome = {}
    for name in FORMULATIONS:
        sol = solve(aug, name, EngineOptions(time_limit_s=10.0))
        outcome[name] = sol
        if sol.status not in (
            SolveStatus.OPTIMAL, SolveStatus.FEASIBLE, SolveStatus.INFEASIBLE
        ):
            problems.append(f"observation run: {name} -> {sol.status.value}")
    summary = ", ".join(
        f"{name}: {sol.status.value}"
        + ("" if sol.gap is None else f" gap={sol.gap:.2f}")
        for name, sol in outcome.items()
    )
    print(f"  30-vertex double-failure run -> {summary}")
    _report_problems(problems)
    acceptance(
        7, "master sizes follow the predicted combinatorial growth",
        not problems,
    )


def test_acceptance_8_benchmark_table_shape(acceptance):
    problems: list[str] = []
    inst = generate(20, 5, 90, "uniform", seed=7)
    rows = bench(
        [inst],
        options=SWEEP_OPTIONS,
        budgets=[(1, 0), (2, 0), (3, 0)],
    )
    table = text_table(rows)
    print(table)
    lines = table.splitlines()
    if lines[0].split() != ["Instance", "k", "kp", "Bilevel", "Cut-set", "Flow"]:
        problems.append(f"header row off: {lines[0]!r}")
    if lines[1].split() != ["t(s)", "gap%"] * 3:
        problems.append(f"subheader row off: {lines[1]!r}")
    body = lines[3:]
    if len(body) != 3:
        problems.append(f"{len(body)} body rows")
    if body and not body[0].startswith("20-5-90"):
        problems.append(f"first row label off: {body[0]!r}")
    if len(body) == 3 and not all(r.startswith("-------") for r in body[1:]):
        problems.append("repeated labels not dashed")

    limit = SWEEP_OPTIONS.time_limit_s
    for k in (1, 2, 3):
        cells = [r for r in rows if r.k == k]
        if len(cells) != 3:
            problems.append(f"k={k}: {len(cells)} cells")
            continue
        for cell in cells:
            if cell.status.startswith("Error"):
                problems.append(f"k={k}: {cell.formulation} -> {cell.status}")
            if cell.seconds > limit * 1.01:
                problems.append(f"k={k}: {cell.formulation} ran {cell.seconds:.2f}s")
            if cell.gap is not None and not 0.0 <= cell.gap <= 1.0:
                problems.append(f"k={k}: gap {cell.gap}")
        done = {c.status for c in cells if c.status in DEFINITIVE}
        if len(done) > 1:
            problems.append(f"k={k}: finished cells disagree {done}")
        costs = {c.cost for c in cells if c.status == "Optimal"}
        if len(costs) > 1:
            problems.append(f"k={k}: finished costs disagree {costs}")
        bounds = [c.cost for c in cells if c.status == "Feasible" and c.cost]
        if costs and bounds and min(bounds) < min(costs) - 1e-9:
            problems.append(f"k={k}: incumbent beats a proven optimum")
    _report_problems(problems)
    acceptance(
        8, "benchmark table reproduces the comparison layout consistently",
        not problems,
    )


def test_acceptance_9_byte_determinism(acceptance, suite):
    problems: list[str] = []
    picks = [suite[1], suite[6]]  # both solve to optimality in seconds
    for idx, inst in enumerate(picks):
        aug = augment(inst)
        for name in FORMULATIONS:
            first = solve(aug, name, EXACT_OPTIONS)
            second = solve(aug, name, EXACT_OPTIONS)
            if first.status is not SolveStatus.OPTIMAL:
                problems.append(f"pick {idx}: {name} -> {first.status.value}")
                continue
            if first.log_lines() != second.log_lines():
                problems.append(f"pick {idx}: {name} logs differ between runs")
            if write_design(first.design, aug) != write_design(second.design, aug):
                problems.append(f"pick {idx}: {name} designs differ between runs")
    reports = [
        csv_report(bench(picks, options=EXACT_OPTIONS)) for _ in range(2)
    ]
    if reports[0] != reports[1]:
        problems.append("CSV reports differ between identical runs")
    _report_problems(problems)
    acceptance(
        9, "fixed seeds reproduce designs, logs, and reports byte for byte",
        not problems,
    )
