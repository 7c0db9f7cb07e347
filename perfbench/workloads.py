"""The benchmark's three workloads and the correctness gate of each.

A workload is built from the workload seed into a list of :class:`Cell`.
``run`` is the timed call; ``check`` inspects its outcome outside the timed
region and returns a problem description, or None when the outcome is right.

* ``corpus-optimal``: the (instance, formulation) cells of the seeded test
  corpus that the solver proves optimal, each checked against its recorded
  optimum and by the brute-force verifier.  The seed shuffles the order.
* ``infeasible-probe``: infeasible instances, solved once with ``bilevel``;
  the engine's protection probe proves infeasibility before any master is
  built.  The seed shuffles the order.
* ``oracle-sweep``: the separation oracles called directly on seeded
  designs; their attack values are checked against an exhaustive
  enumeration with an independent max flow (scipy's).  The seed shuffles
  the order.

Every workload measures the same work under every seed, so that runs with
different seeds can be compared.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from cprsnp import engine, instances, separation
from cprsnp.formulations import Design, point_row_value
from cprsnp.graph import augment
from cprsnp.milp import SolveStatus
from cprsnp.verify import is_survivable

import tracer as tr

# the corpus of tests/conftest.py::corpus(), kept here so that the benchmark
# does not depend on the test tree: 9 shapes x 6 budgets, seeds 1..54
CORPUS_SHAPES = (
    (6, 2, 12, "uniform"),
    (7, 2, 14, "uniform"),
    (7, 3, 14, "random"),
    (8, 3, 16, "uniform"),
    (9, 3, 20, "random"),
    (10, 3, 24, "uniform"),
    (11, 4, 27, "random"),
    (12, 4, 30, "uniform"),
    (12, 4, 30, "random"),
)
CORPUS_BUDGETS = ((1, 0), (1, 1), (2, 0), (2, 1), (1, 1), (2, 1))

ALL = ("cutset", "flow", "bilevel")
# corpus index -> (recorded optimum, formulations that prove it within 60 s)
CORPUS_OPTIMA = {
    0: (42, ALL), 1: (69, ALL), 4: (33, ALL), 6: (56, ALL), 7: (29, ALL),
    10: (49, ALL), 16: (70, ALL), 18: (102, ALL), 25: (94, ALL), 36: (87, ALL),
    22: (64, ("flow", "bilevel")), 42: (91, ("flow", "bilevel")),
    48: (148, ("flow", "bilevel")),
    34: (61, ("flow",)), 40: (96, ("flow",)), 52: (77, ("flow",)),
}
CORPUS_INFEASIBLE = (
    2, 3, 5, 8, 9, 11, 12, 13, 14, 15, 17, 19, 20, 21, 23, 24, 26, 27, 28, 29,
    30, 32, 35, 37, 38, 39, 41, 44, 45, 46, 47, 49, 50, 53,
)

# the generous per-cell limit of the acceptance tests: no status or count
# depends on machine speed
EXACT = engine.EngineOptions(time_limit_s=60.0)


# budgets of each large instance in the infeasible probe; 20-5-90 at (3,0)
# takes the attacker-MIP branch because C(90,3) exceeds the brute-force limit
PROBE_BUDGETS = (((2, 0), (2, 1), (3, 0)), ((2, 0), (3, 0)))
SWEEP_BUDGETS = ((1, 0), (2, 0), (2, 1))
SWEEP_DESIGNS = 10  # per (instance, budget) group
# the designs are drawn once, from this seed: how hard a design is to
# separate varies a lot, and a sum over 60 of them still moved by a fifth
# between draws; the workload seed shuffles their order like the others
DESIGN_SEED = 0
SWEEP_REMOVED = 0.2  # share of initial arcs left out of each design


def _large(tracer):
    """20-5-90 and 30-3-60, the large instances of acceptance 7 and 8."""
    return (
        tracer.call("instances.generate", instances.generate, None,
                    20, 5, 90, "uniform", seed=7),
        tracer.call("instances.generate", instances.generate, None,
                    30, 3, 60, "uniform", seed=7, uniform_capacity=3),
    )


@dataclass
class Cell:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def corpus(tracer) -> list:
    out = []
    seed = 0
    for nodes, terminals, arcs, mode in CORPUS_SHAPES:
        for k, kp in CORPUS_BUDGETS:
            seed += 1
            out.append(tracer.call(
                "instances.generate", instances.generate, None,
                nodes, terminals, arcs, capacity_mode=mode, seed=seed, k=k, kp=kp,
            ))
    return out


def _solve_cell(tracer, aug, formulation):
    return lambda: tracer.call(
        "engine.solve", engine.solve, tr.solution_counts, aug, formulation, EXACT
    )


def _check_optimal(aug, optimum):
    def check(sol) -> str | None:
        if sol.status is not SolveStatus.OPTIMAL:
            return f"status {sol.status.value}, expected Optimal"
        if sol.cost != optimum:
            return f"cost {sol.cost}, recorded optimum {optimum}"
        if sol.design.cost(aug) != optimum:
            return f"design costs {sol.design.cost(aug)}, reported {sol.cost}"
        ok, witness = is_survivable(aug, sol.design)
        if not ok:
            return f"design fails under {witness.sorted_arcs()}"
        return None

    return check


def _check_infeasible(sol) -> str | None:
    if sol.status is not SolveStatus.INFEASIBLE:
        return f"status {sol.status.value}, expected Infeasible"
    return None


def build_corpus_optimal(seed: int, tracer) -> list[Cell]:
    insts = corpus(tracer)
    cells = []
    for index, (optimum, formulations) in sorted(CORPUS_OPTIMA.items()):
        aug = augment(insts[index])
        for name in formulations:
            # every cell of one instance carries the same recorded optimum, so
            # passing the gate also means the formulations agree
            cells.append(Cell(f"corpus[{index}]/{name}", _solve_cell(tracer, aug, name),
                              _check_optimal(aug, optimum)))
    random.Random(seed).shuffle(cells)
    return cells


def build_infeasible_probe(seed: int, tracer) -> list[Cell]:
    insts = corpus(tracer)
    cells = [
        Cell(f"corpus[{i}]/bilevel", _solve_cell(tracer, augment(insts[i]), "bilevel"),
             _check_infeasible)
        for i in CORPUS_INFEASIBLE
    ]
    for inst, budgets in zip(_large(tracer), PROBE_BUDGETS):
        for k, kp in budgets:
            label = f"{instances.instance_label(inst)}/k{k}kp{kp}/bilevel"
            aug = augment(replace(inst, k=k, kp=kp))
            cells.append(Cell(label, _solve_cell(tracer, aug, "bilevel"), _check_infeasible))
    random.Random(seed).shuffle(cells)
    return cells


class ExhaustiveAttack:
    """Worst surviving flow over every failure set of a design, computed with
    scipy's max flow (independent of ``cprsnp.graph``).

    The enumeration skips only failure sets that provably cannot hurt: when
    no failed arc carries flow in a max flow of the network, that max flow
    survives.  So each level fails one more arc from the support of the
    current max flow, which keeps the search exhaustive."""

    def __init__(self, aug):
        self.aug = aug
        self.tails = np.array([a.tail for a in aug.arcs])
        self.heads = np.array([a.head for a in aug.arcs])
        n = aug.vertex_count
        graph = csr_matrix(
            (np.arange(1, aug.arc_count + 1), (self.tails, self.heads)), shape=(n, n)
        )
        if graph.nnz != aug.arc_count:
            raise ValueError("parallel arcs are not supported by the reference")
        self.graph = graph
        self.arc_at = graph.data - 1  # arc stored in each slot of the matrix
        self.slot = np.empty(aug.arc_count, dtype=np.int64)
        self.slot[self.arc_at] = np.arange(aug.arc_count)

    def value(self, design: Design) -> int:
        aug = self.aug
        caps = np.zeros(aug.arc_count, dtype=np.int32)
        for a in design.selected:
            caps[a] = aug.arcs[a].capacity
        base = caps[self.arc_at]
        candidates = {
            a for a in design.selected
            if not aug.is_fictive(a) and a not in design.protected
        }
        graph = self.graph.copy()
        seen: dict[frozenset, int] = {}

        def worst(failed: frozenset, budget: int) -> int:
            if failed in seen:
                return seen[failed]
            graph.data = base.copy()
            graph.data[self.slot[list(failed)]] = 0
            result = maximum_flow(graph, aug.root, aug.sink)
            best = result.flow_value
            if budget:
                net = result.flow.toarray()[self.tails, self.heads]
                for a in sorted(candidates - failed):
                    if net[a] > 0:
                        best = min(best, worst(failed | {a}, budget - 1))
            seen[failed] = best
            return best

        return worst(frozenset(), min(aug.k, len(candidates)))


def _sweep_cell(tracer, label, aug, design, brute: ExhaustiveAttack) -> Cell:
    def run():
        cut = tracer.call("separation.cutset", separation.separate_cutset, tr.violated,
                          aug, design)
        scenario = tracer.call("separation.scenario", separation.separate_scenario,
                               tr.violated, aug, design, brute_force_limit=0)
        point = tracer.call("separation.bilevel", separation.separate_bilevel,
                            tr.violated, aug, design)
        stronger = None
        if point is not None:
            stronger = tracer.call("separation.strengthen", separation.strengthen,
                                   tr.useful, aug, design, point)
        return cut, scenario, point, stronger

    reference = []  # enumerated once, on the first check

    def check(out) -> str | None:
        if not reference:
            reference.append(brute.value(design))
        expected = reference[0]
        cut, scenario, point, stronger = out
        values = [None if v is None else v.value for v in (cut, scenario, point)]
        if expected >= aug.demand:
            if values != [None] * 3:
                return f"oracles report {values} on a survivable design"
            return None
        if values != [expected] * 3:
            return f"oracles report {values}, enumeration gives {expected}"
        row = point_row_value(aug, design.selected, design.protected,
                              stronger.point.lam, stronger.point.gam, stronger.point.ell)
        if row >= aug.demand:
            return f"strengthened row value {row} does not cut off the design"
        return None

    return Cell(label, run, check)


def build_oracle_sweep(seed: int, tracer) -> list[Cell]:
    rng = random.Random(DESIGN_SEED)
    cells = []
    for inst in _large(tracer):
        for k, kp in SWEEP_BUDGETS:
            aug = augment(replace(inst, k=k, kp=kp))
            brute = ExhaustiveAttack(aug)
            initial = list(aug.initial_arcs)
            drop = math.ceil(SWEEP_REMOVED * len(initial))
            for j in range(SWEEP_DESIGNS):
                selected = sorted(set(initial) - set(rng.sample(initial, drop)))
                design = Design.canonical(aug, selected, rng.sample(selected, kp))
                label = f"{instances.instance_label(inst)}/k{k}kp{kp}/design{j}"
                cells.append(_sweep_cell(tracer, label, aug, design, brute))
    random.Random(seed).shuffle(cells)
    return cells


WORKLOADS = {
    "corpus-optimal": build_corpus_optimal,
    "infeasible-probe": build_infeasible_probe,
    "oracle-sweep": build_oracle_sweep,
}
