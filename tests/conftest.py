"""Shared fixtures: a tiny hand-checkable instance, brute-force oracles
kept independent of the solver stack, and the seeded random corpus the
cross-validation tests sweep over.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse

from cprsnp.formulations import Design
from cprsnp.graph import Arc, ArcMask, AugmentedInstance, Instance, augment, max_flow
from cprsnp.instances import generate
from cprsnp.milp import (
    HighsModelStatus,
    MatrixFormat,
    SolveStatus,
    _classify_cold,
    _open,
    _Relaxation,
)

# ---------------------------------------------------------------------------
# acceptance reporting: one line per criterion in the terminal summary

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def acceptance():
    def report(number: int, label: str, ok: bool) -> None:
        line = f"ACCEPTANCE {number} {label}: {'PASS' if ok else 'FAIL'}"
        ACCEPTANCE_LINES.append(line)
        print(line)
        assert ok, line

    return report


# ---------------------------------------------------------------------------
# the kernel's live LP, checked against fresh ones


def lp_data(lp):
    """Costs, column bounds and rows of a HighsLp; the rows as a sorted list
    of (lower, upper, coefficients), whatever order HiGHS keeps them in."""
    a = lp.a_matrix_
    shape = (lp.num_row_, lp.num_col_)
    data = (np.array(a.value_), np.array(a.index_), np.array(a.start_))
    if a.format_ == MatrixFormat.kColwise:
        matrix = scipy.sparse.csc_matrix(data, shape=shape).tocsr()
    else:
        assert a.format_ == MatrixFormat.kRowwise
        matrix = scipy.sparse.csr_matrix(data, shape=shape)
    rows = sorted(
        (
            lp.row_lower_[r],
            lp.row_upper_[r],
            tuple(sorted(zip(matrix[r].indices.tolist(), matrix[r].data.tolist()))),
        )
        for r in range(lp.num_row_)
    )
    return (list(lp.col_cost_), list(lp.col_lower_), list(lp.col_upper_), rows)


_COLD_STATUS = {
    HighsModelStatus.kOptimal: SolveStatus.OPTIMAL,
    HighsModelStatus.kInfeasible: SolveStatus.INFEASIBLE,
    HighsModelStatus.kUnbounded: SolveStatus.UNBOUNDED,
}


class CheckedRelaxation(_Relaxation):
    """The kernel's relaxation, checked after every growth against a fresh
    HiGHS instance of the same model and, at every node, against a cold
    instance opened under the same column bounds.  Patch it over
    ``cprsnp.milp._Relaxation`` to check every LP a solve runs."""

    def grow(self):
        super().grow()
        fresh = _open(self.model, self.sign, self.lb, self.ub)
        assert lp_data(self.highs.getLp()) == lp_data(fresh.getLp())

    def solve(self, lb, ub):
        status, objective, x = super().solve(lb, ub)
        # a fresh instance opened under the node's bounds: no bound is sent
        # to it later, so it shares no state with the warm one
        cold = _open(self.model, self.sign, lb, ub)
        cold.run()
        cold_status = cold.getModelStatus()
        if cold_status == HighsModelStatus.kUnboundedOrInfeasible:
            assert status == _classify_cold(self.model, lb, ub)
        else:
            assert status == _COLD_STATUS[cold_status]
        if status == SolveStatus.OPTIMAL:
            want = cold.getInfo().objective_function_value
            assert objective == pytest.approx(want, abs=1e-6)
        return status, objective, x


# ---------------------------------------------------------------------------
# tiny hand-checked instance: root 0, relay 1, terminal 2, unit capacities
#
#   0 -> 1 (cost 1), 0 -> 2 (cost 2), 1 -> 2 (cost 1)
#
# k=1, kp=0: both paths needed, optimum 4.
# k=1, kp=1: protect 0 -> 2 alone, optimum 2.
# k=2, kp=0: infeasible, two failures always cut the terminal off.


def triangle(k: int = 1, kp: int = 0) -> Instance:
    return Instance(
        vertex_count=3,
        arcs=(Arc(0, 1, 1.0, 1), Arc(0, 2, 2.0, 1), Arc(1, 2, 1.0, 1)),
        root=0,
        terminals=(2,),
        k=k,
        kp=kp,
    )


def deep_path(n: int = 1500) -> Instance:
    """The path 0 -> 1 -> ... -> n-1 with its last vertex as the one
    terminal: its level graph is n levels deep, beyond the interpreter's
    default recursion limit of 1000."""
    arcs = tuple(Arc(i, i + 1, 1.0, 1) for i in range(n - 1))
    return Instance(n, arcs, root=0, terminals=(n - 1,), k=0, kp=0)


@pytest.fixture
def tri_aug() -> AugmentedInstance:
    return augment(triangle())


# ---------------------------------------------------------------------------
# independent oracles


def lp_max_flow(aug: AugmentedInstance, mask: ArcMask) -> float:
    """Max flow by plain LP; cross-checks the augmenting-path code."""
    m = aug.arc_count
    rows, cols, vals = [], [], []
    row_names = [v for v in range(aug.vertex_count) if v not in (aug.root, aug.sink)]
    row_of = {v: i for i, v in enumerate(row_names)}
    c = np.zeros(m)
    for a, arc in enumerate(aug.arcs):
        if arc.head in row_of:
            rows.append(row_of[arc.head])
            cols.append(a)
            vals.append(1.0)
        if arc.tail in row_of:
            rows.append(row_of[arc.tail])
            cols.append(a)
            vals.append(-1.0)
        if arc.head == aug.sink:
            c[a] -= 1.0
        if arc.tail == aug.sink:
            c[a] += 1.0
    a_eq = scipy.sparse.csr_matrix(
        (vals, (rows, cols)), shape=(len(row_names), m)
    )
    res = scipy.optimize.linprog(
        c,
        A_eq=a_eq,
        b_eq=np.zeros(len(row_names)),
        bounds=list(zip(np.zeros(m), mask.capacities.astype(float))),
        method="highs",
    )
    assert res.status == 0
    return -res.fun


def brute_min_cut_value(aug: AugmentedInstance, mask: ArcMask) -> int:
    """Smallest masked capacity entering any sink side; 2^(V-2) subsets."""
    others = [v for v in range(aug.vertex_count) if v not in (aug.root, aug.sink)]
    assert len(others) <= 16
    best = None
    for bits in range(1 << len(others)):
        side = {aug.sink} | {v for i, v in enumerate(others) if bits >> i & 1}
        cap = sum(
            int(mask.capacities[a])
            for a, arc in enumerate(aug.arcs)
            if arc.tail not in side and arc.head in side
        )
        best = cap if best is None else min(best, cap)
    return best


def brute_attack_value(aug: AugmentedInstance, design: Design) -> int:
    """Worst surviving flow over every failure set of the design."""
    candidates = sorted(
        a
        for a in design.selected
        if not aug.is_fictive(a) and a not in design.protected
    )
    size = min(aug.k, len(candidates))
    best = None
    for combo in itertools.combinations(candidates, size):
        value = max_flow(aug, design.mask(aug, combo)).value
        best = value if best is None else min(best, value)
    if best is None:
        best = max_flow(aug, design.mask(aug)).value
    return best


def brute_worst_loss(aug: AugmentedInstance, cut, design: Design) -> int:
    """Largest capacity removable from a cut by failing up to k arcs."""
    vulnerable = [
        a
        for a in cut.arcs
        if not aug.is_fictive(a)
        and a in design.selected
        and a not in design.protected
    ]
    best = 0
    for size in range(min(aug.k, len(vulnerable)) + 1):
        for combo in itertools.combinations(vulnerable, size):
            best = max(best, sum(aug.arcs[a].capacity for a in combo))
    return best


def random_design(rng, aug: AugmentedInstance) -> Design:
    """Canonical design with each initial arc selected with probability 1/2
    and a random admissible protected subset."""
    selected = [a for a in aug.initial_arcs if rng.random() < 0.5]
    take = rng.randint(0, min(aug.kp, len(selected)))
    protected = rng.sample(selected, take) if take else []
    return Design.canonical(aug, selected, protected)


# ---------------------------------------------------------------------------
# seeded corpus: 54 instances, |V| <= 12, |A| <= 30, |T| <= 4, k <= 2, kp <= 1

_SHAPES = (
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
_BUDGETS = ((1, 0), (1, 1), (2, 0), (2, 1), (1, 1), (2, 1))


def corpus() -> list[Instance]:
    instances = []
    seed = 0
    for nodes, terminals, arcs, mode in _SHAPES:
        for k, kp in _BUDGETS:
            seed += 1
            inst = generate(
                nodes, terminals, arcs, capacity_mode=mode, seed=seed, k=k, kp=kp
            )
            instances.append(inst)
    return instances


@pytest.fixture(scope="session")
def suite() -> list[Instance]:
    return corpus()


@pytest.fixture(scope="session")
def oracle_suite(suite) -> list[Instance]:
    small = [inst for inst in suite if len(inst.arcs) <= 14]
    assert small, "corpus must keep some instances within brute-force reach"
    return small
