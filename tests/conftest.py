"""Shared fixtures: a tiny hand-checkable instance, brute-force oracles
and reference models kept independent of the solver stack, and the seeded
random corpus the cross-validation tests sweep over.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse

from cprsnp import milp
from cprsnp.formulations import Design, FormulationError
from cprsnp.graph import (
    Arc,
    ArcMask,
    AugmentedInstance,
    CutSet,
    Instance,
    augment,
    max_flow,
)
from cprsnp.instances import generate
from cprsnp.milp import HighsModelStatus, MilpModel, SolveStatus, _Relaxation

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
    if a.format_ == milp._core.MatrixFormat.kColwise:
        matrix = scipy.sparse.csc_matrix(data, shape=shape).tocsr()
    else:
        assert a.format_ == milp._core.MatrixFormat.kRowwise
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
}


def opened(model, ilb, iub):
    """A fresh HiGHS instance of the model, with the integer columns'
    bounds set to ``ilb`` and ``iub`` before it solves anything.  The
    relaxation takes the top of the idle stack, so a never-used instance
    goes there first: it shares no state with any instance a solve used."""
    milp._IDLE.append(milp._new_highs())
    fresh = _Relaxation(model, model.integer_indices())
    fresh.highs.changeColsBounds(len(ilb), fresh.int_idx, ilb, iub)
    return fresh.highs


class CheckedRelaxation(_Relaxation):
    """The kernel's relaxation, checked after every growth against a fresh
    HiGHS instance of the same model and, at every node, against a cold
    instance opened under the same column bounds.  Patch it over
    ``cprsnp.milp._Relaxation`` to check every LP a solve runs."""

    def grow(self):
        super().grow()
        fresh = opened(self.model, self.ilb, self.iub)
        assert lp_data(self.highs.getLp()) == lp_data(fresh.getLp())

    def solve(self, ilb, iub):
        status, objective, x = super().solve(ilb, iub)
        # a fresh instance under the node's bounds: it has solved nothing,
        # so it shares no state with the warm one
        cold = opened(self.model, ilb, iub)
        cold.run()
        cold_status = cold.getModelStatus()
        # bounded columns leave a cold LP optimal or infeasible, nothing else
        assert cold_status in _COLD_STATUS, (
            f"cold LP of {self.model.name}: unexpected HiGHS status "
            f"{cold.modelStatusToString(cold_status)}"
        )
        assert status == _COLD_STATUS[cold_status]
        if status == SolveStatus.OPTIMAL:
            want = cold.getInfo().objective_function_value
            assert objective == pytest.approx(want, abs=1e-6)
        return status, objective, x


# ---------------------------------------------------------------------------
# references the tests check the package against; nothing in the package
# calls them


def matrices(model: MilpModel):
    """``(c, a, row_lo, row_hi)``: the objective, the rows as a sparse
    matrix, and their bounds ``row_lo <= a @ x <= row_hi``."""
    c = np.zeros(model.num_vars)
    for v, coef in model._objective.items():
        c[v] = coef
    a = scipy.sparse.csr_matrix(
        (np.array(model._values, dtype=float), model._col_idx, model._start),
        shape=(model.num_constraints, model.num_vars),
    )
    return c, a, np.array(model._row_lo), np.array(model._row_hi)


def check_assignment(model: MilpModel, values, tol: float = 1e-6) -> bool:
    """True iff the assignment satisfies the model's bounds, integrality
    and rows."""
    x = np.asarray(values, dtype=float)
    if x.shape != (model.num_vars,):
        return False
    lb, ub = model.bounds()
    if np.any(x < lb - tol) or np.any(x > ub + tol):
        return False
    for i in model.integer_indices():
        if abs(x[i] - round(x[i])) > tol:
            return False
    _, a, row_lo, row_hi = matrices(model)
    lhs = a @ x
    return bool(np.all(lhs >= row_lo - tol) and np.all(lhs <= row_hi + tol))


def objective_value(model: MilpModel, values) -> float:
    """The model's objective at an assignment."""
    x = np.asarray(values, dtype=float)
    return float(sum(c * x[v] for v, c in model._objective.items()))


def cut_capacity(cut: CutSet, mask: ArcMask) -> int:
    """The masked capacity of the arcs entering the cut's sink side."""
    return int(sum(mask.capacities[i] for i in cut.arcs))


def assert_attacker_vertex(aug: AugmentedInstance, point) -> None:
    """Assert that a point is a 0/1 vertex of the attacker-cut polytope.
    mu and the attack vector are rebuilt here from ``point.cut.sink_side``
    and ``point.failed``; lam, gam and ell are the point's own views."""
    m = aug.arc_count
    mu = [int(v not in point.cut.sink_side) for v in range(aug.vertex_count)]
    attack = [int(a in point.failed) for a in range(m)]
    lam, gam, ell = point.lam, point.gam, point.ell
    for vec in (lam, gam, ell):
        assert len(vec) == m and set(vec) <= {0, 1}
    assert len(point.failed) <= aug.k
    assert all(0 <= a < m and not aug.is_fictive(a) for a in point.failed)
    assert mu[aug.root] == 1 and mu[aug.sink] == 0
    for a, arc in enumerate(aug.arcs):
        assert lam[a] + gam[a] - mu[arc.tail] + mu[arc.head] >= 0, f"arc {a}"
    assert ell == gam
    assert all(g <= hit for g, hit in zip(gam, attack))


def vertex_lam_count(aug: AugmentedInstance, design: Design, cut) -> int:
    """Lam arcs of the vertex of a cut under its worst attack: the crossing
    arcs less the min(k, n) that fail, of the n selected, unprotected, real
    ones."""
    vulnerable = [
        a for a in cut.arcs
        if a in design.selected and a not in design.protected
        and not aug.is_fictive(a)
    ]
    return len(cut.arcs) - min(aug.k, len(vulnerable))


def grown(master, append, items):
    """The master after ``append(master, item)`` for each item, in order."""
    for item in items:
        append(master, item)
    return master


def generic_point_row(aug: AugmentedInstance, point):
    """The tightened guarantee row of any attacker vertex, from the
    generic vertex-row formula ``sum u lam y + sum u gam p >= |T| - sum u
    (gam - ell)``: the fictive arcs' ``u lam`` moves into the right-hand
    side r, and every other coefficient is capped at r (at 0 when r <= 0).
    As ``(coefficients by column, r)``, zero coefficients left out, with
    ``y_a`` at column ``a`` and ``p_a`` at column ``m + a``."""
    row: dict[int, float] = {}
    need = float(aug.demand)
    for a, arc in enumerate(aug.arcs):
        u = float(arc.capacity)
        need -= u * point.gam[a] - u * point.ell[a]
        if aug.is_fictive(a):
            need -= u * point.lam[a]
            continue
        if point.lam[a]:
            row[a] = u * point.lam[a]
        if point.gam[a]:
            row[aug.arc_count + a] = u * point.gam[a]
    cap = max(need, 0.0)
    return {col: min(c, cap) for col, c in row.items() if min(c, cap)}, need


def build_inner_flow(aug: AugmentedInstance, design: Design, attack=()) -> MilpModel:
    """LP of the flow the design still carries under a fixed attack, as the
    minimum of minus that flow.

    The polytope is integral (its constraint matrix is an incidence matrix
    with duplicated capacity rows), so simplex vertices are integer flows
    and the optimum is minus the masked max flow.
    """
    failed = frozenset(attack)
    for a in failed:
        if aug.is_fictive(a):
            raise FormulationError("fictive arcs cannot fail")
    model = MilpModel("inner_flow")
    x_var = []
    for a, arc in enumerate(aug.arcs):
        cap = float(arc.capacity) if a in design.selected else 0.0
        x_var.append(model.add_var(f"x{a}", 0.0, cap))
    in_arcs, out_arcs = aug.layout.in_arcs, aug.layout.out_arcs
    for v in range(aug.vertex_count):
        if v in (aug.root, aug.sink):
            continue
        row = {x_var[a]: 1.0 for a in in_arcs[v]}
        for a in out_arcs[v]:
            row[x_var[a]] = row.get(x_var[a], 0.0) - 1.0
        model.add_constr(row, "=", 0.0)
    for a in aug.initial_arcs:
        u = float(aug.arcs[a].capacity)
        limit = u * (1.0 - (a in failed) + (a in design.protected))
        model.add_constr({x_var[a]: 1.0}, "<=", limit)
    obj = {x_var[a]: -1.0 for a in out_arcs[aug.root]}
    for a in in_arcs[aug.root]:
        obj[x_var[a]] = obj.get(x_var[a], 0.0) + 1.0
    model.set_objective(obj)
    return model


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


def unreachable_terminal() -> Instance:
    """Root 0 and terminal 2, but the one arc at the terminal leaves it, so
    even the full network carries no flow to it."""
    return Instance(
        3, (Arc(0, 1, 1.0, 1), Arc(2, 1, 1.0, 1)), root=0, terminals=(2,), k=1, kp=0
    )


def deep_path(n: int = 1500) -> Instance:
    """The path 0 -> 1 -> ... -> n-1 with its last vertex as the one
    terminal: its level graph is n levels deep, beyond the interpreter's
    default recursion limit of 1000."""
    arcs = tuple(Arc(i, i + 1, 1.0, 1) for i in range(n - 1))
    return Instance(n, arcs, root=0, terminals=(n - 1,), k=0, kp=0)


def two_cycle(cycle_cost: float = 0.0) -> Instance:
    """Root 0, terminal 2, k = 1: the paths 0-1-2 (cost 2) and 0-2 (cost
    3), plus the 2-cycle 1 -> 3 -> 1 at ``cycle_cost`` per arc.  The arc
    (3, 1) leaves vertex 3, whose only in-arc comes from 1, its head, so no
    simple path uses it."""
    arcs = (
        Arc(0, 1, 1.0, 1),
        Arc(0, 2, 3.0, 1),
        Arc(1, 2, 1.0, 1),
        Arc(1, 3, cycle_cost, 1),
        Arc(3, 1, cycle_cost, 1),
    )
    return Instance(4, arcs, root=0, terminals=(2,), k=1, kp=0)


@pytest.fixture
def tri_aug() -> AugmentedInstance:
    return augment(triangle())


# ---------------------------------------------------------------------------
# independent oracles


def balance_rows(aug: AugmentedInstance) -> list[dict[int, float]]:
    """The design block's flow-balance rows, written out independently of
    the builder: per initial arc b = (v, w) whose tail v is not the root, in
    arc order, ``y_b - sum y_a <= 0`` over the arcs a = (u, v) with u != w,
    as coefficients by y column (the arc index)."""
    rows = []
    for b in aug.initial_arcs:
        v, w = aug.arcs[b].tail, aug.arcs[b].head
        if v != aug.root:
            row = {
                a: -1.0
                for a, arc in enumerate(aug.arcs)
                if arc.head == v and arc.tail != w
            }
            rows.append({b: 1.0, **row})
    return rows


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
        bounds=[(0.0, float(c)) for c in mask.capacities],
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
