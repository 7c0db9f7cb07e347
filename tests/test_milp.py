"""LP/MIP kernel: correctness against enumeration and against cold linprog
solves, statuses, determinism."""

import itertools
import math
import random
import time

import numpy as np
import pytest
import scipy.optimize
from scipy import sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CheckedRelaxation,
    check_assignment,
    lp_data,
    matrices,
    objective_value,
)
from cprsnp import milp
from cprsnp.milp import (
    MilpError,
    MilpModel,
    SolveStatus,
    _Relaxation,
    solve_mip,
)


def knapsack(values, weights, cap) -> MilpModel:
    """The most valuable items within the capacity, found as the minimum of
    minus their value."""
    model = MilpModel("knapsack")
    xs = [model.add_var(f"x{i}", 0.0, 1.0, integer=True) for i in range(len(values))]
    model.add_constr({x: w for x, w in zip(xs, weights)}, "<=", cap)
    model.set_objective({x: -v for x, v in zip(xs, values)})
    return model


def test_lp_known_optimum():
    # max 3x + 2y as min -3x - 2y; no integer column, so one LP
    model = MilpModel()
    x = model.add_var("x", 0.0, 10.0)
    y = model.add_var("y", 0.0, 10.0)
    model.add_constr({x: 1, y: 1}, "<=", 4)
    model.add_constr({x: 1, y: 3}, "<=", 6)
    model.set_objective({x: -3, y: -2})
    res = solve_mip(model)
    assert res.status == SolveStatus.OPTIMAL
    assert res.nodes == 1
    assert res.objective == pytest.approx(-12.0)
    assert res.values[x] == pytest.approx(4.0)
    assert res.values[y] == pytest.approx(0.0)


def test_lp_statuses():
    model = MilpModel()
    x = model.add_var("x", 0.0, 1.0)
    model.add_constr({x: 1}, ">=", 2)
    assert solve_mip(model).status == SolveStatus.INFEASIBLE

    # an LP that could be unbounded cannot be built
    with pytest.raises(MilpError):
        MilpModel().add_var("z", 0.0, math.inf)


@pytest.mark.parametrize(
    "rows, status",
    [
        ([], SolveStatus.OPTIMAL),
        ([(">=", -2.0), ("=", 0.0), ("<=", 1.0)], SolveStatus.OPTIMAL),
        ([("<=", 1.0), (">=", 1.0)], SolveStatus.INFEASIBLE),
    ],
)
def test_model_without_columns(rows, status):
    # HiGHS calls a model with no columns empty; each of its rows reads 0
    model = MilpModel()
    for sense, rhs in rows:
        model.add_constr({}, sense, rhs)
    res = solve_mip(model)
    assert res.status == status
    assert res.nodes == 1
    if status == SolveStatus.OPTIMAL:
        assert res.objective == 0.0 and res.bound == 0.0
        assert res.values.shape == (0,)
    else:
        assert res.objective is None and res.values is None


def test_mip_knapsack_frozen():
    # enumeration: (1,1,0) weighs 5 and pays 9, the best of 8 patterns
    model = knapsack([5, 4, 3], [2, 3, 1], 5)
    res = solve_mip(model)
    assert res.status == SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(-9.0)
    assert [round(v) for v in res.values] == [1, 1, 0]
    assert res.bound == pytest.approx(-9.0)


def test_mip_mixed_frozen():
    # integer x forced to 2, continuous y fills the rest: 2 + 0.85
    model = MilpModel()
    x = model.add_var("x", 0.0, 3.0, integer=True)
    y = model.add_var("y", 0.0, 1.0)
    model.add_constr({x: 1, y: 2}, ">=", 3.7)
    model.set_objective({x: 1, y: 1})
    res = solve_mip(model)
    assert res.status == SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(2.85)
    assert res.values[x] == pytest.approx(2.0)
    assert res.values[y] == pytest.approx(0.85)


def test_integer_costs_on_continuous_columns_do_not_prune_by_one():
    # every cost is an integer, but x and y are continuous: the optimum
    # -2.5 (b = 1, x = 2, y = 0.5) is not, so a node within one unit of the
    # incumbent must still be searched
    model = MilpModel()
    x = model.add_var("x", 0.0, 2.0)
    y = model.add_var("y", 0.0, 2.0)
    b = model.add_var("b", 0.0, 1.0, integer=True)
    model.add_constr({y: 2, x: -1, b: -2}, ">=", -3)
    model.set_objective({x: -1, y: 1, b: -1})
    res = solve_mip(model)
    assert res.status == SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(-2.5)


def test_mip_infeasible_and_unbounded():
    model = MilpModel()
    x = model.add_var("x", 0.0, 1.0, integer=True)
    model.add_constr({x: 1}, ">=", 2)
    assert solve_mip(model).status == SolveStatus.INFEASIBLE

    # a MIP that could be unbounded cannot be built
    with pytest.raises(MilpError):
        MilpModel().add_var("z", -math.inf, 0.0, integer=True)


def _random_binary_program(rng: random.Random) -> MilpModel:
    n = rng.randint(2, 9)
    m = rng.randint(1, 4)
    # about half the programs are maximizations, minimized as their negation
    sign = 1 if rng.random() < 0.5 else -1
    model = MilpModel("random")
    xs = [model.add_var(f"x{i}", 0.0, 1.0, integer=True) for i in range(n)]
    for _ in range(m):
        coeffs = {x: rng.randint(-4, 4) for x in rng.sample(xs, rng.randint(1, n))}
        sense = rng.choice(["<=", ">="])
        rhs = rng.randint(-3, 6)
        model.add_constr(coeffs, sense, rhs)
    model.set_objective({x: sign * rng.randint(-5, 5) for x in xs})
    return model


def _enumerate_binary(model: MilpModel):
    best = None
    n = model.num_vars
    for bits in itertools.product((0.0, 1.0), repeat=n):
        if not check_assignment(model, bits):
            continue
        obj = objective_value(model, bits)
        if best is None or obj < best:
            best = obj
    return best


@pytest.mark.parametrize("seed", range(40))
def test_mip_matches_enumeration(seed):
    rng = random.Random(seed)
    model = _random_binary_program(rng)
    res = solve_mip(model)
    brute = _enumerate_binary(model)
    if brute is None:
        assert res.status == SolveStatus.INFEASIBLE
    else:
        assert res.status == SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(brute, abs=1e-6)
        assert check_assignment(model, res.values)


def _tied_program(rng: random.Random) -> MilpModel:
    """A 0/1 knapsack whose value sits on continuous columns, each tied by an
    equality row to an integer combination of the items, under a cover row
    that some draws cannot meet: the kernel cannot infer that the objective
    is integral, yet at every integer point it is."""
    n = rng.randint(3, 8)
    model = MilpModel("tied")
    xs = [model.add_var(f"x{i}", 0.0, 1.0, integer=True) for i in range(n)]
    for _ in range(rng.randint(1, 2)):
        weights = {x: rng.randint(2, 9) for x in xs}
        model.add_constr(weights, "<=", sum(weights.values()) // 2)
    cover = rng.sample(xs, rng.randint(1, n))
    model.add_constr({x: 1 for x in cover}, ">=", rng.randint(0, n // 2 + 1))
    objective = {}
    for j in range(rng.randint(1, 2)):
        combo = {x: rng.randint(0, 7) for x in xs}
        z = model.add_var(f"z{j}", 0.0, sum(combo.values()))
        model.add_constr({z: 1, **{x: -c for x, c in combo.items()}}, "=", 0)
        objective[z] = -rng.randint(1, 3)
    model.set_objective(objective)
    return model


def test_declared_integral_objective_prunes_by_one():
    # the declaration keeps every status and optimum, and only ever removes
    # nodes: a node it prunes holds no integer point that beats the incumbent
    nodes = {False: 0, True: 0}
    statuses = set()
    for seed in range(40):
        model = _tied_program(random.Random(seed))
        assert not milp._integral_objective(model, model.integer_indices())
        plain = solve_mip(model)
        model.integral_objective = True
        declared = solve_mip(model)
        assert declared.status == plain.status
        statuses.add(plain.status)
        if plain.status == SolveStatus.OPTIMAL:
            assert declared.objective == pytest.approx(plain.objective, abs=1e-6)
            assert declared.objective == pytest.approx(round(plain.objective), abs=1e-6)
            assert check_assignment(model, declared.values)
        assert declared.nodes <= plain.nodes
        nodes[False] += plain.nodes
        nodes[True] += declared.nodes
    assert statuses == {SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE}
    assert nodes[True] < nodes[False]


def test_mip_without_integers_equals_lp():
    model = MilpModel()
    x = model.add_var("x", 0.0, 2.5)
    y = model.add_var("y", 0.0, 2.5)
    model.add_constr({x: 1, y: 1}, "<=", 4)
    model.set_objective({x: -1, y: -1})
    res = solve_mip(model)
    assert res.nodes == 1
    status, objective = _cold_linprog(model, *model.bounds())
    assert res.status == status
    assert res.objective == pytest.approx(objective)


def test_determinism():
    model = knapsack([7, 2, 9, 4, 8, 3], [3, 1, 5, 2, 4, 1], 8)
    a = solve_mip(model)
    b = solve_mip(model)
    assert a.objective == b.objective
    assert tuple(a.values) == tuple(b.values)
    assert a.nodes == b.nodes


def _accept_every_point(values, bound):
    return False


def _assert_timed_out_validly(res, exact, cutoff):
    ceiling = math.inf if cutoff is None else cutoff
    if res.status == SolveStatus.FEASIBLE:
        # the reported bound must under-estimate the true optimum, and
        # never claims more than the cutoff
        if res.bound is not None:
            assert res.bound <= exact.objective + 1e-6
            assert res.bound <= ceiling
        if res.objective is not None:
            assert exact.objective - 1e-6 <= res.objective < ceiling
    elif exact.objective < ceiling:
        assert res.objective == pytest.approx(exact.objective)
    else:
        assert res.status == SolveStatus.INFEASIBLE


def _items_26():
    rng = random.Random(5)
    values = [rng.randint(20, 60) for _ in range(26)]
    weights = [v + rng.randint(-3, 3) for v in values]
    return values, weights


def _knapsack_26() -> MilpModel:
    values, weights = _items_26()
    return knapsack(values, weights, sum(weights) // 2)


def _cover_26() -> MilpModel:
    """The covering twin of the 26-item knapsack, shaped like a network
    master: buy items at least cost until their weights reach the half."""
    values, weights = _items_26()
    model = MilpModel("cover")
    xs = [model.add_var(f"x{i}", 0.0, 1.0, integer=True) for i in range(26)]
    model.add_constr(dict(zip(xs, weights)), ">=", sum(weights) // 2)
    model.set_objective(dict(zip(xs, values)))
    return model


def test_time_limit_keeps_valid_bound():
    # a lazy callback makes the tree dive, so the limit can fire in a dive
    model = _knapsack_26()
    exact = solve_mip(model)
    assert exact.status == SolveStatus.OPTIMAL
    for lazy in (None, _accept_every_point):
        for cutoff in (None, exact.objective - 10.0, exact.objective + 10.0):
            res = solve_mip(
                model, deadline=time.perf_counter() + 0.02, cutoff=cutoff, lazy=lazy
            )
            _assert_timed_out_validly(res, exact, cutoff)


class _TickClock:
    """Stands in for the ``time`` module: each reading is one tick later."""

    def __init__(self):
        self.ticks = 0

    def perf_counter(self):
        self.ticks += 1
        return float(self.ticks)


def test_time_limit_at_every_node_keeps_valid_bound(monkeypatch):
    # the kernel reads the clock once per node LP, so a deadline n + 0.5
    # ticks after one reading stops the search just before its (n + 1)-th
    # LP: every node of every dive is a place the limit fires once
    rng = random.Random(11)
    model = knapsack(
        [rng.randint(10, 40) for _ in range(14)],
        [rng.randint(5, 30) for _ in range(14)],
        200,
    )
    exact = solve_mip(model)
    clock = _TickClock()
    monkeypatch.setattr(milp, "time", clock)
    for lazy in (None, _accept_every_point):
        for cutoff in (None, exact.objective - 10.0, exact.objective + 10.0):
            nodes = solve_mip(model, cutoff=cutoff, lazy=lazy).nodes
            for n in range(nodes + 1):
                deadline = clock.perf_counter() + n + 0.5
                res = solve_mip(model, deadline=deadline, cutoff=cutoff, lazy=lazy)
                assert res.nodes == n or res.status != SolveStatus.FEASIBLE
                _assert_timed_out_validly(res, exact, cutoff)


def _long_lp(n: int = 3000) -> MilpModel:
    """A packing LP that takes HiGHS seconds from a cold start: n columns in
    [0, 10] and n rows of about 20 random nonzeros each."""
    rng = random.Random(0)
    model = MilpModel("long_lp")
    xs = [model.add_var(f"x{j}", 0.0, 10.0) for j in range(n)]
    model.set_objective({x: -rng.randint(1, 99) for x in xs})
    for _ in range(n):
        row = {rng.randrange(n): rng.randint(1, 49) for _ in range(20)}
        model.add_constr(row, "<=", rng.randint(100, 999))
    return model


def test_time_limit_stops_inside_one_long_lp():
    # the root LP alone outlasts the limit many times over, so only HiGHS's
    # own time limit can end it on time
    limit = 0.25
    model = _long_lp()
    t0 = time.perf_counter()
    res = solve_mip(model, deadline=t0 + limit)
    elapsed = time.perf_counter() - t0
    assert res.status == SolveStatus.FEASIBLE
    assert (res.objective, res.values, res.bound, res.nodes) == (None, None, None, 1)
    assert elapsed < limit + 0.5  # the model is built before the clock starts


def test_lp_time_limit_counts_from_when_it_is_set():
    # HiGHS's run clock adds up over the runs of one instance, so each limit
    # must be read from the time already run: every run here gets its 0.2 s
    model = _long_lp()
    no_bounds = np.zeros(0)
    lp = _Relaxation(model, model.integer_indices())
    for _ in range(3):
        lp.stop_after(0.2)
        t0 = time.perf_counter()
        assert lp.solve(no_bounds, no_bounds) == (SolveStatus.FEASIBLE, None, None)
        assert 0.15 < time.perf_counter() - t0 < 0.2 + 0.5


def test_a_reused_instance_solves_as_a_new_one():
    # solves share HiGHS instances through the idle stack: A, then B, which
    # its deadline stops inside its one LP, then A again, all on the
    # instance at the top of the stack.  HiGHS's run clock keeps adding up
    # on that instance, so a time limit that B left behind would stop A's
    # first LP at once
    rng = random.Random(5)
    a = knapsack(
        [rng.randint(10, 40) for _ in range(12)],
        [rng.randint(5, 30) for _ in range(12)],
        120,
    )
    first = solve_mip(a)
    highs = milp._IDLE[-1]
    b = _long_lp()
    res = solve_mip(b, deadline=time.perf_counter() + 0.2)
    assert (res.status, res.nodes) == (SolveStatus.FEASIBLE, 1)
    assert milp._IDLE[-1] is highs
    assert (highs.getNumCol(), highs.getNumRow()) == (0, 0)
    again = solve_mip(a)
    assert milp._IDLE[-1] is highs
    assert first.status == again.status == SolveStatus.OPTIMAL
    assert (again.objective, again.bound, again.nodes) == (
        first.objective, first.bound, first.nodes
    )
    assert np.array_equal(again.values, first.values)


def test_a_raising_lazy_callback_returns_its_instance():
    class Stop(Exception):
        pass

    def lazy(values, bound):
        raise Stop

    solve_mip(_three_binaries())  # at least one idle instance
    idle = list(milp._IDLE)
    with pytest.raises(Stop):
        solve_mip(_three_binaries(), lazy=lazy)
    assert len(milp._IDLE) == len(idle)
    assert all(got is want for got, want in zip(milp._IDLE, idle))
    assert milp._IDLE[-1].getNumCol() == 0


def test_a_solve_nested_in_a_lazy_callback_holds_its_own_instance(monkeypatch):
    # a separation MIP solved inside the master's callback must not take the
    # master's instance, which still holds the master
    held = []

    class Recorded(_Relaxation):
        def __init__(self, model, int_idx):
            super().__init__(model, int_idx)
            held.append((model.name, self.highs))

    inner = knapsack([3, 4, 5], [2, 3, 4], 5)

    def lazy(values, bound):
        assert solve_mip(inner).objective == pytest.approx(-7.0)
        return False

    monkeypatch.setattr(milp, "_Relaxation", Recorded)
    res = solve_mip(_three_binaries(), lazy=lazy)
    assert res.objective == pytest.approx(solve_mip(_three_binaries()).objective)
    outer = [h for name, h in held if name == "three"][0]
    nested = [h for name, h in held if name == "knapsack"]
    assert nested and all(h is not outer for h in nested)


class _BoxRecorder(milp._Relaxation):
    """The kernel's relaxation, recording the integer column bounds of every
    node."""

    boxes: list = []

    def solve(self, ilb, iub):
        self.boxes.append((ilb.copy(), iub.copy()))
        return super().solve(ilb, iub)


def test_lazy_tree_dives_up_to_its_first_integer_point(monkeypatch):
    # with lazy, each node up to the first integer point is the up child
    # (x_j >= ceil) of the node before it: one dive from the root
    monkeypatch.setattr(milp, "_Relaxation", _BoxRecorder)
    monkeypatch.setattr(_BoxRecorder, "boxes", [])
    first = []

    def lazy(values, bound):
        if not first:
            first.append(len(_BoxRecorder.boxes))
        return False

    res = solve_mip(_cover_26(), lazy=lazy)
    assert res.objective == pytest.approx(solve_mip(_cover_26()).objective)
    dive = _BoxRecorder.boxes[: first[0]]
    assert len(dive) > 2
    for (lb, ub), (next_lb, next_ub) in zip(dive, dive[1:]):
        assert np.array_equal(ub, next_ub)
        raised = np.flatnonzero(next_lb != lb)
        assert raised.size == 1 and next_lb[raised[0]] > lb[raised[0]]


def test_tree_without_lazy_keeps_best_bound_order():
    # frozen node counts: best-bound order without lazy, the dive with it
    assert solve_mip(_knapsack_26()).nodes == 111
    assert solve_mip(_cover_26()).nodes == 37
    assert solve_mip(_knapsack_26(), lazy=_accept_every_point).nodes == 64
    assert solve_mip(_cover_26(), lazy=_accept_every_point).nodes == 59


def test_model_validation_errors():
    model = MilpModel()
    x = model.add_var("x", 0.0, 1.0)
    with pytest.raises(MilpError):
        model.add_var("bad", lb=2.0, ub=1.0)
    with pytest.raises(MilpError):
        model.add_constr({x: 1}, "==", 1.0)
    with pytest.raises(MilpError):
        model.add_constr({x + 5: 1}, "<=", 1.0)
    with pytest.raises(MilpError):
        model.add_constr({x: float("nan")}, "<=", 1.0)
    with pytest.raises(MilpError):
        model.set_objective({x + 5: 1})
    for bad in (float("nan"), math.inf, -math.inf):
        with pytest.raises(MilpError):
            model.set_objective({x: bad})
    for lb, ub in ((math.nan, 1.0), (0.0, math.nan), (math.inf, math.inf),
                   (-math.inf, -math.inf), (0.0, math.inf), (-math.inf, 0.0)):
        with pytest.raises(MilpError):
            model.add_var("bad", lb=lb, ub=ub)


@pytest.mark.parametrize("key", [1.5, 0.7, 1.0, "0", None])
def test_add_constr_rejects_a_non_integer_column(key):
    # 1.5 was stored as column 1: a key is a column only by operator.index
    model = MilpModel()
    model.add_var("x", 0.0, 1.0)
    model.add_var("y", 0.0, 1.0)
    with pytest.raises(MilpError, match=f"unknown variable {key!r}"):
        model.add_constr({key: 1.0}, "<=", 1.0)
    assert model.num_constraints == 0
    model.add_constr({np.int64(0): 2.0, True: 3.0}, "<=", 1.0)
    assert (list(model._col_idx), list(model._values)) == ([0, 1], [2.0, 3.0])
    assert all(type(col) is int for col in model._col_idx)


@pytest.mark.parametrize("key", [0.7, 1.5, 0.0, "0", None])
def test_set_objective_rejects_a_non_integer_column(key):
    # 0.7 set column 0's cost
    model = MilpModel()
    model.add_var("x", 0.0, 1.0)
    model.add_var("y", 0.0, 1.0)
    model.set_objective({0: 4.0})
    with pytest.raises(MilpError, match=f"unknown variable {key!r}"):
        model.set_objective({key: 1.0})
    assert model._objective == {0: 4.0}
    model.set_objective({np.int64(1): 2.0})
    assert model._objective == {1: 2.0}
    assert all(type(col) is int for col in model._objective)


def test_check_assignment_and_objective_value():
    model = knapsack([5, 4, 3], [2, 3, 1], 5)
    assert check_assignment(model, [1, 1, 0])
    assert not check_assignment(model, [1, 1, 1])  # weight 6 > 5
    assert not check_assignment(model, [0.5, 0, 0])  # fractional integer var
    assert objective_value(model, [1, 1, 0]) == pytest.approx(-9.0)


# ---------------------------------------------------------------------------
# row storage: the matrices keep exactly the rows given to add_constr, and
# conftest's check_assignment agrees with a row-by-row evaluation of those rows


@st.composite
def rows_and_points(draw):
    """A model with the rows it was built from, a point and a tolerance.
    Coefficients are integers, right-hand sides halves and the point's
    entries quarters, so every sum is exact and both evaluations must agree
    to the bit."""
    n = draw(st.integers(1, 5))
    model = MilpModel("rows")
    columns = []
    for _ in range(n):
        lb = draw(st.integers(-2, 1))
        ub = lb + draw(st.integers(0, 3))
        integer = draw(st.booleans())
        model.add_var(f"x{len(columns)}", lb, ub, integer=integer)
        columns.append((lb, ub, integer))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        coeffs = draw(st.dictionaries(st.integers(0, n - 1), st.integers(-3, 3)))
        sense = draw(st.sampled_from(["<=", ">=", "="]))
        rhs = draw(st.integers(-4, 4)) / 2
        model.add_constr(coeffs, sense, rhs)
        rows.append((coeffs, sense, rhs))
    # mostly inside the bounds, integral on most integer columns, so that
    # the rows decide
    x = []
    for lb, ub, integer in columns:
        v = draw(st.integers(4 * lb - 1, 4 * ub + 1)) / 4
        x.append(float(round(v)) if integer and draw(st.booleans()) else v)
    tol = draw(st.sampled_from([1e-6, 0.25, 0.5]))
    return model, columns, rows, x, tol


def _check_row_by_row(columns, rows, x, tol) -> bool:
    for (lb, ub, integer), v in zip(columns, x):
        if v < lb - tol or v > ub + tol:
            return False
        if integer and abs(v - round(v)) > tol:
            return False
    for coeffs, sense, rhs in rows:
        lhs = sum(c * x[v] for v, c in coeffs.items())
        if sense == "<=" and lhs > rhs + tol:
            return False
        if sense == ">=" and lhs < rhs - tol:
            return False
        if sense == "=" and abs(lhs - rhs) > tol:
            return False
    return True


@settings(max_examples=300, deadline=None)
@given(drawn=rows_and_points())
def test_row_storage_matches_the_rows_given(drawn):
    model, columns, rows, x, tol = drawn
    _, a, row_lo, row_hi = matrices(model)
    assert model.num_constraints == len(rows)
    assert a.shape == (len(rows), len(columns))
    csr = a.tocsr()
    given = []
    for r, (coeffs, sense, rhs) in enumerate(rows):
        nonzero = {v: c for v, c in coeffs.items() if c != 0}
        got = dict(zip(csr[r].indices.tolist(), csr[r].data.tolist()))
        assert got == nonzero
        want = {"<=": (-math.inf, rhs), ">=": (rhs, math.inf), "=": (rhs, rhs)}[sense]
        assert (row_lo[r], row_hi[r]) == want
        given.append((*want, tuple(sorted(nonzero.items()))))
    # handed to HiGHS, the model holds exactly those rows, and nothing else
    lb, ub = model.bounds()
    lp = _Relaxation(model, model.integer_indices()).highs.getLp()
    assert lp_data(lp) == ([0.0] * len(columns), list(lb), list(ub), sorted(given))
    assert check_assignment(model, x, tol) == _check_row_by_row(columns, rows, x, tol)


def test_relaxation_holds_the_model_and_its_growth(monkeypatch):
    # what reaches HiGHS, checked against this test's own data rather than
    # against another upload of the same model: costs on integer and
    # continuous columns, bounds and rows, then one lazy growth
    model = MilpModel("sent")
    x = model.add_var("x", 0, 3, integer=True)
    y = model.add_var("y", -1, 2, integer=True)
    z = model.add_var("z", 0, 2.5)
    w = model.add_var("w", -1, 1)
    model.add_constr({x: 1, z: 1}, ">=", 1)
    model.add_constr({y: 1, w: -1}, "<=", 1)
    model.set_objective({x: 2, y: -1, z: 3, w: 0.5})
    costs = [2.0, -1.0, 3.0, 0.5]
    lb, ub = [0.0, -1.0, 0.0, -1.0], [3.0, 2.0, 2.5, 1.0]
    rows = [
        (1.0, math.inf, ((x, 1.0), (z, 1.0))),
        (-math.inf, 1.0, ((y, 1.0), (w, -1.0))),
    ]
    held = []

    class Recorded(_Relaxation):
        def grow(self):
            super().grow()
            held.append(lp_data(self.highs.getLp()))

    def lazy(values, bound):
        # the root LP is integral at x = 1, y = 2; a zero-cost column v in
        # [0, 1] and the row x - v >= 2 cut it off
        if values[x] >= 2:
            return False
        v = model.add_var("v", 0, 1)
        model.add_constr({x: 1, v: -1}, ">=", 2)
        return True

    monkeypatch.setattr(milp, "_Relaxation", Recorded)
    res = solve_mip(model, lazy=lazy)
    assert res.status == SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(2.5)
    # both growths happen at the root, whose bounds are the model's
    grown_row = (2.0, math.inf, ((x, 1.0), (4, -1.0)))
    assert held == [
        (costs, lb, ub, sorted(rows)),
        (costs + [0.0], lb + [0.0], ub + [1.0], sorted(rows + [grown_row])),
    ]


# ---------------------------------------------------------------------------
# cross-check: the persistent warm-started HiGHS instance against a cold
# scipy.optimize.linprog(method="highs-ds") solve of the same LP


def _cold_linprog(model: MilpModel, lb, ub):
    """(status, objective) of a cold linprog solve."""
    c, a, row_lo, row_hi = matrices(model)
    dense = a.toarray()
    eq = row_lo == row_hi
    upper = ~eq & np.isfinite(row_hi)
    lower = ~eq & np.isfinite(row_lo)
    a_ub = np.vstack([dense[upper], -dense[lower]])
    b_ub = np.concatenate([row_hi[upper], -row_lo[lower]])
    res = scipy.optimize.linprog(
        c,
        A_ub=a_ub if b_ub.size else None,
        b_ub=b_ub if b_ub.size else None,
        A_eq=dense[eq] if eq.any() else None,
        b_eq=row_lo[eq] if eq.any() else None,
        bounds=list(zip(lb, ub)),
        method="highs-ds",
    )
    if res.status == 0:
        return SolveStatus.OPTIMAL, res.fun
    assert res.status == 2, res.message  # bounded LPs: optimal or infeasible
    return SolveStatus.INFEASIBLE, None


@st.composite
def bounded_programs(draw, integer_share=0.0):
    n = draw(st.integers(1, 6))
    model = MilpModel("drawn")
    for i in range(n):
        lb = draw(st.integers(-3, 2))
        width = draw(st.integers(0, 4))
        binary = draw(st.floats(0, 1, exclude_max=True)) < integer_share
        if binary:
            model.add_var(f"x{i}", 0.0, 1.0, integer=True)
        else:
            model.add_var(f"x{i}", float(lb), float(lb + width))
    coef = st.integers(-4, 4)
    for _ in range(draw(st.integers(0, 4))):
        support = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
        model.add_constr(
            {v: draw(coef) for v in support},
            draw(st.sampled_from(["<=", ">=", "="])),
            draw(st.integers(-4, 6)),
        )
    # costs on integer columns only make every objective value an integer,
    # which lets branch and bound prune by one unit; halves never do
    costs = draw(st.sampled_from(["every column", "integer columns", "halves"]))
    objective = {}
    for v in range(n):
        c = draw(coef)
        if costs == "halves":
            c /= 2
        elif costs == "integer columns" and v not in model.integer_indices():
            c = 0
        objective[v] = c
    model.set_objective(objective)
    return model


def _assert_agrees(model, got_status, got_objective, lb, ub):
    want_status, want_objective = _cold_linprog(model, lb, ub)
    assert got_status == want_status
    if want_status == SolveStatus.OPTIMAL:
        assert got_objective == pytest.approx(want_objective, abs=1e-6)


@settings(max_examples=80, deadline=None)
@given(model=bounded_programs(), data=st.data())
def test_warm_started_lp_matches_cold_linprog(model, data):
    # the relaxation reads no integrality, so any set of columns can take the
    # integer columns' part: the only ones whose bounds a node changes
    movable = np.array(
        data.draw(
            st.lists(st.integers(0, model.num_vars - 1), min_size=1, unique=True)
        )
    )
    movable.sort()
    relaxation = _Relaxation(model, movable)
    lb, ub = model.bounds()
    for step in range(data.draw(st.integers(1, 6))):
        if step:
            var = data.draw(st.sampled_from(movable.tolist()))
            lo = data.draw(st.integers(int(lb[var]), int(ub[var])))
            hi = data.draw(st.integers(lo, int(ub[var])))
            lb, ub = lb.copy(), ub.copy()
            lb[var], ub[var] = lo, hi
        status, objective, x = relaxation.solve(lb[movable], ub[movable])
        _assert_agrees(model, status, objective, lb, ub)
        if status == SolveStatus.OPTIMAL:
            assert np.all(x >= lb - 1e-7) and np.all(x <= ub + 1e-7)


def _enumerate_mixed(model: MilpModel):
    """Best objective over every binary pattern, each completed by a cold
    linprog solve of the continuous part; None if no pattern is feasible."""
    lb0, ub0 = model.bounds()
    ints = model.integer_indices()
    best = None
    for bits in itertools.product((0.0, 1.0), repeat=ints.size):
        lb, ub = lb0.copy(), ub0.copy()
        lb[ints] = bits
        ub[ints] = bits
        status, objective = _cold_linprog(model, lb, ub)
        if status == SolveStatus.OPTIMAL and (best is None or objective < best):
            best = objective
    return best


@settings(max_examples=60, deadline=None)
@given(model=bounded_programs(integer_share=0.5))
def test_mixed_mip_matches_enumeration(model):
    res = solve_mip(model)
    brute = _enumerate_mixed(model)
    if brute is None:
        assert res.status == SolveStatus.INFEASIBLE
    else:
        assert res.status == SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(brute, abs=1e-6)
        assert check_assignment(model, res.values)


@settings(max_examples=80, deadline=None)
@given(
    model=bounded_programs(integer_share=1.0),
    cutoff=st.integers(-12, 12),
    offset=st.sampled_from([0.0, 0.5, 1e-10, -1e-10]),
)
def test_cutoff_matches_enumeration(model, cutoff, offset):
    # a cutoff prunes every solution that does not beat it by more than
    # 1e-9; with nothing left the model reads infeasible
    cutoff += offset
    res = solve_mip(model, cutoff=cutoff)
    brute = _enumerate_binary(model)
    if brute is not None and brute - cutoff < -1e-9:
        assert res.status == SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(brute, abs=1e-6)
        assert check_assignment(model, res.values)
    else:
        assert res.status == SolveStatus.INFEASIBLE
        assert res.values is None


# ---------------------------------------------------------------------------
# lazy rows and columns: a model revealed piece by piece from inside the
# tree, appended to the model being solved, must end where a solve of the
# whole model ends


@st.composite
def hidden_programs(draw):
    """A mixed 0/1 program in pieces: the binary columns first, then a few
    continuous ones and some rows, then hidden pieces, each one row over the
    columns so far or, in some draws, new continuous columns with rows
    that use them.  The objective sits on the binary columns, so a binary
    point that the whole model admits has its final objective value.

    ``reveal(model, i)`` appends piece ``i`` to a model in place, and
    ``build(revealed)`` is a fresh model with the first pieces revealed."""
    n_int = draw(st.integers(1, 5))
    coef = st.integers(-4, 4)

    def continuous():
        lb = draw(st.integers(-2, 1))
        return (float(lb), float(lb + draw(st.integers(0, 3))), False)

    def row(width, must=()):
        support = set(draw(st.lists(st.integers(0, width - 1), max_size=3)))
        support |= set(must)
        if not support:
            support = {draw(st.integers(0, width - 1))}
        return (
            {v: draw(coef) for v in sorted(support)},
            draw(st.sampled_from(["<=", ">=", "="])),
            draw(st.integers(-4, 6)),
        )

    columns = [(0.0, 1.0, True)] * n_int
    columns += [continuous() for _ in range(draw(st.integers(0, 2)))]
    visible = [row(len(columns)) for _ in range(draw(st.integers(0, 2)))]
    pieces = []
    width = len(columns)
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            new = [continuous() for _ in range(draw(st.integers(1, 2)))]
            width += len(new)
            count = draw(st.integers(1, 2))
            rows = [row(width, must=[width - 1]) for _ in range(count)]
            pieces.append((new, rows))
        else:
            pieces.append(([], [row(width)]))
    halves = draw(st.booleans())
    objective = {v: draw(coef) / (2 if halves else 1) for v in range(n_int)}

    def append(model: MilpModel, cols, rows) -> None:
        for lb, ub, integer in cols:
            model.add_var(f"x{model.num_vars}", lb, ub, integer=integer)
        for coeffs, sense, rhs in rows:
            model.add_constr(coeffs, sense, rhs)

    def reveal(model: MilpModel, i: int) -> None:
        append(model, *pieces[i])

    def build(revealed: int) -> MilpModel:
        model = MilpModel(f"hidden{revealed}")
        append(model, columns, visible)
        model.set_objective(objective)
        for i in range(revealed):
            reveal(model, i)
        return model

    return n_int, len(pieces), build, reveal


def _admits(model: MilpModel, n_int: int, values) -> bool:
    """True iff the binary part of ``values`` extends to a solution."""
    lb, ub = model.bounds()
    bits = np.round(np.asarray(values[:n_int], dtype=float))
    lb[:n_int] = bits
    ub[:n_int] = bits
    return _cold_linprog(model, lb, ub)[0] == SolveStatus.OPTIMAL


@settings(max_examples=120, deadline=None)
@given(
    drawn=hidden_programs(),
    cutoff=st.one_of(st.none(), st.integers(-12, 12)),
)
def test_lazy_pieces_match_the_whole_model(drawn, cutoff):
    n_int, n_pieces, build, reveal = drawn
    whole = build(n_pieces)
    model = build(0)
    revealed = 0
    bounds = []

    def lazy(values, bound):
        nonlocal revealed
        bounds.append(bound)
        if _admits(whole, n_int, values):
            return False
        assert revealed < n_pieces, "the whole model admitted a rejected point"
        reveal(model, revealed)
        revealed += 1
        return True

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(milp, "_Relaxation", CheckedRelaxation)
        res = solve_mip(model, cutoff=cutoff, lazy=lazy)
    # the model grown in place is the model built with the same pieces
    for got, want in zip(matrices(model), matrices(build(revealed))):
        if sparse.issparse(got):
            got, want = got.toarray(), want.toarray()
        assert np.array_equal(got, want)
    brute = _enumerate_mixed(whole)
    floor = math.inf if cutoff is None else cutoff
    if brute is not None and brute < floor - 1e-9:
        assert res.status == SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(brute, abs=1e-6)
        assert _admits(whole, n_int, res.values)
        # the bound handed to lazy is a global bound that only rises
        assert all(b <= brute + 1e-6 for b in bounds)
    else:
        assert res.status == SolveStatus.INFEASIBLE
        assert res.values is None
    assert all(a <= b + 1e-6 for a, b in zip(bounds, bounds[1:]))


def _three_binaries() -> MilpModel:
    model = MilpModel("three")
    xs = [model.add_var(f"x{i}", 0.0, 1.0, integer=True) for i in range(3)]
    model.add_constr({x: w for x, w in zip(xs, (2, 3, 1))}, "<=", 5)
    model.set_objective(dict(zip(xs, (-5, -4, -3))))
    return model


def _change(model: MilpModel, extra=None, ub0=None, values=None):
    """Change a model in place the way a callback must not."""
    if extra is not None:
        model.add_var("extra", 0.0, 1.0, integer=extra)
    if ub0 is not None:
        model._ub[0] = ub0
    if values is not None:
        model.set_objective(dict(enumerate(values)))


@pytest.mark.parametrize(
    "grown",
    [
        {"extra": True},  # a new integer column
        {"ub0": 2.0},  # a wider integer column
        {"values": (-5, -4, -4)},  # another objective
    ],
)
def test_lazy_model_must_keep_objective_and_integer_columns(grown):
    # each callback also appends a valid row, so the change alone is at fault
    model = _three_binaries()

    def lazy(values, bound):
        _change(model, **grown)
        model.add_constr({0: 1.0}, "<=", 0.0)
        return True

    with pytest.raises(MilpError):
        solve_mip(model, lazy=lazy)


def test_lazy_model_must_append_a_row():
    # a rejection that appends nothing would re-solve the same node forever
    with pytest.raises(MilpError):
        solve_mip(_three_binaries(), lazy=lambda values, bound: True)


def test_lazy_model_may_add_a_continuous_column():
    model = _three_binaries()

    def lazy(values, bound):
        if values.size == 4:
            return False
        extra = model.add_var("extra", 0.0, 1.0)
        model.add_constr({extra: 1.0, 0: 1.0}, "<=", 2.0)
        return True

    res = solve_mip(model, lazy=lazy)
    assert res.status == SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(-9.0)
    assert res.values.size == 4
