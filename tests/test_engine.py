"""Generation engine: frozen optima, bound behaviour, timeouts, determinism."""

from __future__ import annotations

import collections
import functools
import logging
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    CheckedRelaxation,
    balance_rows,
    corpus,
    deep_path,
    grown,
    matrices,
    triangle,
    two_cycle,
    unreachable_terminal,
)

from cprsnp import augment, engine, formulations, milp, separation, verify
from cprsnp.engine import (
    BilevelFormulation,
    CutsetFormulation,
    EngineError,
    EngineOptions,
    FORMULATIONS,
    FlowFormulation,
    IterationRecord,
    solve,
)
from cprsnp.formulations import Design, append_cut, build_cutset_master
from cprsnp.graph import Arc, CutSet, Instance
from cprsnp.instances import GenerationError, generate
from cprsnp.milp import SolveStatus, solve_mip
from cprsnp.separation import SeparationTimeout
from cprsnp.verify import exhaustive_optimum, is_survivable


FAST = EngineOptions(time_limit_s=60.0)


@pytest.fixture
def scenarios_via_mip(monkeypatch):
    """Brute limit zero pushes scenario separation onto the cut MIP, and
    the feasibility probe's witnesses too."""
    for name in ("separate_scenario", "failing_scenario"):
        monkeypatch.setattr(
            engine,
            name,
            functools.partial(getattr(engine, name), brute_force_limit=0),
        )


# ---------------------------------------------------------------------------
# frozen optima on the triangle


@pytest.mark.parametrize("formulation", FORMULATIONS)
def test_triangle_unprotected_optimum(formulation):
    aug = augment(triangle(k=1, kp=0))
    sol = solve(aug, formulation, FAST)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.cost == pytest.approx(4.0)
    assert sol.gap == 0.0
    assert sol.design is not None
    assert is_survivable(aug, sol.design)[0]
    # surviving one failure without protection needs every arc
    assert set(sol.design.selected) >= {0, 1, 2}
    assert sol.iterations == len(sol.log) >= 1
    assert sol.formulation == formulation
    assert sol.seconds >= 0.0


@pytest.mark.parametrize("formulation", FORMULATIONS)
def test_triangle_protected_optimum(formulation):
    aug = augment(triangle(k=1, kp=1))
    sol = solve(aug, formulation, FAST)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.cost == pytest.approx(2.0)
    # protecting the direct root-terminal arc is the unique optimum
    assert 1 in sol.design.selected
    assert sol.design.protected == frozenset({1})
    assert is_survivable(aug, sol.design)[0]


@pytest.mark.parametrize("formulation", FORMULATIONS)
def test_triangle_infeasible_budget(formulation):
    # two failures wipe out any selection of the two root arcs
    aug = augment(triangle(k=2, kp=0))
    sol = solve(aug, formulation, FAST)
    assert sol.status is SolveStatus.INFEASIBLE
    assert sol.design is None
    assert sol.cost is None
    assert sol.gap is None


@pytest.fixture
def no_master(monkeypatch):
    """Building any master fails the test: the probe alone decides."""

    def build(*args):
        raise AssertionError("a master was built")

    for name in ("build_cutset_master", "build_flow_master", "build_bilevel_master"):
        monkeypatch.setattr(engine, name, build)


@pytest.mark.parametrize("formulation", FORMULATIONS)
def test_network_without_flow_is_infeasible_before_the_tree(formulation, no_master):
    # the probe's all-arcs max flow gives the verdict: no master is built
    sol = solve(augment(unreachable_terminal()), formulation, FAST)
    assert sol.status is SolveStatus.INFEASIBLE
    assert (sol.design, sol.cost, sol.gap) == (None, None, None)
    assert sol.iterations == 0


def test_probe_deeper_than_the_recursion_limit_proves_infeasible(no_master):
    # one failure cuts the 999-arc path at any unprotected arc, and kp = 998
    # leaves one unprotected: the probe protects one more arc per witness,
    # 998 deep, and then has no budget left
    aug = augment(replace(deep_path(1000), k=1, kp=998))
    sol = solve(aug, "bilevel")
    assert sol.status is SolveStatus.INFEASIBLE
    assert (sol.design, sol.iterations) == (None, 0)


def test_probe_finds_a_protection_deeper_than_the_recursion_limit():
    # the path 0 -> ... -> 999 plus the terminal t = 1000, reached by the
    # arcs 998 -> t and 999 -> t: protecting the 998 path arcs up to vertex
    # 998 leaves two ways on to t, so one failure still leaves a unit.  The
    # probe is called by itself, since the tree would then need about one
    # violation per protected arc to prove that design
    path = deep_path(1000)
    t = path.vertex_count
    arcs = path.arcs + (Arc(998, t, 1.0, 1), Arc(999, t, 1.0, 1))
    aug = augment(Instance(t + 1, arcs, root=0, terminals=(t,), k=1, kp=998))
    design = engine._feasible_incumbent(aug, math.inf)
    assert len(design.protected) == 998
    assert is_survivable(aug, design)[0]


def test_probe_separates_each_protection_set_once(monkeypatch):
    # at kp = 3 the probe reaches some protection sets along more than one
    # order of witness arcs; a set popped again is skipped, since it and
    # every set below it have already failed
    separated = []
    real = engine.failing_scenario

    def recording(aug, design, root, deadline):
        separated[-1].append(design)
        return real(aug, design, root, deadline=deadline)

    monkeypatch.setattr(engine, "failing_scenario", recording)
    protections = []
    for seed in range(20):
        separated.append([])
        aug = augment(generate(12, 4, 30, "random", seed=seed, k=2, kp=3))
        design = engine._feasible_incumbent(aug, math.inf)
        protections.append(None if design is None else sorted(design.protected))
    assert all(len(set(designs)) == len(designs) for designs in separated)
    assert sum(map(len, separated)) == 134
    assert protections == [
        [2, 4, 22], [3, 4, 29], None, [1, 2, 3], [1, 8, 26],
        [1, 3, 16], [0, 2, 18], None, None, [0, 4, 5],
        None, None, None, None, None,
        [0, 19], [2, 15, 24], [2, 4, 5], None, [0, 1, 2],
    ]


def test_probe_runs_one_max_flow_from_zero(monkeypatch):
    # protection leaves the all-arcs network alone, so the probe's up-front
    # max flow is the root of every witness search, and every later max
    # flow starts from another one
    starts = []
    for module in (engine, separation):

        def counted(aug, mask, start=None, real=module.max_flow):
            starts.append(start)
            return real(aug, mask, start=start)

        monkeypatch.setattr(module, "max_flow", counted)
    aug = augment(generate(12, 4, 30, "random", seed=3, k=2, kp=3))
    design = engine._feasible_incumbent(aug, math.inf)
    assert len(design.protected) == 3
    assert len(starts) > 1
    assert starts[0] is None and None not in starts[1:]


@pytest.mark.parametrize("limit", [separation.BRUTE_FORCE_LIMIT, 3, 0])
def test_probe_agrees_with_the_verifier(monkeypatch, limit):
    # on the corpus and on 20 seeded 12-4-30 instances at (k, kp) = (2, 3),
    # on the search route, on the budgeted search with the MIP behind it,
    # and on the MIP route: the probe finds no design exactly when the
    # verifier's own complete protection search finds none for the all-arcs
    # design, every design it returns survives, and every witness it
    # branches on leaves less than the demand when those arcs alone fail
    branched = []
    real = engine.failing_scenario
    mips, routes = [], set()

    def counted(model, *args, **kwargs):
        mips.append(model.name)
        return solve_mip(model, *args, **kwargs)

    monkeypatch.setattr(separation, "solve_mip", counted)

    def recording(aug, design, root, deadline):
        before = len(mips)
        witness = real(aug, design, root, deadline=deadline, brute_force_limit=limit)
        routes.add("mip" if len(mips) > before else "search")
        if witness is not None:
            branched.append((design, witness.scenario))
        return witness

    monkeypatch.setattr(engine, "failing_scenario", recording)
    instances = corpus() + [
        generate(12, 4, 30, "random", seed=seed, k=2, kp=3) for seed in range(20)
    ]
    seen = set()
    for inst in instances:
        aug = augment(inst)
        every = frozenset(range(aug.arc_count))
        branched.clear()
        design = engine._feasible_incumbent(aug, math.inf)
        expected = verify._protectable(aug, every, frozenset(), aug.kp)
        assert (design is None) == (expected is None)
        if design is not None:
            assert is_survivable(aug, design) == (True, None)
        seen.add("infeasible" if design is None else "feasible")
        for probed, scenario in branched:
            arcs = scenario.arcs
            assert 0 < len(arcs) <= aug.k
            assert arcs <= set(probed.attack_candidates(aug))
            # protecting every other initial arc leaves the verifier just
            # this one failure set to try
            alone = augment(replace(inst, k=len(arcs), kp=len(inst.arcs) - len(arcs)))
            exposed = Design.canonical(alone, every, set(alone.initial_arcs) - arcs)
            assert is_survivable(alone, exposed) == (False, scenario)
            seen.add("short witness" if len(arcs) < aug.k else "full witness")
    # the MIP route's witness is a worst attack, padded to min(k, candidates);
    # the search's may be shorter, also under a budget
    short = {"short witness"} if limit else set()
    assert seen == {"infeasible", "feasible", "full witness"} | short
    # a budget of 3 max flows leaves some probed designs to the search and
    # some to the MIP behind it
    expected_routes = {separation.BRUTE_FORCE_LIMIT: {"search"}, 3: {"search", "mip"}}
    assert routes == expected_routes.get(limit, {"mip"})


@pytest.mark.parametrize("formulation", FORMULATIONS)
def test_triangle_no_failures(formulation):
    # k=0 still has to buy a path to the terminal
    aug = augment(triangle(k=0, kp=0))
    sol = solve(aug, formulation, FAST)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.cost == pytest.approx(2.0)
    assert is_survivable(aug, sol.design)[0]


@pytest.mark.parametrize("formulation", FORMULATIONS)
def test_instance_without_arcs_or_terminals(formulation):
    # its masters have no column, so every LP of the tree is empty
    aug = augment(Instance(2, (), 0, (), 0, 0))
    sol = solve(aug, formulation, FAST)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.cost == 0.0 and sol.gap == 0.0
    assert sol.design == Design(frozenset(), frozenset())
    assert is_survivable(aug, sol.design) == (True, None)


@st.composite
def tiny_instances(draw):
    nodes = draw(st.integers(3, 6))
    terminals = draw(st.integers(1, min(3, nodes - 1)))
    arcs = draw(st.integers(nodes - 1, min(10, nodes * (nodes - 1))))
    k = draw(st.integers(0, 2))
    kp = draw(st.integers(0, 1))
    mode = draw(st.sampled_from(["uniform", "random"]))
    try:
        return generate(nodes, terminals, arcs, mode, draw(st.integers(0, 99)), k, kp)
    except GenerationError:
        assume(False)


@settings(max_examples=60, deadline=None)
@given(inst=tiny_instances())
def test_every_formulation_matches_exhaustive_search(inst):
    aug = augment(inst)
    best = exhaustive_optimum(aug)
    for formulation in FORMULATIONS:
        sol = solve(aug, formulation, FAST)
        if best is None:
            assert sol.status is SolveStatus.INFEASIBLE
            continue
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.cost == best[0]
        assert is_survivable(aug, sol.design)[0]


def _hard_cell():
    # 12-4-30, uniform, seed 8, k=2, kp=1: without diving, cutset took
    # about 20 s and flow about 12 s to prove this optimum
    return generate(12, 4, 30, "uniform", seed=8, k=2, kp=1)


@pytest.mark.parametrize(
    "make, formulation, optimum",
    [
        # 12 vertices, 30 arcs, k=2, kp=1: re-solving every master from the
        # root took 56 masters and more than 20 s to prove this optimum
        (lambda: corpus()[52], "cutset", 77.0),
        (_hard_cell, "cutset", 184.0),
        (_hard_cell, "flow", 184.0),
        (_hard_cell, "bilevel", 184.0),
    ],
    ids=["52-cutset", "12-4-30-cutset", "12-4-30-flow", "12-4-30-bilevel"],
)
def test_proves_hard_cell(make, formulation, optimum):
    aug = augment(make())
    sol = solve(aug, formulation, FAST)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.cost == optimum
    assert is_survivable(aug, sol.design)[0]


@pytest.mark.parametrize(
    "formulation, options, mips",
    [
        ("cutset", FAST, set()),
        ("bilevel", FAST, {"cut_strengthening"}),
    ],
)
def test_oracles_solve_no_mip_while_the_search_applies(
    monkeypatch, formulation, options, mips
):
    # 7 vertices, 14 arcs, k=1, kp=1: at most 14 failure sets, so the cut
    # and bilevel oracles answer from the attack search; strengthening still
    # solves its search MIP, once per violation
    solved = []

    def counted(model, *args, **kwargs):
        solved.append(model.name)
        return solve_mip(model, *args, **kwargs)

    monkeypatch.setattr(separation, "solve_mip", counted)
    sol = solve(augment(corpus()[16]), formulation, options)
    assert sol.status is SolveStatus.OPTIMAL and sol.cost == 70.0
    assert sol.iterations > 1
    assert set(solved) == mips
    if mips:
        assert len(solved) == sol.iterations - 1  # the closing record adds none


@pytest.mark.parametrize(
    "index, formulation",
    # the design block alone solves instances 16 and 22 for flow, so flow
    # takes 25
    [(16, "cutset"), (16, "bilevel"), (25, "flow")]
    + [(40, formulation) for formulation in FORMULATIONS],
)
def test_one_master_instance_per_solve(monkeypatch, formulation, index):
    # every violation is appended to the live HiGHS instance of the master;
    # only separation MIPs (strengthening, here) open instances of their own
    opened = []

    class Counted(milp._Relaxation):
        def __init__(self, model, int_idx):
            opened.append(model.name)
            super().__init__(model, int_idx)

    monkeypatch.setattr(milp, "_Relaxation", Counted)
    sol = solve(augment(corpus()[index]), formulation, FAST)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.iterations > 1
    assert opened.count(f"{formulation}_master") == 1
    assert all(name == "cut_strengthening" for name in opened if "master" not in name)


@pytest.mark.parametrize("formulation", FORMULATIONS)
def test_masters_grown_in_place_match_fresh_ones(monkeypatch, formulation):
    # every append reaches the live LP exactly, and every warm node LP
    # agrees with a cold one under the same bounds
    grown = []

    class Counted(CheckedRelaxation):
        def grow(self):
            super().grow()
            grown.append(self)

    monkeypatch.setattr(milp, "_Relaxation", Counted)
    # 9 vertices, 20 arcs, k=1, kp=1: at least one violation in each
    # formulation
    sol = solve(augment(corpus()[25]), formulation, FAST)
    assert sol.status is SolveStatus.OPTIMAL and sol.cost == 94.0
    assert sol.iterations > 1
    # opening a relaxation is its first growth: the master grows once per
    # iteration, and every other relaxation (strengthening) only opens
    growths = collections.Counter(grown)
    (master,) = [lp for lp in growths if lp.model.name == f"{formulation}_master"]
    assert growths[master] == sol.iterations
    assert all(n == 1 for lp, n in growths.items() if lp is not master)


class _BoundsSent:
    """A HiGHS instance that records the columns of every bound change."""

    def __init__(self, highs):
        self.highs = highs
        self.columns = []

    def changeColsBounds(self, n, columns, lb, ub):
        self.columns.append(np.array(columns))
        return self.highs.changeColsBounds(n, columns, lb, ub)

    def __getattr__(self, name):
        return getattr(self.highs, name)


def test_nodes_send_only_integer_column_bounds(monkeypatch):
    # a node is its integer columns' bounds: after the model is passed, no
    # bound change names a continuous column, and the columns the flow
    # master appends keep the bounds they were added with
    relaxations = []

    class Recorded(milp._Relaxation):
        def __init__(self, model, int_idx):
            super().__init__(model, int_idx)
            self.opened = model.num_vars
            self.highs = _BoundsSent(self.highs)
            relaxations.append(self)

        def release(self):
            # a released instance holds no model: keep what it held, and put
            # the instance itself, not its proxy, back on the idle stack
            self.held, self.columns = self.highs.getLp(), self.highs.columns
            self.highs = self.highs.highs
            super().release()

    monkeypatch.setattr(milp, "_Relaxation", Recorded)
    sol = solve(augment(corpus()[25]), "flow", FAST)
    assert sol.status is SolveStatus.OPTIMAL and sol.cost == 94.0
    (master,) = [lp for lp in relaxations if lp.model.name == "flow_master"]
    assert master.model.num_vars > master.opened
    assert master.columns
    for lp in relaxations:
        model, held = lp.model, lp.held
        for columns in lp.columns:
            assert np.isin(columns, lp.int_idx).all()
        # HiGHS holds the last node's integer bounds, and the model's bounds
        # on every other column, the appended ones included
        lb, ub = model.bounds()
        lb[lp.int_idx], ub[lp.int_idx] = lp.ilb, lp.iub
        assert np.array_equal(held.col_lower_, lb)
        assert np.array_equal(held.col_upper_, ub)


@pytest.mark.parametrize(
    "value, text",
    [
        (56.3333, "56.3333"),
        (170 / 3, "56.6667"),
        (1e6, "1000000"),
        (2147483650.0, "2147483650"),
    ],
)
def test_log_line_prints_integral_values_exactly(value, text):
    rec = IterationRecord(3, value, value, 2, 1, 0.5)
    assert rec.line("flow") == (
        f"formulation=flow iter=3 master_obj={text} sep_value={text} "
        "rows_added=2 cols_added=1"
    )
    assert rec.line("flow", include_time=True).endswith(" elapsed=0.500")


@pytest.mark.parametrize("formulation", FORMULATIONS)
def test_deep_path_proves_in_one_record(formulation):
    # 1,500 vertices, k = 0: the all-arcs design is the only survivable
    # one.  The flow-balance rows chain y_i <= y_{i-1} from the terminal's
    # cut back to the root, so the root LP is that design and no violation
    # is needed
    aug = augment(deep_path())
    sol = solve(aug, formulation)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.cost == 1499.0
    assert sol.iterations == 1


@pytest.mark.parametrize("cycle_cost", [0.0, 1.0])
@pytest.mark.parametrize("formulation", FORMULATIONS)
def test_dangling_arcs_keep_the_exhaustive_optimum(formulation, cycle_cost):
    # the block cuts off every design holding the arc (3, 1).  At cycle
    # cost 0 the probe's all-arcs design holds it and already costs the
    # optimum, so the tree finds nothing cheaper and returns that design;
    # at cost 1 the tree's own design is returned
    aug = augment(two_cycle(cycle_cost))
    cost, _ = exhaustive_optimum(aug)
    sol = solve(aug, formulation, FAST)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.cost == cost == 5.0
    assert is_survivable(aug, sol.design)[0]
    assert (4 in sol.design.selected) == (cycle_cost == 0.0)


# ---------------------------------------------------------------------------
# master seeds


def _rows(model):
    """The model's columns and rows: its size, each row's nonzeros and the
    bounds of every row."""
    _, a, row_lo, row_hi = matrices(model)
    rows = a.tocsr()
    return (
        model.num_vars,
        [
            (rows[r].indices.tolist(), rows[r].data.tolist(), row_lo[r], row_hi[r])
            for r in range(model.num_constraints)
        ],
    )


def _block_rows(aug):
    # the design block: the budget row, one p <= y row per initial arc, one
    # flow-balance row per initial arc not leaving the root, and the rows of
    # its static cuts (none when the row limit is zero)
    return build_cutset_master(aug).model.num_constraints


def test_initial_rows_cutset():
    aug = augment(triangle(k=1, kp=0))
    # the design block holds the root cut {1, 2, 3} and the terminal's cut
    # {2, 3}, fully enumerated: one row per arc crossing each; cutset seeds
    # nothing of its own; arc 2 = (1, 2) is the one arc not leaving the
    # root, so the block has one flow-balance row
    root = CutSet.from_sink_side(aug, {1, 2, 3})
    terminal = CutSet.from_sink_side(aug, {2, 3})
    assert len(balance_rows(aug)) == 1
    bare = 1 + aug.initial_arc_count + 1
    seeded = CutsetFormulation(aug).master.model
    assert seeded.num_vars == 2 * aug.arc_count
    assert seeded.num_constraints == _block_rows(aug) == bare + 2 + 2
    assert _rows(seeded) == _rows(build_cutset_master(aug).model)
    with_both = _rows(
        grown(build_cutset_master(aug), append_cut, [root, terminal]).model
    )
    # writing the two cuts again repeats exactly the block's last four rows
    assert with_both[1][: seeded.num_constraints] == _rows(seeded)[1]
    assert with_both[1][seeded.num_constraints :] == _rows(seeded)[1][bare:]


def test_lazy_root_cut_seeds_no_row(monkeypatch):
    monkeypatch.setattr(formulations, "CUT_ROW_LIMIT", 0)
    aug = augment(triangle(k=1, kp=0))
    seeded = CutsetFormulation(aug).master.model
    assert seeded.num_vars == 2 * aug.arc_count
    assert seeded.num_constraints == _block_rows(aug) == (
        1 + aug.initial_arc_count + len(balance_rows(aug))
    )
    assert _rows(seeded) == _rows(build_cutset_master(aug).model)


def _seeded_scenario(aug) -> frozenset[int]:
    """The failed arcs of a flow master's one seeded scenario: the p columns
    (column m + a for arc a) that its rows after the design block read."""
    master = FlowFormulation(aug).master
    m = aug.arc_count
    assert master.model.num_vars == 3 * m  # one flow column per arc
    _, a, _, _ = matrices(master.model)
    rows = a.tocsr()[_block_rows(aug):]
    return frozenset(arc for arc in range(m) if rows[:, m + arc].nnz)


def test_initial_rows_flow_clamps_to_candidates():
    aug = augment(triangle(k=2, kp=0))
    assert _seeded_scenario(aug) == frozenset({0, 1})

    wide = augment(triangle(k=3, kp=0))
    assert _seeded_scenario(wide) == frozenset(wide.initial_arcs)


def test_initial_rows_bilevel_empty():
    aug = augment(triangle(k=1, kp=0))
    seeded = BilevelFormulation(aug).master.model
    assert seeded.num_vars == 2 * aug.arc_count
    # budget, p <= y, one flow-balance row, the root and terminal cuts
    assert seeded.num_constraints == _block_rows(aug) == 1 + 3 + 1 + 2 + 2


def test_unknown_formulation_rejected():
    aug = augment(triangle(k=1, kp=0))
    with pytest.raises(ValueError):
        solve(aug, "benders", FAST)


@pytest.mark.parametrize(
    "formulation, options",
    [
        ("cutset", {}),
        ("cutset", {"CUT_ROW_LIMIT": 0}),
        ("flow", {}),
        ("bilevel", {}),
    ],
)
def test_repeated_violation_stalls(formulation, options, monkeypatch):
    # every appender writes a row that cuts nothing off, so the master hands
    # back the design that the oracle just rejected: the engine must stop
    # with EngineError instead of running into its time limit
    for name, value in options.items():
        monkeypatch.setattr(formulations, name, value)

    def cuts_nothing(master, *args):
        master.model.add_constr({0: 1.0}, "<=", 1.0)

    for name in ("append_cut", "append_scenario", "append_point"):
        monkeypatch.setattr(engine, name, cuts_nothing)
    # 9 vertices, 20 arcs, k=1, kp=1: every formulation meets a violation
    # (the design block alone solves the triangle, and corpus 1 for flow)
    aug = augment(corpus()[25])
    with pytest.raises(EngineError):
        solve(aug, formulation, EngineOptions(time_limit_s=1.0))


# ---------------------------------------------------------------------------
# bound behaviour along the run


@pytest.mark.parametrize("formulation", FORMULATIONS)
def test_master_objective_monotone(formulation):
    aug = augment(corpus()[6])  # 7 vertices, 14 arcs, k=1
    sol = solve(aug, formulation, FAST)
    assert sol.status is SolveStatus.OPTIMAL
    objs = [rec.master_objective for rec in sol.log]
    assert all(a <= b + 1e-6 for a, b in zip(objs, objs[1:]))
    # the master is a relaxation throughout
    assert all(obj <= sol.cost + 1e-6 for obj in objs)
    # every non-final record carries the violation it repaired
    for rec in sol.log[:-1]:
        assert rec.separation_value is not None
        assert rec.separation_value < aug.demand


@pytest.mark.parametrize("formulation", FORMULATIONS)
def test_log_lines_shape(formulation):
    aug = augment(triangle(k=1, kp=1))
    sol = solve(aug, formulation, FAST)
    lines = sol.log_lines()
    assert len(lines) == sol.iterations
    for i, line in enumerate(lines, start=1):
        assert line.startswith(f"formulation={formulation} iter={i} ")
        assert "elapsed=" not in line
    timed = [rec.line(formulation, include_time=True) for rec in sol.log]
    assert all("elapsed=" in line for line in timed)


@pytest.mark.parametrize("formulation", FORMULATIONS)
def test_master_without_cheaper_design_proves_incumbent(formulation, monkeypatch):
    # surviving one failure without protection needs every arc, so the
    # all-arcs incumbent is optimal: once the master reaches its cost, the
    # cutoff leaves it no design, and that is what ends the run
    calls = []
    real_solve_mip = engine.solve_mip

    def record(model, deadline=math.inf, cutoff=None, lazy=None):
        res = real_solve_mip(model, deadline=deadline, cutoff=cutoff, lazy=lazy)
        calls.append((cutoff, res.status))
        return res

    monkeypatch.setattr(engine, "solve_mip", record)
    aug = augment(triangle(k=1, kp=0))
    sol = solve(aug, formulation, FAST)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.cost == pytest.approx(4.0)
    assert sol.design.selected == frozenset(range(aug.arc_count))
    assert {cutoff for cutoff, _ in calls} == {4.0}  # the incumbent's cost
    assert [status for _, status in calls][-1] is SolveStatus.INFEASIBLE
    last = sol.log[-1]
    assert (last.master_objective, last.separation_value) == (4.0, None)
    assert (last.rows_added, last.columns_added) == (0, 0)


@pytest.mark.parametrize("formulation", FORMULATIONS)
def test_every_record_is_logged(formulation, caplog):
    # the tree proves the probe's incumbent optimal here, and the closing
    # record of that run is logged like every other
    caplog.set_level(logging.INFO, logger="cprsnp.engine")
    sol = solve(augment(triangle(k=1, kp=0)), formulation, FAST)
    logged = [r.getMessage() for r in caplog.records if " iter=" in r.getMessage()]
    assert all(r.levelno == logging.INFO for r in caplog.records)
    assert [line.split(" elapsed=")[0] for line in logged] == sol.log_lines()
    closing = " iter=1 master_obj=4 sep_value=none rows_added=0 cols_added=0"
    assert sol.log_lines() == [f"formulation={formulation}{closing}"]


# ---------------------------------------------------------------------------
# option plumbing


def test_lazy_cut_pool_still_converges(monkeypatch):
    # row limit zero forces every cut through the lazy one-row-at-a-time path
    monkeypatch.setattr(formulations, "CUT_ROW_LIMIT", 0)
    for kp, expected in ((0, 4.0), (1, 2.0)):
        aug = augment(triangle(k=1, kp=kp))
        sol = solve(aug, "cutset", FAST)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.cost == pytest.approx(expected)
        assert is_survivable(aug, sol.design)[0]
        # every lazy cut, new or known, gains one row: its worst subset
        assert {(r.rows_added, r.columns_added) for r in sol.log[:-1]} == {(1, 0)}


def test_scenario_separation_via_mip(scenarios_via_mip):
    aug = augment(triangle(k=1, kp=1))
    sol = solve(aug, "flow", FAST)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.cost == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# timeouts


def test_zero_budget_keeps_probe_incumbent():
    # the attack search reads the clock only every CLOCK_POLL_FLOWS max
    # flows, so the feasibility probe still lands an incumbent; the tree
    # then stops before its first LP
    aug = augment(triangle(k=1, kp=0))
    sol = solve(aug, "cutset", EngineOptions(time_limit_s=0.0))
    assert sol.status is SolveStatus.FEASIBLE
    assert sol.iterations == 0
    assert is_survivable(aug, sol.design)[0]
    assert sol.gap == pytest.approx(1.0)


@pytest.mark.parametrize("formulation", FORMULATIONS)
def test_zero_budget_unresolved_without_incumbent(
    formulation, scenarios_via_mip, no_master
):
    # forcing separation through the MIP makes the probe itself time out,
    # which ends the solve: no master is built
    aug = augment(triangle(k=1, kp=0))
    sol = solve(aug, formulation, EngineOptions(time_limit_s=0.0))
    assert sol.status is SolveStatus.FEASIBLE
    assert sol.design is None
    assert sol.cost is None
    assert sol.gap is None
    assert sol.iterations == 0


@pytest.mark.parametrize("limit", [math.nan, -1.0, -math.inf, "5", None])
def test_time_limit_must_be_nonnegative(limit):
    # NaN would pass every "elapsed > limit" check, and "5" or None raised a
    # bare TypeError from the comparison; inf means no limit
    with pytest.raises(ValueError, match="time limit"):
        EngineOptions(time_limit_s=limit)
    assert EngineOptions(time_limit_s=math.inf).time_limit_s == math.inf


def test_timeout_returns_survivable_incumbent():
    # large enough that two seconds cannot close the gap (flow has no proof
    # after 30 s here), small enough that the upfront feasibility probe
    # finishes
    aug = augment(generate(30, 6, 120, "uniform", seed=7, k=2, kp=1))
    sol = solve(aug, "flow", EngineOptions(time_limit_s=2.0))
    assert sol.status is SolveStatus.FEASIBLE
    assert sol.design is not None
    assert is_survivable(aug, sol.design)[0]
    assert sol.cost == pytest.approx(sol.design.cost(aug))
    assert sol.gap is not None and 0.0 < sol.gap <= 1.0
    assert sol.seconds < 8.0


def test_timeout_in_the_tree_returns_its_incumbent(monkeypatch):
    # the cut oracle runs out of time right after the tree accepted its
    # first design; that design, not the probe's, is what comes back
    real = engine.separate_cutset
    accepted = []

    def flaky(aug, design, deadline):
        if accepted:
            raise SeparationTimeout("out of time")
        violation = real(aug, design, deadline=deadline)
        if violation is None:
            accepted.append(design)
        return violation

    monkeypatch.setattr(engine, "separate_cutset", flaky)
    # the tree's first survivable design must not be its last: on this
    # instance it costs 100
    aug = augment(corpus()[31])  # optimum 96, probe incumbent 266
    sol = solve(aug, "cutset", FAST)
    assert sol.status is SolveStatus.FEASIBLE
    assert [sol.design] == accepted
    assert sol.cost == sol.design.cost(aug) < 266.0
    assert is_survivable(aug, sol.design)[0]
    assert 0.0 < sol.gap < 1.0


@pytest.mark.parametrize("formulation", FORMULATIONS)
def test_one_deadline_per_solve(monkeypatch, formulation):
    # the probe, the oracle, strengthening and the master tree all get the
    # one instant at which the solve's time limit ends
    seen = collections.defaultdict(list)

    def recording(name, real):
        def call(*args, deadline, **kwargs):
            seen[name].append(deadline)
            return real(*args, deadline=deadline, **kwargs)

        return call

    for name in (
        "failing_scenario",
        "separate_scenario",
        "separate_cutset",
        "separate_bilevel",
        "strengthen_point",
        "solve_mip",
    ):
        monkeypatch.setattr(engine, name, recording(name, getattr(engine, name)))
    aug = augment(corpus()[1])  # 6 vertices, 12 arcs, k=1, kp=1
    limit = 60.0
    before = time.perf_counter() + limit
    sol = solve(aug, formulation, EngineOptions(time_limit_s=limit))
    after = time.perf_counter() + limit
    assert sol.status is SolveStatus.OPTIMAL
    oracle = {"cutset": "separate_cutset", "flow": "separate_scenario",
              "bilevel": "separate_bilevel"}[formulation]
    called = {"failing_scenario", "solve_mip", oracle}
    if formulation == "bilevel":
        called.add("strengthen_point")
    assert set(seen) == called
    deadlines = {d for values in seen.values() for d in values}
    assert len(deadlines) == 1
    (deadline,) = deadlines
    assert type(deadline) is float
    assert before <= deadline <= after


# ---------------------------------------------------------------------------
# determinism


@pytest.mark.parametrize("formulation", FORMULATIONS)
def test_repeat_solves_identical(formulation):
    aug = augment(corpus()[1])  # 6 vertices, 12 arcs, k=1, kp=1
    first = solve(aug, formulation, FAST)
    second = solve(aug, formulation, FAST)
    assert first.status is second.status is SolveStatus.OPTIMAL
    assert first.cost == second.cost
    assert first.design.selected == second.design.selected
    assert first.design.protected == second.design.protected
    assert first.log_lines() == second.log_lines()
