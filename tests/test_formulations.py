"""Master builders, attack models, and their agreement with enumeration."""

import math
import random

import numpy as np
import pytest

from conftest import brute_attack_value, brute_worst_loss, random_design, triangle
from cprsnp import formulations
from cprsnp.formulations import (
    Design,
    FailureScenario,
    FormulationError,
    append_cut,
    append_cut_subset,
    build_bilevel_master,
    build_cutset_master,
    build_cutset_separation,
    build_flow_master,
    build_inner_flow,
    build_strengthening,
    count_cut_rows,
    cut_residual,
    point_row_value,
    worst_subset,
)
from cprsnp.graph import Arc, ArcMask, CutSet, Instance, augment, max_flow
from cprsnp.instances import generate
from cprsnp.milp import SolveStatus, solve_lp, solve_mip
from cprsnp.separation import separate_bilevel, separate_cutset, separate_scenario


def tri_aug(k=1, kp=0):
    return augment(triangle(k, kp))


def solve_fixed(master, design):
    """Solve the master with its y/p columns fixed to the design by added
    rows: OPTIMAL at the design's cost iff the master admits the design."""
    model = master.model
    for a in range(master.aug.arc_count):
        model.add_constr({master.y_var[a]: 1.0}, "=", float(a in design.selected))
        model.add_constr({master.p_var[a]: 1.0}, "=", float(a in design.protected))
    return solve_mip(model)


def all_cuts(aug):
    others = [v for v in range(aug.vertex_count) if v not in (aug.root, aug.sink)]
    cuts = []
    for bits in range(1 << len(others)):
        side = {aug.sink} | {v for i, v in enumerate(others) if bits >> i & 1}
        if side == {aug.sink}:
            continue
        cuts.append(CutSet.from_sink_side(aug, side))
    return cuts


def small_instance(seed, k=1, kp=1):
    rng = random.Random(seed)
    return augment(
        generate(
            rng.randint(4, 6),
            rng.randint(1, 2),
            rng.randint(8, 12),
            capacity_mode=rng.choice(["uniform", "random"]),
            seed=seed,
            k=k,
            kp=kp,
        )
    )


# ---------------------------------------------------------------------------
# value types


def test_design_canonical():
    aug = tri_aug(kp=1)
    d = Design.canonical(aug, [0])
    assert d.selected == frozenset({0, 3})
    assert d.protected == frozenset()
    assert d.is_canonical(aug)
    assert d.cost(aug) == pytest.approx(1.0)

    protected = Design.canonical(aug, [1], [1])
    assert protected.protected == frozenset({1})
    # protection silently drops to the selection, fictive arcs included
    assert Design.canonical(aug, [0], [1, 3]).protected == frozenset()
    with pytest.raises(FormulationError):
        Design.canonical(tri_aug(kp=0), [0, 1], [0])
    with pytest.raises(FormulationError):
        Design.canonical(aug, [99])


def test_failure_scenario_of():
    aug = tri_aug()
    sc = FailureScenario.of(aug, [2, 0])
    assert sc.sorted_arcs() == (0, 2)
    with pytest.raises(FormulationError):
        FailureScenario.of(aug, [3])
    with pytest.raises(FormulationError):
        FailureScenario.of(aug, [9])


def test_eval_ms_frozen():
    aug = tri_aug(kp=1)
    cut = CutSet.from_sink_side(aug, {2, 3})
    full = Design.canonical(aug, range(3))
    assert cut_residual(aug, cut, full) == 1
    shielded = Design.canonical(aug, range(3), [1])
    assert cut_residual(aug, cut, shielded) == 1
    sparse = Design.canonical(aug, [2])
    assert cut_residual(aug, cut, sparse) == 0


@pytest.mark.parametrize("seed", range(15))
def test_eval_ms_matches_enumeration(seed):
    rng = random.Random(seed)
    aug = small_instance(seed, k=rng.randint(1, 3))
    design = random_design(rng, aug)
    for cut in all_cuts(aug):
        loss = brute_worst_loss(aug, cut, design)
        total = sum(aug.arcs[a].capacity for a in cut.arcs if a in design.selected)
        assert cut_residual(aug, cut, design) == total - loss


def test_count_cut_rows():
    aug = tri_aug()
    cut = CutSet.from_sink_side(aug, {2, 3})  # two initial arcs cross
    assert count_cut_rows(aug, cut) == 2
    assert count_cut_rows(tri_aug(k=2), cut) == 1  # both arcs at once
    assert count_cut_rows(tri_aug(k=3), cut) == 1  # k clamps to the two arcs
    assert count_cut_rows(tri_aug(k=0), cut) == 1  # the intact row


# ---------------------------------------------------------------------------
# the design block shared by the three masters


@pytest.mark.parametrize("seed", range(3))
def test_masters_share_the_design_block(seed):
    aug = small_instance(seed, k=1, kp=1)
    # the empty selection carries no flow, so every instance has its vertex
    point = separate_bilevel(aug, Design.canonical(aug, ())).point
    masters = [
        build_cutset_master(aug, all_cuts(aug)[:2]),
        build_flow_master(aug, [FailureScenario.of(aug, [0])]),
        build_bilevel_master(aug, [point]),
    ]
    m, m2 = aug.arc_count, 2 * aug.arc_count
    initial = list(aug.initial_arcs)

    def block(model):
        lb, ub = model.bounds()
        integer = [i for i in model.integer_indices() if i < m2]
        cost = [model._objective.get(i, 0.0) for i in range(m2)]
        _, a, row_lo, row_hi = model._matrices()
        rows = a.tocsr()
        return (
            list(lb[:m2]),
            list(ub[:m2]),
            integer,
            cost,
            [
                (
                    dict(zip(rows[r].indices.tolist(), rows[r].data.tolist())),
                    row_lo[r],
                    row_hi[r],
                )
                for r in range(1 + len(initial))
            ],
        )

    first = block(masters[0].model)
    assert first[2] == list(range(m2))  # every design column is binary
    # the budget row spans every p column; fictive ones are fixed at zero
    budget = {m + a: 1.0 for a in range(m)}
    assert first[4][0] == (budget, -math.inf, aug.kp)
    # then p_a <= y_a for each initial arc, in arc order
    assert first[4][1:] == [({a: -1.0, m + a: 1.0}, -math.inf, 0.0) for a in initial]
    for master in masters:
        assert master.model.num_vars >= m2
        assert block(master.model) == first
        # the master's optimum solves again with its own y/p fixed
        optimum = master.design_from(solve_mip(master.model).values)
        res = solve_fixed(master, optimum)
        assert res.status == SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(optimum.cost(aug))
        assert master.design_from(res.values) == optimum


# ---------------------------------------------------------------------------
# cut-set master


def test_cutset_master_without_cuts_selects_nothing():
    master = build_cutset_master(tri_aug(), [])
    res = solve_mip(master.model)
    assert res.status == SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(0.0)
    design = master.design_from(res.values)
    assert design.selected == frozenset({3})


def test_cutset_master_frozen_optima():
    aug = tri_aug(k=1, kp=0)
    res = solve_mip(build_cutset_master(aug, all_cuts(aug)).model)
    assert res.status == SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(4.0)

    shielded = tri_aug(k=1, kp=1)
    master = build_cutset_master(shielded, all_cuts(shielded))
    res = solve_mip(master.model)
    assert res.objective == pytest.approx(2.0)
    design = master.design_from(res.values)
    assert design.selected == frozenset({1, 3})
    assert design.protected == frozenset({1})


def test_cutset_master_explicit_subsets_relax():
    aug = tri_aug(k=1, kp=0)
    cut = CutSet.from_sink_side(aug, {2, 3})
    partial = build_cutset_master(aug, [])
    append_cut_subset(partial, cut, (2,))
    full = build_cutset_master(aug, [cut])
    val_partial = solve_mip(partial.model).objective
    val_full = solve_mip(full.model).objective
    assert val_partial <= val_full + 1e-9
    assert val_partial == pytest.approx(2.0)
    with pytest.raises(FormulationError):
        append_cut_subset(partial, cut, (3,))


def test_cutset_master_guards(monkeypatch):
    aug = tri_aug()
    with pytest.raises(FormulationError):
        build_cutset_master(aug, [CutSet.from_sink_side(aug, {3})])
    monkeypatch.setattr(formulations, "CUT_ROW_LIMIT", 1)
    with pytest.raises(FormulationError):
        build_cutset_master(aug, all_cuts(aug))


def test_cutset_master_fixed_design():
    aug = tri_aug(k=1, kp=0)
    full = Design.canonical(aug, range(3))
    res = solve_fixed(build_cutset_master(aug, all_cuts(aug)), full)
    assert res.status == SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(4.0)
    # a design violating a cut row is cut off
    weak = Design.canonical(aug, [0])
    res = solve_fixed(build_cutset_master(aug, all_cuts(aug)), weak)
    assert res.status == SolveStatus.INFEASIBLE


def _cut_rows_hold(aug, cut, subset, assignments):
    """Per assignment, whether every row the appender writes holds: the
    cut's full enumeration (``subset=None``) or one deletion subset."""
    master = build_cutset_master(aug, [])
    if subset is None:
        append_cut(master, cut)
    else:
        append_cut_subset(master, cut, subset)
    _, a, row_lo, _ = master.model._matrices()
    assert master.model.num_vars == 2 * aug.arc_count  # no column of its own
    # the design block, then one row per deletion subset
    block = 1 + aug.initial_arc_count
    cut_rows = count_cut_rows(aug, cut) if subset is None else 1
    assert master.model.num_constraints == block + cut_rows
    lhs = a[block:] @ np.asarray(assignments, dtype=float).T
    return np.all(lhs >= row_lo[block:, None] - 1e-9, axis=0)


@pytest.mark.parametrize("seed", range(8))
def test_cut_rows_hold_iff_the_cut_survives(seed):
    # p is drawn inside y, so every assignment respects the design block
    rng = random.Random(seed)
    aug = small_instance(seed, k=rng.randint(1, 3), kp=rng.randint(0, 2))
    m, initial = aug.arc_count, list(aug.initial_arcs)
    samples = []
    for _ in range(40):
        y = sorted(a for a in initial if rng.random() < 0.7)
        p = set(rng.sample(y, rng.randint(0, min(aug.kp, len(y)))))
        x = [float(a in y or aug.is_fictive(a)) for a in range(m)]
        samples.append((x + [float(a in p) for a in range(m)], y, p))
    designs = [Design.canonical(aug, y, p) for _, y, p in samples]
    outcomes = set()
    for cut in all_cuts(aug):
        survives = [cut_residual(aug, cut, d) >= aug.demand for d in designs]
        outcomes.update(survives)
        full = _cut_rows_hold(aug, cut, None, [x for x, _, _ in samples])
        assert list(full) == survives
        for (x, _, _), design, ok in zip(samples, designs, survives):
            worst = worst_subset(aug, cut, design)
            assert _cut_rows_hold(aug, cut, worst, [x])[0] == ok
    assert outcomes == {True, False}


def test_protection_off_the_selection_breaks_the_design_block():
    aug = tri_aug(k=1, kp=1)
    _, a, _, row_hi = build_cutset_master(aug, []).model._matrices()
    # arcs 1, 2 and the fictive arc 3 selected, arc 0 protected
    lhs = a @ np.array([0, 1, 1, 1] + [1, 0, 0, 0], dtype=float)
    # the budget (row 0) holds, and p_0 <= y_0 (row 1) fails
    assert np.flatnonzero(lhs > row_hi + 1e-9).tolist() == [1]


# ---------------------------------------------------------------------------
# flow master


def test_flow_master_sizes_and_frozen_optima():
    aug = tri_aug(k=1, kp=0)
    no_failure = [FailureScenario.of(aug, ())]
    master = build_flow_master(aug, no_failure)
    assert master.model.num_vars == 1 * 4 + 2 * 4
    res = solve_mip(master.model)
    assert res.objective == pytest.approx(2.0)

    singles = [FailureScenario.of(aug, [a]) for a in range(3)]
    master = build_flow_master(aug, singles)
    assert master.model.num_vars == 3 * 4 + 2 * 4
    # budget + p<=y + per scenario: balances, caps, failure caps
    assert master.model.num_constraints == 1 + 3 + 3 * (3 + 4) + 3
    res = solve_mip(master.model)
    assert res.objective == pytest.approx(4.0)

    shielded = tri_aug(k=1, kp=1)
    res = solve_mip(
        build_flow_master(
            shielded, [FailureScenario.of(shielded, [a]) for a in range(3)]
        ).model
    )
    assert res.objective == pytest.approx(2.0)


def test_flow_master_rejects_bad_scenarios():
    aug = tri_aug()
    sc = FailureScenario.of(aug, [0])
    with pytest.raises(FormulationError):
        build_flow_master(aug, [sc, FailureScenario.of(aug, [0])])
    with pytest.raises(FormulationError):
        build_flow_master(aug, [FailureScenario(frozenset({3}))])


def test_flow_master_fixed_design():
    aug = tri_aug(k=1, kp=0)
    singles = [FailureScenario.of(aug, [a]) for a in range(3)]
    full = Design.canonical(aug, range(3))
    res = solve_fixed(build_flow_master(aug, singles), full)
    assert res.status == SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(4.0)
    weak = Design.canonical(aug, [1])
    res = solve_fixed(build_flow_master(aug, singles), weak)
    assert res.status == SolveStatus.INFEASIBLE


# ---------------------------------------------------------------------------
# bilevel master and the attack models


def test_bilevel_master_grows_linearly():
    aug = tri_aug(k=1, kp=0)
    empty = build_bilevel_master(aug, [])
    assert solve_mip(empty.model).objective == pytest.approx(0.0)
    base_rows = empty.model.num_constraints

    point = separate_bilevel(aug, Design.canonical(aug, [1])).point
    master = build_bilevel_master(aug, [point, point])
    assert master.model.num_constraints == base_rows + 2
    assert master.model.num_vars == empty.model.num_vars


def test_bilevel_point_row_cuts_off_design():
    aug = tri_aug(k=1, kp=0)
    design = Design.canonical(aug, [1])  # single path dies to one failure
    violation = separate_bilevel(aug, design, brute_force_limit=0)
    assert violation is not None and violation.value == 0
    point = violation.point
    point.validate(aug)
    value = point_row_value(
        aug, design.selected, design.protected, point.lam, point.gam, point.ell
    )
    assert value == pytest.approx(violation.value)
    assert value < aug.demand

    # the new row rejects the separated design
    res = solve_fixed(build_bilevel_master(aug, [point]), design)
    assert res.status == SolveStatus.INFEASIBLE


def test_mip_route_frozen_values():
    # (value, failed arcs, cut sink side) of the three oracles' MIP route;
    # None where the design keeps the demand of 1 under every attack
    aug = tri_aug(k=1, kp=0)
    shielded = tri_aug(k=1, kp=1)
    # root -> 1 (arc 3) is a bridge, then three paths 1 -> v -> 5 whose last
    # arcs are protected: the bridge alone is the only cut that fails, so
    # its worst subset is padded with the lowest-index other candidate
    paths = ((1, 2), (1, 3), (1, 4), (0, 1), (2, 5), (3, 5), (4, 5))
    bridge = augment(
        Instance(6, tuple(Arc(t, h, 1.0, 1) for t, h in paths), 0, (5,), k=2, kp=3)
    )
    cases = [
        (aug, Design.canonical(aug, range(3)), None),
        (aug, Design.canonical(aug, [0, 2]), (0, (0,), {1, 2, 3})),
        (aug, Design.canonical(aug, [1]), (0, (1,), {2, 3})),
        (aug, Design.canonical(aug, []), (0, (), {2, 3})),
        (shielded, Design.canonical(shielded, [1], [1]), None),
        (
            bridge,
            Design.canonical(bridge, range(7), [4, 5, 6]),
            (0, (0, 3), {1, 2, 3, 4, 5, 6}),
        ),
    ]
    for case_aug, design, want in cases:
        cut, scenario, point = (
            separate(case_aug, design, brute_force_limit=0)
            for separate in (separate_cutset, separate_scenario, separate_bilevel)
        )
        if want is None:
            assert (cut, scenario, point) == (None, None, None)
            continue
        value, failed, sink_side = want
        assert cut.value == scenario.value == point.value == value
        assert scenario.scenario.sorted_arcs() == failed
        assert cut.cut.sink_side == sink_side


@pytest.mark.parametrize("seed", range(12))
def test_2lp_and_cut_search_match_enumeration(seed):
    rng = random.Random(200 + seed)
    aug = small_instance(seed, k=rng.randint(1, 2))
    design = random_design(rng, aug)
    brute = brute_attack_value(aug, design)

    violation = separate_bilevel(aug, design, brute_force_limit=0)
    if brute >= aug.demand:
        assert violation is None
    else:
        assert violation.value == brute
        point = violation.point
        row = point_row_value(
            aug, design.selected, design.protected, point.lam, point.gam, point.ell
        )
        assert row == violation.value

    search = build_cutset_separation(aug, design)
    cut_res = solve_mip(search.model)
    assert cut_res.status == SolveStatus.OPTIMAL
    assert cut_res.objective == pytest.approx(brute)
    cut = search.cut_from(cut_res.values)
    assert cut_residual(aug, cut, design) == brute


def test_strengthening_model_feasibility():
    aug = tri_aug(k=1, kp=0)
    broken = Design.canonical(aug, [1])
    res = solve_mip(build_strengthening(aug, broken).model)
    assert res.status == SolveStatus.OPTIMAL
    assert res.objective >= 0

    safe = Design.canonical(aug, range(3))
    res = solve_mip(build_strengthening(aug, safe).model)
    assert res.status == SolveStatus.INFEASIBLE


def test_strengthening_gamma_weighting_toggle():
    aug = tri_aug(k=1, kp=1)
    design = Design.canonical(aug, [1], [1])
    weighted = solve_mip(build_strengthening(aug, design).model)
    # protecting the only crossing arc keeps every cut at demand
    assert weighted.status == SolveStatus.INFEASIBLE


# ---------------------------------------------------------------------------
# inner flow LP


@pytest.mark.parametrize("seed", range(10))
def test_inner_flow_equals_masked_max_flow_and_is_integral(seed):
    rng = random.Random(300 + seed)
    aug = small_instance(seed, k=rng.randint(1, 2))
    design = random_design(rng, aug)
    candidates = sorted(a for a in design.selected if not aug.is_fictive(a))
    attack = rng.sample(candidates, min(len(candidates), aug.k))
    inner = build_inner_flow(aug, design, attack)
    res = solve_lp(inner.model)
    assert res.status == SolveStatus.OPTIMAL
    masked = max_flow(aug, design.mask(aug, attack)).value
    assert res.objective == pytest.approx(masked)
    values = np.asarray(res.values)
    assert np.all(np.abs(values - np.round(values)) <= 1e-6)


def test_inner_flow_rejects_fictive_attack():
    aug = tri_aug()
    with pytest.raises(FormulationError):
        build_inner_flow(aug, Design.canonical(aug, range(3)), [3])
