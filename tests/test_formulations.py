"""Master builders, attack models, and their agreement with enumeration."""

import dataclasses
import itertools
import math
import operator
import random

import numpy as np
import pytest

from conftest import (
    assert_attacker_vertex,
    balance_rows,
    brute_attack_value,
    brute_worst_loss,
    build_inner_flow,
    corpus,
    generic_point_row,
    grown,
    matrices,
    random_design,
    triangle,
    two_cycle,
    vertex_lam_count,
)
from cprsnp import formulations
from cprsnp.formulations import (
    Design,
    FailureScenario,
    FormulationError,
    append_cut,
    append_cut_subset,
    append_point,
    append_scenario,
    build_bilevel_master,
    build_cutset_master,
    build_cutset_separation,
    build_flow_master,
    build_strengthening,
    count_cut_rows,
    cut_residual,
    point_row_value,
    worst_subset,
)
from cprsnp.graph import (
    Arc,
    ArcMask,
    CutSet,
    GraphError,
    Instance,
    augment,
    is_index,
    max_flow,
)
from cprsnp.instances import generate
from cprsnp.milp import SolveStatus, solve_mip
from cprsnp.separation import (
    BRUTE_FORCE_LIMIT,
    separate_bilevel,
    separate_cutset,
    separate_scenario,
    strengthen,
)
from cprsnp.verify import VerifyError, is_survivable


def tri_aug(k=1, kp=0):
    return augment(triangle(k, kp))


def solve_fixed(master, design):
    """Solve the master with its y/p columns fixed to the design by added
    rows: OPTIMAL at the design's cost iff the master admits the design."""
    model, m = master.model, master.aug.arc_count
    for a in range(m):
        model.add_constr({a: 1.0}, "=", float(a in design.selected))
        model.add_constr({m + a: 1.0}, "=", float(a in design.protected))
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


@pytest.mark.parametrize("extra", [4, 99, -1, 0.5, "x"])
def test_design_with_an_unknown_arc_is_not_canonical(extra):
    # canonical() rejects an arc outside 0..m-1; is_canonical must agree,
    # or the verifier and the oracles accept a design that cost() fails on
    aug = tri_aug()
    design = Design(frozenset(range(aug.arc_count)) | {extra}, frozenset())
    assert not design.is_canonical(aug)
    with pytest.raises(FormulationError, match="unknown arc index"):
        Design.canonical(aug, [extra], [extra])
    with pytest.raises(VerifyError):
        is_survivable(aug, design)


def test_a_non_integral_arc_index_is_rejected():
    # 0.5 lies between 0 and m but indexes no arc, and cost() would fail on
    # it; integers of other types still index arcs
    aug = tri_aug()
    with pytest.raises(FormulationError, match="unknown arc index 0.5"):
        Design.canonical(aug, [0.5, 1, 2])
    with pytest.raises(FormulationError, match="arc index 0.5 is no initial arc"):
        FailureScenario.of(aug, [0.5])
    design = Design.canonical(aug, [np.int64(0), True, 2])
    assert design.is_canonical(aug)
    assert design.cost(aug) == pytest.approx(4.0)
    assert FailureScenario.of(aug, [np.int64(2)]).sorted_arcs() == (2,)


# two_cycle() has 5 initial arcs and one fictive arc: 6 is its arc count,
# and 5 its vertex count with the sink
@pytest.mark.parametrize(
    "value", [np.int64(3), True, 3.0, np.float64(3.0), -1, 6, "3", None], ids=repr
)
def test_arc_checks_accept_exactly_what_is_index_accepts(value):
    # every check of an arc or vertex set accepts a value exactly when
    # is_index does, also next to an index equal to it, and an accepted one
    # means the same as its int and is stored as a plain int
    aug = augment(dataclasses.replace(two_cycle(), kp=1))
    m, initial, n = aug.arc_count, aug.initial_arc_count, aug.vertex_count
    assert (m, n) == (6, 5)
    checks = [
        (lambda v: Design.canonical(aug, [v]).selected, FormulationError, m),
        (lambda v: Design.canonical(aug, [3, v]).selected, FormulationError, m),
        (lambda v: Design.canonical(aug, range(m), [v]).protected, FormulationError, m),
        (lambda v: ArcMask.for_design(aug, [v]).capacities, GraphError, m),
        (lambda v: ArcMask.for_design(aug, [0], [v]).capacities, GraphError, m),
        (lambda v: ArcMask.for_design(aug, [0], failed=[v]).capacities, GraphError, m),
        (
            lambda v: ArcMask.for_design(aug, range(m), failed=[v]).capacities,
            GraphError,
            m,
        ),
        (lambda v: FailureScenario.of(aug, [v]).arcs, FormulationError, initial),
        (lambda v: CutSet.from_sink_side(aug, [v, aug.sink]).sink_side, GraphError, n),
    ]
    for check, error, count in checks:
        if is_index(value, count):
            stored = check(value)
            assert stored == check(operator.index(value))
            assert {type(entry) for entry in stored} == {int}
        else:
            with pytest.raises(error):
                check(value)


def test_failure_scenario_of():
    aug = tri_aug()
    sc = FailureScenario.of(aug, [2, 0])
    assert sc.sorted_arcs() == (0, 2)
    with pytest.raises(FormulationError):
        FailureScenario.of(aug, [3])
    with pytest.raises(FormulationError):
        FailureScenario.of(aug, [9])


def test_cut_residual_frozen():
    aug = tri_aug(kp=1)
    cut = CutSet.from_sink_side(aug, {2, 3})
    full = Design.canonical(aug, range(3))
    assert cut_residual(aug, cut, full) == 1
    shielded = Design.canonical(aug, range(3), [1])
    assert cut_residual(aug, cut, shielded) == 1
    sparse = Design.canonical(aug, [2])
    assert cut_residual(aug, cut, sparse) == 0


@pytest.mark.parametrize("seed", range(15))
def test_cut_residual_matches_enumeration(seed):
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
        grown(build_cutset_master(aug), append_cut, all_cuts(aug)[:2]),
        grown(build_flow_master(aug), append_scenario, [FailureScenario.of(aug, [0])]),
        grown(build_bilevel_master(aug), append_point, [point]),
    ]
    m, m2 = aug.arc_count, 2 * aug.arc_count
    initial = list(aug.initial_arcs)
    block_rows = build_cutset_master(aug).model.num_constraints

    def block(model):
        lb, ub = model.bounds()
        integer = [i for i in model.integer_indices() if i < m2]
        cost = [model._objective.get(i, 0.0) for i in range(m2)]
        _, a, row_lo, row_hi = matrices(model)
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
                for r in range(block_rows)
            ],
        )

    first = block(masters[0].model)
    assert first[2] == list(range(m2))  # every design column is binary
    # the budget row spans every p column; fictive ones are fixed at zero
    budget = {m + a: 1.0 for a in range(m)}
    assert first[4][0] == (budget, -math.inf, aug.kp)
    # then p_a <= y_a for each initial arc, in arc order
    protect = first[4][1 : 1 + len(initial)]
    assert protect == [({a: -1.0, m + a: 1.0}, -math.inf, 0.0) for a in initial]
    # then y_b <= sum y_a for each initial arc b = (v, w) leaving a vertex
    # other than the root, over the arcs a = (u, v) with u != w
    balance = [(row, -math.inf, 0.0) for row in balance_rows(aug)]
    assert balance
    end = 1 + len(initial) + len(balance)
    assert first[4][1 + len(initial) : end] == balance
    # then the tightened rows of the root cut and of each terminal's cut
    sides = [set(range(aug.vertex_count)) - {aug.root}]
    sides += [{t, aug.sink} for t in aug.terminals]
    static = [row for side in sides for row in _tight_cut_rows(aug, side)]
    assert len(static) > len(sides)  # k = 1 gives a cut one row per arc
    assert first[4][end:] == static
    for master in masters:
        assert master.model.num_vars >= m2
        assert block(master.model) == first
        # the master's optimum solves again with its own y/p fixed
        optimum = master.design_from(solve_mip(master.model).values)
        res = solve_fixed(master, optimum)
        assert res.status == SolveStatus.OPTIMAL
        assert res.objective == pytest.approx(optimum.cost(aug))
        assert master.design_from(res.values) == optimum


@pytest.mark.parametrize(
    "build", [build_cutset_master, build_flow_master, build_bilevel_master]
)
def test_design_from_reads_y_at_a_and_p_at_m_plus_a(build):
    # the block fixes the layout, so values past the first 2m (the flow
    # master's flow columns) never reach the design
    aug = small_instance(0, k=1, kp=2)
    m = aug.arc_count
    rng, noise = random.Random(0), np.random.default_rng(0)
    for _ in range(10):
        design = random_design(rng, aug)
        values = np.concatenate(
            [
                [float(a in design.selected) for a in range(m)],
                [float(a in design.protected) for a in range(m)],
                noise.random(2 * m),
            ]
        )
        assert build(aug).design_from(values) == design


def _tight_cut_rows(aug, sink_side):
    """The rows of one cut in tightened form, written out independently of
    the appenders: per deletion subset S of ``min(k, m)`` of its ``m``
    non-fictive arcs, ``sum_{C-S} min(u, r) y + sum_S min(u, r) p >= r``
    with ``r`` the demand less the fictive capacity crossing the cut, as
    (coefficients by column, lower bound, upper bound)."""
    cut = CutSet.from_sink_side(aug, sink_side)
    arcs = [a for a in cut.arcs if not aug.is_fictive(a)]
    need = aug.demand - sum(
        aug.arcs[a].capacity for a in cut.arcs if aug.is_fictive(a)
    )
    rows = []
    for sub in itertools.combinations(arcs, min(aug.k, len(arcs))):
        coefs = {
            (aug.arc_count + a if a in sub else a): float(
                min(aug.arcs[a].capacity, need)
            )
            for a in arcs
        }
        rows.append((coefs, float(need), math.inf))
    return rows


def _drop_dangling(aug, design):
    """The design without the arcs that no simple root-sink path uses: an
    initial arc b = (v, w), v not the root, is dropped with its protection
    while no other selected arc (u, v) with u != w enters v, until no such
    arc is left."""
    selected, protected = set(design.selected), set(design.protected)
    dropped = True
    while dropped:
        dropped = False
        for b in aug.initial_arcs:
            v, w = aug.arcs[b].tail, aug.arcs[b].head
            if b in selected and v != aug.root and not any(
                a in selected and arc.head == v and arc.tail != w
                for a, arc in enumerate(aug.arcs)
            ):
                selected.discard(b)
                protected.discard(b)
                dropped = True
    return Design.canonical(aug, selected, protected)


def test_dropping_dangling_arcs_keeps_survivability(oracle_suite):
    # the dominance argument behind the block's flow-balance rows, on seeded
    # random designs: the reduced design costs no more and satisfies every
    # <= row of the block (budget, p <= y, flow balance); it survives
    # whenever the design does, and then it satisfies every row of the block
    survived = reduced_survivors = 0
    for index, inst in enumerate(oracle_suite):
        aug = augment(inst)
        rng = random.Random(index)
        _, block, row_lo, row_hi = matrices(build_cutset_master(aug).model)
        for _ in range(24):
            keep = rng.choice([0.5, 0.8, 0.95])
            selected = [a for a in aug.initial_arcs if rng.random() < keep]
            protected = rng.sample(selected, min(aug.kp, len(selected)))
            design = Design.canonical(aug, selected, protected)
            reduced = _drop_dangling(aug, design)
            assert reduced.selected <= design.selected
            assert reduced.cost(aug) <= design.cost(aug)
            lhs = block @ np.array(
                [float(a in reduced.selected) for a in range(aug.arc_count)]
                + [float(a in reduced.protected) for a in range(aug.arc_count)]
            )
            assert (lhs <= row_hi + 1e-9).all()
            if is_survivable(aug, design)[0]:
                survived += 1
                reduced_survivors += reduced != design
                assert is_survivable(aug, reduced)[0]
                assert (lhs >= row_lo - 1e-9).all()
    # the property is exercised on designs that the drop changes
    assert survived > reduced_survivors > 0


def test_design_block_cuts_off_a_dangling_arc():
    aug = augment(two_cycle())
    # every arc: survivable at the optimal cost 5, but arc 4 = (3, 1) has no
    # selected in-arc other than (1, 3), so its row y_4 <= 0 fails
    every = Design.canonical(aug, aug.initial_arcs)
    assert is_survivable(aug, every)[0]
    assert balance_rows(aug)[-1] == {4: 1.0}
    res = solve_fixed(build_cutset_master(aug), every)
    assert res.status == SolveStatus.INFEASIBLE
    # without that arc the block holds the design, 2-cycle half included
    kept = Design.canonical(aug, [0, 1, 2, 3])
    res = solve_fixed(build_cutset_master(aug), kept)
    assert res.status == SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(5.0)


def test_design_block_writes_a_shared_static_cut_once():
    # with one vertex besides the root, the root cut is the terminal's cut
    aug = augment(Instance(2, (Arc(0, 1, 1.0, 3),), 0, (1,), k=0, kp=1))
    _, a, row_lo, _ = matrices(build_cutset_master(aug).model)
    # budget, p_0 <= y_0, and the cut's one intact row 1 * y_0 >= 1
    assert a.shape[0] == 3
    assert a.tocsr()[2].toarray().tolist() == [[1.0, 0.0, 0.0, 0.0]]
    assert row_lo[2] == 1.0


# ---------------------------------------------------------------------------
# cut-set master


def test_cutset_master_without_cuts_selects_nothing(monkeypatch):
    # the design block's root and terminal cuts already force the triangle
    master = build_cutset_master(tri_aug())
    res = solve_mip(master.model)
    assert res.status == SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(4.0)
    assert master.design_from(res.values).selected == frozenset({0, 1, 2, 3})
    # with no static cut within the row limit, the bare block selects nothing
    monkeypatch.setattr(formulations, "CUT_ROW_LIMIT", 0)
    master = build_cutset_master(tri_aug())
    res = solve_mip(master.model)
    assert res.status == SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(0.0)
    design = master.design_from(res.values)
    assert design.selected == frozenset({3})


def test_cutset_master_frozen_optima():
    aug = tri_aug(k=1, kp=0)
    res = solve_mip(grown(build_cutset_master(aug), append_cut, all_cuts(aug)).model)
    assert res.status == SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(4.0)

    shielded = tri_aug(k=1, kp=1)
    master = grown(build_cutset_master(shielded), append_cut, all_cuts(shielded))
    res = solve_mip(master.model)
    assert res.objective == pytest.approx(2.0)
    design = master.design_from(res.values)
    assert design.selected == frozenset({1, 3})
    assert design.protected == frozenset({1})


def test_cutset_master_explicit_subsets_relax():
    # the cut {3, 4, s} is not in the design block (which alone solves the
    # triangle; its cuts here are {1, ..., 5}, {3, s} and {4, s}); it
    # crosses arcs 2 to 6, no fictive arc among them
    aug = small_instance(11, k=1, kp=1)
    cut = CutSet.from_sink_side(aug, {3, 4, aug.sink})
    assert cut.arcs == (2, 3, 4, 5, 6)
    partial = build_cutset_master(aug)
    val_block = solve_mip(partial.model).objective
    append_cut_subset(partial, cut, (3,))
    full = grown(build_cutset_master(aug), append_cut, [cut])
    val_partial = solve_mip(partial.model).objective
    val_full = solve_mip(full.model).objective
    assert val_block < val_partial < val_full
    assert val_partial <= val_full + 1e-9
    assert (val_block, val_partial, val_full) == pytest.approx((37.0, 38.0, 43.0))
    with pytest.raises(FormulationError):
        append_cut_subset(partial, cut, (1,))  # not a cut arc
    # the sink cut crosses only the fictive arcs 11 and 12, so deleting one
    # of them is refused by the fictive-arc guard alone
    fcut = CutSet.from_sink_side(aug, {aug.sink})
    assert fcut.arcs == (11, 12) and all(aug.is_fictive(a) for a in fcut.arcs)
    with pytest.raises(FormulationError):
        append_cut_subset(partial, fcut, (11,))


def test_cutset_master_guards(monkeypatch):
    aug = tri_aug()
    with pytest.raises(FormulationError):
        append_cut(build_cutset_master(aug), CutSet.from_sink_side(aug, {3}))
    monkeypatch.setattr(formulations, "CUT_ROW_LIMIT", 1)
    with pytest.raises(FormulationError):
        grown(build_cutset_master(aug), append_cut, all_cuts(aug))


def test_cutset_master_fixed_design():
    aug = tri_aug(k=1, kp=0)
    full = Design.canonical(aug, range(3))
    res = solve_fixed(grown(build_cutset_master(aug), append_cut, all_cuts(aug)), full)
    assert res.status == SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(4.0)
    # a design violating a cut row is cut off
    weak = Design.canonical(aug, [0])
    res = solve_fixed(grown(build_cutset_master(aug), append_cut, all_cuts(aug)), weak)
    assert res.status == SolveStatus.INFEASIBLE


def _cut_rows_hold(aug, cut, subset, assignments):
    """Per assignment, whether every row the appender writes holds: the
    cut's full enumeration (``subset=None``) or one deletion subset."""
    master = build_cutset_master(aug)
    if subset is None:
        append_cut(master, cut)
    else:
        append_cut_subset(master, cut, subset)
    _, a, row_lo, _ = matrices(master.model)
    assert master.model.num_vars == 2 * aug.arc_count  # no column of its own
    # the design block, then one row per deletion subset
    block = build_cutset_master(aug).model.num_constraints
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


@pytest.mark.parametrize("seed", range(8))
def test_point_rows_hold_iff_the_vertex_reaches_demand(seed):
    # the tightened row of a vertex holds at a 0/1 point with p <= y exactly
    # when the untightened row value reaches the demand; outside the row's
    # support both are constant, so (y, p) is enumerated on the support
    rng = random.Random(seed)
    aug = small_instance(seed, k=rng.randint(1, 3), kp=rng.randint(0, 2))
    points = []
    for _ in range(6):
        design = random_design(rng, aug)
        violation = separate_bilevel(aug, design)
        if violation is not None:
            points.append(violation.point)
            points.append(strengthen(aug, design, violation).point)
    assert points
    outcomes = set()
    for point in points:
        master = grown(build_bilevel_master(aug), append_point, [point])
        _, a, row_lo, _ = matrices(master.model)
        row, need = a.tocsr()[-1], row_lo[-1]
        support = [
            arc
            for arc in aug.initial_arcs
            if point.lam[arc] or point.gam[arc]
        ]
        for states in itertools.product((0, 1, 2), repeat=len(support)):
            sel = {arc for arc, s in zip(support, states) if s}
            prot = {arc for arc, s in zip(support, states) if s == 2}
            x = np.zeros(2 * aug.arc_count)
            x[list(aug.fictive_arcs)] = 1.0
            x[list(sel)] = 1.0
            x[[aug.arc_count + arc for arc in prot]] = 1.0
            holds = (row @ x)[0] >= need - 1e-9
            value = point_row_value(
                aug,
                sel | set(aug.fictive_arcs),
                prot,
                point.lam,
                point.gam,
                point.ell,
            )
            assert holds == (value >= aug.demand)
            outcomes.add(holds)
    assert outcomes == {True, False}


def test_protection_off_the_selection_breaks_the_design_block():
    aug = tri_aug(k=1, kp=1)
    _, a, _, row_hi = matrices(build_cutset_master(aug).model)
    # arc 1 and the fictive arc 3 selected, arc 0 protected
    lhs = a @ np.array([0, 1, 0, 1] + [1, 0, 0, 0], dtype=float)
    # the budget (row 0) and the flow-balance row y_2 <= y_0 (row 4) hold,
    # and p_0 <= y_0 (row 1) fails
    assert np.flatnonzero(lhs > row_hi + 1e-9).tolist() == [1]


# ---------------------------------------------------------------------------
# flow master


def test_flow_master_sizes_and_frozen_optima():
    # k = 0, so that the block's cuts leave the cheapest routing open
    intact = tri_aug(k=0, kp=0)
    no_failure = [FailureScenario.of(intact, ())]
    master = grown(build_flow_master(intact), append_scenario, no_failure)
    assert master.model.num_vars == 1 * 4 + 2 * 4
    res = solve_mip(master.model)
    assert res.objective == pytest.approx(2.0)

    aug = tri_aug(k=1, kp=0)
    singles = [FailureScenario.of(aug, [a]) for a in range(3)]
    master = grown(build_flow_master(aug), append_scenario, singles)
    assert master.model.num_vars == 3 * 4 + 2 * 4
    # budget + p<=y + the flow-balance row y_2 <= y_0 of arc 2 = (1, 2) +
    # the root and terminal cuts' two rows each + per scenario: balances,
    # caps, failure caps
    assert len(balance_rows(aug)) == 1
    assert master.model.num_constraints == 1 + 3 + 1 + 2 * 2 + 3 * (3 + 4) + 3
    res = solve_mip(master.model)
    assert res.objective == pytest.approx(4.0)

    shielded = tri_aug(k=1, kp=1)
    res = solve_mip(
        grown(
            build_flow_master(shielded),
            append_scenario,
            [FailureScenario.of(shielded, [a]) for a in range(3)],
        ).model
    )
    assert res.objective == pytest.approx(2.0)


def test_flow_master_rejects_bad_scenarios():
    aug = tri_aug()
    with pytest.raises(FormulationError):
        append_scenario(build_flow_master(aug), FailureScenario(frozenset({3})))


def test_flow_master_fixed_design():
    aug = tri_aug(k=1, kp=0)
    singles = [FailureScenario.of(aug, [a]) for a in range(3)]
    full = Design.canonical(aug, range(3))
    res = solve_fixed(grown(build_flow_master(aug), append_scenario, singles), full)
    assert res.status == SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(4.0)
    weak = Design.canonical(aug, [1])
    res = solve_fixed(grown(build_flow_master(aug), append_scenario, singles), weak)
    assert res.status == SolveStatus.INFEASIBLE


# ---------------------------------------------------------------------------
# bilevel master and the attack models


def test_bilevel_master_grows_linearly():
    aug = tri_aug(k=1, kp=0)
    empty = build_bilevel_master(aug)
    # the design block's root and terminal cuts alone force all three arcs
    assert solve_mip(empty.model).objective == pytest.approx(4.0)
    base_rows = empty.model.num_constraints

    point = separate_bilevel(aug, Design.canonical(aug, [1])).point
    master = grown(build_bilevel_master(aug), append_point, [point, point])
    assert master.model.num_constraints == base_rows + 2
    assert master.model.num_vars == empty.model.num_vars


def test_bilevel_point_row_cuts_off_design():
    aug = tri_aug(k=1, kp=0)
    design = Design.canonical(aug, [1])  # single path dies to one failure
    violation = separate_bilevel(aug, design, brute_force_limit=0)
    assert violation is not None and violation.value == 0
    point = violation.point
    assert_attacker_vertex(aug, point)
    value = point_row_value(
        aug, design.selected, design.protected, point.lam, point.gam, point.ell
    )
    assert value == pytest.approx(violation.value)
    assert value < aug.demand

    # the new row rejects the separated design
    res = solve_fixed(grown(build_bilevel_master(aug), append_point, [point]), design)
    assert res.status == SolveStatus.INFEASIBLE


def _last_row(model):
    """The model's last row as (coefficients by column, lower, upper)."""
    _, a, row_lo, row_hi = matrices(model)
    row = a.tocsr()[-1]
    return dict(zip(row.indices.tolist(), row.data.tolist())), row_lo[-1], row_hi[-1]


@pytest.mark.parametrize("limit", [BRUTE_FORCE_LIMIT, 0])
def test_point_rows_match_the_generic_vertex_row(limit):
    # every vertex the oracles build, on the search route and on the MIP
    # route, and every vertex strengthen returns, is a vertex of the
    # attacker-cut polytope by the checker kept in conftest and gets the row
    # of the generic formula kept there: same columns, coefficients, bounds
    rng = random.Random(limit)
    seen = strengthened = 0
    for inst in corpus():
        aug = augment(inst)
        for _ in range(3):
            design = random_design(rng, aug)
            violation = separate_bilevel(aug, design, brute_force_limit=limit)
            if violation is None:
                continue
            sparse = strengthen(aug, design, violation)
            strengthened += sparse.point != violation.point
            for point in (violation.point, sparse.point):
                assert_attacker_vertex(aug, point)
                master = build_bilevel_master(aug)
                rows = master.model.num_constraints
                append_point(master, point)
                assert master.model.num_constraints == rows + 1
                coeffs, need = generic_point_row(aug, point)
                assert _last_row(master.model) == (coeffs, need, math.inf)
                seen += 1
    assert seen >= 200 and strengthened >= 50


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
def test_mip_route_and_cut_search_match_enumeration(seed):
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


def every_cut(aug):
    """Every root/sink cut, one per sink side."""
    inner = [v for v in range(aug.vertex_count) if v not in (aug.root, aug.sink)]
    for size in range(len(inner) + 1):
        for side in itertools.combinations(inner, size):
            yield CutSet.from_sink_side(aug, {aug.sink, *side})


def integral(value):
    assert value == pytest.approx(round(value), abs=1e-9)
    return round(value)


def test_cut_search_optima_match_every_sink_side():
    # the separation optimum is the least capacity a cut keeps after its
    # worst failure; the strengthening optimum is the fewest lam arcs of the
    # vertex of a failing cut C, |C| - min(k, |C attack candidates|), and
    # INFEASIBLE when no cut fails; both are integers, as the models declare
    seen = set()
    # the corpus instances of at most 10 vertices: at most 256 sink sides
    for index, inst in enumerate(corpus()[:30]):
        aug = augment(inst)
        rng = random.Random(700 + index)
        cuts = list(every_cut(aug))
        # half-selected designs all fail somewhere; every arc often survives
        designs = [random_design(rng, aug) for _ in range(3)]
        for design in designs + [Design.canonical(aug, aug.initial_arcs)]:
            seen.add("protected" if design.protected else "unprotected")
            seen.add(check_cut_search_optima(aug, design, cuts))
    assert seen == {"protected", "unprotected", "failing", "survivable"}


def check_cut_search_optima(aug, design, cuts):
    kept = {cut: cut_residual(aug, cut, design) for cut in cuts}
    res = solve_mip(build_cutset_separation(aug, design).model)
    assert res.status == SolveStatus.OPTIMAL
    assert integral(res.objective) == min(kept.values())

    res = solve_mip(build_strengthening(aug, design).model)
    failing = [cut for cut in cuts if kept[cut] < aug.demand]
    if not failing:
        assert res.status == SolveStatus.INFEASIBLE
        return "survivable"
    assert res.status == SolveStatus.OPTIMAL
    fewest = min(vertex_lam_count(aug, design, cut) for cut in failing)
    assert integral(res.objective) == fewest
    return "failing"


def test_cut_search_gam_columns_are_the_attack_candidates():
    # an attack may fail only the design's attack candidates, in both cut
    # search MIPs: an unselected or protected arc has no gam column
    seen = set()
    for index, inst in enumerate(corpus()[:12]):
        aug = augment(inst)
        rng = random.Random(900 + index)
        designs = [random_design(rng, aug) for _ in range(3)]
        for design in designs + [Design.canonical(aug, aug.initial_arcs)]:
            seen.add("protected" if design.protected else "unprotected")
            candidates = design.attack_candidates(aug)
            assert sorted(build_cutset_separation(aug, design).gam_var) == candidates
            assert sorted(build_strengthening(aug, design).gam_var) == candidates
    assert seen == {"protected", "unprotected"}


def test_strengthening_mip_is_infeasible_when_protection_keeps_every_cut():
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
    res = solve_mip(build_inner_flow(aug, design, attack))
    assert res.status == SolveStatus.OPTIMAL
    masked = max_flow(aug, design.mask(aug, attack)).value
    assert -res.objective == pytest.approx(masked)
    values = np.asarray(res.values)
    assert np.all(np.abs(values - np.round(values)) <= 1e-6)


def test_inner_flow_rejects_fictive_attack():
    aug = tri_aug()
    with pytest.raises(FormulationError):
        build_inner_flow(aug, Design.canonical(aug, range(3)), [3])
