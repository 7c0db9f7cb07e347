"""Separation oracles: soundness, completeness, and mutual agreement."""

import dataclasses
import itertools
import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_attacker_vertex,
    brute_attack_value,
    cut_capacity,
    random_design,
    triangle,
    vertex_lam_count,
)
from cprsnp.formulations import (
    Design,
    build_strengthening,
    cut_residual,
    point_row_value,
    worst_subset,
)
from cprsnp.graph import Arc, CutSet, Instance, augment, max_flow
from cprsnp.instances import generate
from cprsnp import separation
from cprsnp.milp import SolveResult, SolveStatus, solve_mip
from cprsnp.separation import (
    BRUTE_FORCE_LIMIT,
    SeparationError,
    SeparationTimeout,
    separate_bilevel,
    separate_cutset,
    separate_scenario,
    strengthen,
)
from cprsnp.verify import is_survivable


def tri_aug(k=1, kp=0):
    return augment(triangle(k, kp))


def seeded_case(seed):
    rng = random.Random(seed)
    nodes = rng.randint(4, 7)
    arcs = min(rng.randint(8, 16), nodes * (nodes - 1))
    aug = augment(
        generate(
            nodes,
            rng.randint(1, 3),
            arcs,
            capacity_mode=rng.choice(["uniform", "random"]),
            seed=seed,
            k=rng.randint(1, 2),
            kp=rng.randint(0, 1),
        )
    )
    return aug, random_design(rng, aug)


def test_survivable_designs_pass_all_oracles():
    aug = tri_aug(k=1, kp=0)
    full = Design.canonical(aug, range(3))
    assert separate_cutset(aug, full) is None
    assert separate_scenario(aug, full) is None
    assert separate_bilevel(aug, full) is None


def test_violations_found_and_sound():
    aug = tri_aug(k=1, kp=0)
    weak = Design.canonical(aug, [0, 2])  # one failure severs the only path
    cut = separate_cutset(aug, weak)
    assert cut is not None and cut.value == 0
    assert cut_residual(aug, cut.cut, weak) == 0

    scenario = separate_scenario(aug, weak)
    assert scenario is not None and scenario.value == 0
    survived = max_flow(aug, weak.mask(aug, scenario.scenario.arcs)).value
    assert survived == 0

    point = separate_bilevel(aug, weak)
    assert point is not None and point.value == 0
    row = point_row_value(
        aug, weak.selected, weak.protected, point.point.lam,
        point.point.gam, point.point.ell,
    )
    assert row == pytest.approx(0.0)


def test_protection_changes_the_verdict():
    aug = tri_aug(k=1, kp=1)
    bare = Design.canonical(aug, [1])
    assert separate_scenario(aug, bare) is not None
    shielded = Design.canonical(aug, [1], [1])
    assert separate_cutset(aug, shielded) is None
    assert separate_scenario(aug, shielded) is None
    assert separate_bilevel(aug, shielded) is None


def test_non_canonical_design_rejected():
    aug = tri_aug()
    naked = Design(frozenset({0}), frozenset())  # fictive arc missing
    with pytest.raises(SeparationError):
        separate_scenario(aug, naked)


@pytest.mark.parametrize("seed", range(20))
def test_oracles_agree_with_enumeration(seed):
    aug, design = seeded_case(seed)
    brute = brute_attack_value(aug, design)
    survivable, witness = is_survivable(aug, design)
    assert survivable == (brute >= aug.demand)

    for separate in (separate_cutset, separate_scenario, separate_bilevel):
        violation = separate(aug, design)
        if survivable:
            assert violation is None
        else:
            assert violation is not None
            assert violation.value == brute
            assert violation.value < aug.demand

    if witness is not None:
        value = max_flow(aug, design.mask(aug, witness.arcs)).value
        assert value < aug.demand


@pytest.mark.parametrize("seed", range(8))
def test_scenario_brute_force_and_mip_agree(seed):
    aug, design = seeded_case(100 + seed)
    brute_path = separate_scenario(aug, design)
    mip_path = separate_scenario(aug, design, brute_force_limit=0)
    if brute_path is None:
        assert mip_path is None
    else:
        assert mip_path is not None
        assert mip_path.value == brute_path.value
        # both paths fail k arcs whenever there are that many to fail
        candidates = [
            a for a in design.selected
            if not aug.is_fictive(a) and a not in design.protected
        ]
        for violation in (brute_path, mip_path):
            survived = max_flow(aug, design.mask(aug, violation.scenario.arcs)).value
            assert survived == violation.value
            assert len(violation.scenario.arcs) == min(aug.k, len(candidates))


def test_each_route_solves_its_own_mips(monkeypatch):
    aug, design = seeded_case(101)
    solved = []

    def counted(model, *args, **kwargs):
        solved.append(model.name)
        return solve_mip(model, *args, **kwargs)

    monkeypatch.setattr(separation, "solve_mip", counted)
    routes = [
        (separate_cutset, BRUTE_FORCE_LIMIT, []),
        (separate_scenario, BRUTE_FORCE_LIMIT, []),
        (separate_bilevel, BRUTE_FORCE_LIMIT, []),
        # the one MIP route: the cut search MIP finds the attack
        (separate_cutset, 0, ["cutset_separation"]),
        (separate_scenario, 0, ["cutset_separation"]),
        (separate_bilevel, 0, ["cutset_separation"]),
    ]
    for separate, limit, mips in routes:
        solved.clear()
        assert separate(aug, design, brute_force_limit=limit) is not None
        assert solved == mips


def probe_designs():
    """Designs the probe separates: every arc selected, with seeded
    protections, on seeded cases whose full network carries the demand."""
    for seed in range(60):
        aug, _ = seeded_case(seed)
        rng = random.Random(seed)
        protected = rng.sample(aug.initial_arcs, rng.randint(0, aug.kp))
        design = Design.canonical(aug, range(aug.arc_count), protected)
        root = max_flow(aug, design.mask(aug))
        if root.value >= aug.demand:
            yield aug, design, root


def test_probe_searches_within_a_budget_before_the_mip(monkeypatch):
    # above brute_force_limit the witness search runs first, allowed
    # min(candidates, limit) max flows; only a spent budget reaches the MIP,
    # limit 0 goes straight to it, and the worst-attack oracles keep their
    # one MIP route
    events = []

    def flow(aug, mask, start=None):
        events.append("flow")
        return max_flow(aug, mask, start=start)

    def mip(model, *args, **kwargs):
        events.append("mip")
        return solve_mip(model, *args, **kwargs)

    monkeypatch.setattr(separation, "max_flow", flow)
    monkeypatch.setattr(separation, "solve_mip", mip)
    seen = set()
    for aug, design, root in probe_designs():
        candidates = len(design.attack_candidates(aug))
        size = min(aug.k, candidates)
        survivable = is_survivable(aug, design)[0]
        for limit in (0, 1, 3, 10):
            if math.comb(candidates, size) <= limit:
                continue
            events.clear()
            witness = separation.failing_scenario(
                aug, design, root, brute_force_limit=limit
            )
            searched = events.index("mip") if "mip" in events else len(events)
            assert searched <= min(candidates, limit)
            # the MIP runs once, then at most the max flow that checks it
            assert events[searched:] in ([], ["mip"], ["mip", "flow"])
            assert (witness is None) == survivable
            if witness is not None:
                left = max_flow(aug, design.mask(aug, witness.scenario.arcs))
                assert left.value == witness.value < aug.demand
            route = "mip" if searched < len(events) else "search"
            seen.add((route, "survives" if witness is None else "fails"))
            if limit == 0:
                assert route == "mip"
                continue
            for separate in (separate_cutset, separate_scenario, separate_bilevel):
                events.clear()
                answer = separate(aug, design, brute_force_limit=limit)
                assert events in (["mip"], ["mip", "flow"])
                assert answer == separate(aug, design, brute_force_limit=0)
    assert seen == {
        ("search", "fails"),
        ("search", "survives"),
        ("mip", "fails"),
        ("mip", "survives"),
    }
    # on the triangle with the direct arc protected, the root flow leaves
    # every candidate empty, so a search would end with no max flow; limit
    # 0 still asks the MIP
    aug = tri_aug(k=1, kp=1)
    design = Design.canonical(aug, range(3), [1])
    root = max_flow(aug, design.mask(aug))
    assert root.flow[:3] == (0, 1, 0)
    events.clear()
    assert separation.failing_scenario(aug, design, root, brute_force_limit=0) is None
    assert events == ["mip"]


def test_mip_route_rejects_a_max_flow_off_the_cut_value(monkeypatch):
    # the attack read from the cut MIP must leave exactly the MIP's value
    aug, design = seeded_case(101)

    def off_by_one(aug, mask):
        res = max_flow(aug, mask)
        return dataclasses.replace(res, value=res.value + 1)

    monkeypatch.setattr(separation, "max_flow", off_by_one)
    for separate in (separate_cutset, separate_scenario, separate_bilevel):
        with pytest.raises(SeparationError, match="disagrees with max flow"):
            separate(aug, design, brute_force_limit=0)


def test_scenario_size_tracks_candidates():
    # k=2 but only one unprotected selected arc, so the witness has size 1
    aug = tri_aug(k=2, kp=1)
    design = Design.canonical(aug, [0, 2], [0])
    violation = separate_scenario(aug, design)
    assert violation is not None
    assert violation.scenario.sorted_arcs() == (2,)
    assert violation.value == 0
    # with the relay protected instead the second path rescues the demand
    assert separate_scenario(aug, Design.canonical(aug, [0, 1], [1])) is None


def test_separation_timeout_raised():
    aug, design = seeded_case(999)
    with pytest.raises(SeparationTimeout):
        separate_scenario(aug, design, deadline=time.perf_counter(), brute_force_limit=0)
    with pytest.raises(SeparationTimeout):
        separate_bilevel(aug, design, deadline=time.perf_counter(), brute_force_limit=0)
    # the search route: 30-3-60 at (3,1) needs more max flows than the
    # search runs between two clock reads
    inst = generate(30, 3, 60, "uniform", seed=7, k=3, kp=1, uniform_capacity=3)
    aug = augment(inst)
    design = Design.canonical(aug, range(aug.arc_count))
    for separate in (separate_cutset, separate_bilevel):
        with pytest.raises(SeparationTimeout):
            separate(aug, design, deadline=time.perf_counter())


def test_attack_search_polls_its_deadline():
    # 30-3-60 at (3,1): the attack search needs more max flows than it runs
    # between two clock reads, so a zero budget stops it
    inst = generate(30, 3, 60, "uniform", seed=7, k=3, kp=1, uniform_capacity=3)
    aug = augment(inst)
    design = Design.canonical(aug, range(aug.arc_count))
    with pytest.raises(SeparationTimeout):
        separate_scenario(aug, design, deadline=time.perf_counter())


# ---------------------------------------------------------------------------
# the attack search against the enumeration of failure sets it replaced


def attack_case(rng):
    """A small instance and a design on it.  k reaches 4, so some designs
    have fewer unprotected arcs than k; sparse designs often lose all flow."""
    nodes = rng.randint(4, 8)
    arcs = rng.randint(2 * nodes, min(20, nodes * (nodes - 1)))
    aug = augment(
        generate(
            nodes,
            rng.randint(1, min(4, nodes - 1)),
            arcs,
            capacity_mode=rng.choice(["uniform", "random"]),
            seed=rng.randrange(10**6),
            k=rng.randint(1, 4),
            kp=rng.randint(0, 2),
        )
    )
    density = rng.choice([0.3, 0.7, 0.9, 1.0])
    selected = [a for a in aug.initial_arcs if rng.random() < density]
    protected = rng.sample(selected, min(rng.randint(0, aug.kp), len(selected)))
    return aug, Design.canonical(aug, selected, protected)


def enumerated_attacks(aug, design):
    """Every failure set of min(k, candidates) arcs in lexicographic order,
    with the max flow it leaves."""
    candidates = sorted(
        a for a in design.selected
        if not aug.is_fictive(a) and a not in design.protected
    )
    return [
        (max_flow(aug, design.mask(aug, combo)).value, combo)
        for combo in itertools.combinations(candidates, min(aug.k, len(candidates)))
    ]


def assert_search_matches_enumeration(aug, design, attacks):
    value = min(v for v, _ in attacks)
    first = next(combo for v, combo in attacks if v == value)
    found = separate_scenario(aug, design)
    if value >= aug.demand:
        assert found is None
    else:
        assert found is not None
        assert (found.value, found.scenario.sorted_arcs()) == (value, first)


def test_attack_search_matches_enumeration_on_seeded_cases():
    seen = set()
    for seed in range(100):
        aug, design = attack_case(random.Random(seed))
        attacks = enumerated_attacks(aug, design)
        assert_search_matches_enumeration(aug, design, attacks)
        value = min(v for v, _ in attacks)
        if value < aug.demand:
            seen.add("violated")
            if [v for v, _ in attacks].count(value) > 1:
                seen.add("tied minima")
            if design.protected:
                seen.add("protected arcs")
            if len(attacks[0][1]) < aug.k:
                seen.add("fewer candidates than k")
            seen.add("zero" if value == 0 else "positive")
        else:
            seen.add("survivable")
    assert seen == {
        "violated", "tied minima", "protected arcs", "fewer candidates than k",
        "zero", "positive", "survivable",
    }


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_attack_search_matches_enumeration(rng):
    aug, design = attack_case(rng)
    assert_search_matches_enumeration(aug, design, enumerated_attacks(aug, design))


def test_attack_search_does_not_depend_on_candidate_order():
    # any order of the candidates gives the worst value that enumeration
    # does; the witness mode returns only failing sets of at most k
    # candidates, and None exactly when that value reaches the demand
    seen = set()
    for seed in range(100):
        rng = random.Random(seed)
        aug, design = attack_case(rng)
        value = min(v for v, _ in enumerated_attacks(aug, design))
        candidates = design.attack_candidates(aug)
        size = min(aug.k, len(candidates))
        shuffled = rng.sample(candidates, len(candidates))
        for order in (candidates, candidates[::-1], shuffled):
            worst = separation._worst_attack(aug, design, order, math.inf)
            witness = separation._worst_attack(
                aug, design, order, math.inf, witness=True
            )
            if value >= aug.demand:
                assert worst is None and witness is None
                seen.add("survivable")
                continue
            assert worst.value == value and len(worst.arcs) == size
            assert max_flow(aug, design.mask(aug, worst.arcs)).value == value
            assert witness.value < aug.demand
            assert len(set(witness.arcs)) == len(witness.arcs) <= size
            assert set(witness.arcs) <= set(candidates)
            left = max_flow(aug, design.mask(aug, witness.arcs)).value
            assert left == witness.flow.value == witness.value
            seen.add("short witness" if len(witness.arcs) < size else "full witness")
    assert seen == {"survivable", "short witness", "full witness"}


def test_attack_search_needs_few_max_flows(monkeypatch):
    # enumerating this design's failure sets takes C(60, 3) = 34,220 max flows
    inst = generate(30, 3, 60, "uniform", seed=7, k=3, kp=0, uniform_capacity=3)
    aug = augment(inst)
    design = Design.canonical(aug, range(aug.arc_count))
    calls = []

    def counted(aug, mask, start=None):
        calls.append(start)
        return max_flow(aug, mask, start=start)

    monkeypatch.setattr(separation, "max_flow", counted)
    violation = separate_scenario(aug, design)
    assert len(calls) <= 500
    # only the root's max flow starts from zero; each child's starts from
    # its parent's
    assert calls[0] is None and None not in calls[1:]
    # the enumeration's answer: the first of the failure sets leaving 1 unit
    assert violation is not None
    assert (violation.value, violation.scenario.sorted_arcs()) == (1, (18, 29, 53))


def test_node_bounds_match_sorted_top_sums():
    # each search node reads its children's bounds from one backward pass:
    # the sum of the r largest flows on every suffix of its candidates
    rng = random.Random(4)
    for _ in range(200):
        flows = [rng.choice((0, 0, 1, 2, 3, rng.randint(0, 40)))
                 for _ in range(rng.randint(0, 14))]
        for r in range(4):
            sums = separation._suffix_largest(flows, r)
            assert len(sums) == len(flows) + 1
            for j in range(len(flows) + 1):
                assert sums[j] == int(np.sort(flows[j:])[::-1][:r].sum())
            # the node's own bound: the r + 1 largest from each start are
            # the first of them plus the r largest after it
            for j in range(len(flows)):
                most = max(f + s for f, s in zip(flows[j:], sums[j + 1 :]))
                assert most == int(np.sort(flows[j:])[::-1][: r + 1].sum())


# ---------------------------------------------------------------------------
# the search route against the MIP route


def minimum_sink_sides(aug, mask):
    """Every sink side of least capacity under the mask, by enumeration."""
    others = [v for v in range(aug.vertex_count) if v not in (aug.root, aug.sink)]
    sides = []
    for bits in range(1 << len(others)):
        side = {aug.sink} | {v for i, v in enumerate(others) if bits >> i & 1}
        cap = cut_capacity(CutSet.from_sink_side(aug, side), mask)
        sides.append((cap, frozenset(side)))
    least = min(cap for cap, _ in sides)
    return least, [side for cap, side in sides if cap == least]


def assert_search_route_matches_mip(aug, design):
    """Run the cut and bilevel oracles on the search route, and all three
    oracles on the MIP route.  Returns None on a survivable design, else how
    many minimum cuts the search's attack leaves."""
    cut = separate_cutset(aug, design)
    point = separate_bilevel(aug, design)
    cut_mip = separate_cutset(aug, design, brute_force_limit=0)
    scenario_mip = separate_scenario(aug, design, brute_force_limit=0)
    point_mip = separate_bilevel(aug, design, brute_force_limit=0)
    found = (cut, point, cut_mip, scenario_mip, point_mip)
    values = [None if v is None else v.value for v in found]
    assert len(set(values)) == 1, values
    if cut is None:
        assert brute_attack_value(aug, design) >= aug.demand
        return None
    value = cut.value
    assert value == brute_attack_value(aug, design) < aug.demand
    for violation in (cut, cut_mip):
        assert cut_residual(aug, violation.cut, design) == value
    # the MIP route also answers from one attack and its back cut: the
    # scenario fails the point's attacked arcs and leaves exactly the value
    failed = scenario_mip.scenario.arcs
    candidates = [
        a for a in design.selected
        if not aug.is_fictive(a) and a not in design.protected
    ]
    assert len(failed) == min(aug.k, len(candidates))
    assert max_flow(aug, design.mask(aug, failed)).value == value
    assert failed == point_mip.point.failed
    assert cut_mip.cut.sink_side == point_mip.point.cut.sink_side
    for violation in (point, point_mip):
        p = violation.point
        assert_attacker_vertex(aug, p)
        row = point_row_value(aug, design.selected, design.protected, p.lam, p.gam, p.ell)
        assert row == value
    # both search answers come from one attack and its back cut: the
    # smallest sink side of every minimum cut of the attacked network
    attack = point.point.failed
    assert len(attack) <= aug.k
    assert cut.cut.sink_side == point.point.cut.sink_side
    least, sides = minimum_sink_sides(aug, design.mask(aug, failed=attack))
    assert least == value
    assert cut.cut.sink_side in sides
    assert all(cut.cut.sink_side <= side for side in sides)
    return len(sides)


def test_search_route_matches_mip_on_seeded_cases():
    seen = set()
    for seed in range(40):
        aug, design = attack_case(random.Random(500 + seed))
        minimum_cuts = assert_search_route_matches_mip(aug, design)
        if minimum_cuts is None:
            seen.add("survivable")
        else:
            seen.add("one minimum cut" if minimum_cuts == 1 else "several minimum cuts")
            if design.protected:
                seen.add("protected arcs")
    assert seen == {
        "survivable", "one minimum cut", "several minimum cuts", "protected arcs",
    }


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_search_route_matches_mip(rng):
    aug, design = attack_case(rng)
    assert_search_route_matches_mip(aug, design)


def test_strengthen_keeps_violation_valid():
    aug = tri_aug(k=1, kp=0)
    weak = Design.canonical(aug, [1])
    violation = separate_bilevel(aug, weak)
    assert violation is not None
    better = strengthen(aug, weak, violation)
    row = point_row_value(
        aug, weak.selected, weak.protected, better.point.lam,
        better.point.gam, better.point.ell,
    )
    assert row < aug.demand
    assert better.value < aug.demand


def _bound_weights(aug, design) -> list[tuple[int, ...]]:
    """The weights of strengthen's min cuts, one vector per θ in order: 4 on
    every arc and 4θ on each attack candidate."""
    candidates = set(design.attack_candidates(aug))
    return [
        tuple(q if a in candidates else 4 for a in range(aug.arc_count))
        for q in separation.CANDIDATE_QUARTERS
    ]


def test_strengthen_solves_at_most_one_mip_and_only_the_bounds_flows(monkeypatch):
    # strengthen runs no oracle, at most one strengthening MIP, and max flows
    # only under the bound's weights, in θ order, each started from the one
    # before; when λ - k settles the call it runs neither
    solved, flows = [], []

    def counting_solve_mip(model, **kwargs):
        solved.append(model.name)
        return solve_mip(model, **kwargs)

    def counting_max_flow(aug, mask, start=None):
        res = max_flow(aug, mask, start=start)
        flows.append((mask.capacities, start, res))
        return res

    def forbidden(*args, **kwargs):
        raise AssertionError("strengthen ran an oracle")

    cases = [(aug, design, separate_bilevel(aug, design))
             for aug, design in map(seeded_case, range(200, 260))]
    monkeypatch.setattr(separation, "solve_mip", counting_solve_mip)
    monkeypatch.setattr(separation, "max_flow", counting_max_flow)
    for name in ("separate_cutset", "separate_scenario", "separate_bilevel"):
        monkeypatch.setattr(separation, name, forbidden)
    seen = set()
    for aug, design, violation in cases:
        if violation is None:
            continue
        solved.clear()
        flows.clear()
        strengthen(aug, design, violation)
        assert solved in ([], ["cut_strengthening"])
        weights = _bound_weights(aug, design)
        assert [w for w, _, _ in flows] == weights[: len(flows)]
        starts = [s for _, s, _ in flows]
        assert starts == [None, *(r for _, _, r in flows)][: len(flows)]
        if aug.arc_connectivity - aug.k >= sum(violation.point.lam):
            assert solved == [] and flows == []
            seen.add("λ")
        elif solved:
            assert len(flows) == len(weights)
            seen.add("mip")
        else:
            seen.add("bound")
    assert seen == {"λ", "mip", "bound"}


def _fewest_cut_arcs(aug) -> int:
    """The fewest arcs entering any sink side, by enumeration."""
    others = [v for v in range(aug.vertex_count) if v not in (aug.root, aug.sink)]
    return min(
        len(CutSet.from_sink_side(aug, {aug.sink, *side}).arcs)
        for size in range(len(others) + 1)
        for side in itertools.combinations(others, size)
    )


def test_arc_connectivity_counts_arcs_not_capacity():
    # the triangle's one fictive arc is a cut of one arc
    assert tri_aug().arc_connectivity == 1
    # two arcs in parallel from the root count as two, whatever their
    # capacities: 5 counts once, and 0 counts too
    arcs = (Arc(0, 1, 1.0, 5), Arc(0, 2, 1.0, 0), Arc(1, 2, 1.0, 1))
    aug = augment(Instance(3, arcs, root=0, terminals=(1, 2), k=1, kp=0))
    assert aug.arc_connectivity == 2 == _fewest_cut_arcs(aug)
    for seed in range(200, 230):
        aug, _ = seeded_case(seed)
        assert aug.arc_connectivity == _fewest_cut_arcs(aug)


def test_strengthen_skips_the_mip_when_no_cut_can_be_sparser(monkeypatch):
    # a cut crosses at least arc_connectivity arcs and an attack writes off
    # at most k of them: when that leaves the violation's lam count or more,
    # strengthen hands the violation back with no max flow and no MIP; the
    # weighted min cuts skip it too, handing back the violation or their
    # sparsest failing cut, once their bound reaches its lam count.  Every
    # skip is proven by the MIP: under the cutoff of the lam count handed
    # back, it is Infeasible
    built, flows = [], []

    def counting_solve_mip(model, **kwargs):
        built.append(model.name)
        return solve_mip(model, **kwargs)

    def counting_max_flow(*args, **kwargs):
        flows.append(args)
        return max_flow(*args, **kwargs)

    monkeypatch.setattr(separation, "solve_mip", counting_solve_mip)
    monkeypatch.setattr(separation, "max_flow", counting_max_flow)
    skipped, solved = set(), 0
    for seed in range(200, 260):
        aug, design = seeded_case(seed)
        violation = separate_bilevel(aug, design)
        if violation is None:
            continue
        lam_count = sum(violation.point.lam)
        built.clear()
        flows.clear()
        out = strengthen(aug, design, violation)
        if aug.arc_connectivity - aug.k >= lam_count:
            assert built == [] and flows == [] and out is violation
            skipped.add("λ")
        elif built:
            solved += 1
            assert built == ["cut_strengthening"]
            continue
        else:
            skipped.add("input" if out is violation else "cut")
        search = build_strengthening(aug, design)
        res = solve_mip(search.model, cutoff=sum(out.point.lam))
        assert res.status == SolveStatus.INFEASIBLE
    assert skipped == {"λ", "input", "cut"} and solved


def test_strengthened_point_is_a_sparsest_failing_cut():
    # the MIP under the violation's own lam count as its cutoff gives the
    # fewest lam arcs of any failing cut's vertex, and strengthen returns a
    # vertex with exactly that many, of a failing cut whose row value is the
    # capacity that cut keeps; with nothing sparser the violation comes
    # back as it was
    seen = set()
    for seed in range(200, 220):
        aug, design = seeded_case(seed)
        violation = separate_bilevel(aug, design)
        if violation is None:
            continue
        search = build_strengthening(aug, design)
        lams = sum(violation.point.lam)
        res = solve_mip(search.model, cutoff=lams)
        better = strengthen(aug, design, violation)
        if res.status == SolveStatus.INFEASIBLE:
            seen.add("nothing sparser")
            assert better is violation
            continue
        seen.add("sparser")
        assert res.status == SolveStatus.OPTIMAL
        cut = search.cut_from(res.values)
        assert res.objective == vertex_lam_count(aug, design, cut) < lams
        assert sum(better.point.lam) == res.objective
        assert sum(better.point.lam) == vertex_lam_count(aug, design, better.point.cut)
        assert_attacker_vertex(aug, better.point)
        assert better.point.failed == set(worst_subset(aug, better.point.cut, design))
        row = point_row_value(
            aug, design.selected, design.protected, better.point.lam,
            better.point.gam, better.point.ell,
        )
        value = cut_residual(aug, better.point.cut, design)
        assert better.value == value == row < aug.demand
    assert seen == {"nothing sparser", "sparser"}


def test_strengthen_agrees_with_the_mip_on_every_route(monkeypatch):
    # the MIP alone, under the violation's lam count as its cutoff, decides
    # strengthen's answer: the lam count returned is its optimum, and the
    # violation comes back exactly when it is Infeasible; the weighted min
    # cuts settle some calls and leave the MIP the others
    called = []

    def counting_solve_mip(model, **kwargs):
        called.append(kwargs["cutoff"])
        return solve_mip(model, **kwargs)

    monkeypatch.setattr(separation, "solve_mip", counting_solve_mip)
    routes = set()
    for seed in range(200, 260):
        aug, design = seeded_case(seed)
        violation = separate_bilevel(aug, design)
        if violation is None:
            continue
        lams = sum(violation.point.lam)
        called.clear()
        better = strengthen(aug, design, violation)
        res = solve_mip(build_strengthening(aug, design).model, cutoff=lams)
        if res.status == SolveStatus.INFEASIBLE:
            assert better is violation
        else:
            assert res.status == SolveStatus.OPTIMAL
            assert better is not violation
            assert sum(better.point.lam) == res.objective
        assert len(called) <= 1 and all(c <= lams for c in called)
        routes.add("mip" if called else "bound")
    assert routes == {"mip", "bound"}


def _vertex_lam_counts(aug, design):
    """The weight of every sink side's cut in quarters under each θ's
    weights, and the lam count of its vertex, by enumeration."""
    weights = _bound_weights(aug, design)
    others = [v for v in range(aug.vertex_count) if v not in (aug.root, aug.sink)]
    for size in range(len(others) + 1):
        for side in itertools.combinations(others, size):
            cut = CutSet.from_sink_side(aug, {aug.sink, *side})
            yield (
                [sum(w[a] for a in cut.arcs) for w in weights],
                vertex_lam_count(aug, design, cut),
            )


def test_weighted_min_cut_bounds_every_vertex_lam_count():
    # each θ's max flow is the least weight of any cut, and ⌈λ_θ - θk⌉ is
    # at most the lam count of every cut's vertex, failing or not
    bounded = 0
    for seed in range(200, 240):
        aug, design = seeded_case(seed)
        rows = list(_vertex_lam_counts(aug, design))
        fewest = min(lams for _, lams in rows)
        bounds = list(separation._weighted_min_cuts(aug, design))
        assert len(bounds) == len(separation.CANDIDATE_QUARTERS)
        for j, (low, mask, flow) in enumerate(bounds):
            quarter = separation.CANDIDATE_QUARTERS[j]
            assert flow.value == min(weight[j] for weight, _ in rows)
            assert low == math.ceil((flow.value - quarter * aug.k) / 4)
            assert low <= fewest
        bounded += max(low for low, _, _ in bounds) == fewest
        assert max(aug.arc_connectivity - aug.k, 0) <= fewest
    assert bounded


def test_strengthen_returns_the_input_or_a_strictly_sparser_vertex():
    replaced = 0
    for seed in range(200, 260):
        aug, design = seeded_case(seed)
        violation = separate_bilevel(aug, design)
        if violation is None:
            continue
        better = strengthen(aug, design, violation)
        if better is not violation:
            replaced += 1
            assert sum(better.point.lam) < sum(violation.point.lam)
    assert replaced


def stub_solve_mip(monkeypatch, status, objective=None, values=None):
    def solve(model, **kwargs):
        return SolveResult(status, objective, values)

    monkeypatch.setattr(separation, "solve_mip", solve)


def test_strengthen_out_of_time_returns_the_violation(monkeypatch):
    aug = tri_aug(k=1, kp=0)
    weak = Design.canonical(aug, [1])
    violation = separate_bilevel(aug, weak)
    stub_solve_mip(monkeypatch, SolveStatus.FEASIBLE)
    assert strengthen(aug, weak, violation, deadline=time.perf_counter()) is violation
    # INFEASIBLE under the cutoff: no failing cut is sparser than the input
    stub_solve_mip(monkeypatch, SolveStatus.INFEASIBLE)
    assert strengthen(aug, weak, violation) is violation


def _case_reaching_the_mip(monkeypatch, found):
    """The first seeded case whose strengthen call solves its MIP with a
    result that ``found`` accepts: the case, its violation, that MIP and
    the cutoff and result strengthen solved it with."""
    calls = []

    def recording_solve_mip(model, **kwargs):
        res = solve_mip(model, **kwargs)
        calls.append((kwargs["cutoff"], res))
        return res

    with monkeypatch.context() as patch:
        patch.setattr(separation, "solve_mip", recording_solve_mip)
        for seed in range(200, 260):
            aug, design = seeded_case(seed)
            violation = separate_bilevel(aug, design)
            if violation is None:
                continue
            calls.clear()
            strengthen(aug, design, violation)
            if calls and found(calls[0][1]):
                search = build_strengthening(aug, design)
                return aug, design, violation, search, *calls[0]
    pytest.fail("no seeded case solves such a strengthening MIP")


def test_strengthen_out_of_time_keeps_the_incumbent(monkeypatch):
    # a FEASIBLE result with values holds a cut whose vertex is strictly
    # sparser than the best one so far, which is taken over it
    aug, design, violation, search, cutoff, res = _case_reaching_the_mip(
        monkeypatch, lambda res: res.status == SolveStatus.OPTIMAL
    )
    cut = search.cut_from(res.values)
    assert vertex_lam_count(aug, design, cut) < cutoff
    stub_solve_mip(monkeypatch, SolveStatus.FEASIBLE, res.objective, res.values)
    better = strengthen(aug, design, violation, deadline=time.perf_counter())
    assert better is not violation
    assert better.point.cut.sink_side == cut.sink_side
    assert sum(better.point.lam) == vertex_lam_count(aug, design, cut)
    assert_attacker_vertex(aug, better.point)
    assert better.value == cut_residual(aug, cut, design) < aug.demand
    # the cut search MIP, by contrast, must return the worst attack, so an
    # incumbent is not enough there
    with pytest.raises(SeparationTimeout):
        separate_bilevel(aug, design, brute_force_limit=0)


def test_strengthen_raises_on_a_vertex_that_is_not_sparser(monkeypatch):
    # the MIP's value for a cut is its vertex's lam count, so a cut under
    # the cutoff whose vertex is no sparser breaks the model: a solver
    # stubbed to return the violation's own cut, which is no sparser than
    # the cutoff, must not pass unnoticed
    aug, design, violation, search, cutoff, _ = _case_reaching_the_mip(
        monkeypatch, lambda res: True
    )
    assert vertex_lam_count(aug, design, violation.point.cut) >= cutoff
    values = np.zeros(search.model.num_vars)
    for v in range(aug.vertex_count):
        if v not in violation.point.cut.sink_side:
            values[search.mu_var[v]] = 1.0
    assert search.cut_from(values) == violation.point.cut
    stub_solve_mip(monkeypatch, SolveStatus.OPTIMAL, 0.0, values)
    with pytest.raises(SeparationError, match="not strictly sparser"):
        strengthen(aug, design, violation)


def test_strengthen_without_a_failing_cut_raises(monkeypatch):
    # a point that does not cut off the design has nothing to strengthen:
    # the vertex that breaks the one-arc design is no violation of the full
    # one, which survives every attack
    aug = tri_aug(k=1, kp=0)
    violation = separate_bilevel(aug, Design.canonical(aug, [1]))
    full = Design.canonical(aug, range(3))
    assert separate_bilevel(aug, full) is None

    def forbidden(*args, **kwargs):
        raise AssertionError("strengthen solved a MIP for a non-violating point")

    monkeypatch.setattr(separation, "solve_mip", forbidden)
    with pytest.raises(SeparationError):
        strengthen(aug, full, violation)


@pytest.mark.parametrize("seed", range(10))
def test_strengthened_rows_still_cut_off_the_design(seed):
    aug, design = seeded_case(200 + seed)
    violation = separate_bilevel(aug, design)
    if violation is None:
        return
    better = strengthen(aug, design, violation)
    row = point_row_value(
        aug, design.selected, design.protected, better.point.lam,
        better.point.gam, better.point.ell,
    )
    assert row < aug.demand
