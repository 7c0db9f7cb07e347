"""Graph model, masks, cuts, and the max-flow kernel."""

import ast
import doctest
import random
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    brute_min_cut_value,
    cut_capacity,
    deep_path,
    lp_max_flow,
    triangle,
)
from cprsnp import graph, separation
from cprsnp.graph import (
    MAX_CAPACITY,
    MAX_COST,
    Arc,
    ArcMask,
    CutSet,
    FlowResult,
    GraphError,
    Instance,
    augment,
    back_cut,
    max_flow,
    min_cut,
)
from cprsnp.instances import generate


def test_module_docstring_example_runs():
    result = doctest.testmod(graph)
    assert result.failed == 0
    assert result.attempted >= 3


def test_the_max_flow_and_the_attack_search_import_no_numpy():
    # masks and flows stay tuples of int from one end to the other, so no
    # call of the search converts to numpy and back
    for module in (graph, separation):
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
        assert "numpy" not in {name.split(".")[0] for name in imported}, module


def test_only_graph_checks_indices():
    # every set of arc or vertex indices passes graph.index_set, so no other
    # module reads is_index and no second check such as plain_arcs exists
    readers, defined = set(), set()
    for path in Path(graph.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            # a Name, an Attribute or an imported alias reads is_index
            read = {getattr(node, key, None) for key in ("id", "attr", "name")}
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif "is_index" in read:
                readers.add(path.name)
    assert readers == {"graph.py"}
    assert "index_set" in defined and "plain_arcs" not in defined


def test_instance_rejects_bad_structure():
    good = dict(root=0, terminals=(1,), k=0, kp=0)
    with pytest.raises(GraphError):
        Instance(2, (Arc(0, 0, 1, 1),), **good)
    with pytest.raises(GraphError):
        Instance(2, (Arc(0, 1, 1, 1), Arc(0, 1, 2, 1)), **good)
    with pytest.raises(GraphError):
        Instance(2, (Arc(0, 3, 1, 1),), **good)
    with pytest.raises(GraphError):
        Instance(2, (Arc(0, 1, -1, 1),), **good)
    with pytest.raises(GraphError):
        Instance(2, (Arc(0, 1, 1, -2),), **good)
    Instance(2, (Arc(0, 1, 1, MAX_CAPACITY),), **good)
    with pytest.raises(GraphError, match="exceeds"):
        Instance(2, (Arc(0, 1, 1, MAX_CAPACITY + 1),), **good)
    Instance(2, (Arc(0, 1, MAX_COST, 1),), **good)
    for cost in (MAX_COST + 1, 1e21):
        with pytest.raises(GraphError, match="exceeds"):
            Instance(2, (Arc(0, 1, cost, 1),), **good)
    for bad in (float("nan"), float("inf"), "1", None, 1j):
        with pytest.raises(GraphError):
            Instance(2, (Arc(0, 1, bad, 1),), **good)
        with pytest.raises(GraphError):
            Instance(2, (Arc(0, 1, 1, bad),), **good)
    with pytest.raises(GraphError):
        Instance(2, (Arc(0, 1, 1, 1),), root=0, terminals=(0,), k=0, kp=0)
    with pytest.raises(GraphError):
        Instance(2, (Arc(0, 1, 1, 1),), root=0, terminals=(1, 1), k=0, kp=0)
    with pytest.raises(GraphError):
        Instance(2, (Arc(0, 1, 1, 1),), root=0, terminals=(1,), k=1, kp=1)
    # vertex numbers, the vertex count and the budgets are integers
    arcs = (Arc(0, 1, 1, 1), Arc(0, 2, 1, 1), Arc(1, 2, 1, 1))
    fields = dict(vertex_count=3, arcs=arcs, root=0, terminals=(2,), k=0, kp=0)
    for bad in (
        dict(k=1.5),
        dict(kp=0.5),
        dict(root=0.0),
        dict(terminals=(2.0,)),
        dict(terminals=(1, "2")),
        dict(terminals=(2, None)),
        dict(vertex_count=3.0),
        dict(arcs=(Arc(0.0, 1, 1, 1),) + arcs[1:]),
        dict(arcs=arcs[:2] + (Arc(1, "2", 1, 1),)),
    ):
        with pytest.raises(GraphError):
            Instance(**{**fields, **bad})
    # bools and numpy integers are integers
    Instance(
        np.int64(3),
        (Arc(False, True, 1, 1), Arc(np.int64(0), 2, 1, 1), Arc(1, 2, 1, 1)),
        root=np.int32(0),
        terminals=(np.int64(2),),
        k=True,
        kp=np.int64(1),
    )


def test_instance_stores_one_type_per_field():
    inst = Instance(
        np.int64(3),
        (Arc(False, True, 1, 1), Arc(0, 2, 1, True), Arc(1, 2, 1, np.float64(2.0))),
        root=np.int32(0),
        terminals=(np.int64(2),),
        k=True,
        kp=np.int64(1),
    )
    numbers = (inst.vertex_count, inst.root, *inst.terminals, inst.k, inst.kp)
    assert {type(v) for v in numbers} == {int}
    fields = {tuple(map(type, (a.tail, a.head, a.cost, a.capacity))) for a in inst.arcs}
    assert fields == {(int, int, float, int)}
    assert inst.arcs[2] == Arc(1, 2, 1.0, 2)
    # an arc already in the stored types is kept as it is
    arc = Arc(0, 1, 1.0, 1)
    assert Instance(2, (arc,), 0, (1,), 0, 0).arcs[0] is arc


@pytest.mark.parametrize(
    "fields, place",
    [
        (dict(vertex_count=0), "vertex_count"),
        (dict(root=3), "root"),
        (dict(arcs=(Arc(0, 1, 1, 1), Arc(1, 1, 1, 1))), ("arc", 1)),
        (dict(arcs=(Arc(0, 1, 1, 1), Arc(0, 1, 2, 1))), ("arc", 1)),
        (dict(arcs=(Arc(0, 1, -1, 1), Arc(1, 2, 1, 1))), ("arc", 0)),
        (dict(arcs=(Arc(0, 1, 1, 1), Arc(1, 2, 1, 0.5))), ("arc", 1)),
        (dict(terminals=(2, 0)), ("terminal", 1)),
        (dict(terminals=(2, 1, 2)), ("terminal", 2)),
        (dict(terminals=(1, 5)), ("terminal", 1)),
        (dict(k=-1), "budgets"),
        (dict(k=2, kp=1), "budgets"),
    ],
)
def test_instance_fault_names_its_place(fields, place):
    good = dict(
        vertex_count=3,
        arcs=(Arc(0, 1, 1, 1), Arc(1, 2, 1, 1)),
        root=0,
        terminals=(2,),
        k=0,
        kp=0,
    )
    with pytest.raises(GraphError) as err:
        Instance(**{**good, **fields})
    assert err.value.place == place


def test_terminals_are_sorted():
    inst = Instance(
        4,
        (Arc(0, 1, 1, 1), Arc(0, 2, 1, 1), Arc(0, 3, 1, 1)),
        root=0,
        terminals=(3, 1),
        k=0,
        kp=0,
    )
    assert inst.terminals == (1, 3)


def test_augment_layout():
    aug = augment(triangle())
    assert aug.vertex_count == 4
    assert aug.sink == 3
    assert aug.demand == 1
    assert aug.initial_arc_count == 3
    assert list(aug.fictive_arcs) == [3]
    fict = aug.arcs[3]
    assert (fict.tail, fict.head, fict.cost, fict.capacity) == (2, 3, 0.0, 1)
    assert aug.is_fictive(3) and not aug.is_fictive(2)


def test_mask_validation():
    aug = augment(triangle())
    full = ArcMask.full(aug)
    assert full.capacities == (1, 1, 1, 1)
    with pytest.raises(GraphError):
        ArcMask(aug, np.array([2, 0, 0, 0]))
    with pytest.raises(GraphError):
        ArcMask(aug, np.array([-1, 0, 0, 0]))
    with pytest.raises(GraphError):
        ArcMask(aug, np.zeros(3, dtype=int))
    with pytest.raises(GraphError):
        ArcMask.for_design(aug, range(4), failed=[3])


def test_mask_stores_plain_ints():
    aug = augment(triangle())
    for caps in (np.array([1, 0, 1, 1]), [np.int64(1), False, 1, True], (1, 0, 1, 1)):
        mask = ArcMask(aug, caps)
        assert mask.capacities == (1, 0, 1, 1)
        assert {type(c) for c in mask.capacities} == {int}


@pytest.mark.parametrize("caps", [
    [1.5, 1, 1, 1],
    [1, 1, 1, "1"],
    [1.0, 1, 1, 1],
    [1, None, 1, 1],
    np.array([1.0, 1.0, 1.0, 1.0]),
    1,
], ids=repr)
def test_mask_rejects_a_capacity_that_is_not_an_integer(caps):
    # a float was truncated and a string accepted before the entries were
    # read as integers
    with pytest.raises(GraphError, match="integers"):
        ArcMask(augment(triangle()), caps)


@pytest.mark.parametrize("arcs", [
    {"selected": [7]},
    {"selected": [0, 2, 3], "failed": [9]},
    {"selected": [0, 2, 3], "failed": [-1]},
    {"selected": [0, 2, 3], "protected": [-1]},
])
def test_mask_for_design_rejects_unknown_arcs(arcs):
    aug = augment(triangle())
    (index,) = [i for given in arcs.values() for i in given if not 0 <= i < aug.arc_count]
    with pytest.raises(GraphError, match=f"unknown arc index {index}"):
        ArcMask.for_design(aug, **arcs)


def test_mask_for_design():
    aug = augment(triangle())
    mask = ArcMask.for_design(aug, {0, 2, 3})
    assert mask.capacities == (1, 0, 1, 1)
    failed = ArcMask.for_design(aug, {0, 2, 3}, failed=[2])
    assert failed.capacities == (1, 0, 0, 1)
    saved = ArcMask.for_design(aug, {0, 2, 3}, protected=[2], failed=[2])
    assert saved.capacities == (1, 0, 1, 1)


def test_mask_without_one_arc():
    aug = augment(triangle())
    mask = ArcMask.for_design(aug, {0, 2, 3})
    child = mask.without(2)
    assert child.capacities == (1, 0, 0, 1)
    # the parent keeps its vector: siblings are built from it later
    assert mask.capacities == (1, 0, 1, 1)
    assert mask.without(1).capacities == (1, 0, 1, 1)
    for arc in (-1, aug.arc_count):
        with pytest.raises(GraphError):
            mask.without(arc)


def test_mask_without_reads_its_arc_as_an_index():
    aug = augment(triangle())
    full = ArcMask.full(aug)
    # True is the index 1, as for is_index, not a boolean mask of every arc
    assert full.without(True).capacities == full.without(1).capacities == (1, 0, 1, 1)
    assert full.without(np.int64(2)).capacities == (1, 1, 0, 1)
    for arc in (1.0, 1.5, np.float64(1.0), "1", None):
        with pytest.raises(GraphError, match="unknown arc index"):
            full.without(arc)
    assert full.capacities == (1, 1, 1, 1)


def test_triangle_flow_values():
    aug = augment(triangle())
    assert max_flow(aug, ArcMask.full(aug)).value == 1
    # losing the middle arc leaves the direct path only
    half = ArcMask.for_design(aug, {1, 3})
    assert max_flow(aug, half).value == 1
    assert max_flow(aug, ArcMask.for_design(aug, {0, 2})).value == 0


def test_flow_conservation_and_bounds():
    aug = augment(triangle())
    res = max_flow(aug, ArcMask.full(aug))
    flow = res.flow
    assert all(0 <= f <= c for f, c in zip(flow, ArcMask.full(aug).capacities))
    for v in range(aug.vertex_count):
        if v in (aug.root, aug.sink):
            continue
        inflow = sum(flow[i] for i, a in enumerate(aug.arcs) if a.head == v)
        outflow = sum(flow[i] for i, a in enumerate(aug.arcs) if a.tail == v)
        assert inflow == outflow


def test_max_flow_on_a_path_deeper_than_the_recursion_limit():
    aug = augment(deep_path())
    res = max_flow(aug, ArcMask.full(aug))
    assert res.value == 1
    assert res.flow == (1,) * aug.arc_count
    assert min_cut(aug, ArcMask.full(aug)).arcs == (0,)


def test_cutset_from_sink_side():
    aug = augment(triangle())
    cut = CutSet.from_sink_side(aug, {2, 3})
    assert cut.arcs == (1, 2)
    assert cut_capacity(cut, ArcMask.full(aug)) == 2
    only_sink = CutSet.from_sink_side(aug, {3})
    assert only_sink.arcs == (3,)
    with pytest.raises(GraphError):
        CutSet.from_sink_side(aug, {2})
    with pytest.raises(GraphError):
        CutSet.from_sink_side(aug, {0, 3})


@pytest.mark.parametrize("vertex", [1.5, "x", None, 4, -1], ids=repr)
def test_cutset_rejects_what_is_no_vertex(vertex):
    # 1.5 lies between two vertices and was ignored, and "x" raised a bare
    # TypeError, while the side was checked by comparison alone
    aug = augment(triangle())
    with pytest.raises(GraphError, match="cut references unknown vertex"):
        CutSet.from_sink_side(aug, {vertex, aug.sink})


def _random_augmented(rng: random.Random):
    n = rng.randint(3, 7)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    rng.shuffle(pairs)
    count = rng.randint(n - 1, len(pairs))
    arcs = tuple(Arc(t, h, 1.0, rng.randint(0, 3)) for t, h in pairs[:count])
    terminals = tuple(rng.sample(range(1, n), rng.randint(1, n - 1)))
    inst = Instance(n, arcs, root=0, terminals=terminals, k=0, kp=0)
    return augment(inst)


@pytest.mark.parametrize("seed", range(40))
def test_max_flow_matches_lp_and_cut_enumeration(seed):
    rng = random.Random(seed)
    aug = _random_augmented(rng)
    caps = list(ArcMask.full(aug).capacities)
    for i in range(len(caps)):
        if rng.random() < 0.3:
            caps[i] = 0
    mask = ArcMask(aug, caps)
    value = max_flow(aug, mask).value
    assert value == pytest.approx(lp_max_flow(aug, mask), abs=1e-6)
    assert value == brute_min_cut_value(aug, mask)


@pytest.mark.parametrize("seed", range(20))
def test_min_cut_is_tight_and_valid(seed):
    rng = random.Random(100 + seed)
    aug = _random_augmented(rng)
    mask = ArcMask.full(aug)
    value = max_flow(aug, mask).value
    cut = min_cut(aug, mask)
    assert aug.sink in cut.sink_side and aug.root not in cut.sink_side
    assert cut_capacity(cut, mask) == value
    # the returned root side is the smallest: inside the root side of every
    # minimum cut, i.e. every minimum sink side lies inside the returned one
    others = [v for v in range(aug.vertex_count) if v not in (aug.root, aug.sink)]
    for bits in range(1 << len(others)):
        side = {aug.sink} | {v for i, v in enumerate(others) if bits >> i & 1}
        if cut_capacity(CutSet.from_sink_side(aug, side), mask) == value:
            assert side <= cut.sink_side


@pytest.mark.parametrize("seed", range(20))
def test_back_cut_is_tight_and_nearest_the_sink(seed):
    rng = random.Random(100 + seed)
    aug = _random_augmented(rng)
    caps = [0 if rng.random() < 0.3 else c for c in ArcMask.full(aug).capacities]
    mask = ArcMask(aug, caps)
    flow = max_flow(aug, mask)
    cut = back_cut(aug, mask, flow)
    assert aug.sink in cut.sink_side and aug.root not in cut.sink_side
    assert cut_capacity(cut, mask) == flow.value
    # the returned sink side is the smallest: inside every minimum sink side
    others = [v for v in range(aug.vertex_count) if v not in (aug.root, aug.sink)]
    for bits in range(1 << len(others)):
        side = {aug.sink} | {v for i, v in enumerate(others) if bits >> i & 1}
        if cut_capacity(CutSet.from_sink_side(aug, side), mask) == flow.value:
            assert cut.sink_side <= side


def test_back_cut_rejects_a_flow_that_is_not_maximal():
    aug = augment(triangle())
    mask = ArcMask.full(aug)
    empty = FlowResult(0, np.zeros(aug.arc_count, dtype=np.int64))
    with pytest.raises(GraphError):
        back_cut(aug, mask, empty)


def _assert_is_flow(aug, mask, res):
    """``res.flow`` fits the mask, conserves flow at every vertex but the
    root and the sink, and brings ``res.value`` to the sink."""
    flow = res.flow
    assert type(flow) is tuple and {type(f) for f in flow} <= {int}
    assert all(0 <= f <= c for f, c in zip(flow, mask.capacities))
    net = np.zeros(aug.vertex_count, dtype=np.int64)
    for i, a in enumerate(aug.arcs):
        net[a.head] += flow[i]
        net[a.tail] -= flow[i]
    assert net[aug.sink] == res.value == -net[aug.root]
    inner = [v for v in range(aug.vertex_count) if v not in (aug.root, aug.sink)]
    assert not net[inner].any()


def _assert_warm_start_matches_cold(aug, mask, start):
    warm = max_flow(aug, mask, start=start)
    cold = max_flow(aug, mask)
    assert warm.value == cold.value
    _assert_is_flow(aug, mask, warm)
    assert back_cut(aug, mask, warm) == back_cut(aug, mask, cold)
    return warm


def test_warm_start_matches_cold_max_flow_on_the_corpus(suite):
    rng = random.Random(21)
    for inst in suite:
        aug = augment(inst)
        full = ArcMask.full(aug)
        start = max_flow(aug, full)
        _assert_is_flow(aug, full, start)
        carrying = np.flatnonzero(start.flow).tolist()
        # one arc lowered below its flow, to zero as the attack search does
        # and to a random level, then several arcs at once
        for lowered in ([rng.choice(carrying)], [rng.choice(carrying)],
                        rng.sample(carrying, min(4, len(carrying)))):
            caps = list(full.capacities)
            for arc in lowered:
                caps[arc] = rng.randrange(start.flow[arc]) if rng.random() < 0.5 else 0
            _assert_warm_start_matches_cold(aug, ArcMask(aug, caps), start)


@pytest.mark.parametrize("seed", range(40))
def test_warm_start_from_other_capacities_matches_cold_dinic(seed):
    # the start is a max flow under one random mask, the target another:
    # arcs may rise as well as fall below the start's flow
    rng = random.Random(seed)
    aug = _random_augmented(rng)
    masks = []
    for _ in range(2):
        caps = [0 if rng.random() < 0.3 else c for c in ArcMask.full(aug).capacities]
        masks.append(ArcMask(aug, caps))
    _assert_warm_start_matches_cold(aug, masks[1], max_flow(aug, masks[0]))


@pytest.mark.parametrize("seed", range(16))
def test_max_flow_on_generated_networks_of_20_to_40_vertices(seed):
    # the shapes of 20-5-90 and 30-3-60 (uniform capacity 3), scaled to a
    # seeded vertex count, under a random mask: here a search that stops at
    # the sink skips most of the network
    rng = random.Random(seed)
    n = rng.randint(20, 40)
    if seed % 2:
        inst = generate(n, n // 10, 2 * n, "uniform", seed=seed, uniform_capacity=3)
    else:
        inst = generate(n, n // 4, 9 * n // 2, rng.choice(["uniform", "random"]),
                        seed=seed)
    aug = augment(inst)
    full = ArcMask.full(aug)
    caps = [0 if rng.random() < 0.3 else c for c in full.capacities]
    mask = ArcMask(aug, caps)
    cold = max_flow(aug, mask)
    assert cold.value == pytest.approx(lp_max_flow(aug, mask), abs=1e-6)
    _assert_is_flow(aug, mask, cold)
    # the attack search's warm start: the full max flow, one carrying arc
    # failed
    start = max_flow(aug, full)
    assert start.value == aug.demand
    carrying = [a for a in np.flatnonzero(start.flow).tolist() if not aug.is_fictive(a)]
    _assert_warm_start_matches_cold(aug, full.without(rng.choice(carrying)), start)


def _cycle_instance():
    """Root 0 feeds terminal 1 by arc 0; arcs 1 (1 -> 2) and 2 (2 -> 1) form
    a cycle through the terminal; arc 3 is the fictive arc 1 -> sink 3."""
    inst = Instance(3, (Arc(0, 1, 1, 1), Arc(1, 2, 1, 1), Arc(2, 1, 1, 1)),
                    root=0, terminals=(1,), k=0, kp=0)
    aug = augment(inst)
    # one unit to the sink and one around the cycle
    return aug, FlowResult(1, np.array([1, 1, 1, 1], dtype=np.int64))


def _assert_warm_result(aug, mask, start, value, flow):
    warm = _assert_warm_start_matches_cold(aug, mask, start)
    assert (warm.value, list(warm.flow)) == (value, flow)


def test_warm_start_re_routes_the_lowered_arcs_flow_around_a_cycle():
    aug, start = _cycle_instance()
    # the unit on arc 1 re-routes from its tail 1 to its head 2 against the
    # cycle's arc 2, which cancels the cycle; the unit to the sink stays
    _assert_warm_result(aug, ArcMask(aug, np.array([1, 0, 1, 1])), start, 1, [1, 0, 0, 1])


def test_warm_start_returns_the_lowered_arcs_flow_to_the_root_and_the_sink():
    aug, start = _cycle_instance()
    # nothing leads from the root to terminal 1 but arc 0: its unit returns
    # to the root and from the sink, and the cycle stays
    _assert_warm_result(aug, ArcMask(aug, np.array([0, 1, 1, 1])), start, 0, [0, 1, 1, 0])


@pytest.mark.parametrize("caps, value, flow", [
    # both arcs of the cycle: re-routing arc 1's unit cancels arc 2's
    ([1, 0, 0, 1], 1, [1, 0, 0, 1]),
    # arc 0 and the fictive arc: returning arc 0's unit from the sink
    # cancels the fictive arc's
    ([0, 1, 1, 0], 0, [0, 1, 1, 0]),
], ids=["cycle", "fictive"])
def test_warm_start_re_reads_an_excess_that_an_earlier_arc_took(caps, value, flow):
    aug, start = _cycle_instance()
    _assert_warm_result(aug, ArcMask(aug, np.array(caps)), start, value, flow)


@pytest.mark.parametrize("seed", range(12))
def test_chained_warm_starts_match_cold_max_flows(seed):
    # the attack search at depth k: each child fails one more arc that its
    # parent's max flow carries and starts from that warm max flow; on the
    # sparse shape (odd seeds) some flow cannot re-route and returns
    rng = random.Random(seed)
    n = rng.randint(20, 40)
    if seed % 2:
        inst = generate(n, n // 10, 2 * n, "uniform", seed=seed, uniform_capacity=3)
    else:
        inst = generate(n, n // 4, 9 * n // 2, rng.choice(["uniform", "random"]),
                        seed=seed)
    aug = augment(inst)
    mask = ArcMask.full(aug)
    flow = max_flow(aug, mask)
    for _ in range(3):
        carrying = [a for a in np.flatnonzero(flow.flow).tolist() if not aug.is_fictive(a)]
        if not carrying:
            break
        mask = mask.without(rng.choice(carrying))
        flow = _assert_warm_start_matches_cold(aug, mask, flow)


@pytest.mark.parametrize("seed", range(6))
def test_warm_start_changes_neither_its_start_nor_the_mask(seed):
    # the attack search hands a parent's flow to a child unchanged when the
    # child's failed arc carries none of it, and starts its siblings from the
    # same flow, so a warm start must leave both its inputs as they were
    rng = random.Random(seed)
    n = rng.randint(20, 40)
    inst = generate(n, n // 10, 2 * n, "uniform", seed=seed, uniform_capacity=3)
    aug = augment(inst)
    full = ArcMask.full(aug)
    start = max_flow(aug, full)
    kept = (start.value, list(start.flow))
    for arc in [a for a, f in enumerate(start.flow) if f and not aug.is_fictive(a)]:
        mask = full.without(arc)
        caps = list(mask.capacities)
        warm = max_flow(aug, mask, start=start)
        assert (start.value, list(start.flow)) == kept
        assert list(mask.capacities) == caps
        assert warm.flow is not start.flow and warm.flow[arc] == 0
    assert full.capacities == tuple(a.capacity for a in aug.arcs)


def test_flow_result_stores_plain_ints():
    res = FlowResult(1, np.array([1, 0, 1, 1]))
    assert res.flow == (1, 0, 1, 1) and {type(f) for f in res.flow} == {int}
    assert res == FlowResult(1, [1, 0, True, np.int64(1)])
    for flow in ([1.5, 0, 1, 1], [1, 0, "1", 1], np.array([1.0, 0.0, 1.0, 1.0])):
        with pytest.raises(GraphError, match="integers"):
            FlowResult(1, flow)


def test_warm_start_rejects_what_is_not_a_flow_of_the_network():
    aug, _ = _cycle_instance()
    mask = ArcMask(aug, np.array([0, 1, 1, 1]))
    with pytest.raises(GraphError, match="length"):
        max_flow(aug, mask, start=FlowResult(1, np.ones(3, dtype=np.int64)))
    # arc 0 carries a unit that goes nowhere
    stray = FlowResult(0, np.array([1, 0, 0, 0], dtype=np.int64))
    with pytest.raises(GraphError, match="not a flow"):
        max_flow(aug, mask, start=stray)
    aug = augment(triangle())
    full = ArcMask.full(aug)
    # the zero flow with a value of 5, and a flow with negative entries
    for start in (FlowResult(5, np.zeros(4, dtype=np.int64)),
                  FlowResult(0, np.array([-1, 0, -1, 0], dtype=np.int64))):
        with pytest.raises(GraphError, match="not a flow"):
            max_flow(aug, full, start=start)


class _CountingLayout:
    """Forwards to a layout and counts the attribute reads."""

    def __init__(self, layout):
        self.layout, self.reads = layout, 0

    def __getattr__(self, name):
        self.reads += 1
        return getattr(self.layout, name)


def test_flows_and_cuts_read_the_instance_layout():
    inst = triangle()
    aug = augment(inst)
    assert "layout" not in vars(aug)  # built on first use
    mask = ArcMask.full(aug)
    layout = aug.layout
    spy = _CountingLayout(layout)
    vars(aug)["layout"] = spy
    for call in (max_flow, max_flow, min_cut):
        reads = spy.reads
        call(aug, mask)
        assert spy.reads > reads
    assert aug.layout is spy
    assert max_flow(aug, mask).value == 1
    assert min_cut(aug, mask).sink_side == {3}
    vars(aug)["layout"] = layout
    fresh = augment(inst)
    assert aug == fresh and hash(aug) == hash(fresh) and repr(aug) == repr(fresh)
    assert "layout" not in vars(fresh)


def test_layout_lists_arcs_and_residual_edges():
    layout = augment(triangle()).layout
    assert layout.out_arcs == ((0, 1), (2,), (3,), ())
    assert layout.in_arcs == ((), (0,), (1, 2), (3,))
    assert layout.edges == (
        ((0, 1), (2, 2)), ((1, 0), (4, 2)), ((3, 0), (5, 1), (6, 3)), ((7, 2),)
    )
    assert layout.to == (1, 0, 2, 0, 2, 1, 3, 2)
    # a tuple of int: read-only like the instance it belongs to
    assert layout.capacities == (1, 1, 1, 1)
    assert {type(c) for c in layout.capacities} == {int}
    assert layout.fictive_set == frozenset({3})
