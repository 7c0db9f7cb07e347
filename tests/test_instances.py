"""File formats and the random generator."""

from __future__ import annotations

import hashlib
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_design, triangle

from cprsnp import augment, graph, instances
from cprsnp.formulations import Design
from cprsnp.graph import (
    MAX_ARCS,
    MAX_CAPACITY,
    MAX_VERTICES,
    Arc,
    ArcMask,
    GraphError,
    Instance,
    max_flow,
)
from cprsnp.instances import (
    FORMAT_NAME,
    GenerationError,
    ParseError,
    generate,
    instance_label,
    load_instance,
    parse_design,
    parse_instance,
    save_instance,
    write_design,
    write_instance,
)


# ---------------------------------------------------------------------------
# instance files


def test_triangle_round_trip():
    inst = triangle(k=1, kp=1)
    again = parse_instance(write_instance(inst))
    assert again == inst


def test_write_instance_layout():
    text = write_instance(triangle(k=1, kp=0))
    assert text.splitlines() == [
        "p cprsnp 3 3",
        "r 1",
        "t 3",
        "a 1 2 1 1",
        "a 1 3 2 1",
        "a 2 3 1 1",
        "b 1 0",
    ]


def test_round_trip_of_bool_and_numpy_fields():
    # Instance stores plain integers and float costs, so the file shows
    # numbers the reader takes
    inst = Instance(
        np.int64(3),
        (Arc(False, True, 1, 1), Arc(0, 2, 1, True), Arc(1, 2, 1, np.float64(2.0))),
        root=np.int32(0),
        terminals=(np.int64(2),),
        k=True,
        kp=np.int64(1),
    )
    assert parse_instance(write_instance(inst)) == inst


def test_zero_arc_instance_round_trip():
    # Instance takes a network without arcs, and so does the p line
    inst = Instance(2, (), 0, (), 0, 0)
    text = write_instance(inst)
    assert text.splitlines()[0] == "p cprsnp 2 0"
    assert parse_instance(text) == inst


def test_comments_and_blank_lines_ignored():
    text = "c header\n\np cprsnp 2 1\nc mid\nr 1\nt 2\na 1 2 3 1\nb 0 0\n"
    inst = parse_instance(text)
    assert inst.vertex_count == 2
    assert inst.arcs[0].cost == 3.0


def test_save_and_load(tmp_path):
    inst = generate(6, 2, 12, "uniform", seed=3)
    path = tmp_path / "inst.txt"
    save_instance(inst, path)
    assert load_instance(path) == inst


@pytest.mark.parametrize(
    "text, line_no, needle",
    [
        ("r 1\np cprsnp 2 1\n", 1, "p line must come before"),
        ("p cprsnp 2 1\np cprsnp 2 1\n", 2, "duplicate p line"),
        ("p bad 2 1\nr 1\nb 0 0\n", 1, "expected 'p cprsnp"),
        ("p cprsnp 0 1\n", 1, "must be positive"),
        ("p cprsnp 2 -1\n", 1, "negative arc count -1"),
        ("p cprsnp 2 1\nr 1\na 1 2 1 1\nb 1 x\n", 4, "budget 'x' is not an integer"),
        ("p cprsnp 2 1\nr 1\nr 2\n", 3, "duplicate r line"),
        ("p cprsnp 2 1\nr 3\n", 2, "outside 1..2"),
        ("p cprsnp 2 1\nr 1\nt 2\nt 2\na 1 2 1 1\nb 0 0\n", 4, "duplicate terminal"),
        ("p cprsnp 2 1\nr 1\na 1 1 1 1\nb 0 0\n", 3, "self-loop"),
        (
            "p cprsnp 2 2\nr 1\na 1 2 1 1\na 1 2 2 1\nb 0 0\n",
            4,
            "parallel arc",
        ),
        ("p cprsnp 2 1\nr 1\na 1 2 -1 1\nb 0 0\n", 3, "negative cost"),
        (
            "p cprsnp 2 1\nr 1\na 1 2 1 1.5\nb 0 0\n",
            3,
            "capacity 1.5 is not an integer",
        ),
        ("p cprsnp 2 1\nr 1\na 1 2 1 2147483648\nb 0 0\n", 3, "exceeds 2147483647"),
        ("p cprsnp 2 1\nr 1\na 1 2 2147483648 1\nb 0 0\n", 3, "cost exceeds 2147483647"),
        ("p cprsnp 2 1\nr 1\na 1 2 1e21 1\nb 0 0\n", 3, "cost exceeds 2147483647"),
        ("p cprsnp 2 1\nr 1\na 1 2 x 1\nb 0 0\n", 3, "not a number"),
        ("p cprsnp 2 1\nr 1\na 1 2 1 1\nb -1 0\n", 4, "nonnegative"),
        ("p cprsnp 2 1\nr 1\na 1 2 1 1\nb 1 1\n", 4, "exceeds arc count 1"),
        ("p cprsnp 2 1\nr 1\nt 1\na 1 2 1 1\nb 0 0\n", 3, "root cannot be a"),
        ("p cprsnp 2 1\nr 1\na 1 2 1 1\nb 0 0\nb 0 0\n", 5, "duplicate b line"),
        ("p cprsnp 2 1\nr 1\na 1 2 1 1\nq 3\nb 0 0\n", 4, "unknown record"),
        ("r 1\n", 1, "p line must come before"),
        # whole-file complaints point just past the final line
        ("p cprsnp 2 1\na 1 2 1 1\nb 0 0\n", 4, "missing r line"),
        ("p cprsnp 2 1\nr 1\na 1 2 1 1\n", 4, "missing b line"),
        ("p cprsnp 2 2\nr 1\na 1 2 1 1\nb 0 0\n", 5, "promises 2 arcs"),
        # a form feed breaks a line for the records and for the end alike
        ("p cprsnp 2 1\x0cr 1\na 1 2 1 1\n", 4, "missing b line"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line_no, needle):
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert err.value.line_no == line_no
    assert needle in str(err.value)


def test_budget_exceeding_arcs_rejected():
    # two arcs cannot absorb k + kp = 3
    text = "p cprsnp 3 2\nr 1\nt 3\na 1 2 1 1\na 2 3 1 1\nb 2 1\n"
    with pytest.raises(ParseError, match="exceeds arc count"):
        parse_instance(text)


def test_vertex_count_above_the_bound_rejected_at_the_p_line():
    # a 45-byte file asking for 2e9 vertices; per-vertex lists that large
    # would exhaust memory
    text = "p cprsnp 2000000000 1\nr 1\nt 2\na 1 2 1 1\nb 0 0\n"
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert err.value.line_no == 1
    assert f"vertex count 2000000000 exceeds {MAX_VERTICES}" in str(err.value)
    with pytest.raises(GraphError, match=f"exceeds {MAX_VERTICES}"):
        Instance(2_000_000_000, (), 0, (1,), 0, 0)


def test_arc_count_above_the_bound_rejected():
    # the p line alone asks for more arcs than capacity sums stay exact for
    text = f"p cprsnp 3 {MAX_ARCS + 1}\nr 1\nt 2\na 1 2 1 1\nb 0 0\n"
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert err.value.line_no == 1
    assert f"arc count {MAX_ARCS + 1} exceeds {MAX_ARCS}" in str(err.value)
    # checked before the generator draws anything
    with pytest.raises(GenerationError, match=f"exceeds {MAX_ARCS}"):
        generate(2**16, 1, MAX_ARCS + 1)


def test_instance_rejects_more_arcs_than_the_bound(monkeypatch):
    monkeypatch.setattr(graph, "MAX_ARCS", 1)
    arcs = (Arc(0, 1, 1.0, 1), Arc(1, 2, 1.0, 1))
    with pytest.raises(GraphError, match="arc count 2 exceeds 1"):
        Instance(3, arcs, 0, (2,), 0, 0)
    assert Instance(3, arcs[:1], 0, (1,), 0, 0).arcs == arcs[:1]


def test_vertex_count_at_the_bound_parses():
    n = MAX_VERTICES
    text = f"p cprsnp {n} 1\nr 1\nt {n}\na 1 {n} 1 1\nb 0 0\n"
    inst = parse_instance(text)
    assert inst.vertex_count == n


def test_every_vertex_but_the_root_as_terminal_parses():
    # one t line per vertex but the root, the most a file can hold
    n = MAX_VERTICES
    lines = [f"p cprsnp {n} 0", "r 1"] + [f"t {v}" for v in range(n, 1, -1)]
    inst = parse_instance("\n".join(lines + ["b 0 0"]) + "\n")
    assert inst.terminals == tuple(range(1, n))


def test_missing_p_line_reported_at_end():
    with pytest.raises(ParseError, match="missing p line"):
        parse_instance("c only a comment\n")


# ---------------------------------------------------------------------------
# design files


def test_design_round_trip():
    aug = augment(triangle(k=1, kp=1))
    design = Design.canonical(aug, {0, 1, 2}, {1})
    text = write_design(design, aug)
    assert text == "y 1 2\ny 1 3\ny 2 3\np 1 3\n"
    assert parse_design(text, aug) == design


def test_design_rejects_unknown_arc():
    aug = augment(triangle(k=1, kp=0))
    with pytest.raises(ParseError, match="no arc 2 -> 1"):
        parse_design("y 2 1\n", aug)


def test_design_rejects_unprotectable_line():
    aug = augment(triangle(k=1, kp=1))
    with pytest.raises(ParseError, match="protected arcs must be selected"):
        parse_design("y 1 2\np 1 3\n", aug)


def test_design_whole_file_errors_counted_like_records():
    # the records sit on lines 1-3 (\u2028 breaks a line), so the end is line 4
    aug = augment(triangle(k=1, kp=1))
    with pytest.raises(ParseError) as err:
        parse_design("y 1 2\u2028c note\np 1 3\n", aug)
    assert err.value.line_no == 4
    assert "protected arcs must be selected" in str(err.value)


def test_design_respects_protection_budget():
    aug = augment(triangle(k=1, kp=0))
    with pytest.raises(ParseError, match="exceed the budget"):
        parse_design("y 1 2\ny 1 3\np 1 3\n", aug)


# ---------------------------------------------------------------------------
# generator


def test_generate_is_deterministic():
    a = generate(12, 4, 30, "random", seed=9, k=2, kp=1)
    b = generate(12, 4, 30, "random", seed=9, k=2, kp=1)
    assert write_instance(a) == write_instance(b)
    assert a != generate(12, 4, 30, "random", seed=10, k=2, kp=1)


# SHA-256 of write_instance over the conftest corpus, then 20-5-90 and 30-3-60
# (seed 7): the benchmark's recorded optima and acceptance 1 assume these
# instances never change
CORPUS_SHA256 = "77654896b75804874a0fb8686728af6e90b1fddc2b93437078cf0f69e6981d4a"


def test_generated_corpus_is_pinned(suite):
    large = [
        generate(20, 5, 90, "uniform", seed=7),
        generate(30, 3, 60, "uniform", seed=7, uniform_capacity=3),
    ]
    digest = hashlib.sha256()
    for inst in list(suite) + large:
        digest.update(write_instance(inst).encode())
    assert len(suite) == 54
    assert digest.hexdigest() == CORPUS_SHA256


def test_generate_requested_sizes():
    inst = generate(20, 5, 90, "uniform", seed=7)
    assert instance_label(inst) == "20-5-90"
    again = parse_instance(write_instance(inst))
    assert again.vertex_count == 20
    assert len(again.terminals) == 5
    assert len(again.arcs) == 90

    big = generate(25, 8, 120, "random", seed=1)
    assert (big.vertex_count, len(big.terminals), len(big.arcs)) == (25, 8, 120)


def test_generate_tree_only_never_lists_absent_pairs():
    # with arcs = nodes - 1 nothing is drawn from the ~2.2M absent vertex
    # pairs, so they must not be listed (about 200 MB as tuples)
    tracemalloc.start()
    try:
        inst = generate(1500, 1, 1499, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(inst.arcs) == 1499
    assert peak < 20e6


def test_generate_extra_arcs_never_list_absent_pairs():
    # one extra arc is drawn from the ~2.2M absent vertex pairs; drawing it
    # must not list them
    tracemalloc.start()
    try:
        inst = generate(1500, 1, 1500, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(inst.arcs) == 1500
    assert peak < 20e6


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_absent_pairs_read_like_their_list(data):
    # extra arcs are drawn as positions among the absent vertex pairs in
    # sorted order; with no terminal the pairs chosen before the draw are the
    # backbone alone, which every arc count draws alike
    nodes = data.draw(st.integers(2, 7))
    arcs = data.draw(st.integers(nodes - 1, nodes * (nodes - 1)))
    seed = data.draw(st.integers(0, 2**32))
    tree = generate(nodes, 0, nodes - 1, seed=seed)
    backbone = {(a.tail, a.head) for a in tree.arcs}
    pairs = [(i, j) for i in range(nodes) for j in range(nodes) if i != j]
    absent = [pair for pair in pairs if pair not in backbone]
    samples = []

    class Recorded(random.Random):
        def sample(self, population, k, **kwargs):
            state = self.getstate()
            drawn = super().sample(population, k, **kwargs)
            samples.append((state, population, drawn))
            return drawn

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(instances.random, "Random", Recorded)
        inst = generate(nodes, 0, arcs, seed=seed)
    got = {(a.tail, a.head) for a in inst.arcs}
    assert len(got) == arcs and backbone <= got
    extra = got - backbone
    if not extra:
        return
    state, population, drawn = samples[-1]
    assert population == range(len(absent)) and len(drawn) == len(extra)
    assert {absent[n] for n in drawn} == extra
    # random.sample reads positions as it reads the list, so the same state
    # draws the same pairs from the list itself
    rng = random.Random()
    rng.setstate(state)
    assert rng.sample(absent, len(drawn)) == [absent[n] for n in drawn]


@pytest.mark.parametrize("seed", range(8))
def test_generate_routes_demand_with_everything_built(seed):
    inst = generate(9, 3, 20, "random", seed=seed)
    aug = augment(inst)
    assert max_flow(aug, ArcMask.full(aug)).value >= len(inst.terminals)


def test_generate_capacity_modes():
    uniform = generate(10, 4, 24, "uniform", seed=2)
    assert {a.capacity for a in uniform.arcs} == {2}

    custom = generate(10, 4, 24, "uniform", seed=2, uniform_capacity=7)
    assert {a.capacity for a in custom.arcs} == {7}

    spread = generate(10, 4, 40, "random", seed=2)
    caps = {a.capacity for a in spread.arcs}
    assert caps <= set(range(1, 5)) and len(caps) > 1


def test_generate_costs_within_range(monkeypatch):
    monkeypatch.setattr(instances, "COST_RANGE", (5, 6))
    inst = generate(10, 3, 30, "random", seed=4)
    assert {a.cost for a in inst.arcs} <= {5.0, 6.0}


@pytest.mark.parametrize(
    "kwargs, needle",
    [
        (dict(nodes=1, terminals=0, arcs=0), "at least two vertices"),
        (dict(nodes=4, terminals=4, arcs=8), "terminal count"),
        (dict(nodes=4, terminals=2, arcs=2), "at least nodes-1 arcs"),
        (dict(nodes=4, terminals=2, arcs=13), "ordered vertex pairs"),
        (dict(nodes=4, terminals=2, arcs=8, capacity_mode="lumpy"), "capacity mode"),
        (dict(nodes=4, terminals=2, arcs=4, k=3, kp=2), "exceeds the arc count"),
        # checked before drawing, so the message names no arc
        (
            dict(nodes=3, terminals=1, arcs=3, uniform_capacity=-2),
            "^uniform capacity -2 must be in 0..2147483647$",
        ),
        (
            dict(nodes=3, terminals=1, arcs=3, uniform_capacity=MAX_CAPACITY + 1),
            "^uniform capacity 2147483648 must be in 0..2147483647$",
        ),
        (
            dict(nodes=MAX_VERTICES + 1, terminals=1, arcs=MAX_VERTICES),
            f"^vertex count {MAX_VERTICES + 1} exceeds {MAX_VERTICES}$",
        ),
    ],
)
def test_generate_rejects_bad_parameters(kwargs, needle):
    with pytest.raises(GenerationError, match=needle):
        generate(**kwargs)


@pytest.mark.parametrize("capacity", [0, MAX_CAPACITY])
def test_generate_accepts_a_uniform_capacity_at_its_bounds(capacity):
    inst = generate(4, 0, 5, uniform_capacity=capacity)
    assert {a.capacity for a in inst.arcs} == {capacity}


def test_instance_label():
    assert instance_label(triangle(k=1, kp=0)) == "3-1-3"


# ---------------------------------------------------------------------------
# randomized round trips


@settings(max_examples=40, deadline=None)
@given(
    nodes=st.integers(2, 9),
    terminals=st.integers(0, 8),
    extra=st.integers(0, 20),
    mode=st.sampled_from(["uniform", "random"]),
    seed=st.integers(0, 10_000),
)
def test_instance_text_round_trip(nodes, terminals, extra, mode, seed):
    assume(terminals < nodes)
    arcs = min(nodes - 1 + extra, nodes * (nodes - 1))
    try:
        inst = generate(nodes, terminals, arcs, mode, seed=seed, k=1, kp=0)
    except GenerationError:
        assume(False)
    text = write_instance(inst)
    again = parse_instance(text)
    assert again == inst
    assert write_instance(again) == text


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_design_text_round_trip(seed):
    rng = random.Random(seed)
    aug = augment(generate(8, 3, 18, "random", seed=seed, k=1, kp=1))
    design = random_design(rng, aug)
    text = write_design(design, aug)
    assert parse_design(text, aug) == design
    assert write_design(parse_design(text, aug), aug) == text


# ---------------------------------------------------------------------------
# fuzzing: every input either parses or raises ParseError, nothing else

_TOKENS = st.one_of(
    st.sampled_from(["p", "r", "t", "a", "b", "c", "y"]),
    st.integers(-1, 8).map(str),
    st.text(max_size=6),
    st.integers(-(10**12), 10**12).map(str),
    st.floats().map(repr),
    st.sampled_from(
        [FORMAT_NAME, "1.5", "1e400", "1_0", "0x1", "2147483648",
         str(MAX_VERTICES + 1), "9" * 5000]
    ),
)
_LINES = st.lists(_TOKENS, max_size=5).map(" ".join)
_TEXTS = st.one_of(st.text(max_size=200), st.lists(_LINES, max_size=8).map("\n".join))
_FUZZ_INSTANCE = generate(6, 2, 10, "random", seed=3, k=1, kp=1)
_FUZZ_AUG = augment(_FUZZ_INSTANCE)


def _mutated(data, text: str) -> str:
    """``text`` with a few lines deleted, repeated, swapped, inserted or
    given a foreign token."""
    lines = text.splitlines()
    for _ in range(data.draw(st.integers(1, 4))):
        if not lines:
            lines.append(data.draw(_LINES))
            continue
        i = data.draw(st.integers(0, len(lines) - 1))
        op = data.draw(st.sampled_from(["delete", "repeat", "swap", "insert", "token"]))
        if op == "delete":
            del lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = data.draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "insert":
            lines.insert(i, data.draw(_LINES))
        else:
            fields = lines[i].split() or [""]
            fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(_TOKENS)
            lines[i] = " ".join(fields)
    return "\n".join(lines) + "\n"


def _parses_or_rejects(parse, text: str) -> None:
    try:
        parse(text)
    except ParseError:
        pass


@settings(max_examples=300, deadline=None)
@given(text=_TEXTS)
def test_parse_instance_fuzz_arbitrary_text(text):
    _parses_or_rejects(parse_instance, text)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_parse_instance_fuzz_mutated_files(data):
    _parses_or_rejects(parse_instance, _mutated(data, write_instance(_FUZZ_INSTANCE)))


@settings(max_examples=300, deadline=None)
@given(text=_TEXTS)
def test_parse_design_fuzz_arbitrary_text(text):
    _parses_or_rejects(lambda t: parse_design(t, _FUZZ_AUG), text)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_parse_design_fuzz_mutated_files(data):
    design = Design.canonical(_FUZZ_AUG, _FUZZ_AUG.initial_arcs, [0])
    text = _mutated(data, write_design(design, _FUZZ_AUG))
    _parses_or_rejects(lambda t: parse_design(t, _FUZZ_AUG), text)
