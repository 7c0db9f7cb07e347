"""Instance and design files, plus the random instance generator.

Instance format (one record per line, ``c`` lines are comments)::

    c optional comment
    p cprsnp <vertices> <arcs>
    r <vertex>
    t <vertex>
    a <tail> <head> <cost> <capacity>
    b <k> <kp>

Vertices are 1-based positive integers.  Exactly one ``p``, one ``r`` and
one ``b`` line; one ``a`` line per arc.  The reader checks the format: the
records' shapes and number, token syntax, the ``p`` line's counts, each
vertex against the vertex count, and the arc count the ``p`` line promises.
Every rule on the values is :class:`cprsnp.graph.Instance`'s; the reader
puts such a fault on the line of the record it names, else past the last
line.  A design file lists selected and protected initial arcs::

    y <tail> <head>
    p <tail> <head>

Fictive arcs never appear in files.
"""

from __future__ import annotations

import bisect
import io
import math
import random

from .graph import (
    MAX_ARCS,
    MAX_CAPACITY,
    MAX_VERTICES,
    Arc,
    ArcMask,
    AugmentedInstance,
    GraphError,
    Instance,
    augment,
    format_cost,
    max_flow,
    min_cut,
)
from .formulations import Design, FormulationError

FORMAT_NAME = "cprsnp"
# arc costs drawn by generate(), both ends included
COST_RANGE = (1, 20)


class ParseError(ValueError):
    """Malformed input file; the message carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _number(token: str, line_no: int, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(line_no, f"{what} {token!r} is not a number") from None


def _integer(token: str, line_no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(line_no, f"{what} {token!r} is not an integer") from None


def _positive_int(token: str, line_no: int, what: str) -> int:
    value = _integer(token, line_no, what)
    if value <= 0:
        raise ParseError(line_no, f"{what} must be positive, got {value}")
    return value


def _end_line(text: str) -> int:
    """Where whole-file errors are placed: the line after the last line
    break, with the breaks ``str.splitlines`` numbers the records by."""
    return len((text + "x").splitlines())


def parse_instance(text: str) -> Instance:
    vertex_count: int | None = None
    arc_count: int | None = None
    root: int | None = None
    terminals: list[int] = []
    arcs: list[Arc] = []
    budgets: tuple[int, int] | None = None
    # the line of each record, keyed by the place a GraphError names
    line_of: dict[object, int] = {}

    def vertex(token: str, line_no: int) -> int:
        v = _positive_int(token, line_no, "vertex")
        assert vertex_count is not None
        if v > vertex_count:
            raise ParseError(line_no, f"vertex {v} outside 1..{vertex_count}")
        return v - 1

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        kind = fields[0]
        if kind == "p":
            if vertex_count is not None:
                raise ParseError(line_no, "duplicate p line")
            if len(fields) != 4 or fields[1] != FORMAT_NAME:
                raise ParseError(line_no, f"expected 'p {FORMAT_NAME} <vertices> <arcs>'")
            vertex_count = _positive_int(fields[2], line_no, "vertex count")
            arc_count = _integer(fields[3], line_no, "arc count")
            if arc_count < 0:
                raise ParseError(line_no, f"negative arc count {arc_count}")
            if arc_count > MAX_ARCS:
                raise ParseError(line_no, f"arc count {arc_count} exceeds {MAX_ARCS}")
            line_of["vertex_count"] = line_no
            continue
        if vertex_count is None:
            raise ParseError(line_no, "p line must come before graph data")
        if kind == "r":
            if root is not None:
                raise ParseError(line_no, "duplicate r line")
            if len(fields) != 2:
                raise ParseError(line_no, "expected 'r <vertex>'")
            root = vertex(fields[1], line_no)
            line_of["root"] = line_no
        elif kind == "t":
            if len(fields) != 2:
                raise ParseError(line_no, "expected 't <vertex>'")
            line_of[("terminal", len(terminals))] = line_no
            terminals.append(vertex(fields[1], line_no))
        elif kind == "a":
            if len(fields) != 5:
                raise ParseError(line_no, "expected 'a <tail> <head> <cost> <capacity>'")
            line_of[("arc", len(arcs))] = line_no
            tail, head = vertex(fields[1], line_no), vertex(fields[2], line_no)
            cost = _number(fields[3], line_no, "cost")
            arcs.append(Arc(tail, head, cost, _number(fields[4], line_no, "capacity")))
        elif kind == "b":
            if budgets is not None:
                raise ParseError(line_no, "duplicate b line")
            if len(fields) != 3:
                raise ParseError(line_no, "expected 'b <k> <kp>'")
            budgets = tuple(_integer(token, line_no, "budget") for token in fields[1:])
            line_of["budgets"] = line_no
        else:
            raise ParseError(line_no, f"unknown record {kind!r}")

    last = _end_line(text)
    for record, value in (("p", vertex_count), ("r", root), ("b", budgets)):
        if value is None:
            raise ParseError(last, f"missing {record} line")
    if arc_count != len(arcs):
        raise ParseError(
            last, f"p line promises {arc_count} arcs, file has {len(arcs)}"
        )
    try:
        return Instance(vertex_count, tuple(arcs), root, tuple(terminals), *budgets)
    except GraphError as exc:
        raise ParseError(line_of.get(exc.place, last), str(exc)) from None


def write_instance(instance: Instance) -> str:
    out = io.StringIO()
    out.write(f"p {FORMAT_NAME} {instance.vertex_count} {len(instance.arcs)}\n")
    out.write(f"r {instance.root + 1}\n")
    for t in instance.terminals:
        out.write(f"t {t + 1}\n")
    for arc in instance.arcs:
        cost = format_cost(arc.cost)
        out.write(f"a {arc.tail + 1} {arc.head + 1} {cost} {arc.capacity}\n")
    out.write(f"b {instance.k} {instance.kp}\n")
    return out.getvalue()


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def save_instance(instance: Instance, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(write_instance(instance))


# ---------------------------------------------------------------------------
# design files


def parse_design(text: str, aug: AugmentedInstance) -> Design:
    index: dict[tuple[int, int], int] = {
        (arc.tail, arc.head): i
        for i, arc in enumerate(aug.arcs)
        if not aug.is_fictive(i)
    }
    selected: set[int] = set()
    protected: set[int] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] not in ("y", "p") or len(fields) != 3:
            raise ParseError(line_no, "expected 'y <tail> <head>' or 'p <tail> <head>'")
        tail = _positive_int(fields[1], line_no, "vertex") - 1
        head = _positive_int(fields[2], line_no, "vertex") - 1
        arc = index.get((tail, head))
        if arc is None:
            raise ParseError(line_no, f"no arc {fields[1]} -> {fields[2]}")
        (selected if fields[0] == "y" else protected).add(arc)
    last = _end_line(text)
    if not protected <= selected:
        raise ParseError(last, "protected arcs must be selected")
    try:
        return Design.canonical(aug, selected, protected)
    except FormulationError as exc:
        raise ParseError(last, str(exc)) from None


def write_design(design: Design, aug: AugmentedInstance) -> str:
    out = io.StringIO()
    for a in sorted(design.selected):
        if aug.is_fictive(a):
            continue
        arc = aug.arcs[a]
        out.write(f"y {arc.tail + 1} {arc.head + 1}\n")
    for a in sorted(design.protected):
        arc = aug.arcs[a]
        out.write(f"p {arc.tail + 1} {arc.head + 1}\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# generator


class GenerationError(ValueError):
    """Parameter combination cannot yield a feasible instance."""


def generate(
    nodes: int,
    terminals: int,
    arcs: int,
    capacity_mode: str = "uniform",
    seed: int = 0,
    k: int = 1,
    kp: int = 0,
    uniform_capacity: int | None = None,
) -> Instance:
    """Random instance that always routes |T| units with everything selected.

    A random arborescence from the root reaches every vertex; extra arcs are
    drawn uniformly from the remaining vertex pairs, preferring arcs across a
    minimum cut while the network cannot carry the demand yet.
    """
    if nodes < 2:
        raise GenerationError("need at least two vertices")
    if nodes > MAX_VERTICES:
        raise GenerationError(f"vertex count {nodes} exceeds {MAX_VERTICES}")
    if not 0 <= terminals < nodes:
        raise GenerationError("terminal count must be in 0..nodes-1")
    if arcs < nodes - 1:
        raise GenerationError("need at least nodes-1 arcs for the backbone")
    if arcs > nodes * (nodes - 1):
        raise GenerationError("more arcs than ordered vertex pairs")
    if arcs > MAX_ARCS:
        raise GenerationError(f"arc count {arcs} exceeds {MAX_ARCS}")
    if capacity_mode not in ("uniform", "random"):
        raise GenerationError(f"unknown capacity mode {capacity_mode!r}")
    if k + kp > arcs:
        raise GenerationError("k + kp exceeds the arc count")
    if uniform_capacity is not None and not 0 <= uniform_capacity <= MAX_CAPACITY:
        raise GenerationError(
            f"uniform capacity {uniform_capacity} must be in 0..{MAX_CAPACITY}"
        )
    rng = random.Random(seed)
    root = 0
    term_set = sorted(rng.sample(range(1, nodes), terminals))
    if uniform_capacity is None:
        uniform_capacity = max(1, math.ceil(terminals / 2))

    def draw_capacity() -> int:
        if capacity_mode == "uniform":
            return uniform_capacity
        return rng.randint(1, max(1, terminals))

    def draw_cost() -> int:
        return rng.randint(*COST_RANGE)

    chosen: dict[tuple[int, int], Arc] = {}

    def add_arc(tail: int, head: int) -> None:
        chosen[(tail, head)] = Arc(tail, head, float(draw_cost()), draw_capacity())

    # spanning arborescence: every vertex hangs off an already reached one
    order = list(range(1, nodes))
    rng.shuffle(order)
    reached = [root]
    for v in order:
        add_arc(rng.choice(reached), v)
        reached.append(v)

    def snapshot(k: int = 0, kp: int = 0) -> Instance:
        ordered = tuple(chosen[key] for key in sorted(chosen))
        return Instance(nodes, ordered, root, tuple(term_set), k, kp)

    # top up to feasibility: arcs across a minimum cut raise the max flow,
    # which is that cut's capacity
    while len(chosen) < arcs:
        aug = augment(snapshot())
        cut = min_cut(aug, ArcMask.full(aug))
        if sum(aug.arcs[a].capacity for a in cut.arcs) >= terminals:
            break
        side = cut.sink_side
        heads = [j for j in range(nodes) if j in side]
        crossing = [
            (i, j)
            for i in range(nodes)
            if i not in side
            for j in heads
            if (i, j) not in chosen
        ]
        if not crossing:
            raise GenerationError("cannot reach feasibility within the arc budget")
        add_arc(*rng.choice(crossing))

    extra = arcs - len(chosen)
    if extra:
        # draw positions among the vertex pairs (i, j), i != j, that no chosen
        # arc joins, in sorted order; position n is found by bisecting the
        # sorted slots of the chosen pairs among all nodes * (nodes - 1)
        taken = sorted(i * (nodes - 1) + j - (j > i) for i, j in chosen)
        # the number of absent pairs before each taken slot
        before = [slot - p for p, slot in enumerate(taken)]
        for n in rng.sample(range(nodes * (nodes - 1) - len(taken)), extra):
            i, j = divmod(n + bisect.bisect_right(before, n), nodes - 1)
            add_arc(i, j + (j >= i))

    instance = snapshot(k, kp)
    aug = augment(instance)
    if max_flow(aug, ArcMask.full(aug)).value < terminals:
        raise GenerationError("cannot reach feasibility within the arc budget")
    return instance


def instance_label(instance: Instance) -> str:
    return f"{instance.vertex_count}-{len(instance.terminals)}-{len(instance.arcs)}"
