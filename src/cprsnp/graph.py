"""Directed graph model for survivable network design.

An :class:`Instance` is a directed graph with arc costs and integer
capacities, a root vertex that produces flow, a set of terminal vertices
that each demand one unit, and two budgets: ``k`` simultaneous arc
failures must be survived, at most ``kp`` arcs may be protected against
failure.

Every solver component works on the :class:`AugmentedInstance`, which
adds a super sink ``s`` and one fictive arc per terminal (cost 0,
capacity 1).  Routing ``|T|`` units from the root to ``s`` is then the
single feasibility currency: a design survives a failure set iff the
surviving selected arcs still carry ``|T|`` units.

The augmented instance owns its network layout (:class:`Layout`: per-vertex
arc lists, the residual edge layout, the capacity vector) and its arc
connectivity (the fewest arcs of any root/sink cut), each computed once on
first use.  :func:`max_flow`, :func:`min_cut`, :func:`back_cut`,
:class:`ArcMask` and the flow builders of ``formulations`` all read that one
layout.

Masks, flows and the layout's capacity vector are tuples of ``int``, one
entry per arc: the max-flow kernel and the attack search read them with no
conversion.  Their constructors take any integer sequence, numpy arrays
included.  Sets of arcs or vertices (designs, attacks, failure scenarios,
cut sides) pass one check, :func:`index_set`, once per input set: every
value as given must be an index, and the set stores plain ``int``.

Every max flow runs through one breadth-first kernel, :func:`_push`, that
moves flow along shortest augmenting paths from a source to a target up to
a limit.  From zero it pushes from the root to the sink, at most |T| + 1
searches.  A warm start lowers each arc whose start flow exceeds the mask,
pushes that excess from the arc's tail to its head (re-routed, the value
stays) and what is left back to the root and from the sink (the value
drops), then pushes from the root to the sink again; a child of the attack
search, which fails one arc carrying x units, needs at most 3x + 2 searches.

Example
-------
>>> inst = Instance(3, (Arc(0, 1, 1, 1), Arc(0, 2, 2, 1), Arc(1, 2, 1, 1)),
...                 root=0, terminals=(2,), k=1, kp=0)
>>> aug = augment(inst)
>>> max_flow(aug, ArcMask.full(aug)).value
1
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Iterable

# largest arc capacity: sums over every arc of an instance stay exact in
# int64 and in float64 (below 2**53 for up to 2**22 arcs)
MAX_CAPACITY = 2**31 - 1
# largest arc cost: far below the 1e20 that HiGHS reads as infinite, and
# integer costs keep every design cost exact in float64 like capacities
MAX_COST = 2**31 - 1


def format_cost(cost: float) -> str:
    """A cost as text that reads back as the same number: an integral cost
    as its exact integer, any other as ``repr``."""
    cost = float(cost)
    return str(int(cost)) if cost.is_integer() else repr(cost)


# largest vertex count: the layout and the solvers build per-vertex lists,
# so a file header alone must not decide how much memory a load takes;
# 2**16 vertices cost a few MB, and exact solving stops far below that
MAX_VERTICES = 2**16
# largest arc count, which MAX_CAPACITY's exact sums assume; like the
# vertex count, a file header or a generator call must not exceed it
MAX_ARCS = 2**22


class GraphError(ValueError):
    """Raised for structurally invalid instances, masks, or cuts.  ``place``
    names where an :class:`Instance` fault lies: ``("arc", i)``,
    ``("terminal", j)`` (``j`` in the given order), ``"root"``,
    ``"budgets"``, ``"vertex_count"``, or None."""

    def __init__(self, message: str, place: object = None):
        super().__init__(message)
        self.place = place


def is_index(value: object, count: int) -> bool:
    """True when ``value`` is an integer (:func:`operator.index`) in
    0..count-1: a vertex or arc number."""
    try:
        return 0 <= operator.index(value) < count
    except TypeError:
        return False


def index_set(
    values: Iterable[object], count: int, error: type[Exception], message: str
) -> frozenset[int]:
    """The indices ``values`` names, as a frozenset of plain ``int``, when
    every value as given is an index in 0..count-1 (:func:`is_index`), so
    ``np.int64(3)`` is stored as 3 and True as 1; else ``error`` with
    ``message.format(value)`` for the first value that is not."""
    if type(values) is not frozenset:
        values = tuple(values)
    if not values:
        return frozenset()
    # every value an int, the common case: one type scan, then one sort that
    # gives both ends of the range (faster than min and max), no call per value
    if operator.countOf(map(type, values), int) == len(values):
        ordered = sorted(values)
        if 0 <= ordered[0] and ordered[-1] < count:
            return frozenset(values)
    for value in values:
        if not is_index(value, count):
            raise error(message.format(value))
    return frozenset(map(operator.index, values))


def _integer(value: object, what: str, place: object) -> int:
    """``value`` as an integer (:func:`operator.index`), or GraphError."""
    try:
        return operator.index(value)
    except TypeError:
        raise GraphError(f"{what} must be an integer, got {value!r}", place) from None


def _vertex(value: object, count: int, what: str, place: object) -> int:
    """``value`` as a vertex number in 0..count-1, or GraphError."""
    if not is_index(value, count):
        raise GraphError(f"{what} {value!r} is not a vertex", place)
    return operator.index(value)


def _amount(value: object, what: str, bound: int, place: object) -> float:
    """``value`` itself when it is a real number in 0..bound, else GraphError."""
    # int and float are tested first: the check against the ABC is slow
    if not isinstance(value, (int, float, numbers.Real)):
        raise GraphError(f"{what} {value!r} is not a number", place)
    if not -math.inf < value < math.inf:
        raise GraphError(f"{what} {value} is not finite", place)
    if value < 0:
        raise GraphError(f"negative {what}", place)
    if value > bound:
        raise GraphError(f"{what} exceeds {bound}", place)
    return value


@dataclass(frozen=True)
class Arc:
    """Directed arc with a nonnegative cost and a nonnegative integer capacity."""

    tail: int
    head: int
    cost: float
    capacity: int


@dataclass(frozen=True)
class Instance:
    """Problem input before super-sink augmentation.

    Construction checks every value rule of an instance and stores the
    values in one type each: ``int`` vertex numbers, counts, capacities and
    budgets, ``float`` costs.  ``terminals`` is kept sorted.  Vertices are
    numbered from 0; files and outputs show vertex ``v`` as ``v + 1``.
    """

    vertex_count: int
    arcs: tuple[Arc, ...]
    root: int
    terminals: tuple[int, ...]
    k: int
    kp: int

    def __post_init__(self) -> None:
        for field, value in zip(fields(self), self._validated()):
            object.__setattr__(self, field.name, value)

    def _validated(self) -> tuple:
        """The fields as they are stored, in their order, or GraphError
        naming the place of the first fault found."""
        n = _integer(self.vertex_count, "vertex count", "vertex_count")
        if n <= 0:
            raise GraphError("instance needs at least one vertex", "vertex_count")
        if n > MAX_VERTICES:
            raise GraphError(f"vertex count {n} exceeds {MAX_VERTICES}", "vertex_count")
        arcs = tuple(self.arcs)
        m = len(arcs)
        if m > MAX_ARCS:
            raise GraphError(f"arc count {m} exceeds {MAX_ARCS}")
        root = _vertex(self.root, n, "root", "root")
        pairs: set[tuple[int, int]] = set()
        stored = []
        for i, a in enumerate(arcs):
            place = ("arc", i)
            tail = _vertex(a.tail, n, "arc tail", place)
            head = _vertex(a.head, n, "arc head", place)
            if tail == head:
                raise GraphError("self-loop", place)
            if (tail, head) in pairs:
                raise GraphError("parallel arc", place)
            pairs.add((tail, head))
            cost = _amount(a.cost, "cost", MAX_COST, place)
            capacity = _amount(a.capacity, "capacity", MAX_CAPACITY, place)
            if capacity != int(capacity):
                raise GraphError(f"capacity {capacity} is not an integer", place)
            # an arc whose fields have the stored types already is kept
            if not (
                type(a.tail) is type(a.head) is type(a.capacity) is int
                and type(a.cost) is float
            ):
                a = Arc(tail, head, float(cost), int(capacity))
            stored.append(a)
        terminals: set[int] = set()
        for j, t in enumerate(self.terminals):
            place = ("terminal", j)
            t = _vertex(t, n, "terminal", place)
            if t == root:
                raise GraphError("root cannot be a terminal", place)
            if t in terminals:
                raise GraphError("duplicate terminal", place)
            terminals.add(t)
        k = _integer(self.k, "k", "budgets")
        kp = _integer(self.kp, "kp", "budgets")
        if k < 0 or kp < 0:
            raise GraphError("budgets must be nonnegative", "budgets")
        if k + kp > m:
            raise GraphError(f"k + kp = {k + kp} exceeds arc count {m}", "budgets")
        return n, tuple(stored), root, tuple(sorted(terminals)), k, kp


@dataclass(frozen=True, eq=False)
class Layout:
    """Fixed network facts of an :class:`AugmentedInstance`.

    ``out_arcs[v]``/``in_arcs[v]`` list the arcs leaving/entering ``v`` in
    arc-index order.  The residual network has edge 2i for arc i forward
    and 2i+1 for its reverse; ``edges[v]`` lists the ``(edge, head)`` pair
    of each edge leaving ``v`` in arc-index order, and ``to[e]`` is the
    vertex edge ``e`` enters.  ``capacities`` is the per-arc capacity
    vector, a tuple of ``int``, and ``fictive_set`` the fictive arcs'
    indices, for set operations.
    """

    out_arcs: tuple[tuple[int, ...], ...]
    in_arcs: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[tuple[int, int], ...], ...]
    to: tuple[int, ...]
    capacities: tuple[int, ...]
    fictive_set: frozenset[int]


@dataclass(frozen=True)
class AugmentedInstance:
    """Instance plus super sink and fictive terminal arcs.

    Arcs 0..initial_arc_count-1 are the original ("initial") arcs; the
    remaining ones are fictive arcs (terminal -> sink), one per terminal in
    sorted terminal order, each with cost 0 and capacity 1.
    """

    vertex_count: int
    arcs: tuple[Arc, ...]
    root: int
    terminals: tuple[int, ...]
    k: int
    kp: int
    sink: int
    initial_arc_count: int

    @property
    def demand(self) -> int:
        """Units of flow that must reach the sink: one per terminal."""
        return len(self.terminals)

    @property
    def arc_count(self) -> int:
        return len(self.arcs)

    @property
    def initial_arcs(self) -> range:
        return range(self.initial_arc_count)

    @property
    def fictive_arcs(self) -> range:
        return range(self.initial_arc_count, len(self.arcs))

    def is_fictive(self, arc: int) -> bool:
        return arc >= self.initial_arc_count

    @cached_property
    def layout(self) -> Layout:
        """The network layout, built on first use; not a field, so equality,
        hashing and repr ignore it."""
        edges: list[list[tuple[int, int]]] = [[] for _ in range(self.vertex_count)]
        to = [0] * (2 * len(self.arcs))
        for i, a in enumerate(self.arcs):
            edges[a.tail].append((2 * i, a.head))
            edges[a.head].append((2 * i + 1, a.tail))
            to[2 * i], to[2 * i + 1] = a.head, a.tail
        caps = tuple(a.capacity for a in self.arcs)
        # an arc leaves v as a forward edge and enters v as a reverse one
        out_arcs = tuple(tuple(e // 2 for e, _ in es if e % 2 == 0) for es in edges)
        in_arcs = tuple(tuple(e // 2 for e, _ in es if e % 2) for es in edges)
        return Layout(
            out_arcs,
            in_arcs,
            tuple(map(tuple, edges)),
            tuple(to),
            caps,
            frozenset(self.fictive_arcs),
        )

    @cached_property
    def arc_connectivity(self) -> int:
        """The fewest arcs that any root/sink cut crosses, whatever their
        capacity: a max flow with every arc at capacity 1, computed on
        first use.  At most the demand, since the fictive arcs cross the
        cut around the sink."""
        return max_flow(self, ArcMask._of((1,) * len(self.arcs))).value


def augment(instance: Instance) -> AugmentedInstance:
    """Attach the super sink and one unit-capacity fictive arc per terminal."""
    sink = instance.vertex_count
    fictive = tuple(Arc(t, sink, 0.0, 1) for t in instance.terminals)
    return AugmentedInstance(
        vertex_count=instance.vertex_count + 1,
        arcs=instance.arcs + fictive,
        root=instance.root,
        terminals=instance.terminals,
        k=instance.k,
        kp=instance.kp,
        sink=sink,
        initial_arc_count=len(instance.arcs),
    )


class ArcMask:
    """Effective per-arc capacities of a (possibly attacked) design.

    A selected arc keeps its capacity unless it is failed while
    unprotected; everything else drops to zero.  Fictive arcs can never
    fail.  ``capacities`` is a tuple of ``int``, one per arc; the
    constructor takes any integer sequence and checks its length, its
    entries' type and that each lies in 0..the arc's capacity.
    """

    __slots__ = ("capacities",)

    def __init__(self, aug: AugmentedInstance, capacities: Iterable[int]):
        try:
            capacities = tuple(map(operator.index, capacities))
        except TypeError:
            raise GraphError("mask capacities must be integers") from None
        if len(capacities) != aug.arc_count:
            raise GraphError("mask length must match arc count")
        if min(capacities, default=0) < 0:
            raise GraphError("mask capacities must be nonnegative")
        if any(map(operator.gt, capacities, aug.layout.capacities)):
            raise GraphError("mask may not exceed arc capacity")
        self.capacities = capacities

    @staticmethod
    def _of(capacities: tuple[int, ...]) -> "ArcMask":
        """A mask of capacities known to be valid, with no check."""
        mask = object.__new__(ArcMask)
        mask.capacities = capacities
        return mask

    def without(self, arc: int) -> "ArcMask":
        """This mask with ``arc`` at capacity 0.  Lowering one capacity of a
        valid mask keeps it valid, so the constructor's checks of the whole
        vector are not repeated; only the arc index is checked."""
        if not is_index(arc, len(self.capacities)):
            raise GraphError(f"unknown arc index {arc}")
        capacities = list(self.capacities)
        capacities[arc] = 0
        return ArcMask._of(tuple(capacities))

    @staticmethod
    def full(aug: AugmentedInstance) -> "ArcMask":
        return ArcMask._of(aug.layout.capacities)

    @staticmethod
    def for_design(
        aug: AugmentedInstance,
        selected: Iterable[int],
        protected: Iterable[int] = (),
        failed: Iterable[int] = (),
    ) -> "ArcMask":
        """The mask of a design under a failure set: the selected arcs keep
        their capacity unless failed and not protected.  Each of the three
        sets passes :func:`index_set` on its own, so every value as given
        must be an arc index; a fictive arc never fails."""
        m, message = aug.arc_count, "unknown arc index {}"
        selected = index_set(selected, m, GraphError, message)
        protected = index_set(protected, m, GraphError, message)
        failed = index_set(failed, m, GraphError, message)
        if not failed.isdisjoint(aug.layout.fictive_set):
            raise GraphError("fictive arcs never fail")
        caps = aug.layout.capacities
        capacities = [0] * m
        for i in selected - (failed - protected):
            capacities[i] = caps[i]
        return ArcMask._of(tuple(capacities))


@dataclass(frozen=True)
class CutSet:
    """A root/sink bipartition and the arcs entering its sink side.

    ``sink_side`` contains the sink and never the root.  ``arcs`` holds the
    indices of every arc crossing into the sink side, sorted.
    """

    sink_side: frozenset[int]
    arcs: tuple[int, ...]

    @staticmethod
    def from_sink_side(aug: AugmentedInstance, vertices: Iterable[int]) -> "CutSet":
        side = index_set(
            vertices, aug.vertex_count, GraphError, "cut references unknown vertex {!r}"
        )
        if aug.sink not in side:
            raise GraphError("cut sink side must contain the super sink")
        if aug.root in side:
            raise GraphError("cut sink side must not contain the root")
        crossing = tuple(
            i
            for i, a in enumerate(aug.arcs)
            if a.tail not in side and a.head in side
        )
        return CutSet(sink_side=side, arcs=crossing)


@dataclass(frozen=True)
class FlowResult:
    """Max-flow value plus one integral per-arc routing that attains it.

    ``flow`` is a tuple of ``int``, one per arc; the constructor takes any
    integer sequence.  Whether it is a flow of the network is checked where
    it is used as one, by :func:`max_flow`'s ``start``.
    """

    value: int
    flow: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            flow = tuple(map(operator.index, self.flow))
        except TypeError:
            raise GraphError("flow entries must be integers") from None
        object.__setattr__(self, "flow", flow)

    @staticmethod
    def _of(value: int, flow: tuple[int, ...]) -> "FlowResult":
        """A result from a tuple of ``int`` already, with no conversion."""
        res = object.__new__(FlowResult)
        object.__setattr__(res, "value", value)
        object.__setattr__(res, "flow", flow)
        return res


def _push(
    aug: AugmentedInstance, residual: list[int], source: int, target: int, limit: int
) -> int:
    """Push up to ``limit`` units from ``source`` to ``target`` along shortest
    augmenting paths (Edmonds and Karp) on the residual capacities
    ``residual`` (per edge of the instance's layout), updated in place; the
    amount pushed is returned.  Each breadth-first search stops once it
    reaches the target, and its path is read back from the edge by which
    each vertex was reached; the push ends at the limit or at the first
    search that misses the target, and a source that is its own target takes
    the whole limit at once.

    Besides the root-to-sink augmenting of :func:`max_flow`, the warm start
    pushes a lowered arc's excess from its tail: to its head, which
    re-routes it, and what is left back to the root, then as much from the
    sink to its head.  A tail with excess left always reaches its head or
    the root: the flow on hand, with the excess at the tail and the deficit
    at the head, decomposes into cycles and into paths that start at the
    root or the head and end at the sink or the tail, and the paths into the
    tail carry the whole excess, so their reversed edges lead from the tail
    back to where they start.  Once no path leads to the head, they all lead
    to the root, and with the tail balanced, the paths out of the head all
    end at the sink.
    """
    adj, to, n = aug.layout.edges, aug.layout.to, aug.vertex_count
    pushed = 0
    while pushed < limit:
        # the edge by which each vertex was reached: -1 at the source
        via: list[int | None] = [None] * n
        via[source] = -1
        frontier = [source]
        for v in frontier:  # grows as the search reaches vertices
            if via[target] is not None:
                break
            for e, w in adj[v]:
                if residual[e] > 0 and via[w] is None:
                    via[w] = e
                    frontier.append(w)
        if via[target] is None:  # the search missed the target
            break
        path, v = [], target
        while v != source:
            e = via[v]
            path.append(e)
            v = to[e ^ 1]
        got = min([limit - pushed] + [residual[e] for e in path])
        for e in path:
            residual[e] -= got
            residual[e ^ 1] += got
        pushed += got
    return pushed


def max_flow(
    aug: AugmentedInstance, mask: ArcMask, start: FlowResult | None = None
) -> FlowResult:
    """Exact root/sink max flow under the mask's capacities, by shortest
    augmenting paths (integral by construction).

    ``start`` is an optional flow of the same network, such as a max flow
    under other capacities, to begin from instead of the zero flow.  Only
    its length, signs and value (its flow on the fictive arcs) are checked:
    conservation at the inner vertices is the caller's promise.  Each arc on
    which it exceeds the mask has its excess re-read at its turn, since
    re-routing an earlier arc's excess may have taken it, and its flow is
    lowered to the mask; :func:`_push` then sends the excess from the arc's
    tail to its head, which re-routes it and keeps the value, and what is
    left from the tail to the root and from the sink to the head, which
    lowers the value by that much.  The augmenting paths then continue from
    that flow's residual network.

    Only the fictive arcs, of capacity at most 1, enter the sink, so each
    path adds at least one unit and no flow exceeds the demand |T|: a max
    flow from zero takes at most |T| + 1 breadth-first searches, the last
    one missing the sink, and none once the fictive arcs are full.  A child
    of the attack search fails one arc of its parent's max flow, which
    carries x units, so it needs at most x + 1 searches when all x re-route
    (the last one missing the sink) and at most 3x + 2 otherwise: r
    re-routed units, one search that misses the head, 2 (x - r) that return
    the rest, and at most x - r that augment again plus one that misses.
    """
    if start is None:
        value, residual = 0, [0] * (2 * aug.arc_count)
        residual[0::2] = mask.capacities
    else:
        flow, caps = start.flow, mask.capacities
        if len(flow) != aug.arc_count:
            raise GraphError("start flow length must match arc count")
        fictive = sum(flow[aug.initial_arc_count :])
        if min(flow, default=0) < 0 or start.value != fictive:
            raise GraphError("start is not a flow of the network")
        value, residual = start.value, _residual(mask, start)
        # an arc's excess is its negative forward residual
        for a in itertools.compress(range(len(flow)), map(operator.gt, flow, caps)):
            excess = -residual[2 * a]
            if excess <= 0:
                continue
            residual[2 * a] = 0
            residual[2 * a + 1] -= excess
            tail, head = aug.arcs[a].tail, aug.arcs[a].head
            left = excess - _push(aug, residual, tail, head, excess)
            if left and (
                _push(aug, residual, tail, aug.root, left) < left
                or _push(aug, residual, aug.sink, head, left) < left
            ):
                raise GraphError("start is not a flow of the network")
            value -= left
    # what the fictive arcs, the sink's in-arcs, can still take
    room = sum(residual[2 * aug.initial_arc_count :: 2])
    value += _push(aug, residual, aug.root, aug.sink, room)
    return FlowResult._of(value, tuple(residual[1::2]))


def _residual(mask: ArcMask, flow: FlowResult) -> list[int]:
    """Residual capacity per edge of the layout under a flow: ``cap - flow``
    forward, ``flow`` back."""
    residual = [0] * (2 * len(flow.flow))
    residual[0::2] = map(operator.sub, mask.capacities, flow.flow)
    residual[1::2] = flow.flow
    return residual


def _residual_reach(
    aug: AugmentedInstance, residual: list[int], start: int, backward: bool
) -> list[bool]:
    """Vertices reachable from ``start`` in the residual network, or with
    ``backward`` the vertices that can reach it."""
    adj = aug.layout.edges
    # edge e leaves v for w; its partner e ^ 1 leaves w for v
    flip = int(backward)
    seen = [False] * aug.vertex_count
    seen[start] = True
    frontier = [start]
    for v in frontier:  # grows as the search reaches vertices
        for e, w in adj[v]:
            if residual[e ^ flip] > 0 and not seen[w]:
                seen[w] = True
                frontier.append(w)
    return seen


def min_cut(aug: AugmentedInstance, mask: ArcMask) -> CutSet:
    """A minimum root/sink cut under the mask; its capacity equals max_flow.
    Its root side is the smallest of any minimum cut."""
    residual = _residual(mask, max_flow(aug, mask))
    # vertices still reachable in the residual network form the root side
    reachable = _residual_reach(aug, residual, aug.root, backward=False)
    side = frozenset(v for v in range(aug.vertex_count) if not reachable[v])
    return CutSet.from_sink_side(aug, side)


def back_cut(aug: AugmentedInstance, mask: ArcMask, flow: FlowResult) -> CutSet:
    """The minimum root/sink cut nearest the sink (the "back cut" of Koch
    and Martin), read from a max flow under the mask: its sink side, the
    vertices that can still reach the sink in the residual network, is the
    smallest of any minimum cut.  A flow that is not maximal leaves the root
    on the sink side and raises :class:`GraphError`.
    """
    reaches = _residual_reach(aug, _residual(mask, flow), aug.sink, backward=True)
    side = frozenset(v for v in range(aug.vertex_count) if reaches[v])
    return CutSet.from_sink_side(aug, side)
