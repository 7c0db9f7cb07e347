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
arc lists, the residual edge layout, the capacity vector), built once on
first use.  :func:`max_flow`, :func:`min_cut`, :func:`back_cut`,
:class:`ArcMask` and the flow builders of ``formulations`` all read that one
layout.

Example
-------
>>> inst = Instance(3, (Arc(0, 1, 1, 1), Arc(0, 2, 2, 1), Arc(1, 2, 1, 1)),
...                 root=0, terminals=(2,), k=1, kp=0)
>>> aug = augment(inst)
>>> max_flow(aug, ArcMask.full(aug)).value
1
"""

from __future__ import annotations

import collections
import math
import numbers
import operator
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Iterable

import numpy as np

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
    and 2i+1 for its reverse; ``edges[v]`` lists the edges leaving ``v`` in
    arc-index order and ``to[e]`` is the vertex edge ``e`` enters.
    ``capacities`` is the read-only per-arc capacity vector.
    """

    out_arcs: tuple[tuple[int, ...], ...]
    in_arcs: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, ...], ...]
    to: tuple[int, ...]
    capacities: np.ndarray


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
        edges: list[list[int]] = [[] for _ in range(self.vertex_count)]
        to = [0] * (2 * len(self.arcs))
        for i, a in enumerate(self.arcs):
            edges[a.tail].append(2 * i)
            edges[a.head].append(2 * i + 1)
            to[2 * i], to[2 * i + 1] = a.head, a.tail
        caps = np.array([a.capacity for a in self.arcs], dtype=np.int64)
        caps.flags.writeable = False
        # an arc leaves v as a forward edge and enters v as a reverse one
        out_arcs = tuple(tuple(e // 2 for e in es if e % 2 == 0) for es in edges)
        in_arcs = tuple(tuple(e // 2 for e in es if e % 2) for es in edges)
        return Layout(out_arcs, in_arcs, tuple(map(tuple, edges)), tuple(to), caps)


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
    fail.
    """

    __slots__ = ("capacities",)

    def __init__(self, aug: AugmentedInstance, capacities: np.ndarray):
        capacities = np.asarray(capacities, dtype=np.int64)
        if capacities.shape != (aug.arc_count,):
            raise GraphError("mask length must match arc count")
        if (capacities < 0).any():
            raise GraphError("mask capacities must be nonnegative")
        if (capacities > aug.layout.capacities).any():
            raise GraphError("mask may not exceed arc capacity")
        self.capacities = capacities

    def without(self, arc: int) -> "ArcMask":
        """This mask with ``arc`` at capacity 0.  Lowering one capacity of a
        valid mask keeps it valid, so the constructor's checks of the whole
        vector are not repeated; only the arc index is checked."""
        if not 0 <= arc < len(self.capacities):
            raise GraphError(f"unknown arc index {arc}")
        mask = object.__new__(ArcMask)
        mask.capacities = self.capacities.copy()
        mask.capacities[arc] = 0
        return mask

    @staticmethod
    def full(aug: AugmentedInstance) -> "ArcMask":
        return ArcMask(aug, aug.layout.capacities.copy())

    @staticmethod
    def for_design(
        aug: AugmentedInstance,
        selected: Iterable[int],
        protected: Iterable[int] = (),
        failed: Iterable[int] = (),
    ) -> "ArcMask":
        selected = set(selected)
        protected = set(protected)
        failed = set(failed)
        for arc in failed:
            if aug.is_fictive(arc):
                raise GraphError("fictive arcs never fail")
        live = [
            i in selected and (i not in failed or i in protected)
            for i in range(aug.arc_count)
        ]
        return ArcMask(aug, np.where(live, aug.layout.capacities, 0))


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
        side = frozenset(vertices)
        if aug.sink not in side:
            raise GraphError("cut sink side must contain the super sink")
        if aug.root in side:
            raise GraphError("cut sink side must not contain the root")
        if not all(0 <= v < aug.vertex_count for v in side):
            raise GraphError("cut references unknown vertex")
        crossing = tuple(
            i
            for i, a in enumerate(aug.arcs)
            if a.tail not in side and a.head in side
        )
        return CutSet(sink_side=side, arcs=crossing)


@dataclass(frozen=True)
class FlowResult:
    """Max-flow value plus one integral per-arc routing that attains it."""

    value: int
    flow: np.ndarray


def _flow_path(
    aug: AugmentedInstance, residual: list[int], start: int, goal: int, backward: bool
) -> list[int] | None:
    """Arcs of a path from ``start`` to ``goal`` that each carry flow (a
    positive residual on the reverse edge), found breadth first, or None
    when there is none; with ``backward`` the path runs from ``goal`` to
    ``start``."""
    arcs = aug.arcs
    reach = aug.layout.in_arcs if backward else aug.layout.out_arcs
    via = {start: -1}  # the arc by which each vertex was reached
    queue = collections.deque([start])
    while queue:
        v = queue.popleft()
        if v == goal:
            path = []
            while v != start:
                a = via[v]
                path.append(a)
                v = arcs[a].head if backward else arcs[a].tail
            return path
        for a in reach[v]:
            w = arcs[a].tail if backward else arcs[a].head
            if residual[2 * a + 1] > 0 and w not in via:
                via[w] = a
                queue.append(w)
    return None


def _fit(
    aug: AugmentedInstance, mask: ArcMask, start: FlowResult
) -> tuple[int, list[int]]:
    """The value and the residual capacities of ``start`` once the flow on
    every arc where it exceeds the mask is brought down to the mask's
    capacity.  The excess is cancelled along flow cycles through the arc
    (the value stays) and then along flow paths from the root through it to
    the sink (the value drops)."""
    if start.flow.shape != (aug.arc_count,):
        raise GraphError("start flow length must match arc count")
    value, residual = start.value, _residual(mask, start)
    # an arc's excess is its negative forward residual
    for a in np.flatnonzero(start.flow > mask.capacities).tolist():
        tail, head = aug.arcs[a].tail, aug.arcs[a].head
        # once no flow cycle runs through the arc, cancelling cannot make one
        cyclic = True
        # cancelling an earlier arc's excess may have taken this one's too
        while (excess := -residual[2 * a]) > 0:
            path = _flow_path(aug, residual, head, tail, False) if cyclic else None
            if path is None:
                cyclic = False
                into = _flow_path(aug, residual, tail, aug.root, True)
                out = _flow_path(aug, residual, head, aug.sink, False)
                if into is None or out is None:
                    raise GraphError("start is not a flow of the network")
                path = into + out
            path.append(a)
            got = min([excess] + [residual[2 * b + 1] for b in path])
            for b in path:
                residual[2 * b] += got
                residual[2 * b + 1] -= got
            if not cyclic:
                value -= got
    return value, residual


def _dinic(aug: AugmentedInstance, cap: list[int], total: int) -> int:
    """Dinic's phases on the residual capacities ``cap`` (per edge of the
    instance's layout) of a flow of value ``total``, until no augmenting
    path is left; ``cap`` is updated in place and the max value returned."""
    adj, to = aug.layout.edges, aug.layout.to
    n, source, sink = aug.vertex_count, aug.root, aug.sink

    while True:
        level = [-1] * n
        level[source] = 0
        queue = collections.deque([source])
        while queue:
            v = queue.popleft()
            for e in adj[v]:
                if cap[e] > 0 and level[to[e]] < 0:
                    level[to[e]] = level[v] + 1
                    queue.append(to[e])
        if level[sink] < 0:
            break
        it = [0] * n
        # depth-first search for augmenting paths in the level graph, kept
        # on an explicit stack of edges so that deep graphs cannot overflow
        # the interpreter's stack; ``it[v]`` is v's current arc, and a
        # vertex with no way forward leaves the level graph
        path: list[int] = []
        v = source
        while True:
            if v == sink:
                got = min(cap[e] for e in path)
                for e in path:
                    cap[e] -= got
                    cap[e ^ 1] += got
                total += got
                path.clear()
                v = source
                continue
            edges = adj[v]
            while it[v] < len(edges):
                e = edges[it[v]]
                if cap[e] > 0 and level[to[e]] == level[v] + 1:
                    break
                it[v] += 1
            else:
                level[v] = -1
                if not path:
                    break
                v = to[path.pop() ^ 1]
                it[v] += 1
                continue
            path.append(e)
            v = to[e]
    return total


def max_flow(
    aug: AugmentedInstance, mask: ArcMask, start: FlowResult | None = None
) -> FlowResult:
    """Exact root/sink max flow under the mask's capacities (integral by
    construction).

    ``start`` is an optional flow of the same network, such as a max flow
    under other capacities, to begin from instead of the zero flow.  Every
    arc on which it exceeds the mask is first brought down to the mask's
    capacity, by cancelling the excess along a flow cycle through the arc
    (the value stays) or a flow path through it (the value drops); Dinic's
    phases then continue from that flow's residual network.  A child of
    the attack search fails one arc of its parent's max flow, so it needs
    fewer phases from there than from zero.
    """
    if start is None:
        value, residual = 0, [0] * (2 * aug.arc_count)
        residual[0::2] = mask.capacities.tolist()
    else:
        value, residual = _fit(aug, mask, start)
    value = _dinic(aug, residual, value)
    return FlowResult(value=value, flow=np.array(residual[1::2], dtype=np.int64))


def _residual(mask: ArcMask, flow: FlowResult) -> list[int]:
    """Residual capacity per edge of the layout under a flow: ``cap - flow``
    forward, ``flow`` back."""
    residual = [0] * (2 * len(flow.flow))
    residual[0::2] = (mask.capacities - flow.flow).tolist()
    residual[1::2] = flow.flow.tolist()
    return residual


def _residual_reach(
    aug: AugmentedInstance, residual: list[int], start: int, backward: bool
) -> list[bool]:
    """Vertices reachable from ``start`` in the residual network, or with
    ``backward`` the vertices that can reach it."""
    adj, to = aug.layout.edges, aug.layout.to
    # edge e leaves v for w; its partner e ^ 1 leaves w for v
    flip = int(backward)
    seen = [False] * aug.vertex_count
    seen[start] = True
    queue = collections.deque([start])
    while queue:
        v = queue.popleft()
        for e in adj[v]:
            w = to[e]
            if residual[e ^ flip] > 0 and not seen[w]:
                seen[w] = True
                queue.append(w)
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
