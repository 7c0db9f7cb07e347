"""MILP formulations of protected survivable network design.

Three exact master problems over binary selection variables ``y`` and
protection variables ``p``:

* cut-set master: every root/sink cut must keep ``|T|`` units of capacity
  after the worst deletion of at most ``k`` unprotected selected arcs,
  written as one row per deletion subset of exactly ``min(k, m)`` of its
  ``m`` non-fictive arcs, each bounding the capacity the cut keeps without
  that subset;
* flow master: one unit-preserving flow per failure scenario, where failed
  unprotected arcs lose their capacity;
* attacker-expansion master ("bilevel"): one row per extreme point of the
  attacker/min-cut polytope, generated on demand.  Each point is the
  vertex of a cut and an attack and is stored as those two
  (:class:`ExtremePoint`); its row is that cut's row with the attacked
  arcs deleted.

All three start from one design block: the ``y`` columns, then the ``p``
columns (``y_a`` is column ``a`` and ``p_a`` column ``m + a`` of the m
arcs), the cost objective, the protection budget as row 0, one
``p_a <= y_a`` row per initial arc, one flow-balance row per initial arc
that does not leave the root, and the cut rows of the root cut and of the
cut around each terminal.  Each master is a :class:`Master` over that block
and only adds its own rows and columns after it.

The flow-balance row of an arc b = (v, w) is ``y_b <= sum y_a`` over the
arcs a = (u, v) entering v with u != w (the flow-balance inequalities of
Koch and Martin, 1998): an arc leaving v needs another selected arc into v,
and the arc from w, b's head, does not count.  Unlike the tightened rows
below, these rows cut off integer points, but never every optimum:

* when no selected arc other than (w, v) enters v, no simple root-sink path
  uses b, since it would have to reach v from some u != w;
* a max flow under any attack decomposes into simple paths (its cycles can
  be cancelled), so dropping b, and its protection with it, leaves every
  attack the same max flow: the design stays survivable;
* repeating the drop ends in a design that costs no more (costs are
  nonnegative, which :class:`cprsnp.graph.Instance` enforces) and satisfies
  every row;
* so every optimum keeps its cost.  A survivable incumbent that breaks
  these rows, such as the engine's all-arcs probe, is still proven optimal
  when the tree finds nothing cheaper.

Every cut row is written tightened: the row of a cut for one deletion
subset, which is also the row of a bilevel vertex.  The fictive arcs are
always selected and never protected, so their part of the row moves into
its right-hand side r, and every other coefficient is reduced to at most r
(coefficient reduction over binary columns).  Every coefficient is
nonnegative, so a tightened row holds at a 0/1 point exactly when the
untightened row does: a column with coefficient at least r that is 1
satisfies both, and otherwise the two rows are the same.  The masters keep
their integer points and only their LP relaxations get tighter; the oracles
and their values (:func:`cut_residual`, :func:`point_row_value`) are the
untightened ones.

Each builder takes only the instance and returns its design block.  Only
the appenders grow a master, one item at a time: :func:`append_cut` (a
cut's rows, the one place that decides them: the full enumeration for a
cut that :func:`cut_fits`, else the row of the violating design's worst
deletion subset), :func:`append_scenario` (a scenario's flow block) and
:func:`append_point` (a vertex's row: its cut's row with its attacked arcs
deleted).  Cut and vertex rows alike are the row that
:func:`append_cut_subset` appends, written by the one writer of a
tightened row.  The engine builds each master once per solve and grows it
in place with the appenders, while the tree that solves it is open.

A master grows by blocks only (:meth:`cprsnp.milp.MilpModel.add_vars` and
:meth:`cprsnp.milp.MilpModel.add_constrs`), one per item.  Its rows are
written as mappings from column to coefficient and appended together:
the design block is one block of columns and one of rows, its static cut
rows included; each cut, with all its subset rows, and each vertex row
is one block of rows; and each scenario is one block of columns and one
of rows.

The two cut search MIPs (:func:`build_cutset_separation` and
:func:`build_strengthening`) branch only on mu, the 0/1 root-side indicator
of each vertex; lam and gam are continuous in [0, 1].  Both declare an
integral objective (:attr:`cprsnp.milp.MilpModel.integral_objective`), so
the kernel prunes a node once it cannot beat the incumbent by a whole
unit.  Fix mu integral, and let C be the arcs it puts across the cut:

* separation: the rows left are ``lam_a + gam_a >= mu_tail - mu_head``, a
  right-hand side in {-1, 0, 1}, and ``sum gam <= k``.  Each column has a 1
  in at most one arc row and, for gam, one in the budget row: the incidence
  matrix of a bipartite graph, which is totally unimodular.  With integral
  bounds and right-hand sides every vertex is integral, so with integer
  capacities every optimum is an integer;
* strengthening: each arc of C needs ``lam_a >= 1 - gam_a``, gam lives
  only on attack candidates and sums to at most k, so ``sum lam >= |C| -
  min(k, |C candidates|)``.  Gam on the cut's worst deletion subset
  (:func:`worst_subset`), which has that many arcs, and lam on the rest
  attain the bound and leave the cut's row at its least value,
  :func:`cut_residual`.  So whenever some lam and gam complete mu, every
  optimum is the lam count of the vertex of C and that subset.

An oracle builds a fresh cut search MIP on each call, so both are built as
blocks from arrays read off the instance's layout, with no per-arc Python
work.

The builders only assemble models; the delayed generation lives in
:mod:`cprsnp.separation` and :mod:`cprsnp.engine`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .graph import ArcMask, AugmentedInstance, CutSet, index_set
from .milp import INT_TOL, MilpModel

# most rows :func:`append_cut` writes for one cut; a larger cut gets one
# deletion subset per violating design instead
CUT_ROW_LIMIT = 20_000


class FormulationError(ValueError):
    """Raised for model inputs that violate a builder's contract."""


class NonVertexSolution(RuntimeError):
    """A solver returned fractional values where a 0/1 vertex was guaranteed."""


# ---------------------------------------------------------------------------
# value types


@dataclass(frozen=True)
class Design:
    """Arc selection plus protected subset, canonical form.

    Canonical means: all fictive arcs selected, protection only on selected
    initial arcs, protection budget respected.
    """

    selected: frozenset[int]
    protected: frozenset[int]

    @staticmethod
    def canonical(
        aug: AugmentedInstance,
        selected: Iterable[int],
        protected: Iterable[int] = (),
    ) -> "Design":
        """The canonical design of these arcs: the fictive arcs are added to
        the selection, and protection on an arc that is not a selected
        initial one is dropped.  The selected and protected arcs each pass
        :func:`cprsnp.graph.index_set` on their own, so every value as given
        must be an arc index, and the design stores plain ``int``."""
        fictive = aug.layout.fictive_set
        message = "unknown arc index {!r}"
        sel = index_set(selected, aug.arc_count, FormulationError, message) | fictive
        prot = index_set(protected, aug.arc_count, FormulationError, message)
        prot = (prot & sel) - fictive
        if len(prot) > aug.kp:
            raise FormulationError(
                f"{len(prot)} protected arcs exceed the budget {aug.kp}"
            )
        return Design(selected=sel, protected=prot)

    def is_canonical(self, aug: AugmentedInstance) -> bool:
        """True when :meth:`canonical` of this design's arcs is the design
        itself, checked without building that design: every fictive arc is
        selected, every protected arc is a selected initial arc, protection
        keeps to the budget, and every arc passes
        :func:`cprsnp.graph.index_set`."""
        fictive = aug.layout.fictive_set
        if not (
            fictive <= self.selected
            and len(self.protected) <= aug.kp
            and self.protected <= self.selected
            and self.protected.isdisjoint(fictive)
        ):
            return False
        message = "unknown arc index {!r}"
        try:
            index_set(self.selected, aug.arc_count, FormulationError, message)
            index_set(self.protected, aug.arc_count, FormulationError, message)
        except FormulationError:
            return False
        return True

    def cost(self, aug: AugmentedInstance) -> float:
        return float(sum(aug.arcs[a].cost for a in self.selected))

    def mask(self, aug: AugmentedInstance, failed: Iterable[int] = ()) -> ArcMask:
        return ArcMask.for_design(aug, self.selected, self.protected, failed)

    def attack_candidates(self, aug: AugmentedInstance) -> list[int]:
        """The arcs an attack may fail, in index order: the selected arcs
        that are neither protected nor fictive."""
        return sorted(self.selected - self.protected - aug.layout.fictive_set)


@dataclass(frozen=True)
class FailureScenario:
    """A set of initial arcs assumed to fail simultaneously."""

    arcs: frozenset[int]

    @staticmethod
    def of(aug: AugmentedInstance, arcs: Iterable[int]) -> "FailureScenario":
        # the initial arcs come first; the fictive ones never fail
        message = "arc index {!r} is no initial arc"
        count = aug.initial_arc_count
        return FailureScenario(arcs=index_set(arcs, count, FormulationError, message))

    def sorted_arcs(self) -> tuple[int, ...]:
        return tuple(sorted(self.arcs))


@dataclass(frozen=True)
class ExtremePoint:
    """0/1 vertex of the attacker-cut polytope used for master rows, stored
    as the cut and the attack it is the vertex of.

    ``failed`` is the attack (at most ``k`` arcs, never fictive) and
    ``arc_count`` the length of the per-arc views.  In the polytope's terms
    mu is 1 exactly on the cut's root side, gam = ell marks the failed arcs
    that cross the cut, and lam the other crossing arcs.  The views are
    built once, on first use; they are no fields, so equality, hashing and
    repr ignore them.
    """

    cut: CutSet
    failed: frozenset[int]
    arc_count: int

    @property
    def deleted(self) -> tuple[int, ...]:
        """The failed arcs that cross the cut, in ``cut.arcs`` order."""
        return tuple(a for a in self.cut.arcs if a in self.failed)

    def _indicator(self, arcs: Iterable[int]) -> tuple[int, ...]:
        """1 on each of ``arcs``, 0 on every other arc."""
        view = [0] * self.arc_count
        for a in arcs:
            view[a] = 1
        return tuple(view)

    @cached_property
    def lam(self) -> tuple[int, ...]:
        return self._indicator(a for a in self.cut.arcs if a not in self.failed)

    @cached_property
    def gam(self) -> tuple[int, ...]:
        return self._indicator(self.deleted)

    @property
    def ell(self) -> tuple[int, ...]:
        """attack * gam, which is gam itself."""
        return self.gam


# ---------------------------------------------------------------------------
# evaluation helpers


def worst_subset(
    aug: AugmentedInstance, cut: CutSet, design: Design
) -> tuple[int, ...]:
    """The cut's worst deletion subset under the design: its k largest
    capacities among :meth:`Design.attack_candidates` (all of them if fewer
    than k), ties to the lower index, returned in index order."""
    crossing = set(cut.arcs)
    vulnerable = sorted(
        (a for a in design.attack_candidates(aug) if a in crossing),
        key=lambda a: (-aug.arcs[a].capacity, a),
    )
    return tuple(sorted(vulnerable[: aug.k]))


def cut_residual(aug: AugmentedInstance, cut: CutSet, design: Design) -> int:
    """Capacity the cut retains after its worst feasible failure: its
    selected capacity less that of its worst subset."""
    total = sum(aug.arcs[a].capacity for a in cut.arcs if a in design.selected)
    loss = sum(aug.arcs[a].capacity for a in worst_subset(aug, cut, design))
    return int(total) - int(loss)


def point_row_value(
    aug: AugmentedInstance,
    selected: Iterable[int],
    protected: Iterable[int],
    lam: Sequence[float],
    gam: Sequence[float],
    ell: Sequence[float],
) -> float:
    """Value of the master row generated by (lam, gam, ell) at a design.

    Monotone nondecreasing in both the selection and the protection as long
    as lam and gam are nonnegative.
    """
    sel = set(selected)
    prot = set(protected)
    total = 0.0
    for a, arc in enumerate(aug.arcs):
        u = arc.capacity
        if a in sel:
            total += u * lam[a]
        total += u * gam[a] - u * ell[a]
        if a in prot:
            total += u * gam[a]
    return total


def count_cut_rows(aug: AugmentedInstance, cut: CutSet) -> int:
    """Number of rows :func:`append_cut` writes for a cut: one per subset of
    ``min(k, m)`` of its ``m`` non-fictive arcs (1 when k = 0, the intact
    row as the empty subset)."""
    m = sum(1 for a in cut.arcs if not aug.is_fictive(a))
    return math.comb(m, min(aug.k, m))


def cut_fits(aug: AugmentedInstance, cut: CutSet) -> bool:
    """True when :func:`append_cut` takes the cut: it needs at most
    :data:`CUT_ROW_LIMIT` rows, the limit as it stands at the call."""
    return count_cut_rows(aug, cut) <= CUT_ROW_LIMIT


# ---------------------------------------------------------------------------
# master builders


@dataclass
class Master:
    """A restricted master: the design block plus the rows of one
    formulation.  The block fixes the column layout: of the m arcs, ``y_a``
    is column ``a`` and ``p_a`` is column ``m + a``; only the flow master
    adds columns, after these first 2m."""

    model: MilpModel
    aug: AugmentedInstance

    def design_from(self, values) -> Design:
        """The canonical design of a solution: the arcs whose ``y``, and
        those whose ``p``, read above one half."""
        m = self.aug.arc_count
        sel = {a for a in range(m) if values[a] > 0.5}
        prot = {a for a in range(m) if values[m + a] > 0.5}
        return Design.canonical(self.aug, sel, prot)


def _static_cuts(aug: AugmentedInstance) -> list[CutSet]:
    """The cuts every master holds from the start: the root cut, then for
    each terminal t the cut with sink side ``{t, s}``, each distinct cut
    once.  A cut whose sink side is the super sink alone, the root cut of a
    one-vertex instance, is left out: no terminal needs it, and
    :func:`append_cut` rejects it."""
    root_cut = frozenset(range(aug.vertex_count)) - {aug.root}
    sides = [root_cut] + [frozenset({t, aug.sink}) for t in aug.terminals]
    return [
        CutSet.from_sink_side(aug, side)
        for side in dict.fromkeys(sides)
        if side != {aug.sink}
    ]


def _append_rows(model: MilpModel, rows: Iterable[tuple]) -> None:
    """Append rows, each a mapping from column to coefficient, a sense
    (``"<="``, ``">="`` or ``"="``) and a right-hand side, to the model as
    one block, in order; zero coefficients are dropped."""
    start, cols, values, row_lo, row_hi = [0], [], [], [], []
    for coeffs, sense, rhs in rows:
        cols += coeffs
        values += coeffs.values()
        start.append(len(cols))
        row_lo.append(-math.inf if sense == "<=" else rhs)
        row_hi.append(math.inf if sense == ">=" else rhs)
    model.add_constrs(
        np.array(start, dtype=np.intp), np.array(cols, dtype=np.intp),
        values, row_lo, row_hi,
    )


def _design_block(name: str, aug: AugmentedInstance) -> Master:
    """A master holding the block every formulation starts with: the y
    columns, then the p columns, in :class:`Master`'s layout (fictive arcs
    always selected, never protected), the cost objective, the protection
    budget as row 0, the rows ``p_a <= y_a`` of the initial arcs (only
    selected arcs can be protected), the flow-balance row of each initial
    arc that does not leave the root (defined in the module docstring), and
    then the rows :func:`append_cut` writes for each static cut
    (:func:`_static_cuts`) that :func:`cut_fits`.

    Every survivable design keeps each static cut at demand, so the cut
    rows cut off no design that any formulation accepts; they only tighten
    the LP relaxation, which without them can carry a terminal's unit on a
    fraction of one arc.  The flow-balance rows cut off integer points
    but keep every optimal cost; the module docstring gives the argument."""
    model = MilpModel(name)
    m = aug.arc_count
    fictive = np.arange(m) >= aug.initial_arc_count
    cost = np.fromiter((arc.cost for arc in aug.arcs), float, m)
    model.add_vars(
        np.concatenate((fictive, np.zeros(m))),
        np.concatenate((np.ones(m), ~fictive)),
        np.ones(2 * m, dtype=bool),
        np.concatenate((cost, np.zeros(m))),
    )
    rows = [({m + a: 1.0 for a in range(m)}, "<=", float(aug.kp))]
    rows += [({m + a: 1.0, a: -1.0}, "<=", 0.0) for a in aug.initial_arcs]
    arcs, in_arcs = aug.arcs, aug.layout.in_arcs
    for b in aug.initial_arcs:
        v, w = arcs[b].tail, arcs[b].head
        if v != aug.root:
            row = {a: -1.0 for a in in_arcs[v] if arcs[a].tail != w}
            rows.append(({b: 1.0, **row}, "<=", 0.0))
    for cut in _static_cuts(aug):
        if cut_fits(aug, cut):
            rows += _cut_rows(aug, cut)
    _append_rows(model, rows)
    return Master(model, aug)


def build_cutset_master(aug: AugmentedInstance) -> Master:
    """The design block of the cut-set master, which :func:`append_cut`
    grows."""
    return _design_block("cutset_master", aug)


def append_cut(master: Master, cut: CutSet, design: Design | None = None) -> None:
    """Append a cut to a cut-set master: the one place that decides a cut's
    rows.  A cut that :func:`cut_fits` gets one row per deletion subset of
    exactly ``min(k, m)`` of its ``m`` non-fictive arcs.

    With the block's ``p <= y`` rows, the row of a subset implies the row of
    each of its own subsets, the intact row included, so these rows alone
    are the cut's full enumeration.  A larger cut gets the one row of the
    design's :func:`worst_subset`, the row that cuts that design off;
    without a design it raises :class:`FormulationError`.
    """
    aug = master.aug
    if cut.sink_side == frozenset({aug.sink}):
        raise FormulationError("cut isolating only the super sink is not allowed")
    _append_rows(master.model, _cut_rows(aug, cut, design))


def _cut_rows(aug: AugmentedInstance, cut: CutSet, design: Design | None = None):
    """The rows :func:`append_cut` writes for a cut, one per deletion
    subset, as :func:`_subset_row` writes them."""
    if cut_fits(aug, cut):
        non_fictive = [a for a in cut.arcs if not aug.is_fictive(a)]
        subsets = itertools.combinations(non_fictive, min(aug.k, len(non_fictive)))
    elif design is not None:
        subsets = [worst_subset(aug, cut, design)]
    else:
        raise FormulationError(
            f"cut needs {count_cut_rows(aug, cut)} rows, above the limit "
            f"{CUT_ROW_LIMIT}"
        )
    return [_subset_row(aug, cut, sub) for sub in subsets]


def append_cut_subset(master: Master, cut: CutSet, subset: Sequence[int]) -> None:
    """Append the row keeping the cut at demand after deleting one subset S
    of its non-fictive arcs, ``sum_{C-S} u y + sum_S u p >= |T|``, in its
    tightened form (see the module docstring).

    The fictive arcs crossing the cut are always selected and never fail,
    so their capacity F leaves the row, which keeps the cut's other arcs
    with coefficients reduced to the need ``r = |T| - F``:
    ``sum_{C-S} min(u, r) y + sum_S min(u, r) p >= r``.
    """
    _append_rows(master.model, [_subset_row(master.aug, cut, subset)])


def _subset_row(aug: AugmentedInstance, cut: CutSet, subset: Sequence[int]) -> tuple:
    """The row of :func:`append_cut_subset`, the one writer of a tightened
    row."""
    deleted = set(subset)
    if any(aug.is_fictive(a) for a in deleted) or not deleted <= set(cut.arcs):
        raise FormulationError("deletion subset must hold non-fictive cut arcs")
    need = aug.demand - sum(aug.arcs[a].capacity for a in cut.arcs if aug.is_fictive(a))
    row = {}
    for a in cut.arcs:
        if not aug.is_fictive(a):
            col = aug.arc_count + a if a in deleted else a
            row[col] = float(min(aug.arcs[a].capacity, need))
    return row, ">=", float(need)


def build_flow_master(aug: AugmentedInstance) -> Master:
    """The design block of the flow master, which :func:`append_scenario`
    grows by one explicit flow per failure scenario."""
    return _design_block("flow_master", aug)


def append_scenario(master: Master, scenario: FailureScenario) -> None:
    """Append one failure scenario's block to a flow master: a flow column
    per arc, flow balance at every inner vertex, the demand at the sink,
    the selection capacity of every arc, and the protection capacity of
    every failed arc."""
    aug, model, m = master.aug, master.model, master.aug.arc_count
    if any(aug.is_fictive(a) for a in scenario.arcs):
        raise FormulationError("scenario contains a fictive arc")
    capacity = np.fromiter(aug.layout.capacities, float, m)
    xs = model.add_vars(np.zeros(m), capacity, np.zeros(m, dtype=bool), np.zeros(m))
    in_arcs, out_arcs = aug.layout.in_arcs, aug.layout.out_arcs
    rows = []
    for v in range(aug.vertex_count):
        if v in (aug.root, aug.sink):
            continue
        row = {xs[a]: 1.0 for a in in_arcs[v]}
        for a in out_arcs[v]:
            row[xs[a]] = row.get(xs[a], 0.0) - 1.0
        rows.append((row, "=", 0.0))
    rows.append(({xs[a]: 1.0 for a in in_arcs[aug.sink]}, "=", float(aug.demand)))
    rows += [({xs[a]: 1.0, a: -capacity[a]}, "<=", 0.0) for a in range(m)]
    rows += [
        ({xs[a]: 1.0, m + a: -capacity[a]}, "<=", 0.0) for a in scenario.sorted_arcs()
    ]
    _append_rows(model, rows)


def build_bilevel_master(aug: AugmentedInstance) -> Master:
    """The design block of the bilevel master, which :func:`append_point`
    grows by one guarantee row per attacker vertex."""
    return _design_block("bilevel_master", aug)


def append_point(master: Master, point: ExtremePoint) -> None:
    """Append the guarantee row of one attacker vertex to a bilevel master,
    ``sum u lam y + sum u gam p >= |T| - sum u (gam - ell)``: the row of its
    cut with its :attr:`ExtremePoint.deleted` arcs deleted."""
    append_cut_subset(master, point.cut, point.deleted)


# ---------------------------------------------------------------------------
# separation models


@dataclass(eq=False)
class CutSearchModel:
    """Shared shape of the min-cut style search MIPs (binary side indicator).
    The columns are lam, one per arc the model covers, then gam, one per arc
    of ``gam_arcs`` in that order, then mu, one per vertex: ``mu_var`` holds
    vertex v's column at position v."""

    model: MilpModel
    gam_arcs: np.ndarray
    mu_var: range
    aug: AugmentedInstance

    def cut_from(self, values) -> CutSet:
        """The cut whose sink side is the vertices with mu 0, which must
        read 0 or 1."""
        mu = np.asarray(values, dtype=float)[self.mu_var.start : self.mu_var.stop]
        # not "> INT_TOL", so that NaN is no vertex either
        off = ~(np.abs(mu - np.round(mu)) <= INT_TOL)
        if off.any():
            v = int(np.argmax(off))
            raise NonVertexSolution(f"mu{v} has non-binary value {float(mu[v])!r}")
        return CutSet.from_sink_side(self.aug, np.flatnonzero(mu <= 0.5).tolist())


def _cut_search_base(
    aug: AugmentedInstance,
    name: str,
    design: Design,
    arcs: np.ndarray,
    lam_cost: np.ndarray,
    selected: np.ndarray,
    capacity_row: tuple[np.ndarray, float] | None = None,
) -> CutSearchModel:
    """lam on each of ``arcs`` at cost ``lam_cost``, gam on each of those
    that is one of the design's :meth:`Design.attack_candidates`, and mu,
    binary, on every vertex; one row per arc of ``arcs``, that covers it
    with lam + gam when it leaves the root side, the budget row of gam and,
    given ``capacity_row`` (coefficients on the lam columns ``selected``,
    right-hand side), one more row bounding those from above.  ``selected``
    holds the design's selected arcs in index order.  The objective is
    declared integral (see the module docstring).

    The model is built from arrays: each arc row holds lam, the tail's mu,
    the head's mu and gam, in that order, with gam left out of the rows of
    arcs that have none."""
    model = MilpModel(name)
    model.integral_objective = True
    m, n = aug.arc_count, aug.vertex_count
    # the attack candidates: selected arcs, neither fictive nor protected
    attackable = np.zeros(m, dtype=bool)
    attackable[selected] = True
    attackable[aug.initial_arc_count :] = False
    attackable[list(design.protected)] = False
    has_gam = attackable[arcs]
    gam_arcs = arcs[has_gam]
    nl, ng = arcs.size, gam_arcs.size
    mu0 = nl + ng  # the first mu column
    lb, ub, cost = np.zeros(mu0 + n), np.ones(mu0 + n), np.zeros(mu0 + n)
    lb[mu0 + aug.root] = 1.0
    ub[mu0 + aug.sink] = 0.0
    cost[:nl] = lam_cost
    integer = np.zeros(mu0 + n, dtype=bool)
    integer[mu0:] = True
    model.add_vars(lb, ub, integer, cost)
    # the arc rows, one per lam column, then the budget row over every gam
    gam_cols = np.arange(nl, mu0)
    entries = np.empty((nl, 4), dtype=np.intp)
    entries[:, 0] = np.arange(nl)
    # the layout's edge 2i enters arc i's head, and edge 2i + 1 its tail;
    # shifted by mu0, a vertex is its mu column
    ends = np.fromiter(aug.layout.to, np.intp, 2 * m)
    ends += mu0
    entries[:, 1] = ends[1::2][arcs]
    entries[:, 2] = ends[0::2][arcs]
    entries[has_gam, 3] = gam_cols
    used = np.ones((nl, 4), dtype=bool)
    used[:, 3] = has_gam
    rows = nl + 1 if capacity_row is None else nl + 2
    start = np.empty(rows + 1, dtype=np.intp)
    start[0] = 0
    np.add(has_gam, 3, out=start[1 : nl + 1])
    start[nl + 1] = ng
    cols = [entries[used], gam_cols]
    if capacity_row is not None:
        start[nl + 2] = selected.size
        cols.append(selected)
    start = start.cumsum()
    values = np.ones(start[-1])
    values[start[:nl] + 1] = -1.0  # the tail's mu
    row_lo, row_hi = np.zeros(rows), np.full(rows, math.inf)
    row_lo[nl:] = -math.inf
    row_hi[nl] = aug.k
    if capacity_row is not None:
        coefficients, rhs = capacity_row
        values[start[nl + 1] :] = coefficients
        row_hi[nl + 1] = rhs
    model.add_constrs(start, np.concatenate(cols), values, row_lo, row_hi)
    return CutSearchModel(model, gam_arcs, range(mu0, mu0 + n), aug)


def _selected_and_capacities(
    aug: AugmentedInstance, design: Design
) -> tuple[np.ndarray, np.ndarray]:
    """The design's selected arcs in index order, and every arc's capacity."""
    selected = np.fromiter(design.selected, np.intp, len(design.selected))
    selected.sort()
    capacity = np.fromiter(aug.layout.capacities, float, aug.arc_count)
    return selected, capacity


def build_cutset_separation(aug: AugmentedInstance, design: Design) -> CutSearchModel:
    """Find the cut whose post-attack capacity under the design is smallest.

    gam marks cut arcs written off as failed (budget k); the objective counts
    the surviving selected capacity.  Only selected arcs get a row and lam:
    an unselected arc's row holds at lam = 1, which costs nothing.
    """
    selected, capacity = _selected_and_capacities(aug, design)
    return _cut_search_base(
        aug, "cutset_separation", design, selected, capacity[selected], selected
    )


def build_strengthening(aug: AugmentedInstance, design: Design) -> CutSearchModel:
    """Find a failing cut that touches as few arcs as possible.

    Feasible iff some cut drops below demand after at most k failures of the
    design's attack candidates; infeasible for survivable designs.  The
    optimum of a cut is the number of lam arcs of its vertex under its worst
    deletion subset (see the module docstring).  The last row keeps the
    selected capacity across the cut below the demand; arc a's lam column
    is column a.
    """
    m = aug.arc_count
    selected, capacity = _selected_and_capacities(aug, design)
    return _cut_search_base(
        aug,
        "cut_strengthening",
        design,
        np.arange(m),
        np.ones(m),
        selected,
        (capacity[selected], float(aug.demand) - 1.0),
    )
