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
columns, the cost objective, the protection budget as row 0, one
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

Each builder is the design block plus one appender per item, applied in
order: :func:`append_cut` (a cut's rows, the one place that decides them:
the full enumeration for a cut that :func:`cut_fits`, else the row of the
violating design's worst deletion subset), :func:`append_scenario` (a
scenario's flow block) and :func:`append_point` (a vertex's row: its cut's
row with its attacked arcs deleted).  Cut and vertex rows alike are
written by :func:`append_cut_subset`, the one writer of a tightened row.
The engine builds each master once per solve and grows it in place with
the appenders, while the tree that solves it is open.

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

The builders only assemble models; the delayed generation lives in
:mod:`cprsnp.separation` and :mod:`cprsnp.engine`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .graph import ArcMask, AugmentedInstance, CutSet, is_index
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
        sel = frozenset(selected) | frozenset(aug.fictive_arcs)
        for a in sel:
            if not is_index(a, aug.arc_count):
                raise FormulationError(f"unknown arc index {a!r}")
        prot = frozenset(protected) & sel
        prot = frozenset(a for a in prot if not aug.is_fictive(a))
        if len(prot) > aug.kp:
            raise FormulationError(
                f"{len(prot)} protected arcs exceed the budget {aug.kp}"
            )
        return Design(selected=sel, protected=prot)

    def is_canonical(self, aug: AugmentedInstance) -> bool:
        """True when :meth:`canonical` of this design's arcs is the design
        itself."""
        try:
            return Design.canonical(aug, self.selected, self.protected) == self
        except FormulationError:
            return False

    def cost(self, aug: AugmentedInstance) -> float:
        return float(sum(aug.arcs[a].cost for a in self.selected))

    def mask(self, aug: AugmentedInstance, failed: Iterable[int] = ()) -> ArcMask:
        return ArcMask.for_design(aug, self.selected, self.protected, failed)

    def attack_candidates(self, aug: AugmentedInstance) -> list[int]:
        """The arcs an attack may fail, in index order: the selected arcs
        that are neither protected nor fictive."""
        return sorted(
            a
            for a in self.selected
            if not aug.is_fictive(a) and a not in self.protected
        )


@dataclass(frozen=True)
class FailureScenario:
    """A set of initial arcs assumed to fail simultaneously."""

    arcs: frozenset[int]

    @staticmethod
    def of(aug: AugmentedInstance, arcs: Iterable[int]) -> "FailureScenario":
        arcset = frozenset(arcs)
        for a in arcset:
            # the initial arcs come first; the fictive ones never fail
            if not is_index(a, aug.initial_arc_count):
                raise FormulationError(f"arc index {a!r} is no initial arc")
        return FailureScenario(arcs=arcset)

    def sorted_arcs(self) -> tuple[int, ...]:
        return tuple(sorted(self.arcs))


@dataclass(frozen=True)
class ExtremePoint:
    """0/1 vertex of the attacker-cut polytope used for master rows, stored
    as the cut and the attack it is the vertex of.

    ``failed`` is the attack (at most ``k`` arcs, never fictive) and
    ``arc_count`` the length of the per-arc views.  In the polytope's terms
    mu is 1 exactly on the cut's root side, gam = ell marks the failed arcs
    that cross the cut, and lam the other crossing arcs.
    """

    cut: CutSet
    failed: frozenset[int]
    arc_count: int

    @property
    def deleted(self) -> tuple[int, ...]:
        """The failed arcs that cross the cut, in ``cut.arcs`` order."""
        return tuple(a for a in self.cut.arcs if a in self.failed)

    @property
    def lam(self) -> tuple[int, ...]:
        crossing = set(self.cut.arcs) - self.failed
        return tuple(int(a in crossing) for a in range(self.arc_count))

    @property
    def gam(self) -> tuple[int, ...]:
        hit = set(self.deleted)
        return tuple(int(a in hit) for a in range(self.arc_count))

    ell = gam  # attack * gam, which is gam itself


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
    formulation (only the flow master adds columns, after the first 2m)."""

    model: MilpModel
    y_var: list[int]
    p_var: list[int]
    aug: AugmentedInstance

    def design_from(self, values) -> Design:
        sel = {a for a in range(self.aug.arc_count) if values[self.y_var[a]] > 0.5}
        prot = {a for a in range(self.aug.arc_count) if values[self.p_var[a]] > 0.5}
        return Design.canonical(self.aug, sel, prot)


def _static_cuts(aug: AugmentedInstance) -> list[CutSet]:
    """The cuts every master holds from the start: the root cut, then for
    each terminal t the cut with sink side ``{t, s}``, each distinct cut
    once."""
    root_cut = frozenset(range(aug.vertex_count)) - {aug.root}
    sides = [root_cut] + [frozenset({t, aug.sink}) for t in aug.terminals]
    return [CutSet.from_sink_side(aug, side) for side in dict.fromkeys(sides)]


def _design_block(name: str, aug: AugmentedInstance) -> Master:
    """A master holding the block every formulation starts with: the y
    columns, then the p columns (fictive arcs always selected, never
    protected), the cost objective, the protection budget as row 0, the rows
    ``p_a <= y_a`` of the initial arcs (only selected arcs can be
    protected), the flow-balance row of each initial arc that does not
    leave the root (defined in the module docstring), and then the rows
    :func:`append_cut` writes for each static cut (:func:`_static_cuts`)
    that :func:`cut_fits`.

    Every survivable design keeps each static cut at demand, so the cut
    rows cut off no design that any formulation accepts; they only tighten
    the LP relaxation, which without them can carry a terminal's unit on a
    fraction of one arc.  The flow-balance rows cut off integer points
    but keep every optimal cost; the module docstring gives the argument."""
    model = MilpModel(name)
    m = aug.arc_count
    fictive = [aug.is_fictive(a) for a in range(m)]
    y_var = [
        model.add_var(f"y{a}", lb=float(fictive[a]), ub=1.0, integer=True)
        for a in range(m)
    ]
    p_var = [
        model.add_var(f"p{a}", lb=0.0, ub=float(not fictive[a]), integer=True)
        for a in range(m)
    ]
    model.set_objective({y_var[a]: aug.arcs[a].cost for a in range(m)})
    model.add_constr({p_var[a]: 1.0 for a in range(m)}, "<=", float(aug.kp))
    for a in aug.initial_arcs:
        model.add_constr({p_var[a]: 1.0, y_var[a]: -1.0}, "<=", 0.0)
    arcs, in_arcs = aug.arcs, aug.layout.in_arcs
    for b in aug.initial_arcs:
        v, w = arcs[b].tail, arcs[b].head
        if v != aug.root:
            row = {y_var[a]: -1.0 for a in in_arcs[v] if arcs[a].tail != w}
            model.add_constr({y_var[b]: 1.0, **row}, "<=", 0.0)
    master = Master(model, y_var, p_var, aug)
    for cut in _static_cuts(aug):
        if cut_fits(aug, cut):
            append_cut(master, cut)
    return master


def build_cutset_master(aug: AugmentedInstance, cuts: Sequence[CutSet]) -> Master:
    """Selection/protection master constrained by the given cuts, each
    appended by :func:`append_cut`."""
    master = _design_block("cutset_master", aug)
    for cut in cuts:
        append_cut(master, cut)
    return master


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
    for sub in subsets:
        append_cut_subset(master, cut, sub)


def append_cut_subset(master: Master, cut: CutSet, subset: Sequence[int]) -> None:
    """Append the row keeping the cut at demand after deleting one subset S
    of its non-fictive arcs, ``sum_{C-S} u y + sum_S u p >= |T|``, in its
    tightened form (see the module docstring).

    The fictive arcs crossing the cut are always selected and never fail,
    so their capacity F leaves the row, which keeps the cut's other arcs
    with coefficients reduced to the need ``r = |T| - F``:
    ``sum_{C-S} min(u, r) y + sum_S min(u, r) p >= r``.
    """
    aug = master.aug
    deleted = set(subset)
    if any(aug.is_fictive(a) for a in deleted) or not deleted <= set(cut.arcs):
        raise FormulationError("deletion subset must hold non-fictive cut arcs")
    need = aug.demand - sum(aug.arcs[a].capacity for a in cut.arcs if aug.is_fictive(a))
    row = {}
    for a in cut.arcs:
        if not aug.is_fictive(a):
            col = master.p_var[a] if a in deleted else master.y_var[a]
            row[col] = float(min(aug.arcs[a].capacity, need))
    master.model.add_constr(row, ">=", float(need))


def build_flow_master(
    aug: AugmentedInstance, scenarios: Sequence[FailureScenario]
) -> Master:
    """Selection/protection master with one explicit flow per failure
    scenario, each appended by :func:`append_scenario`."""
    seen: set[frozenset[int]] = set()
    for sc in scenarios:
        if sc.arcs in seen:
            raise FormulationError("duplicate failure scenario")
        seen.add(sc.arcs)
    master = _design_block("flow_master", aug)
    for scenario in scenarios:
        append_scenario(master, scenario)
    return master


def append_scenario(master: Master, scenario: FailureScenario) -> None:
    """Append one failure scenario's block to a flow master: a flow column
    per arc, flow balance at every inner vertex, the demand at the sink,
    the selection capacity of every arc, and the protection capacity of
    every failed arc."""
    aug, model = master.aug, master.model
    if any(aug.is_fictive(a) for a in scenario.arcs):
        raise FormulationError("scenario contains a fictive arc")
    xs = [
        model.add_var(f"x{a}", lb=0.0, ub=float(aug.arcs[a].capacity))
        for a in range(aug.arc_count)
    ]
    in_arcs, out_arcs = aug.layout.in_arcs, aug.layout.out_arcs
    for v in range(aug.vertex_count):
        if v in (aug.root, aug.sink):
            continue
        row = {xs[a]: 1.0 for a in in_arcs[v]}
        for a in out_arcs[v]:
            row[xs[a]] = row.get(xs[a], 0.0) - 1.0
        model.add_constr(row, "=", 0.0)
    sink_row = {xs[a]: 1.0 for a in in_arcs[aug.sink]}
    model.add_constr(sink_row, "=", float(aug.demand))
    for a in range(aug.arc_count):
        model.add_constr(
            {xs[a]: 1.0, master.y_var[a]: -float(aug.arcs[a].capacity)}, "<=", 0.0
        )
    for a in scenario.sorted_arcs():
        model.add_constr(
            {xs[a]: 1.0, master.p_var[a]: -float(aug.arcs[a].capacity)}, "<=", 0.0
        )


def build_bilevel_master(
    aug: AugmentedInstance, points: Sequence[ExtremePoint]
) -> Master:
    """Selection/protection master with one guarantee row per attacker
    vertex, each appended by :func:`append_point`."""
    master = _design_block("bilevel_master", aug)
    for pt in points:
        append_point(master, pt)
    return master


def append_point(master: Master, point: ExtremePoint) -> None:
    """Append the guarantee row of one attacker vertex to a bilevel master,
    ``sum u lam y + sum u gam p >= |T| - sum u (gam - ell)``: the row of its
    cut with its :attr:`ExtremePoint.deleted` arcs deleted."""
    append_cut_subset(master, point.cut, point.deleted)


# ---------------------------------------------------------------------------
# separation models


@dataclass
class CutSearchModel:
    """Shared shape of the min-cut style search MIPs (binary side indicator):
    ``lam_var`` and ``gam_var`` map an arc to its column, for the arcs that
    have one."""

    model: MilpModel
    lam_var: dict[int, int]
    gam_var: dict[int, int]
    mu_var: list[int]
    aug: AugmentedInstance

    def sink_side(self, values) -> frozenset[int]:
        side = set()
        for v in range(self.aug.vertex_count):
            val = float(values[self.mu_var[v]])
            if abs(val - round(val)) > INT_TOL:
                raise NonVertexSolution(f"mu{v} has non-binary value {val!r}")
            if val <= 0.5:
                side.add(v)
        return frozenset(side)

    def cut_from(self, values) -> CutSet:
        return CutSet.from_sink_side(self.aug, self.sink_side(values))


def _cut_search_base(
    aug: AugmentedInstance, name: str, arcs: Iterable[int], design: Design
) -> CutSearchModel:
    """lam on each of ``arcs``, gam on each of those that is one of the
    design's :meth:`Design.attack_candidates`, and mu, binary, on every
    vertex; one row per arc of ``arcs``, that covers it with lam + gam when
    it leaves the root side, and the budget row of gam.  The objective is
    declared integral (see the module docstring)."""
    model = MilpModel(name)
    model.integral_objective = True
    attackable = set(design.attack_candidates(aug))
    lam_var = {a: model.add_var(f"lam{a}", 0.0, 1.0) for a in arcs}
    gam_var = {
        a: model.add_var(f"gam{a}", 0.0, 1.0) for a in lam_var if a in attackable
    }
    mu_var = []
    for v in range(aug.vertex_count):
        lo = 1.0 if v == aug.root else 0.0
        hi = 0.0 if v == aug.sink else 1.0
        mu_var.append(model.add_var(f"mu{v}", lo, hi, integer=True))
    for a in lam_var:
        arc = aug.arcs[a]
        row = {lam_var[a]: 1.0, mu_var[arc.tail]: -1.0, mu_var[arc.head]: 1.0}
        if a in gam_var:
            row[gam_var[a]] = 1.0
        model.add_constr(row, ">=", 0.0)
    model.add_constr({g: 1.0 for g in gam_var.values()}, "<=", float(aug.k))
    return CutSearchModel(model, lam_var, gam_var, mu_var, aug)


def build_cutset_separation(aug: AugmentedInstance, design: Design) -> CutSearchModel:
    """Find the cut whose post-attack capacity under the design is smallest.

    gam marks cut arcs written off as failed (budget k); the objective counts
    the surviving selected capacity.  Only selected arcs get a row and lam:
    an unselected arc's row holds at lam = 1, which costs nothing.
    """
    search = _cut_search_base(aug, "cutset_separation", sorted(design.selected), design)
    search.model.set_objective(
        {col: float(aug.arcs[a].capacity) for a, col in search.lam_var.items()}
    )
    return search


def build_strengthening(aug: AugmentedInstance, design: Design) -> CutSearchModel:
    """Find a failing cut that touches as few arcs as possible.

    Feasible iff some cut drops below demand after at most k failures of the
    design's attack candidates; infeasible for survivable designs.  The
    optimum of a cut is the number of lam arcs of its vertex under its worst
    deletion subset (see the module docstring).
    """
    search = _cut_search_base(aug, "cut_strengthening", range(aug.arc_count), design)
    row = {
        col: float(aug.arcs[a].capacity)
        for a, col in search.lam_var.items()
        if a in design.selected
    }
    search.model.add_constr(row, "<=", float(aug.demand) - 1.0)
    search.model.set_objective({col: 1.0 for col in search.lam_var.values()})
    return search
