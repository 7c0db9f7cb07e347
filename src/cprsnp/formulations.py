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
  attacker/min-cut polytope, generated on demand.

All three start from one design block: the ``y`` columns, then the ``p``
columns, the cost objective, the protection budget as row 0 and one
``p_a <= y_a`` row per initial arc.  Each master is a :class:`Master` over
that block and only adds its own rows and columns after it.

Each builder is the design block plus one appender per item, applied in
order: :func:`append_cut` (a cut's rows, with :func:`append_cut_subset`
for one more deletion subset of a known cut),
:func:`append_scenario` (a scenario's flow block) and :func:`append_point`
(a vertex's row).  The engine builds each master once per solve and grows
it in place with the appenders, while the tree that solves it is open.

The builders only assemble models; the delayed generation lives in
:mod:`cprsnp.separation` and :mod:`cprsnp.engine`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .graph import ArcMask, AugmentedInstance, CutSet
from .milp import INT_TOL, MilpModel

# most rows :func:`append_cut` writes for one cut; the engine writes a larger
# cut one deletion subset per violation instead
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
        prot = frozenset(protected) & sel
        prot = frozenset(a for a in prot if not aug.is_fictive(a))
        if len(prot) > aug.kp:
            raise FormulationError(
                f"{len(prot)} protected arcs exceed the budget {aug.kp}"
            )
        for a in sel:
            if not 0 <= a < aug.arc_count:
                raise FormulationError(f"unknown arc index {a}")
        return Design(selected=sel, protected=prot)

    def is_canonical(self, aug: AugmentedInstance) -> bool:
        return (
            frozenset(aug.fictive_arcs) <= self.selected
            and self.protected <= self.selected
            and all(not aug.is_fictive(a) for a in self.protected)
            and len(self.protected) <= aug.kp
        )

    def cost(self, aug: AugmentedInstance) -> float:
        return float(sum(aug.arcs[a].cost for a in self.selected))

    def mask(self, aug: AugmentedInstance, failed: Iterable[int] = ()) -> ArcMask:
        return ArcMask.for_design(aug, self.selected, self.protected, failed)


@dataclass(frozen=True)
class FailureScenario:
    """A set of initial arcs assumed to fail simultaneously."""

    arcs: frozenset[int]

    @staticmethod
    def of(aug: AugmentedInstance, arcs: Iterable[int]) -> "FailureScenario":
        arcset = frozenset(arcs)
        for a in arcset:
            if not 0 <= a < aug.arc_count:
                raise FormulationError(f"unknown arc index {a}")
            if aug.is_fictive(a):
                raise FormulationError("fictive arcs cannot fail")
        return FailureScenario(arcs=arcset)

    def sorted_arcs(self) -> tuple[int, ...]:
        return tuple(sorted(self.arcs))


@dataclass(frozen=True)
class ExtremePoint:
    """0/1 vertex of the attacker-cut polytope used for master rows.

    ``attack`` marks failed arcs (at most ``k``, never fictive), ``lam`` and
    ``gam`` are the two per-arc cut multipliers, ``mu`` the per-vertex side
    indicator (1 at the root, 0 at the sink), ``ell`` the product
    ``attack * gam``.
    """

    attack: tuple[int, ...]
    lam: tuple[int, ...]
    gam: tuple[int, ...]
    mu: tuple[int, ...]
    ell: tuple[int, ...]

    def validate(self, aug: AugmentedInstance) -> None:
        m, n = aug.arc_count, aug.vertex_count
        for name, vec, size in (
            ("attack", self.attack, m),
            ("lam", self.lam, m),
            ("gam", self.gam, m),
            ("mu", self.mu, n),
            ("ell", self.ell, m),
        ):
            if len(vec) != size:
                raise FormulationError(f"{name} has length {len(vec)}, expected {size}")
            if any(v not in (0, 1) for v in vec):
                raise FormulationError(f"{name} must be 0/1")
        if sum(self.attack) > aug.k:
            raise FormulationError("attack exceeds the failure budget")
        if any(self.attack[a] for a in aug.fictive_arcs):
            raise FormulationError("attack on a fictive arc")
        if self.mu[aug.root] != 1 or self.mu[aug.sink] != 0:
            raise FormulationError("mu must be 1 at the root and 0 at the sink")
        for i, arc in enumerate(aug.arcs):
            if self.lam[i] + self.gam[i] - self.mu[arc.tail] + self.mu[arc.head] < 0:
                raise FormulationError(f"dual feasibility violated on arc {i}")
            if not (
                self.ell[i] <= self.attack[i]
                and self.ell[i] <= self.gam[i]
                and self.ell[i] >= self.gam[i] + self.attack[i] - 1
            ):
                raise FormulationError(f"ell is not attack*gam on arc {i}")


# ---------------------------------------------------------------------------
# evaluation helpers


def worst_subset(
    aug: AugmentedInstance, cut: CutSet, design: Design
) -> tuple[int, ...]:
    """The cut's worst deletion subset under the design: its k largest
    capacities among selected, unprotected, non-fictive arcs (all of them if
    fewer than k), ties to the lower index, returned in index order."""
    vulnerable = sorted(
        (
            a
            for a in cut.arcs
            if not aug.is_fictive(a)
            and a in design.selected
            and a not in design.protected
        ),
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


# ---------------------------------------------------------------------------
# master builders


def _design_block(name: str, aug: AugmentedInstance):
    """A model holding the block every master starts with: the y columns,
    then the p columns (fictive arcs always selected, never protected), the
    cost objective, the protection budget as row 0, and the rows
    ``p_a <= y_a`` of the initial arcs (only selected arcs can be
    protected)."""
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
    model.set_objective({y_var[a]: aug.arcs[a].cost for a in range(m)}, minimize=True)
    model.add_constr({p_var[a]: 1.0 for a in range(m)}, "<=", float(aug.kp))
    for a in aug.initial_arcs:
        model.add_constr({p_var[a]: 1.0, y_var[a]: -1.0}, "<=", 0.0)
    return model, y_var, p_var


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


def build_cutset_master(aug: AugmentedInstance, cuts: Sequence[CutSet]) -> Master:
    """Selection/protection master constrained by the given cuts, each
    appended by :func:`append_cut`."""
    model, y_var, p_var = _design_block("cutset_master", aug)
    master = Master(model, y_var, p_var, aug)
    for cut in cuts:
        append_cut(master, cut)
    return master


def append_cut(master: Master, cut: CutSet) -> None:
    """Append a cut to a cut-set master: one row per deletion subset of
    exactly ``min(k, m)`` of its ``m`` non-fictive arcs.

    With the block's ``p <= y`` rows, the row of a subset implies the row of
    each of its own subsets, the intact row included, so these rows alone
    are the cut's full enumeration.  A cut that needs more than
    :data:`CUT_ROW_LIMIT` rows raises :class:`FormulationError`.
    """
    aug = master.aug
    if cut.sink_side == frozenset({aug.sink}):
        raise FormulationError("cut isolating only the super sink is not allowed")
    n_rows = count_cut_rows(aug, cut)
    if n_rows > CUT_ROW_LIMIT:
        raise FormulationError(
            f"cut needs {n_rows} rows, above the limit {CUT_ROW_LIMIT}"
        )
    non_fictive = [a for a in cut.arcs if not aug.is_fictive(a)]
    for sub in itertools.combinations(non_fictive, min(aug.k, len(non_fictive))):
        append_cut_subset(master, cut, sub)


def append_cut_subset(master: Master, cut: CutSet, subset: Sequence[int]) -> None:
    """Append the row keeping the cut at demand after deleting one subset of
    its arcs: the selected capacity of the others plus the protected
    capacity of the subset, ``sum_{C-S} u y + sum_S u p >= |T|``."""
    aug = master.aug
    if any(aug.is_fictive(a) for a in subset):
        raise FormulationError("deletion subset contains a fictive arc")
    row = {master.y_var[a]: float(aug.arcs[a].capacity) for a in cut.arcs}
    for a in subset:
        u = float(aug.arcs[a].capacity)
        y, p = master.y_var[a], master.p_var[a]
        row[y] = row.get(y, 0.0) - u
        row[p] = row.get(p, 0.0) + u
    master.model.add_constr(row, ">=", float(aug.demand))


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
    model, y_var, p_var = _design_block("flow_master", aug)
    master = Master(model, y_var, p_var, aug)
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
    model, y_var, p_var = _design_block("bilevel_master", aug)
    master = Master(model, y_var, p_var, aug)
    for pt in points:
        append_point(master, pt)
    return master


def append_point(master: Master, point: ExtremePoint) -> None:
    """Append the guarantee row of one attacker vertex to a bilevel master."""
    aug = master.aug
    point.validate(aug)
    row: dict[int, float] = {}
    const = 0.0
    for a, arc in enumerate(aug.arcs):
        u = float(arc.capacity)
        if point.lam[a]:
            row[master.y_var[a]] = u * point.lam[a]
        if point.gam[a]:
            row[master.p_var[a]] = u * point.gam[a]
        const += u * point.gam[a] - u * point.ell[a]
    master.model.add_constr(row, ">=", float(aug.demand) - const)


# ---------------------------------------------------------------------------
# separation models


@dataclass
class CutSearchModel:
    """Shared shape of the min-cut style search MIPs (binary side indicator)."""

    model: MilpModel
    lam_var: list[int]
    gam_var: list[int]
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


def _cut_search_base(aug: AugmentedInstance, name: str) -> CutSearchModel:
    model = MilpModel(name)
    m = aug.arc_count
    lam_var = [model.add_var(f"lam{a}", 0.0, 1.0) for a in range(m)]
    gam_var = [
        model.add_var(f"gam{a}", 0.0, 0.0 if aug.is_fictive(a) else 1.0)
        for a in range(m)
    ]
    mu_var = []
    for v in range(aug.vertex_count):
        lo = 1.0 if v == aug.root else 0.0
        hi = 0.0 if v == aug.sink else 1.0
        mu_var.append(model.add_var(f"mu{v}", lo, hi, integer=True))
    for a, arc in enumerate(aug.arcs):
        model.add_constr(
            {
                lam_var[a]: 1.0,
                gam_var[a]: 1.0,
                mu_var[arc.tail]: -1.0,
                mu_var[arc.head]: 1.0,
            },
            ">=",
            0.0,
        )
    model.add_constr({gam_var[a]: 1.0 for a in range(m)}, "<=", float(aug.k))
    return CutSearchModel(model, lam_var, gam_var, mu_var, aug)


def build_cutset_separation(aug: AugmentedInstance, design: Design) -> CutSearchModel:
    """Find the cut whose post-attack capacity under the design is smallest.

    gam marks cut arcs written off as failed (budget k, never fictive); the
    objective counts the surviving selected capacity, so protected arcs
    always count.
    """
    search = _cut_search_base(aug, "cutset_separation")
    obj: dict[int, float] = {}
    for a, arc in enumerate(aug.arcs):
        if a not in design.selected:
            continue
        u = float(arc.capacity)
        obj[search.lam_var[a]] = u
        if a in design.protected:
            obj[search.gam_var[a]] = u
    search.model.set_objective(obj, minimize=True)
    return search


def build_strengthening(aug: AugmentedInstance, design: Design) -> CutSearchModel:
    """Find a failing cut that touches as few arcs as possible.

    Feasible iff some cut drops below demand after at most k failures of the
    design's unprotected arcs; infeasible for survivable designs.  The
    protected term counts capacities, like every other capacity sum.
    """
    search = _cut_search_base(aug, "cut_strengthening")
    row: dict[int, float] = {}
    for a, arc in enumerate(aug.arcs):
        u = float(arc.capacity)
        if a in design.selected:
            row[search.lam_var[a]] = u
        if a in design.protected:
            row[search.gam_var[a]] = u
    search.model.add_constr(row, "<=", float(aug.demand) - 1.0)
    search.model.set_objective(
        {search.lam_var[a]: 1.0 for a in range(aug.arc_count)}, minimize=True
    )
    return search


@dataclass
class InnerFlowModel:
    model: MilpModel
    x_var: list[int]
    aug: AugmentedInstance


def build_inner_flow(
    aug: AugmentedInstance,
    design: Design,
    attack: FailureScenario | Iterable[int] = (),
) -> InnerFlowModel:
    """LP of the flow the design still carries under a fixed attack.

    The polytope is integral (its constraint matrix is an incidence matrix
    with duplicated capacity rows), so simplex vertices are integer flows
    and the optimum equals the masked max flow.
    """
    failed = attack.arcs if isinstance(attack, FailureScenario) else frozenset(attack)
    for a in failed:
        if aug.is_fictive(a):
            raise FormulationError("fictive arcs cannot fail")
    model = MilpModel("inner_flow")
    x_var = []
    for a, arc in enumerate(aug.arcs):
        cap = float(arc.capacity) if a in design.selected else 0.0
        x_var.append(model.add_var(f"x{a}", 0.0, cap))
    in_arcs, out_arcs = aug.layout.in_arcs, aug.layout.out_arcs
    for v in range(aug.vertex_count):
        if v in (aug.root, aug.sink):
            continue
        row = {x_var[a]: 1.0 for a in in_arcs[v]}
        for a in out_arcs[v]:
            row[x_var[a]] = row.get(x_var[a], 0.0) - 1.0
        model.add_constr(row, "=", 0.0)
    for a in aug.initial_arcs:
        u = float(aug.arcs[a].capacity)
        limit = u * (1.0 - (a in failed) + (a in design.protected))
        model.add_constr({x_var[a]: 1.0}, "<=", limit)
    obj = {x_var[a]: 1.0 for a in out_arcs[aug.root]}
    for a in in_arcs[aug.root]:
        obj[x_var[a]] = obj.get(x_var[a], 0.0) - 1.0
    model.set_objective(obj, minimize=False)
    return InnerFlowModel(model, x_var, aug)
