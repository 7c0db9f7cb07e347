"""Delayed constraint-and-column generation engine (branch and check).

All three formulations run on one branch-and-bound tree: the restricted
master goes to :func:`cprsnp.milp.solve_mip` once, and the tree calls back
at every integer-feasible point.  The callback asks the formulation's
oracle whether that point's design survives every attack; a survivable
design may become the tree's incumbent, and a violation is appended to the
master in place, on which the tree re-solves the same node from its
current basis and carries on.

A formulation plugs in as one small class that holds only its master
(``master``; the instance is ``master.aug``), chosen once from its name in
:data:`FORMULATION_CLASSES`.  Its constructor builds the master's design
block once per solve, and the flow formulation then appends its seed
scenario.  ``separate(design, deadline)`` runs the oracle, and
``add(violation, design)`` only appends the violation's rows and columns
to the master.  The callback keeps the one stall check of every
formulation: each appended row cuts off the design that it repairs (by at
least one unit, as capacities are integer), so a design that the master
returns after it was rejected raises :class:`EngineError`.  Designs are
finite, so a master that stalls must repeat one.

Each violation is one :class:`IterationRecord`: the tree's global lower
bound at that moment, the violation's value, and how many rows and columns
it added, as the master's size after the append less its size before.

A survivable design found upfront, by a depth-first loop over protections
of the all-arcs design that branches on one failing attack of each
protection set (:func:`cprsnp.separation.failing_scenario`), decides
every outcome without a design (Infeasible, or out of time) before any
master is built.  So every tree starts from that design and is pruned by
its cost: a tree with nothing strictly cheaper proves it optimal.  The
solve holds one best design, the probe's and then each design the tree
accepts (the cutoff makes each strictly cheaper), and hands it, or none,
to one ``finish``, which works out its cost and gap.  The time limit is
one deadline on the :func:`time.perf_counter` clock, set as the solve
starts, at which the probe, the tree and every oracle call stop.
"""

from __future__ import annotations

import logging
import numbers
import time
from dataclasses import dataclass

from .graph import AugmentedInstance, ArcMask, format_cost, max_flow
from .formulations import (
    Design,
    FailureScenario,
    append_cut,
    append_point,
    append_scenario,
    build_bilevel_master,
    build_cutset_master,
    build_flow_master,
)
from .milp import SolveStatus, solve_mip
from .separation import (
    SeparationTimeout,
    failing_scenario,
    separate_bilevel,
    separate_cutset,
    separate_scenario,
)
from .separation import strengthen as strengthen_point

log = logging.getLogger(__name__)


class EngineError(RuntimeError):
    """Generation reached a state that should be impossible."""


@dataclass(frozen=True)
class EngineOptions:
    """``time_limit_s`` is a nonnegative number of seconds; ``inf`` means no
    limit."""

    time_limit_s: float = 2000.0

    def __post_init__(self):
        # NaN fails every comparison, so it would silently remove the limit;
        # a value that is no real number, such as "5" or None, cannot compare
        limit = self.time_limit_s
        if not (isinstance(limit, numbers.Real) and limit >= 0):
            raise ValueError(
                f"time limit must be a nonnegative number of seconds, got {limit}"
            )


def _log_value(value: float) -> str:
    """A bound in the iteration log: an integral value as its exact digits,
    any other as ``:g``."""
    value = float(value)
    return str(int(value)) if value.is_integer() else f"{value:g}"


@dataclass(frozen=True)
class IterationRecord:
    """One violation found in the tree, or the closing record of a run
    (no rows added; ``separation_value`` is the demand when the tree's
    optimum survived and None when the upfront incumbent was proven)."""

    iteration: int
    master_objective: float
    separation_value: float | None
    rows_added: int
    columns_added: int
    seconds: float

    def line(self, formulation: str, include_time: bool = False) -> str:
        parts = [
            f"formulation={formulation}",
            f"iter={self.iteration}",
            f"master_obj={_log_value(self.master_objective)}",
            "sep_value="
            + (
                "none"
                if self.separation_value is None
                else _log_value(self.separation_value)
            ),
            f"rows_added={self.rows_added}",
            f"cols_added={self.columns_added}",
        ]
        if include_time:
            parts.append(f"elapsed={self.seconds:.3f}")
        return " ".join(parts)


@dataclass
class Solution:
    status: SolveStatus
    design: Design | None
    cost: float | None
    gap: float | None
    log: tuple[IterationRecord, ...]
    formulation: str
    seconds: float = 0.0

    @property
    def iterations(self) -> int:
        return len(self.log)

    def log_lines(self) -> list[str]:
        return [rec.line(self.formulation) for rec in self.log]


# The formulations.  Each builds its master's design block in its
# constructor, and ``add`` grows that master in place.  The build_*_master
# functions and the oracles are called through this module's globals, where
# the benchmark's per-layer trace (perfbench/tracer.py) wraps them.


class CutsetFormulation:
    """Seeded with no cut of its own: the design block already holds the
    root cut and the cut around each terminal.  Each violated cut goes to
    :func:`~cprsnp.formulations.append_cut` with the violating design."""

    def __init__(self, aug: AugmentedInstance):
        self.master = build_cutset_master(aug)

    def separate(self, design: Design, deadline: float):
        return separate_cutset(self.master.aug, design, deadline=deadline)

    def add(self, violation, design: Design) -> None:
        append_cut(self.master, violation.cut, design)


class FlowFormulation:
    """Seeded with the lexicographically first k-subset of initial arcs as
    its one failure scenario, appended to the design block like any
    other."""

    def __init__(self, aug: AugmentedInstance):
        self.master = build_flow_master(aug)
        first = range(min(aug.k, aug.initial_arc_count))
        append_scenario(self.master, FailureScenario.of(aug, first))

    def separate(self, design: Design, deadline: float):
        return separate_scenario(self.master.aug, design, deadline=deadline)

    def add(self, violation, design: Design) -> None:
        append_scenario(self.master, violation.scenario)


class BilevelFormulation:
    """Seeded with no attacker vertex; each violated vertex is strengthened
    before it is returned."""

    def __init__(self, aug: AugmentedInstance):
        self.master = build_bilevel_master(aug)

    def separate(self, design: Design, deadline: float):
        aug = self.master.aug
        violation = separate_bilevel(aug, design, deadline=deadline)
        if violation is not None:
            violation = strengthen_point(aug, design, violation, deadline=deadline)
        return violation

    def add(self, violation, design: Design) -> None:
        append_point(self.master, violation.point)


FORMULATION_CLASSES = {
    "cutset": CutsetFormulation,
    "flow": FlowFormulation,
    "bilevel": BilevelFormulation,
}
FORMULATIONS = tuple(FORMULATION_CLASSES)


def _feasible_incumbent(aug: AugmentedInstance, deadline: float) -> Design | None:
    """Survivable design used as upper bound: all arcs plus a depth-first
    protection search branching on witness scenarios (the all-arcs
    selection is protectable iff the instance is feasible at all).  A
    witness is any attack of at most k arcs that leaves less than the
    demand (:func:`cprsnp.separation.failing_scenario`), not necessarily a
    worst one.  None means that no design survives."""
    # protection leaves the mask alone, so this one max flow is the root
    # flow of every witness search below
    root = max_flow(aug, ArcMask.full(aug))
    if root.value < aug.demand:
        return None  # the full network cannot carry the demand
    # complete: more selection never hurts, so the all-arcs design with the
    # best protection is feasible iff anything is; every feasible protection
    # must hit each witness scenario, hence the branching below is exhaustive.
    # The stack pops the first witness arc's child first, in preorder
    stack = [Design.canonical(aug, range(aug.arc_count))]
    seen: set[Design] = set()
    while stack:
        design = stack.pop()
        if design in seen:
            continue  # preorder: it and every design below it have failed
        seen.add(design)
        witness = failing_scenario(aug, design, root, deadline=deadline)
        if witness is None:
            return design
        if len(design.protected) < aug.kp:
            stack.extend(
                Design(design.selected, design.protected | {arc})
                for arc in reversed(witness.scenario.sorted_arcs())
            )
    return None


def solve(
    aug: AugmentedInstance,
    formulation: str,
    options: EngineOptions = EngineOptions(),
) -> Solution:
    """Probe for a design, then run the tree from it to optimality or the time limit."""
    if formulation not in FORMULATION_CLASSES:
        raise ValueError(f"unknown formulation {formulation!r}")
    t0 = time.perf_counter()
    deadline = t0 + options.time_limit_s
    records: list[IterationRecord] = []
    lower = 0.0  # costs are nonnegative

    def finish(status: SolveStatus, design: Design | None = None) -> Solution:
        """The design's cost and, unless it is optimal, its gap to lower."""
        cost = gap = None
        if design is not None:
            cost = design.cost(aug)
            gap = 0.0
            if status != SolveStatus.OPTIMAL:
                gap = max(0.0, (cost - lower) / max(abs(cost), 1e-9))
        sol = Solution(
            status=status,
            design=design,
            cost=cost,
            gap=gap,
            log=tuple(records),
            formulation=formulation,
            seconds=time.perf_counter() - t0,
        )
        log.info(
            "formulation=%s status=%s cost=%s gap=%s iterations=%d",
            formulation,
            status.value,
            "none" if cost is None else format_cost(cost),
            "none" if gap is None else f"{gap:.4f}",
            len(records),
        )
        return sol

    try:
        best = _feasible_incumbent(aug, deadline)
    except SeparationTimeout:
        return finish(SolveStatus.FEASIBLE)  # out of time before any design
    if best is None:
        return finish(SolveStatus.INFEASIBLE)
    upper = best.cost(aug)

    form = FORMULATION_CLASSES[formulation](aug)
    master = form.master

    def record(bound: float, value: float | None, rows: int, cols: int) -> None:
        """Append the next iteration record and log it."""
        seconds = time.perf_counter() - t0
        rec = IterationRecord(len(records) + 1, bound, value, rows, cols, seconds)
        records.append(rec)
        log.info(rec.line(formulation, include_time=True))

    rejected: set[Design] = set()

    def check(values, bound: float) -> bool:
        """The tree's lazy callback: accept a survivable design, or append
        the violation the oracle found to the master and return True.  Every
        appended row cuts its design off, so a design rejected once cannot
        come back unless the master has stalled."""
        nonlocal lower, best
        lower = max(lower, bound)
        design = master.design_from(values)
        if design in rejected:
            raise EngineError("master returned a rejected design; it is stalled")
        violation = form.separate(design, deadline)
        if violation is None:
            best = design
            return False
        rejected.add(design)
        rows, cols = master.model.num_constraints, master.model.num_vars
        form.add(violation, design)
        record(
            lower,
            float(violation.value),
            master.model.num_constraints - rows,
            master.model.num_vars - cols,
        )
        return True

    log.info(
        "formulation=%s start demand=%d arcs=%d k=%d kp=%d",
        formulation,
        aug.demand,
        aug.arc_count,
        aug.k,
        aug.kp,
    )
    try:
        res = solve_mip(master.model, deadline=deadline, cutoff=upper, lazy=check)
    except SeparationTimeout:
        return finish(SolveStatus.FEASIBLE, best)
    if res.status == SolveStatus.FEASIBLE:
        if res.bound is not None:
            lower = max(lower, res.bound)
        return finish(SolveStatus.FEASIBLE, best)
    if res.status == SolveStatus.OPTIMAL:
        # the tree's optimum is the last design it accepted
        record(res.objective, float(aug.demand), 0, 0)
    else:
        # Infeasible: no survivable design is strictly cheaper than the probe's
        record(upper, None, 0, 0)
    return finish(SolveStatus.OPTIMAL, best)
