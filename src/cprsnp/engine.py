"""Delayed constraint-and-column generation engine (branch and check).

All three formulations run on one branch-and-bound tree: the restricted
master goes to :func:`cprsnp.milp.solve_mip` once, and the tree calls back
at every integer-feasible point.  The callback asks the formulation's
oracle whether that point's design survives every attack; a survivable
design may become the tree's incumbent, and a violation is appended to the
master in place, on which the tree re-solves the same node from its
current basis and carries on.

A formulation plugs in as one small, stateless class, chosen once from its
name in :data:`FORMULATION_CLASSES`.  Its constructor seeds and builds the
master (``master``) once per solve, ``separate(design, deadline)`` runs
the oracle, and ``add(violation, design)`` only appends the violation's rows
and columns to the master.  The callback keeps the one stall check of every
formulation: each appended row cuts off the design that it repairs (by at
least one unit, as capacities are integer), so a design that the master
returns after it was rejected raises :class:`EngineError`.  Designs are
finite, so a master that stalls must repeat one.

Each violation is one :class:`IterationRecord`: the tree's global lower
bound at that moment, the violation's value, and how many rows and columns
it added, as the master's size after the append less its size before.

A survivable incumbent built upfront (exact protection search on the
all-arcs design) provides the upper bound; the tree is pruned by its cost,
so a tree with no design strictly cheaper than it proves it optimal.  The
time limit is one deadline on the :func:`time.perf_counter` clock, set as
the solve starts, at which the probe, the tree and every oracle call stop.
A timeout returns the best survivable design found so far, from the tree
or the probe.
"""

from __future__ import annotations

import logging
import math
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
        # NaN fails every comparison, so it would silently remove the limit
        if not self.time_limit_s >= 0:
            raise ValueError(
                f"time limit must be a nonnegative number of seconds, "
                f"got {self.time_limit_s}"
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

    def log_lines(self, include_time: bool = False) -> list[str]:
        return [rec.line(self.formulation, include_time) for rec in self.log]


# The formulations.  Each is seeded and builds its master in its
# constructor, and ``add`` grows that master in place.  The build_*_master
# functions and the oracles are called through this module's globals, where
# the benchmark's per-layer trace (perfbench/tracer.py) wraps them.


class CutsetFormulation:
    """Seeded with no cut of its own: the design block already holds the
    root cut and the cut around each terminal.  Each violated cut goes to
    :func:`~cprsnp.formulations.append_cut` with the violating design."""

    def __init__(self, aug: AugmentedInstance):
        self.aug = aug
        self.master = build_cutset_master(aug, [])

    def separate(self, design: Design, deadline: float):
        return separate_cutset(self.aug, design, deadline=deadline)

    def add(self, violation, design: Design) -> None:
        append_cut(self.master, violation.cut, design)


class FlowFormulation:
    """Seeded with the lexicographically first k-subset of initial arcs as
    its one failure scenario."""

    def __init__(self, aug: AugmentedInstance):
        self.aug = aug
        first = tuple(range(min(aug.k, aug.initial_arc_count)))
        self.master = build_flow_master(aug, [FailureScenario.of(aug, first)])

    def separate(self, design: Design, deadline: float):
        return separate_scenario(self.aug, design, deadline=deadline)

    def add(self, violation, design: Design) -> None:
        append_scenario(self.master, violation.scenario)


class BilevelFormulation:
    """Seeded with no attacker vertex; each violated vertex is strengthened
    before it is returned."""

    def __init__(self, aug: AugmentedInstance):
        self.aug = aug
        self.master = build_bilevel_master(aug, [])

    def separate(self, design: Design, deadline: float):
        violation = separate_bilevel(self.aug, design, deadline=deadline)
        if violation is not None:
            violation = strengthen_point(self.aug, design, violation, deadline=deadline)
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
    """Survivable design used as upper bound: all arcs plus a protection
    search branching on witness scenarios (the all-arcs selection is
    protectable iff the instance is feasible at all)."""

    def probe(design: Design, budget: int) -> Design | None:
        violation = separate_scenario(aug, design, deadline=deadline)
        if violation is None:
            return design
        if budget == 0:
            return None
        for arc in violation.scenario.sorted_arcs():
            found = probe(
                Design(design.selected, design.protected | {arc}), budget - 1
            )
            if found is not None:
                return found
        return None

    # complete: more selection never hurts, so the all-arcs design with the
    # best protection is feasible iff anything is; every feasible protection
    # must hit each witness scenario, hence the branching below is exhaustive
    return probe(Design.canonical(aug, range(aug.arc_count)), aug.kp)


def solve(
    aug: AugmentedInstance,
    formulation: str,
    options: EngineOptions = EngineOptions(),
) -> Solution:
    """Run generation to optimality, infeasibility, or the time limit."""
    if formulation not in FORMULATION_CLASSES:
        raise ValueError(f"unknown formulation {formulation!r}")
    t0 = time.perf_counter()
    deadline = t0 + options.time_limit_s
    demand = aug.demand
    records: list[IterationRecord] = []

    def elapsed() -> float:
        return time.perf_counter() - t0

    def finish(status, design, cost, gap) -> Solution:
        sol = Solution(
            status=status,
            design=design,
            cost=cost,
            gap=gap,
            log=tuple(records),
            formulation=formulation,
            seconds=elapsed(),
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

    if max_flow(aug, ArcMask.full(aug)).value < demand:
        return finish(SolveStatus.INFEASIBLE, None, None, None)

    try:
        incumbent = _feasible_incumbent(aug, deadline)
    except SeparationTimeout:
        incumbent = None  # ran out of time while probing; unresolved
    else:
        if incumbent is None:
            return finish(SolveStatus.INFEASIBLE, None, None, None)
    upper = incumbent.cost(aug) if incumbent is not None else math.inf
    lower = 0.0  # costs are nonnegative

    form = FORMULATION_CLASSES[formulation](aug)
    master = form.master
    found: Design | None = None  # the tree's survivable incumbent

    def timeout_solution() -> Solution:
        best = found if found is not None else incumbent
        if best is None:
            return finish(SolveStatus.FEASIBLE, None, None, None)
        cost = best.cost(aug)
        gap = max(0.0, (cost - lower) / max(abs(cost), 1e-9))
        return finish(SolveStatus.FEASIBLE, best, cost, gap)

    def record(bound: float, value: float | None, rows: int, cols: int) -> None:
        """Append the next iteration record and log it."""
        records.append(
            IterationRecord(len(records) + 1, bound, value, rows, cols, elapsed())
        )
        log.info(records[-1].line(formulation, include_time=True))

    rejected: set[Design] = set()

    def check(values, bound: float) -> bool:
        """The tree's lazy callback: accept a survivable design, or append
        the violation the oracle found to the master and return True.  Every
        appended row cuts its design off, so a design rejected once cannot
        come back unless the master has stalled."""
        nonlocal lower, found
        lower = max(lower, bound)
        design = master.design_from(values)
        if design in rejected:
            raise EngineError("master returned a rejected design; it is stalled")
        violation = form.separate(design, deadline)
        if violation is None:
            found = design
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
        demand,
        aug.arc_count,
        aug.k,
        aug.kp,
    )
    try:
        # without an incumbent, upper is math.inf and prunes nothing
        res = solve_mip(master.model, deadline=deadline, cutoff=upper, lazy=check)
    except SeparationTimeout:
        return timeout_solution()
    if res.status == SolveStatus.INFEASIBLE:
        if incumbent is None:
            return finish(SolveStatus.INFEASIBLE, None, None, None)
        # no survivable design is strictly cheaper than the incumbent
        record(upper, None, 0, 0)
        return finish(SolveStatus.OPTIMAL, incumbent, upper, 0.0)
    if res.status != SolveStatus.OPTIMAL:
        if res.bound is not None:
            lower = max(lower, res.bound)
        return timeout_solution()
    design = master.design_from(res.values)
    record(res.objective, float(demand), 0, 0)
    return finish(SolveStatus.OPTIMAL, design, design.cost(aug), 0.0)
