"""Brute-force ground truth, independent of the MILP machinery.

:func:`is_survivable` enumerates every worst-size failure set and checks the
surviving max flow; :func:`exhaustive_optimum` enumerates designs outright.
Both are deliberately dumb and are the reference the solvers are tested
against.
"""

from __future__ import annotations

import itertools
import math

from .graph import AugmentedInstance, max_flow
from .formulations import Design, FailureScenario

SCENARIO_GUARD = 10**7
EXHAUSTIVE_ARC_LIMIT = 16


class VerifyError(ValueError):
    """Raised when an input is outside the brute-force comfort zone."""


def is_survivable(
    aug: AugmentedInstance, design: Design
) -> tuple[bool, FailureScenario | None]:
    """Check every failure of min(k, #candidates) unprotected selected arcs.

    Returns (True, None) or (False, witness).  Deleting fewer arcs never
    hurts more, so only worst-size failure sets need checking.  Guarded to
    at most ``SCENARIO_GUARD`` failure sets.
    """
    if not design.is_canonical(aug):
        raise VerifyError("verifier requires a canonical design")
    candidates = sorted(
        a
        for a in design.selected
        if not aug.is_fictive(a) and a not in design.protected
    )
    size = min(aug.k, len(candidates))
    count = math.comb(len(candidates), size)
    if count > SCENARIO_GUARD:
        raise VerifyError(
            f"{count} failure sets exceed the brute-force guard {SCENARIO_GUARD}"
        )
    for combo in itertools.combinations(candidates, size):
        flow = max_flow(aug, design.mask(aug, failed=combo)).value
        if flow < aug.demand:
            return False, FailureScenario.of(aug, combo)
    return True, None


def _protectable(
    aug: AugmentedInstance, selected: frozenset[int], protected: frozenset[int],
    budget: int,
) -> Design | None:
    """Find a protection extension that makes the selection survivable.

    Branches on witness scenarios: any working protection must hit the
    current witness, so only its arcs are tried.  Complete for the given
    budget.
    """
    design = Design(selected=selected, protected=protected)
    ok, witness = is_survivable(aug, design)
    if ok:
        return design
    if budget == 0 or witness is None:
        return None
    for arc in witness.sorted_arcs():
        found = _protectable(aug, selected, protected | {arc}, budget - 1)
        if found is not None:
            return found
    return None


def exhaustive_optimum(aug: AugmentedInstance) -> tuple[float, Design] | None:
    """Optimal cost and design by full enumeration, or None when infeasible.

    Selections are scanned in cost order, so the first survivable one wins.
    Guarded to at most ``EXHAUSTIVE_ARC_LIMIT`` initial arcs.
    """
    m = aug.initial_arc_count
    if m > EXHAUSTIVE_ARC_LIMIT:
        raise VerifyError(
            f"{m} initial arcs exceed the enumeration limit {EXHAUSTIVE_ARC_LIMIT}"
        )
    costs = [aug.arcs[a].cost for a in range(m)]
    order = []
    for mask in range(1 << m):
        cost = 0.0
        for a in range(m):
            if mask >> a & 1:
                cost += costs[a]
        order.append((cost, mask))
    order.sort()
    fictive = frozenset(aug.fictive_arcs)
    for cost, mask in order:
        selected = frozenset(a for a in range(m) if mask >> a & 1) | fictive
        if max_flow(aug, Design(selected, frozenset()).mask(aug)).value < aug.demand:
            continue
        design = _protectable(aug, selected, frozenset(), aug.kp)
        if design is not None:
            return cost, design
    return None
