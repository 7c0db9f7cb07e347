"""Exact separation oracles for the three masters.

Each oracle takes a canonical design and answers the same question, "which
at-most-k failure hurts the design most", in the shape its master needs:

* :func:`separate_cutset` returns a violated cut (or None),
* :func:`separate_scenario` returns a most-damaging failure scenario (or None),
* :func:`separate_bilevel` returns a violated attacker vertex (or None).

All three agree on the optimal value: the post-attack max flow of the
design.  Timeouts surface as :class:`SeparationTimeout`, never as a silent
None.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

from .graph import AugmentedInstance, CutSet, max_flow
from .formulations import (
    Design,
    ExtremePoint,
    FailureScenario,
    NonVertexSolution,
    build_2lp,
    build_cutset_separation,
    build_strengthening,
    cut_residual,
    point_row_value,
)
from .milp import SolveStatus, solve_mip

BRUTE_FORCE_LIMIT = 100_000
# the enumeration reads the clock once per this many subsets: an overrun
# stays within that many max flows, and an enumeration shorter than that
# always finishes, so even a zero budget gets its probe incumbent
CLOCK_POLL_SUBSETS = 64


class SeparationTimeout(RuntimeError):
    """An oracle hit its time limit before proving anything."""


class SeparationError(RuntimeError):
    """Internal inconsistency between an oracle's certificate and its value."""


def _require_canonical(aug: AugmentedInstance, design: Design) -> None:
    if not design.is_canonical(aug):
        raise SeparationError("oracles require a canonical design")


def _attack_candidates(aug: AugmentedInstance, design: Design) -> list[int]:
    return sorted(
        a
        for a in design.selected
        if not aug.is_fictive(a) and a not in design.protected
    )


@dataclass(frozen=True)
class CutViolation:
    cut: CutSet
    value: int


@dataclass(frozen=True)
class ScenarioViolation:
    scenario: FailureScenario
    value: int


@dataclass(frozen=True)
class PointViolation:
    point: ExtremePoint
    value: int


def _solve_or_timeout(model, time_limit_s, what: str):
    res = solve_mip(model, time_limit_s=time_limit_s)
    if res.status == SolveStatus.FEASIBLE:
        raise SeparationTimeout(f"{what} hit the time limit")
    if res.status != SolveStatus.OPTIMAL:
        raise SeparationError(f"{what} ended with status {res.status.value}")
    return res


def _as_int(value: float, what: str) -> int:
    r = round(value)
    if abs(value - r) > 1e-5:
        raise SeparationError(f"{what} value {value!r} is not integral")
    return int(r)


def separate_cutset(
    aug: AugmentedInstance, design: Design, time_limit_s: float | None = None
) -> CutViolation | None:
    """Most violated cut row, or None when every cut survives the worst attack."""
    _require_canonical(aug, design)
    search = build_cutset_separation(aug, design)
    res = _solve_or_timeout(search.model, time_limit_s, "cut separation")
    value = _as_int(res.objective, "cut separation")
    if value >= aug.demand:
        return None
    cut = search.cut_from(res.values)
    if cut_residual(aug, cut, design) != value:
        raise SeparationError("reconstructed cut does not match the optimum")
    return CutViolation(cut=cut, value=value)


def separate_scenario(
    aug: AugmentedInstance,
    design: Design,
    time_limit_s: float | None = None,
    brute_force_limit: int = BRUTE_FORCE_LIMIT,
) -> ScenarioViolation | None:
    """A failure scenario minimizing the surviving flow, or None if none drops
    below demand.  Small candidate sets are enumerated outright; larger ones
    go through the attacker MIP of :func:`separate_bilevel` and the winning
    attack is re-checked."""
    _require_canonical(aug, design)
    t0 = time.perf_counter()
    candidates = _attack_candidates(aug, design)
    size = min(aug.k, len(candidates))
    if math.comb(len(candidates), size) <= brute_force_limit:
        best_value: int | None = None
        best: tuple[int, ...] = ()
        for i, combo in enumerate(itertools.combinations(candidates, size)):
            if (
                i % CLOCK_POLL_SUBSETS == CLOCK_POLL_SUBSETS - 1
                and time_limit_s is not None
                and time.perf_counter() - t0 > time_limit_s
            ):
                raise SeparationTimeout("scenario enumeration hit the time limit")
            flow = max_flow(aug, design.mask(aug, failed=combo)).value
            if best_value is None or flow < best_value:
                best_value, best = flow, combo
        assert best_value is not None
        if best_value >= aug.demand:
            return None
        return ScenarioViolation(
            scenario=FailureScenario.of(aug, best), value=int(best_value)
        )
    violation = separate_bilevel(aug, design, time_limit_s)
    if violation is None:
        return None
    value = violation.value
    chosen = [a for a in candidates if violation.point.attack[a]]
    for a in candidates:
        if len(chosen) >= size:
            break
        if a not in chosen:
            chosen.append(a)
    chosen.sort()
    flow = max_flow(aug, design.mask(aug, failed=chosen)).value
    if flow != value:
        raise SeparationError(
            f"attack MIP value {value} disagrees with max flow {flow}"
        )
    return ScenarioViolation(
        scenario=FailureScenario.of(aug, chosen), value=int(flow)
    )


def separate_bilevel(
    aug: AugmentedInstance, design: Design, time_limit_s: float | None = None
) -> PointViolation | None:
    """A violated attacker vertex, or None when the design withstands every
    attack.  Raises :class:`NonVertexSolution` if the solver hands back a
    fractional point (the polytope has only 0/1 vertices)."""
    _require_canonical(aug, design)
    attack = build_2lp(aug, design)
    res = _solve_or_timeout(attack.model, time_limit_s, "attack expansion")
    value = _as_int(res.objective, "attack expansion")
    if value >= aug.demand:
        return None
    point = attack.extract_point(res.values)
    check = point_row_value(
        aug, design.selected, design.protected, point.lam, point.gam, point.ell
    )
    if _as_int(check, "point row value") != value:
        raise SeparationError("extreme point does not reproduce the attack value")
    return PointViolation(point=point, value=value)


def strengthen(
    aug: AugmentedInstance,
    design: Design,
    violation: PointViolation,
    time_limit_s: float | None = None,
) -> PointViolation:
    """Replace a violated point with one generated at an enlarged design.

    Searches a failing cut touching as few arcs as possible, turns on every
    arc that cut ignores, and re-separates at the enlarged design.  The row
    of the returned point still cuts off the original design because row
    values only grow with the selection.  Falls back to the original point
    when the search is infeasible, times out, or fails to help.  The search
    and the re-separation share ``time_limit_s``.
    """
    _require_canonical(aug, design)
    t0 = time.perf_counter()
    search = build_strengthening(aug, design)
    res = solve_mip(search.model, time_limit_s=time_limit_s)
    if res.status != SolveStatus.OPTIMAL:
        return violation  # infeasible (design survivable) or out of time
    tol = 1e-6
    extra = {
        a
        for a in range(aug.arc_count)
        if res.values[search.lam_var[a]] <= tol
        and res.values[search.gam_var[a]] <= tol
    }
    enlarged = Design.canonical(
        aug, design.selected | extra, design.protected
    )
    if enlarged.selected == design.selected:
        return violation
    if time_limit_s is not None:
        time_limit_s -= time.perf_counter() - t0
    try:
        stronger = separate_bilevel(aug, enlarged, time_limit_s=time_limit_s)
    except (SeparationTimeout, NonVertexSolution):
        return violation
    if stronger is None:
        return violation
    # defensive: the new row must still exclude the original design
    original = point_row_value(
        aug,
        design.selected,
        design.protected,
        stronger.point.lam,
        stronger.point.gam,
        stronger.point.ell,
    )
    if original >= aug.demand:
        return violation
    return stronger
