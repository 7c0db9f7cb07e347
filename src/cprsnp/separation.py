"""Exact separation oracles for the three masters.

Each oracle takes a canonical design and answers the same question, "which
at-most-k failure hurts the design most", in the shape its master needs:

* :func:`separate_cutset` returns a violated cut (or None),
* :func:`separate_scenario` returns a most-damaging failure scenario (or None),
* :func:`separate_bilevel` returns a violated attacker vertex (or None).

All three agree on the optimal value: the post-attack max flow of the
design.  Each stops at its ``deadline``, a :func:`time.perf_counter`
instant, with :class:`SeparationTimeout`, never with a silent None.

All three answer from one worst attack (:func:`_attack`) and a max flow
under it.  While a design has at most ``brute_force_limit`` failure sets, a
combinatorial search finds it (:func:`_worst_attack`): it branches on the
arcs that carry a max flow and prunes with that flow's values, so it needs
a few max flows where enumeration needs one per failure set.  Each of those
max flows starts from its parent's, which differs by one failed arc, and
each node computes its children's pruning bounds in one pass.  Larger
designs go to the one MIP route, the cut search MIP, whose optimal cut
gives the attack.  Its cutoff is the demand, so it searches only cuts that
fail, and INFEASIBLE means the design survives.  The attack is the
scenario; the minimum cut of the attacked network nearest the sink
(:func:`cprsnp.graph.back_cut`) gives both the most violated cut and the
attacker vertex, by max-flow/min-cut duality.

:func:`strengthen` trades a violated attacker vertex for a sparser one: the
vertex of the failing cut that crosses the fewest arcs, read from one MIP.
The input vertex is a feasible point of that MIP, so its lam count is the
cutoff, and the input is handed back when no failing cut is sparser.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import time
from dataclasses import dataclass

import numpy as np

from .graph import (
    ArcMask,
    AugmentedInstance,
    CutSet,
    FlowResult,
    back_cut,
    max_flow,
)
from .formulations import (
    Design,
    ExtremePoint,
    FailureScenario,
    build_cutset_separation,
    build_strengthening,
    cut_residual,
    point_row_value,
    worst_subset,
)
from .milp import SolveStatus, solve_mip

BRUTE_FORCE_LIMIT = 100_000
# the attack search reads the clock once per this many max flows: an overrun
# stays within that many, and a search shorter than that always finishes,
# so even a zero budget gets its probe incumbent
CLOCK_POLL_FLOWS = 64


class SeparationTimeout(RuntimeError):
    """An oracle hit its time limit before proving anything."""


class SeparationError(RuntimeError):
    """Internal inconsistency between an oracle's certificate and its value."""


def _require_canonical(aug: AugmentedInstance, design: Design) -> None:
    if not design.is_canonical(aug):
        raise SeparationError("oracles require a canonical design")


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


def _as_int(value: float, what: str) -> int:
    r = round(value)
    if abs(value - r) > 1e-5:
        raise SeparationError(f"{what} value {value!r} is not integral")
    return int(r)


@dataclass(frozen=True)
class _Attack:
    """A worst failure set, the max flow it leaves, and a max flow of the
    design under it."""

    arcs: tuple[int, ...]
    value: int
    flow: FlowResult


def _attack(
    aug: AugmentedInstance,
    design: Design,
    deadline: float,
    brute_force_limit: int,
) -> _Attack | None:
    """The worst attack on a canonical design, or None when every attack
    leaves at least the demand.

    While the design has at most ``brute_force_limit`` failure sets this is
    :func:`_worst_attack`.  Otherwise the cut search MIP, with the demand
    as its cutoff, finds a cut keeping the least capacity, below the
    demand, after its worst failure, or proves that none exists; that failure
    (:func:`cprsnp.formulations.worst_subset`), padded to min(k, candidates)
    arcs with the lowest-index other candidates, is the attack, and one max
    flow under it must attain the MIP's value.
    """
    _require_canonical(aug, design)
    candidates = design.attack_candidates(aug)
    size = min(aug.k, len(candidates))
    if math.comb(len(candidates), size) <= brute_force_limit:
        return _worst_attack(aug, design, candidates, deadline)
    search = build_cutset_separation(aug, design)
    res = solve_mip(search.model, deadline=deadline, cutoff=aug.demand)
    if res.status == SolveStatus.INFEASIBLE:
        return None
    if res.status == SolveStatus.FEASIBLE:
        raise SeparationTimeout("cut separation hit the time limit")
    value = _as_int(res.objective, "cut separation")
    chosen = set(worst_subset(aug, search.cut_from(res.values), design))
    others = (a for a in candidates if a not in chosen)
    chosen.update(itertools.islice(others, size - len(chosen)))
    arcs = tuple(sorted(chosen))
    flow = max_flow(aug, design.mask(aug, failed=arcs))
    if flow.value != value:
        raise SeparationError(
            f"cut MIP value {value} disagrees with max flow {flow.value}"
        )
    return _Attack(arcs, value, flow)


def _attack_cut(aug: AugmentedInstance, design: Design, attack: _Attack) -> CutSet:
    """The minimum cut nearest the sink of the design under the attack, read
    from the attack's own max flow.  Its capacity there is the attack's
    value, and no cut keeps less after its worst failure, so it is a most
    violated cut."""
    return back_cut(aug, design.mask(aug, failed=attack.arcs), attack.flow)


def _point_violation(
    aug: AugmentedInstance,
    design: Design,
    cut: CutSet,
    failed: tuple[int, ...],
    value: int,
) -> PointViolation:
    """The attacker vertex of a cut and an attack.  Its row value at the
    design is the capacity the cut keeps under the attack, which must be
    ``value``."""
    point = ExtremePoint(cut, frozenset(failed), aug.arc_count)
    check = point_row_value(
        aug, design.selected, design.protected, point.lam, point.gam, point.ell
    )
    if _as_int(check, "point row value") != value:
        raise SeparationError(f"extreme point row value {check} is not {value}")
    return PointViolation(point=point, value=value)


def _worst_attack(
    aug: AugmentedInstance,
    design: Design,
    candidates: list[int],
    deadline: float,
) -> _Attack | None:
    """The worst attack on the design: the lexicographically first set of
    ``size`` = min(k, candidates) of its attack candidates, in index order,
    whose failure leaves the least max flow, with that value and a max flow
    that attains it; None when every such failure leaves at least the demand.

    Depth-first search over failed prefixes in lexicographic order.  A node
    holds a max flow f of value F with its prefix failed, and r arcs left to
    pick from the candidates after its last one:

    * failing a candidate that f leaves empty keeps f feasible and maximal,
      so that child reuses f instead of a new max flow; a child that fails
      an arc carrying f starts its max flow from f
      (:func:`cprsnp.graph.max_flow` with ``start``), which only has to
      cancel that arc's flow and re-route;
    * f decomposes into paths, so failing any r of the remaining candidates
      removes at most the r largest f values among them; a subtree is cut
      once F minus those is no better than the best so far (ties lose to
      the earlier set, as in a plain enumeration), checked with the
      parent's flow before a child's max flow and with its own after.  A
      node computes, once and before it is pushed, the sum of the r - 1
      largest f values after each of its candidates in one backward pass
      (:func:`_suffix_largest`); each child's check reads that sum plus the
      child's own f value, and the largest of those is the r largest that
      the node's own check subtracts;
    * when no remaining candidate carries flow, every completion is worth F
      and the first one is the prefix plus the next r candidates.

    The best so far starts at the demand: a set leaving that much is no
    violation, so its subtree needs no search.  The set found does not
    depend on which max flow a node holds, nor does its back cut: only the
    number of max flows may.
    """
    size = min(aug.k, len(candidates))
    best_value, best, best_flow = aug.demand, None, None
    flows = 0
    order = np.array(candidates, dtype=np.intp)

    def flow_of(mask: ArcMask, start: FlowResult | None) -> FlowResult:
        nonlocal flows
        if (
            flows % CLOCK_POLL_FLOWS == CLOCK_POLL_FLOWS - 1
            and time.perf_counter() > deadline
        ):
            raise SeparationTimeout("attack search hit the time limit")
        flows += 1
        return max_flow(aug, mask, start=start)

    def visit(prefix, start, mask, res):
        """Record or cut the subtree below ``prefix``, or push it to be
        branched on with its children's bounds."""
        nonlocal best_value, best, best_flow
        left = size - len(prefix)
        carried = res.flow[order[start:]].tolist() if left else []
        # gain[j]: the most flow that failing candidates[start + j] and
        # left - 1 candidates after it can remove, which its child's check
        # reads; the largest gain is the sum of the left largest flows
        rest = _suffix_largest(carried, left - 1)[1:]
        gain = list(map(operator.add, carried, rest))
        most = max(gain, default=0)
        bound = max(res.value - most, 0)  # flows are >= 0
        if bound >= best_value:
            return
        if most == 0:
            # res leaves the completion's arcs empty, so it stays a max flow
            best_value, best_flow = res.value, res
            best = prefix + tuple(candidates[start : start + left])
            return
        children = iter(range(start, len(candidates) - left + 1))
        stack.append((prefix, mask, res, bound, gain, start, children))

    # an explicit stack: the depth is the attack size, which k alone bounds
    stack = []
    mask = design.mask(aug)
    visit((), 0, mask, flow_of(mask, None))
    while stack:
        prefix, mask, res, bound, gain, start, children = stack[-1]
        i = next(children, None)
        if i is None or bound >= best_value:
            stack.pop()
            continue
        arc = candidates[i]
        if res.value - gain[i - start] >= best_value:
            continue
        child_mask = mask.without(arc)
        child = res if res.flow[arc] == 0 else flow_of(child_mask, res)
        visit(prefix + (arc,), i + 1, child_mask, child)
    if best is None:
        return None
    return _Attack(best, best_value, best_flow)


def _suffix_largest(values: list[int], count: int) -> list[int]:
    """``sums[j]``: the sum of the ``count`` largest of ``values[j:]`` (all
    of them when fewer), for j = 0..len(values); one backward pass keeping
    the ``count`` largest seen in a min-heap."""
    sums = [0] * (len(values) + 1)
    if count <= 0:
        return sums
    heap: list[int] = []
    total = 0
    for j in range(len(values) - 1, -1, -1):
        v = values[j]
        if len(heap) < count:
            heapq.heappush(heap, v)
            total += v
        elif v > heap[0]:
            total += v - heapq.heapreplace(heap, v)
        sums[j] = total
    return sums


def separate_cutset(
    aug: AugmentedInstance,
    design: Design,
    deadline: float = math.inf,
    brute_force_limit: int = BRUTE_FORCE_LIMIT,
) -> CutViolation | None:
    """Most violated cut row, or None when every cut survives the worst
    attack: the back cut of the design under the worst attack
    (:func:`_attack`)."""
    attack = _attack(aug, design, deadline, brute_force_limit)
    if attack is None:
        return None
    cut = _attack_cut(aug, design, attack)
    if cut_residual(aug, cut, design) != attack.value:
        raise SeparationError("reconstructed cut does not match the optimum")
    return CutViolation(cut=cut, value=attack.value)


def separate_scenario(
    aug: AugmentedInstance,
    design: Design,
    deadline: float = math.inf,
    brute_force_limit: int = BRUTE_FORCE_LIMIT,
) -> ScenarioViolation | None:
    """A failure scenario minimizing the surviving flow, or None if none drops
    below demand: the worst attack (:func:`_attack`), of min(k, candidates)
    arcs.  On the search route it is the lexicographically first worst
    one."""
    attack = _attack(aug, design, deadline, brute_force_limit)
    if attack is None:
        return None
    return ScenarioViolation(FailureScenario.of(aug, attack.arcs), attack.value)


def separate_bilevel(
    aug: AugmentedInstance,
    design: Design,
    deadline: float = math.inf,
    brute_force_limit: int = BRUTE_FORCE_LIMIT,
) -> PointViolation | None:
    """A violated attacker vertex, or None when the design withstands every
    attack: the vertex of the worst attack (:func:`_attack`) and its back
    cut.  On the MIP route a fractional cut from the solver raises
    :class:`cprsnp.formulations.NonVertexSolution`."""
    attack = _attack(aug, design, deadline, brute_force_limit)
    if attack is None:
        return None
    cut = _attack_cut(aug, design, attack)
    return _point_violation(aug, design, cut, attack.arcs, attack.value)


def strengthen(
    aug: AugmentedInstance,
    design: Design,
    violation: PointViolation,
    deadline: float = math.inf,
) -> PointViolation:
    """Replace a violated point with the vertex of a failing cut that
    crosses as few arcs as possible.

    Solves the strengthening MIP once (Fischetti, Ljubic & Sinnl, 2017).
    The violation's own vertex is a feasible point of that MIP, worth its
    number of lam arcs, so that number is the cutoff: the MIP looks only
    for a failing cut whose vertex is strictly sparser, since its value for
    a cut is no less than the lam count of the vertex of that cut and its
    worst deletion subset.  That cut keeps less than the demand under that
    attack, so the vertex cuts off the design, valued at the capacity the
    cut keeps (:func:`cprsnp.formulations.cut_residual`).  When the MIP
    reaches ``deadline``, its incumbent, if any, is taken the same way.
    Otherwise the violation is handed back.  Raises
    :class:`SeparationError` when the violation does not cut off the
    design, or when the vertex is not strictly sparser.
    """
    _require_canonical(aug, design)
    point = violation.point
    row = point_row_value(
        aug, design.selected, design.protected, point.lam, point.gam, point.ell
    )
    if row >= aug.demand:
        raise SeparationError(f"the point to strengthen keeps {row}, not below demand")
    search = build_strengthening(aug, design)
    res = solve_mip(search.model, deadline=deadline, cutoff=sum(point.lam))
    if res.values is None:
        # nothing sparser, or out of time before anything sparser was found
        return violation
    cut = search.cut_from(res.values)
    value = cut_residual(aug, cut, design)
    # the MIP's row bounds the capacity the cut keeps by demand - 1
    if value >= aug.demand:
        raise SeparationError(f"strengthened cut keeps {value}, the demand or more")
    stronger = _point_violation(aug, design, cut, worst_subset(aug, cut, design), value)
    if sum(stronger.point.lam) >= sum(point.lam):
        raise SeparationError("strengthened vertex is not strictly sparser")
    return stronger
