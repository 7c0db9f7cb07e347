"""Small exact MILP kernel.

Every model minimizes, and every column has finite bounds, so an LP
relaxation is either Optimal or Infeasible: none can be unbounded.  A model
keeps its rows once, row-wise, in the arrays HiGHS reads: each row's
first nonzero, the nonzeros' columns and values, and each row's sense as a
``row_lo <= A x <= row_hi`` pair.  HiGHS gets those arrays as they are.

Every LP relaxation of a model is solved by one persistent HiGHS dual
simplex instance.  The instance opens empty and takes the model as tails
of its row-wise arrays: all of it first, and later only the rows and
columns appended since.  Each solve sends only the integer column bounds
that differ from the ones HiGHS holds, so the simplex restarts from the
previous basis instead of from scratch.
Solutions are basic, with HiGHS's 1e-7 feasibility tolerances; presolve is
off and the solver prints nothing.

The HiGHS binding ships inside scipy as the extension module
``scipy.optimize._highspy._core``.  It is loaded from its file in scipy's
package directory without running ``scipy/optimize/__init__.py``, which
imports some 300 scipy modules (linprog, minimize, ``scipy.linalg``,
``scipy.special`` and more), so ``import cprsnp`` loads 13 scipy modules
and takes about 0.14 s instead of 0.59 s (CPython 3.11, 2-core x86_64 VM).
The module is registered under its full name, so a later
``import scipy.optimize`` uses the same one (the import statements find it,
but the attribute ``scipy.optimize._highspy._core`` stays unset); if
scipy.optimize came first, its binding is used.

Binary/integer models go through a hand-rolled branch and bound on top of
that instance:

* branching on the most fractional integer variable, ties by lowest index,
* node selection: best bound first, ties by depth (deeper first) then
  insertion.  With a lazy callback the tree dives between those picks:
  after each branching the up child (``x_j >= ceil``) is solved next, with
  no trip through the open nodes, and the down child joins them.  A dive
  ends at a node that is infeasible, pruned by its bound, or an integer
  point the callback accepts.  Lazy rows arrive only at integer points, so
  a dive reaches them early; in trees without them diving cost more LPs
  than it saved,
* optional deadline on the ``time.perf_counter`` clock, read before each
  LP and passed to HiGHS as the time left, so one long LP cannot outlast
  it either; the reported bound stays valid at all times,
* optional cutoff: the objective value of a solution known from elsewhere;
  every node that cannot beat it strictly is pruned, and a model with
  nothing better reads INFEASIBLE,
* an integral objective prunes by one: a node is pruned once its bound
  exceeds the next integer below the incumbent (``best - 1`` for an
  integer best).  The objective is integral when every objective
  coefficient is an integer on an integer column (inferred), or when the
  model's builder declares it (:attr:`MilpModel.integral_objective`),
* an optional lazy callback sees every integer-feasible point before it may
  become the incumbent, and either accepts it or appends rows, and
  continuous zero-cost columns, to the model being solved.  The kernel
  sends that tail to the live HiGHS instance and re-solves the same node
  from the current basis.  A node is the bounds of the integer columns;
  continuous columns keep the bounds they were added with.  Bounds of open
  nodes stay valid, because appended rows only remove integer
  assignments.  A callback that accepts every point still makes
  the tree dive, so it may visit other nodes than the same tree without
  one.

Everything is deterministic for a fixed model and callback: no randomized
choices, serial simplex, and the same sequence of bound changes on every
run.
"""

from __future__ import annotations

import enum
import heapq
import importlib.machinery
import importlib.util
import math
import os
import sys
import time
from dataclasses import dataclass
from types import ModuleType
from typing import Callable, Mapping

import numpy as np
import scipy

_CORE = "scipy.optimize._highspy._core"


def _load_core(directory: str | os.PathLike) -> ModuleType:
    """The HiGHS binding ``_core`` loaded from the extension file in
    ``directory``, registered in ``sys.modules`` under its full name so a
    later ``import scipy.optimize`` reuses it."""
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    spec = importlib.util.spec_from_file_location(
        _CORE, os.path.join(directory, "_core" + suffix)
    )
    try:
        module = importlib.util.module_from_spec(spec)
    except ImportError as exc:
        raise ImportError(
            f"cprsnp needs the HiGHS binding {_CORE}, "
            "which ships with scipy>=1.17.1"
        ) from exc
    sys.modules[_CORE] = module
    spec.loader.exec_module(module)
    return module


# one binding per process: the one scipy.optimize already imported, if any
_core = sys.modules.get(_CORE) or _load_core(
    os.path.join(os.path.dirname(scipy.__file__), "optimize", "_highspy")
)
HighsModelStatus = _core.HighsModelStatus
HighsStatus = _core.HighsStatus
_Highs = _core._Highs

_OPTIONS = (
    ("output_flag", False),
    ("presolve", "off"),
    ("solver", "simplex"),
    ("simplex_strategy", 1),  # serial dual simplex
)

INT_TOL = 1e-6
# slack on an LP bound before an integral objective prunes it
INT_OBJ_TOL = 1e-6


class MilpError(ValueError):
    """Raised for malformed models or solver-level failures."""


class SolveStatus(enum.Enum):
    OPTIMAL = "Optimal"
    FEASIBLE = "Feasible"
    INFEASIBLE = "Infeasible"


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a MIP solve; ``bound <= objective`` whenever both are
    present."""

    status: SolveStatus
    objective: float | None
    values: np.ndarray | None
    bound: float | None = None
    nodes: int = 0


class MilpModel:
    """Mutable model container: bounded variables, linear constraints, one
    objective, minimized.

    ``integral_objective`` is a fact its builder may declare: at every
    assignment of the integer columns that some continuous values complete,
    the least objective over those values is an integer.  The kernel then
    prunes as it does for an objective it can see is integral.  A false
    declaration can prune the optimum.
    """

    def __init__(self, name: str = "model"):
        self.name = name
        self.integral_objective = False
        self._lb: list[float] = []
        self._ub: list[float] = []
        self._integer: list[bool] = []
        self._objective: dict[int, float] = {}
        # the rows, row-wise: row r's nonzeros are the columns and values
        # at _start[r]:_start[r + 1]
        self._start: list[int] = [0]
        self._col_idx: list[int] = []
        self._values: list[float] = []
        self._row_lo: list[float] = []
        self._row_hi: list[float] = []

    # -- construction -------------------------------------------------

    def add_var(
        self, name: str, lb: float, ub: float, integer: bool = False
    ) -> int:
        if not (math.isfinite(lb) and math.isfinite(ub)):
            raise MilpError(f"variable {name}: bounds [{lb}, {ub}] must be finite")
        if lb > ub:
            raise MilpError(f"variable {name}: lb {lb} > ub {ub}")
        idx = len(self._lb)
        self._lb.append(float(lb))
        self._ub.append(float(ub))
        self._integer.append(bool(integer))
        return idx

    def add_constr(self, coeffs: Mapping[int, float], sense: str, rhs: float) -> None:
        if sense not in ("<=", ">=", "="):
            raise MilpError(f"unknown sense {sense!r}")
        if not math.isfinite(rhs):
            raise MilpError("constraint rhs must be finite")
        for var, coef in coeffs.items():
            if not 0 <= var < len(self._lb):
                raise MilpError(f"constraint references unknown variable {var}")
            if not math.isfinite(coef):
                raise MilpError("constraint coefficients must be finite")
        for var, coef in coeffs.items():
            if coef != 0.0:
                self._col_idx.append(int(var))
                self._values.append(float(coef))
        self._start.append(len(self._values))
        self._row_lo.append(-math.inf if sense == "<=" else float(rhs))
        self._row_hi.append(math.inf if sense == ">=" else float(rhs))

    def set_objective(self, coeffs: Mapping[int, float]) -> None:
        for var, coef in coeffs.items():
            if not 0 <= var < len(self._lb):
                raise MilpError(f"objective references unknown variable {var}")
            if not math.isfinite(coef):
                raise MilpError("objective coefficients must be finite")
        self._objective = {int(v): float(c) for v, c in coeffs.items() if c != 0.0}

    # -- inspection ---------------------------------------------------

    @property
    def num_vars(self) -> int:
        return len(self._lb)

    @property
    def num_constraints(self) -> int:
        return len(self._row_lo)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array(self._lb), np.array(self._ub)

    def integer_indices(self) -> np.ndarray:
        return np.flatnonzero(np.array(self._integer, dtype=bool))


class _Relaxation:
    """The LP relaxation of one model, held by one HiGHS instance.

    The instance opens empty, and the model goes over as tails of the
    row-wise arrays it keeps: all of it first, then whatever was appended
    since (:meth:`grow`).  Each :meth:`solve` sends only the integer column
    bounds that differ from the ones HiGHS holds, so the dual simplex
    restarts from the previous basis.  Continuous columns keep the bounds
    they were sent with.  The simplex is serial and silent, and presolve is
    off: its reductions would discard the basis.
    """

    def __init__(self, model: MilpModel, int_idx: np.ndarray):
        self.model = model
        self.int_idx = int_idx.astype(np.int32)
        lb, ub = model.bounds()
        # the integer column bounds HiGHS holds
        self.ilb, self.iub = lb[int_idx], ub[int_idx]
        self.highs = _Highs()
        for option, setting in _OPTIONS:
            if self.highs.setOptionValue(option, setting) != HighsStatus.kOk:
                raise MilpError(f"HiGHS rejected option {option}={setting!r}")
        self.cols = self.rows = 0
        self.grow()

    def grow(self) -> None:
        """Send the columns and rows appended to the model since they were
        last sent, as the tail of its arrays: on opening, all of them.  A
        column goes with its objective coefficient, which is 0 for the
        columns a lazy callback appends."""
        model, highs = self.model, self.highs
        first, cols = self.cols, model.num_vars
        if cols > first:
            new = cols - first
            cost = [model._objective.get(v, 0.0) for v in range(first, cols)]
            if highs.addCols(
                new, np.array(cost),
                np.array(model._lb[first:]), np.array(model._ub[first:]), 0,
                np.zeros(new, dtype=np.int32), np.zeros(0, dtype=np.int32),
                np.zeros(0),
            ) == HighsStatus.kError:
                raise MilpError(f"HiGHS rejected new columns of {model.name}")
            self.cols = cols
        first, rows = self.rows, model.num_constraints
        if rows > first:
            nz = model._start[first]
            if highs.addRows(
                rows - first,
                np.array(model._row_lo[first:]),
                np.array(model._row_hi[first:]),
                model._start[rows] - nz,
                np.array(model._start[first:rows], dtype=np.int32) - nz,
                np.array(model._col_idx[nz:], dtype=np.int32),
                np.array(model._values[nz:]),
            ) == HighsStatus.kError:
                raise MilpError(f"HiGHS rejected new rows of {model.name}")
            self.rows = rows

    def stop_after(self, seconds: float) -> None:
        """Make HiGHS stop the runs from now on once they have taken
        ``seconds`` in all."""
        # HiGHS's run clock adds up over the runs of one instance, and its
        # time limit is read against that sum
        self.highs.setOptionValue("time_limit", self.highs.getRunTime() + seconds)

    def solve(self, ilb: np.ndarray, iub: np.ndarray):
        """``(status, objective, values)`` of the relaxation under the given
        bounds of the integer columns; objective and values are None unless
        OPTIMAL.  The status is FEASIBLE when HiGHS stopped at the time
        limit that :meth:`stop_after` set: the LP has no answer yet."""
        highs = self.highs
        changed = np.flatnonzero((ilb != self.ilb) | (iub != self.iub))
        if changed.size:
            clb, cub = ilb[changed], iub[changed]
            highs.changeColsBounds(changed.size, self.int_idx[changed], clb, cub)
            self.ilb[changed] = clb
            self.iub[changed] = cub
        highs.run()
        status = highs.getModelStatus()
        if status == HighsModelStatus.kOptimal:
            x = np.array(highs.getSolution().col_value)
            return SolveStatus.OPTIMAL, highs.getObjectiveValue(), x
        if status == HighsModelStatus.kInfeasible:
            return SolveStatus.INFEASIBLE, None, None
        if status == HighsModelStatus.kTimeLimit:
            return SolveStatus.FEASIBLE, None, None
        if status == HighsModelStatus.kModelEmpty:
            # no columns, so every row reads 0
            model = self.model
            if all(lo <= 0 <= hi for lo, hi in zip(model._row_lo, model._row_hi)):
                return SolveStatus.OPTIMAL, 0.0, np.zeros(0)
            return SolveStatus.INFEASIBLE, None, None
        raise MilpError(
            f"LP solver failed on {self.model.name}: {highs.modelStatusToString(status)}"
        )


def _integral_objective(model: MilpModel, int_idx: np.ndarray) -> bool:
    """True when every objective coefficient is an integer on an integer
    column, so that every feasible objective value is an integer."""
    ints = set(int_idx.tolist())
    return all(v in ints and c.is_integer() for v, c in model._objective.items())


def solve_mip(
    model: MilpModel,
    deadline: float = math.inf,
    cutoff: float | None = None,
    lazy: Callable[[np.ndarray, float], bool] | None = None,
) -> SolveResult:
    """Branch-and-bound over the integer variables of the model.

    A model without integer columns is solved as exactly one LP.
    ``cutoff`` is an optional objective value, the cost of a solution the
    caller already holds: the search starts with it as the value to beat,
    so INFEASIBLE then means "no solution strictly better than the cutoff".
    Once ``deadline``, a :func:`time.perf_counter` instant, has passed, the
    status is FEASIBLE and ``bound`` still underestimates every feasible
    objective better than the cutoff.

    ``lazy(values, bound)`` is called on every integer-feasible point before
    it may become the incumbent, with the tree's global bound at that
    moment.  It returns False to accept the point, or appends rows that cut
    it off to ``model`` itself and returns True; the same node is then
    re-solved on the grown model.  It may also append continuous columns,
    which cost nothing.  It must keep the objective and the columns it was
    given (integrality and bounds), and may only remove integer assignments
    it would reject.  Returned ``values`` may then be shorter than the final
    model's columns.  Given ``lazy``, the tree dives to integer points (see
    the module docstring).
    """
    int_idx = model.integer_indices()
    lb, ub = model.bounds()
    ilb0, iub0 = lb[int_idx], ub[int_idx]
    objective0 = dict(model._objective)
    lp = _Relaxation(model, int_idx)
    integral = model.integral_objective or _integral_objective(model, int_idx)

    def out_of_time() -> bool:
        """True once the deadline has passed; before a finite one HiGHS is
        told the time left, so that the next LP stops at it too."""
        left = deadline - time.perf_counter()
        if 0 <= left < math.inf:
            lp.stop_after(left)
        return left < 0

    best_obj = math.inf if cutoff is None else cutoff
    best_x: np.ndarray | None = None

    def prunes(bound: float) -> bool:
        """True when no solution under ``bound`` can beat the best so far;
        with an integral objective the next better value is an integer."""
        if bound >= best_obj - 1e-9:
            return True
        return (
            integral
            and math.isfinite(best_obj)
            and bound > math.ceil(best_obj - 1e-9) - 1 + INT_OBJ_TOL
        )

    def rejected(x: np.ndarray, bound: float) -> bool:
        """Ask ``lazy`` about an integer-feasible point; when it grew the
        model, send the growth to the relaxation and return True."""
        if lazy is None or not lazy(x, bound):
            return False
        lb, ub = model.bounds()
        if (
            model._objective != objective0
            or not np.array_equal(model.integer_indices(), int_idx)
            or not np.array_equal(lb[int_idx], ilb0)
            or not np.array_equal(ub[int_idx], iub0)
        ):
            raise MilpError(
                f"lazy callback changed the objective or the integer columns "
                f"of {model.name}"
            )
        if model.num_constraints == lp.rows:
            raise MilpError(
                f"lazy callback rejected a point of {model.name} but appended no row"
            )
        lp.grow()
        return True

    nodes = 0
    seq = 0
    # heap entries: (parent bound, -depth, seq, integer lbs, integer ubs)
    heap: list[tuple[float, int, int, np.ndarray, np.ndarray]] = [
        (-math.inf, 0, 0, ilb0, iub0)
    ]

    while heap:
        parent_bound, negdepth, _, nlb, nub = heapq.heappop(heap)
        if prunes(parent_bound):
            # best-bound order: everything left is at least as bad
            break
        # the node is re-solved for as long as ``lazy`` grows the model,
        # and with ``lazy`` the loop dives on into each up child
        while True:
            if out_of_time():
                status = SolveStatus.FEASIBLE
            else:
                status, node_bound, x = lp.solve(nlb, nub)
                nodes += 1
            if status == SolveStatus.FEASIBLE:
                # out of time, before this node's LP or inside it
                lower = min([parent_bound, best_obj] + [h[0] for h in heap])
                return SolveResult(
                    SolveStatus.FEASIBLE,
                    None if best_x is None else best_obj,
                    best_x,
                    bound=lower if math.isfinite(lower) else None,
                    nodes=nodes,
                )
            if status == SolveStatus.INFEASIBLE:
                break
            if prunes(node_bound):
                break
            frac = np.abs(x[int_idx] - np.round(x[int_idx]))
            fractional = np.flatnonzero(frac > INT_TOL)
            if fractional.size == 0:
                # the tree's global bound: this node's or the best open node's
                tree_bound = min(node_bound, heap[0][0]) if heap else node_bound
                if rejected(x, tree_bound):
                    continue
                best_obj = node_bound
                best_x = x
                break
            # most fractional first, ties by lowest variable index
            scores = np.minimum(frac[fractional], 1.0 - frac[fractional])
            pick = int(fractional[int(np.argmax(scores))])
            var = int(int_idx[pick])
            depth = -negdepth + 1
            down_ub = nub.copy()
            down_ub[pick] = math.floor(x[var])
            up_lb = nlb.copy()
            up_lb[pick] = math.ceil(x[var])
            seq += 1
            heapq.heappush(heap, (node_bound, -depth, seq, nlb, down_ub))
            if lazy is None:
                seq += 1
                heapq.heappush(heap, (node_bound, -depth, seq, up_lb, nub))
                break
            # the dive goes on with the up child: its parent was not pruned
            # a moment ago and the incumbent has not changed since
            parent_bound, negdepth, nlb = node_bound, -depth, up_lb

    if best_x is None:
        return SolveResult(SolveStatus.INFEASIBLE, None, None, nodes=nodes)
    return SolveResult(
        SolveStatus.OPTIMAL, best_obj, best_x, bound=best_obj, nodes=nodes
    )
