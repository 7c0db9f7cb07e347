"""Span tracer for the traced run, attached to the package from outside.

The package binds its collaborators by name at import time
(``from .milp import solve_mip``), so a layer is measured by replacing that
name in each importing module with a wrapper that records a span.  Nothing
inside ``src/`` is edited; :func:`patched` restores every original on exit.

A span is the tuple ``(name, start, end, parent, cell, info)``: ``parent``
is the index of the enclosing span (-1 at top level), ``cell`` the
``(pass, cell index)`` that was running, and ``info`` whatever the span's
``info`` callback extracted from the call (B&B nodes, a master's size, ...).
Spans stay in memory; :func:`layer_metrics` folds them into the per-layer
metrics and :meth:`Tracer.dump` writes them out when the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager


def nodes(out, args):
    return out.nodes


def model_size(out, args):
    return (out.model.num_constraints, out.model.num_vars)


def violated(out, args):
    return out is not None


def useful(out, args):
    # strengthen(aug, design, violation, ...): a fallback returns its input
    return out.point != args[2].point


def solution_counts(out, args):
    return (
        out.iterations,
        sum(rec.rows_added for rec in out.log),
        sum(rec.columns_added for rec in out.log),
    )


# (module, attribute, span name, info callback)
PATCHES = (
    ("cprsnp.milp", "linprog", "milp.linprog", None),
    ("cprsnp.engine", "solve_mip", "engine.master_mip", nodes),
    ("cprsnp.engine", "build_cutset_master", "formulations.build_master", model_size),
    ("cprsnp.engine", "build_flow_master", "formulations.build_master", model_size),
    ("cprsnp.engine", "build_bilevel_master", "formulations.build_master", model_size),
    ("cprsnp.engine", "separate_cutset", "separation.cutset", violated),
    ("cprsnp.engine", "separate_scenario", "separation.scenario", violated),
    ("cprsnp.engine", "separate_bilevel", "separation.bilevel", violated),
    ("cprsnp.engine", "strengthen_point", "separation.strengthen", useful),
    ("cprsnp.engine", "max_flow", "graph.max_flow", None),
    ("cprsnp.separation", "solve_mip", "separation.mip", nodes),
    ("cprsnp.separation", "build_2lp", "formulations.build_oracle", None),
    ("cprsnp.separation", "build_cutset_separation", "formulations.build_oracle", None),
    ("cprsnp.separation", "build_strengthening", "formulations.build_oracle", None),
    ("cprsnp.separation", "max_flow", "graph.max_flow", None),
    # FlowMaster.completion runs one per scenario to warm-start each flow master
    ("cprsnp.formulations", "max_flow", "graph.max_flow", None),
)


class NullTracer:
    """Untraced run: calls go straight through and nothing is recorded."""

    cell = None

    def call(self, name, fn, info, /, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer(NullTracer):
    def __init__(self):
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []

    def call(self, name, fn, info, /, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.cell, None)
        if info is not None:
            self.spans[idx] = (name, start, end, parent, self.cell, info(out, args))
        return out

    def wrap(self, name, fn, info):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, info, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt") as out:
            for name, start, end, parent, cell, info in self.spans:
                out.write(json.dumps([name, start, end, parent, cell, info]) + "\n")


def span_cost(calls: int = 20000) -> float:
    """Seconds that tracing adds to one call of a no-op function."""
    probe = Tracer().wrap("probe", lambda: None, None)
    plain = probe.__wrapped__
    t0 = time.perf_counter()
    for _ in range(calls):
        plain()
    t1 = time.perf_counter()
    for _ in range(calls):
        probe()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


@contextmanager
def patched(tracer: Tracer):
    """Route every name in PATCHES through ``tracer``; yields the names that
    no longer exist in the package (their layer then reads as zero)."""
    saved, missing = [], []
    for module_name, attr, span, info in PATCHES:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            missing.append(f"{module_name}.{attr}")
            continue
        saved.append((module, attr, original))
        setattr(module, attr, tracer.wrap(span, original, info))
    try:
        yield missing
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


SEPARATION_ORACLES = ("separation.cutset", "separation.scenario", "separation.bilevel")

# per-layer metrics that are pure work counts: identical on every rerun
COUNT_METRICS = (
    "milp.linprog.calls",
    "milp.bb_nodes",
    "engine.master_mip.calls",
    "engine.master_mip.nodes",
    "separation.mip.calls",
    "separation.mip.nodes",
    "graph.max_flow.calls",
    *(f"{name}.calls" for name in SEPARATION_ORACLES),
    "separation.strengthen.calls",
    "separation.strengthen.useful_ratio",
    "separation.violated_ratio",
    "formulations.build_master.calls",
    "formulations.build_oracle.calls",
    "formulations.master.rows_final",
    "formulations.master.cols_final",
    "engine.iterations",
    "engine.rows_added",
    "engine.cols_added",
)


def unit_of(metric: str) -> str:
    last = metric.rsplit(".", 1)[-1]
    if last.endswith("ratio"):
        return "ratio"
    if last == "s" or last.endswith("_s"):
        return "s"
    return {"ms_per_call": "ms", "us_per_call": "us"}.get(last, "count")


def layer_metrics(spans, pass_no: int) -> dict[str, float]:
    """Per-layer metrics of one pass, from the spans of its cells."""
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    covered: dict[int, float] = defaultdict(float)
    infos: dict[str, list] = defaultdict(list)
    mine = [
        (i, span) for i, span in enumerate(spans)
        if span[4] is not None and span[4][0] == pass_no
    ]
    for i, (name, start, end, parent, cell, info) in mine:
        calls[name] += 1
        total[name] += end - start
        if parent >= 0:
            covered[parent] += end - start
        if info is not None:
            infos[name].append((cell, info))
    for i, (name, start, end, *_) in mine:
        self_time[name] += (end - start) - covered[i]

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}
    m["milp.linprog.calls"] = calls["milp.linprog"]
    m["milp.linprog.s"] = total["milp.linprog"]
    m["milp.linprog.ms_per_call"] = 1e3 * ratio(total["milp.linprog"], calls["milp.linprog"])
    for layer in ("engine.master_mip", "separation.mip"):
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.s"] = total[layer]
        m[f"{layer}.nodes"] = sum(n for _, n in infos[layer])
    m["milp.bb_nodes"] = m["engine.master_mip.nodes"] + m["separation.mip.nodes"]
    m["graph.max_flow.calls"] = calls["graph.max_flow"]
    m["graph.max_flow.s"] = total["graph.max_flow"]
    m["graph.max_flow.us_per_call"] = 1e6 * ratio(total["graph.max_flow"], calls["graph.max_flow"])
    for name in SEPARATION_ORACLES + ("separation.strengthen",):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.s"] = total[name]
    m["separation.strengthen.useful_ratio"] = ratio(
        sum(u for _, u in infos["separation.strengthen"]), calls["separation.strengthen"]
    )
    oracle_calls = sum(calls[name] for name in SEPARATION_ORACLES)
    violated = sum(v for name in SEPARATION_ORACLES for _, v in infos[name])
    m["separation.violated_ratio"] = ratio(violated, oracle_calls)
    for kind in ("build_master", "build_oracle"):
        m[f"formulations.{kind}.calls"] = calls[f"formulations.{kind}"]
        m[f"formulations.{kind}.s"] = total[f"formulations.{kind}"]
    final: dict = {}
    for cell, size in infos["formulations.build_master"]:
        final[cell] = size  # spans are in call order, so the last one wins
    m["formulations.master.rows_final"] = sum(rows for rows, _ in final.values())
    m["formulations.master.cols_final"] = sum(cols for _, cols in final.values())
    solved = [counts for _, counts in infos["engine.solve"]]
    m["engine.iterations"] = sum(c[0] for c in solved)
    m["engine.rows_added"] = sum(c[1] for c in solved)
    m["engine.cols_added"] = sum(c[2] for c in solved)
    m["engine.self_s"] = self_time["engine.solve"]
    return m
