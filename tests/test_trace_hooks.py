"""The benchmark's per-layer trace wraps package names from outside the
package (``perfbench/tracer.py``); a name that no longer resolves silently
reads as zero there, so every wrapped name must still exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

# the LP layer no longer goes through scipy's linprog, the master builders
# no longer run max flows (masters are pruned by the incumbent's cost
# instead of a completed warm start), and the oracles no longer build the
# attacker MIP (the cut search MIP is their only MIP route); re-pointing or
# dropping these hooks is an open benchmark follow-up in ROADMAP.md.  A name
# that comes back into the package must leave STALE, so that it is traced.
STALE = {
    ("cprsnp.milp", "linprog"),
    ("cprsnp.formulations", "max_flow"),
    ("cprsnp.separation", "build_2lp"),
}

HOOKS = sorted({(module, attr) for module, attr, _, _ in tracer.PATCHES} - STALE)


@pytest.mark.parametrize("module, attr", HOOKS)
def test_trace_hook_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


@pytest.mark.parametrize("module, attr", sorted(STALE))
def test_stale_hook_is_absent(module, attr):
    assert not hasattr(importlib.import_module(module), attr)
