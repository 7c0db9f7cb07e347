"""Loading the HiGHS binding: ``import cprsnp`` in a fresh interpreter leaves
``scipy.optimize`` unloaded, shares one binding with scipy in either import
order, and names the scipy it needs when the binding is missing.

The test session itself imports ``scipy.optimize`` before ``cprsnp`` (see
conftest), so only a fresh interpreter runs the direct load."""

import subprocess
import sys
from pathlib import Path

import pytest

import cprsnp
from cprsnp import cli, milp
from cprsnp.engine import FORMULATIONS
from cprsnp.instances import generate, write_instance

SRC = str(Path(cprsnp.__file__).resolve().parent.parent)


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter with ``src`` first on ``sys.path``."""
    prelude = f"import sys\nsys.path.insert(0, {SRC!r})\n"
    return subprocess.run(
        [sys.executable, "-c", prelude + code, *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


FRESH = """
import cprsnp
loaded = [m for m in ("scipy.optimize", "scipy.linalg", "scipy.special")
          if m in sys.modules]
assert not loaded, loaded
aug = cprsnp.augment(cprsnp.load_instance(sys.argv[1]))
solution = cprsnp.solve(aug, sys.argv[2])
assert (solution.status.value, solution.cost) == ("Optimal", 59), solution
from cprsnp import cli
sys.exit(cli.main(["solve", "--instance", sys.argv[1], "--formulation", sys.argv[2]]))
"""


@pytest.mark.parametrize("formulation", FORMULATIONS)
def test_fresh_import_skips_scipy_optimize_and_solves_the_same(
    tmp_path, capfd, formulation
):
    path = tmp_path / "small.txt"
    path.write_text(
        write_instance(generate(7, 2, 14, "random", seed=1, k=1, kp=1)),
        encoding="utf-8",
    )
    fresh = run_python(FRESH, str(path), formulation)
    assert fresh.returncode == cli.EXIT_OK, fresh.stderr
    argv = ["solve", "--instance", str(path), "--formulation", formulation]
    assert cli.main(argv) == cli.EXIT_OK
    assert fresh.stdout == capfd.readouterr().out
    assert "status=Optimal cost=59 gap=0.0000\n" in fresh.stdout


SHARED = """
from cprsnp import milp
assert sys.modules["scipy.optimize._highspy._core"] is milp._core
from scipy.optimize._highspy import _core
assert _core is milp._core
# the binding scipy's own HiGHS wrapper calls
assert sys.modules["scipy.optimize._highspy._highs_wrapper"]._h is milp._core
result = scipy.optimize.linprog(
    [1, 2], A_ub=[[-1, -1]], b_ub=[-1], bounds=[(0, 1)] * 2, method="highs"
)
assert result.status == 0 and result.fun == 1.0, result
result = scipy.optimize.milp(
    [-1, -1], constraints=scipy.optimize.LinearConstraint([[2, 2]], -10, 3),
    integrality=[1, 1], bounds=scipy.optimize.Bounds(0, 1),
)
assert result.status == 0 and result.fun == -1.0, result
"""


@pytest.mark.parametrize(
    "imports",
    ["import cprsnp\nimport scipy.optimize", "import scipy.optimize\nimport cprsnp"],
    ids=["cprsnp-first", "scipy-first"],
)
def test_cprsnp_and_scipy_share_one_binding_in_either_order(imports):
    shared = run_python(imports + "\n" + SHARED)
    assert shared.returncode == 0, shared.stderr


def test_missing_binding_names_the_scipy_it_needs(tmp_path):
    with pytest.raises(ImportError, match=r"scipy>=1\.17\.1"):
        milp._load_core(tmp_path)
    assert sys.modules[milp._CORE] is milp._core


def test_import_without_the_binding_names_the_scipy_it_needs(tmp_path):
    # a scipy package without optimize/_highspy/_core
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("", encoding="utf-8")
    missing = run_python(f"sys.path.insert(0, {str(tmp_path)!r})\nimport cprsnp")
    assert missing.returncode == 1
    last = missing.stderr.strip().splitlines()[-1]
    assert last.startswith("ImportError: ") and "scipy>=1.17.1" in last
