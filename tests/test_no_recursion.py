"""No function in ``src/cprsnp`` calls itself: a search that recurses once
per step ends in ``RecursionError`` on a valid instance deep enough, so
each one is a loop over an explicit stack or queue instead."""

import ast
from pathlib import Path

import cprsnp

SRC = Path(cprsnp.__file__).resolve().parent
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

# the brute-force reference stays recursive, as an independent check of the
# engine's probe: it recurses once per protected arc, and it refuses
# instances with more than EXHAUSTIVE_ARC_LIMIT (16) initial arcs, so it
# never goes deeper than that
ALLOWED = {"verify._protectable"}


def _functions(node, prefix: str):
    """``(qualified name, node)`` of every def under ``node``, nested ones
    and methods included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _FUNCTIONS):
            name = f"{prefix}.{child.name}"
            yield name, child
            yield from _functions(child, name)
        elif isinstance(child, ast.ClassDef):
            yield from _functions(child, f"{prefix}.{child.name}")
        else:
            yield from _functions(child, prefix)


def _calls_itself(function) -> bool:
    """True when the body calls the function's own name, bare or as an
    attribute of its first parameter (``self.name(...)``)."""
    args = function.args.posonlyargs + function.args.args
    first = args[0].arg if args else None
    for node in ast.walk(function):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        if isinstance(callee, ast.Name) and callee.id == function.name:
            return True
        if (
            isinstance(callee, ast.Attribute)
            and callee.attr == function.name
            and isinstance(callee.value, ast.Name)
            and callee.value.id == first
        ):
            return True
    return False


def test_no_function_calls_itself():
    recursive = {
        name
        for path in sorted(SRC.glob("*.py"))
        for name, function in _functions(
            ast.parse(path.read_text(encoding="utf-8")), path.stem
        )
        if _calls_itself(function)
    }
    # an allowed entry that no longer recurses is stale: remove it
    assert recursive == ALLOWED, (
        f"functions in src/cprsnp that call themselves: "
        f"{sorted(recursive - ALLOWED)}; allowed but not recursive: "
        f"{sorted(ALLOWED - recursive)}"
    )
