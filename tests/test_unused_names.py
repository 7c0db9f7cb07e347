"""Every function and class in ``src/cprsnp`` has a user in the package
itself: code that only the tests run belongs under ``tests/``."""

import ast
import importlib
from pathlib import Path

import cprsnp

SRC = Path(cprsnp.__file__).resolve().parent
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree: ast.Module):
    """``(owner, name)`` of every top-level and class-level def or class;
    ``owner`` is the enclosing class name, or None at top level."""
    for node in tree.body:
        if isinstance(node, _DEFS):
            yield None, node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, _DEFS):
                        yield node.name, sub.name


def _references(tree: ast.Module):
    """Every name the module reads, as a name, an attribute or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _overrides(module: str, owner: str, name: str) -> bool:
    """True when the method replaces one of a base class, whose own code
    calls it (``argparse`` calls ``ArgumentParser.error``)."""
    cls = getattr(importlib.import_module(f"cprsnp.{module}"), owner)
    return any(name in vars(base) for base in cls.__mro__[1:])


def test_every_definition_is_used_in_the_package():
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }
    used = {name for tree in trees.values() for name in _references(tree)}
    used |= set(cprsnp.__all__)
    unused = [
        f"{module}.{name if owner is None else f'{owner}.{name}'}"
        for module, tree in trees.items()
        for owner, name in _definitions(tree)
        if not (name.startswith("__") and name.endswith("__"))
        and name not in used
        and not (owner is not None and _overrides(module, owner, name))
    ]
    assert not unused, f"defined in src/cprsnp but used only outside it: {unused}"
