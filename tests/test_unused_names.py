"""Every function, class and module-level constant in ``src/cprsnp`` has a
user in the package itself: code that only the tests run belongs under
``tests/``.  Every name a module imports is read there or exported."""

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


def _constants(tree: ast.Module):
    """Every name the module binds by a top-level assignment."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name):
                    yield sub.id


def _references(tree: ast.Module):
    """Every name the module reads, as a name, an attribute or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _imports(tree: ast.Module):
    """Every name the module binds by an import, ``from __future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _overrides(module: str, owner: str, name: str) -> bool:
    """True when the method replaces one of a base class, whose own code
    calls it (``argparse`` calls ``ArgumentParser.error``)."""
    cls = getattr(importlib.import_module(f"cprsnp.{module}"), owner)
    return any(name in vars(base) for base in cls.__mro__[1:])


def _package():
    """Each module's syntax tree by name, and every name the package reads
    or exports."""
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }
    used = {name for tree in trees.values() for name in _references(tree)}
    return trees, used | set(cprsnp.__all__)


def test_every_definition_is_used_in_the_package():
    trees, used = _package()
    unused = [
        f"{module}.{name if owner is None else f'{owner}.{name}'}"
        for module, tree in trees.items()
        for owner, name in _definitions(tree)
        if not (name.startswith("__") and name.endswith("__"))
        and name not in used
        and not (owner is not None and _overrides(module, owner, name))
    ]
    assert not unused, f"defined in src/cprsnp but used only outside it: {unused}"


def test_every_constant_is_read_in_the_package():
    trees, used = _package()
    unused = [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _constants(tree)
        if not (name.startswith("__") and name.endswith("__")) and name not in used
    ]
    assert not unused, f"assigned in src/cprsnp but read only outside it: {unused}"


def test_every_import_is_read_in_its_module():
    trees, _ = _package()
    unused = []
    for module, tree in trees.items():
        read = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
        }
        unused += [
            f"{module}.{name}" for name in _imports(tree)
            if name not in read and name not in cprsnp.__all__
        ]
    assert not unused, f"imported in src/cprsnp but never read there: {unused}"
