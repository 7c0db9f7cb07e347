"""The README's code examples run as written and print what they show."""

import ast
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import cprsnp
from cprsnp import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block(heading: str) -> str:
    """The first ```python block after the given ``## heading``."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(f"\n## {heading}\n"):]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def _commands(heading: str) -> dict[str, list[str]]:
    """The ``cprsnp`` commands of the first ```sh block after the given
    ``## heading``, by subcommand, each as its argument list once its
    continuation lines are joined."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(f"\n## {heading}\n"):]
    script = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    commands = {}
    for line in script.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if words:
            assert words[0] == "cprsnp"
            commands[words[1]] = words[1:]
    return commands


def test_library_example_prints_its_comment(capsys):
    code = _python_block("Library")
    assert "# Optimal 69.0" in code
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out == "Optimal 69.0\n"


def test_command_line_example_solves_and_verifies(tmp_path, capsys):
    commands = _commands("Command line")
    out = []
    for name in ("gen", "solve", "verify"):
        # the files the commands write and read go to tmp_path
        argv = [
            str(tmp_path / word) if word.endswith(".txt") else word
            for word in commands[name]
        ]
        assert cli.main(argv) == 0, name
        out += capsys.readouterr().out.splitlines()
    assert any(line.startswith("status=Optimal ") for line in out)
    assert any(line.startswith("verified: ") for line in out)


def test_module_names_resolve():
    # a backticked `module.name` whose module is part of cprsnp names
    # something that module has, so a rename cannot leave the README behind
    modules = {info.name for info in pkgutil.iter_modules(cprsnp.__path__)}
    text = README.read_text(encoding="utf-8")
    checked = 0
    for name in re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", text):
        first, *rest = name.split(".")
        if first not in modules:
            continue
        target = importlib.import_module(f"cprsnp.{first}")
        for part in rest:
            assert hasattr(target, part), name
            target = getattr(target, part)
        checked += 1
    assert checked


def _signatures() -> dict[str, set[tuple[str, ...]]]:
    """The parameter names of every ``def`` in the package, ``self``
    excluded, by function name."""
    found: dict[str, set[tuple[str, ...]]] = {}
    for path in Path(cprsnp.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                params = tuple(name for name in names if name != "self")
                found.setdefault(node.name, set()).add(params)
    return found


def test_call_forms_match_their_definitions():
    # a backticked `name(a, b)` is the signature of every def of that name
    # in the package (the formulation classes share theirs), so a renamed
    # parameter cannot leave the README behind
    signatures = _signatures()
    text = README.read_text(encoding="utf-8")
    forms = re.findall(r"`([A-Za-z_]\w*)\(([\w\s,]*)\)`", text)
    assert forms
    for name, params in forms:
        written = tuple(p.strip() for p in params.split(",") if p.strip())
        assert signatures.get(name) == {written}, f"{name}({params})"
