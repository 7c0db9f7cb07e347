"""The README's code examples run as written and print what they show."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block(heading: str) -> str:
    """The first ```python block after the given ``## heading``."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(f"\n## {heading}\n"):]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_prints_its_comment(capsys):
    code = _python_block("Library")
    assert "# Optimal 69.0" in code
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out == "Optimal 69.0\n"
