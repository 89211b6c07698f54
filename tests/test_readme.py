"""The README's library example runs as written, against the package's exports."""

import ast
import re
from pathlib import Path

import fuzzyricci

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs_verbatim(capsys):
    exec(compile(_library_block(), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "(201, 9) 0.0"


def test_library_example_imports_only_exports():
    imported = {
        alias.name
        for node in ast.walk(ast.parse(_library_block()))
        if isinstance(node, ast.ImportFrom) and node.module == "fuzzyricci"
        for alias in node.names
    }
    assert imported and imported <= set(fuzzyricci.__all__)
    assert all(hasattr(fuzzyricci, name) for name in fuzzyricci.__all__)
