"""lamadic's checks raise exceptions instead of using assert statements,
so they still run under `python -O`."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lamadic"


def test_no_assert_statement_in_the_package():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, found
