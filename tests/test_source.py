import ast
from pathlib import Path

import sparking

SOURCES = sorted(Path(sparking.__file__).parent.glob("*.py"))


def test_no_library_verdict_rests_on_assert():
    # python -O strips asserts, so every check must raise instead
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert SOURCES and not found
