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


ORACLES = {"enumerate_parking_functions", "enumerate_parking_sets",
           "is_parking_function", "is_parking_set"}


def test_graph_and_matroid_layers_stay_off_the_oracles():
    # their families come from the subfamily table; the exponential
    # per-candidate checks are test oracles only
    found = []
    for name in ("graphs.py", "matroids.py"):
        tree = ast.parse((Path(sparking.__file__).parent / name).read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {alias.name.rpartition(".")[2] for alias in node.names}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.Name):
                names = {node.id}
            else:
                continue
            found += [f"{name}:{node.lineno} {used}" for used in names & ORACLES]
    assert not found
