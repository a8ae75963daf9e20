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


def _uses(name, names):
    """Where module ``name`` imports or names one of ``names``, outside
    the definitions of those names themselves."""
    found = []
    pending = [ast.parse((Path(sparking.__file__).parent / name).read_text())]
    while pending:
        node = pending.pop()
        if isinstance(node, ast.FunctionDef) and node.name in names:
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            used = {alias.name.rpartition(".")[2] for alias in node.names}
        elif isinstance(node, ast.Attribute):
            used = {node.attr}
        elif isinstance(node, ast.Name):
            used = {node.id}
        else:
            used = set()
        found += [f"{name}:{node.lineno} {hit}" for hit in used & names]
        pending.extend(ast.iter_child_nodes(node))
    return found


def test_graph_and_matroid_layers_stay_off_the_oracles():
    # their families, and the CLI's, come from the subfamily table; the
    # exponential per-candidate checks are test oracles only
    assert not sum((_uses(name, ORACLES) for name in ("graphs.py", "matroids.py", "cli.py")), [])


def test_input_validation_stays_off_the_oracles():
    # rho, sigma and the reductions validate by the polynomial
    # certificates, which have no cap on k
    membership = {"is_parking_function", "is_parking_set"}
    assert not _uses("bijections.py", membership) + _uses("systems.py", membership)


def test_graph_and_matroid_layers_read_the_system_table():
    # each public call threads one parts system, whose cached table feeds
    # every family, bracket and cover check of that call
    names = {"subfamily_table", "subfamily_pools"}
    assert not _uses("graphs.py", names) + _uses("matroids.py", names)


def test_graph_layer_walks_no_subsets():
    # G-parking functions burn on the graph itself, and the star side, the
    # matroid sides and the cover search read their systems' cached tables;
    # neither module walks subsets of its own
    names = {"_index_subsets", "exactly_one_sets", "box_filter", "subfamily_table"}
    assert not _uses("graphs.py", names) + _uses("matroids.py", names)


def test_certificates_peel_the_compiled_masks():
    # the certificates, and every module-level helper they reach, stay off
    # the frozenset fold
    tree = ast.parse((Path(sparking.__file__).parent / "systems.py").read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    pending = ["parking_function_permutation", "parking_set_permutation"]
    reached = set()
    while pending:
        name = pending.pop()
        if name not in reached:
            reached.add(name)
            pending += [node.id for node in ast.walk(defs[name])
                        if isinstance(node, ast.Name) and node.id in defs]
    assert "exactly_one_sets" not in reached
