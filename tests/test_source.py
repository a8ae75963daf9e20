import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sparking
from sparking import SetSystem, parking_set_permutation, sigma

SOURCES = sorted(Path(sparking.__file__).parent.glob("*.py"))


def test_no_library_verdict_rests_on_assert():
    # python -O strips asserts, so every check must raise instead
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert SOURCES and not found


def test_no_library_module_uses_the_locking_cached_property():
    # before Python 3.12, functools.cached_property takes one lock, shared by
    # all instances, on every first access; systems._cached takes none
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text()))
             if getattr(node, "attr", None) == "cached_property"
             or getattr(node, "id", None) == "cached_property"
             or isinstance(node, ast.ImportFrom) and node.module == "functools"
             and any(alias.name == "cached_property" for alias in node.names)]
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


def _table_rows(tree):
    """The loop targets that take the entries of a ``.table`` attribute,
    ``enumerate(...)`` unwrapped."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.comprehension)):
            source, target = node.iter, node.target
            if (isinstance(source, ast.Call) and getattr(source.func, "id", None) == "enumerate"
                    and isinstance(target, ast.Tuple) and len(target.elts) == 2):
                source, target = source.args[0], target.elts[1]
            if isinstance(source, ast.Attribute) and source.attr == "table":
                yield target


def test_graph_and_matroid_layers_read_the_system_table():
    # each public call threads one parts system, whose cached table feeds
    # every family, bracket and cover check of that call
    names = {"subfamily_table"}
    assert not _uses("graphs.py", names) + _uses("matroids.py", names)
    # and the table holds one bare pool mask per subfamily: no reader
    # unpacks an entry or indexes into one
    found, rows = [], 0
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        targets = list(_table_rows(tree))
        rows += len(targets)
        names = {t.id for t in targets if isinstance(t, ast.Name)}
        found += [f"{path.name}:{t.lineno}" for t in targets if not isinstance(t, ast.Name)]
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                  and node.value.id in names]
    assert rows and not found


def test_graph_layer_walks_no_subsets():
    # G-parking functions burn on the graph itself, and the star side, the
    # matroid sides and the cover search read their systems' cached tables;
    # neither module walks subsets of its own.  The graph layer lists its
    # trees by pool_filter and union-find alone: no brute-force combinations,
    # and no pool or table of the star system, so the trees never come from
    # the parking sets they are checked against
    names = {"_subfamily_pools", "exactly_one_sets", "box_filter", "subfamily_table"}
    trees = {"combinations", "pools", "table", "table_sets"}
    assert not _uses("graphs.py", names | trees) + _uses("matroids.py", names)


def test_one_sweep_engine_over_the_shared_family():
    # the exactly-one pool is folded in one function of the mapping module,
    # and no run copies the family: every run reads the same masks
    tree = ast.parse((Path(sparking.__file__).parent / "bijections.py").read_text())
    folds, copies = [], []
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        for node in ast.walk(function):
            if isinstance(node, ast.Name) and node.id == "twice" and isinstance(node.ctx, ast.Store):
                folds.append(function.name)
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("list", "tuple")
                    and [getattr(a, "id", None) for a in node.args] == ["masks"]
                    or isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "masks"
                    and isinstance(node.slice, ast.Slice)):
                copies.append(f"{function.name}:{node.lineno}")
    assert len(set(folds)) == 1 and not copies


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


def test_oracles_stay_off_the_mask_code():
    # the definitional checks, and every module-level helper they reach,
    # read the member sets alone: they stay the reference the mask
    # filters are checked against
    trees = [ast.parse((Path(sparking.__file__).parent / name).read_text())
             for name in ("systems.py", "enumeration.py")]
    defs = {node.name: node for tree in trees for node in tree.body
            if isinstance(node, ast.FunctionDef)}
    pending, reached, found = sorted(ORACLES), set(), []
    while pending:
        name = pending.pop()
        if name not in reached:
            reached.add(name)
            for node in ast.walk(defs[name]):
                if isinstance(node, ast.Name) and node.id in defs:
                    pending.append(node.id)
                if (getattr(node, "id", None) in {"subfamily_table", "box_filter", "pool_filter",
                                                  "mask_families", "_peel"}
                        or getattr(node, "attr", None) in {"masks", "table", "pools",
                                                           "mask_of", "elements_of"}):
                    found.append(f"{name}:{node.lineno}")
    assert "_subfamily_pools" in reached and not found


def test_matroid_layer_neither_encodes_nor_decodes():
    # bases, pools and parts share the matroid's one bit order, so the
    # bracket and its columns, the sides and their union test, the
    # independence row and the cover search work on masks alone; none
    # reaches a public method that encodes a set either
    tree = ast.parse((Path(sparking.__file__).parent / "matroids.py").read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    defs.update((f"{cls.name}.{node.name}", node) for cls in tree.body
                if isinstance(cls, ast.ClassDef) for node in cls.body
                if isinstance(node, ast.FunctionDef))
    names = ("_bracket", "_checked_side", "_independent_row", "find_cocircuit_cover_families",
             "Matroid._is_union", "Matroid._columns")
    coders = {"mask_of", "elements_of", "_mask", "rank", "is_union_of_circuits"}
    found = [f"{name}:{node.lineno} {node.attr}" for name in names
             for node in ast.walk(defs[name])
             if isinstance(node, ast.Attribute) and node.attr in coders]
    assert not found


def _bound_at_top(tree):
    """(scope, name) of every def, and every assigned name, in the module
    body or a class body; scope is the class name, or None."""
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, ast.ClassDef))]:
        for node in scope.body:
            if isinstance(node, ast.FunctionDef):
                yield getattr(scope, "name", None), node.name
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                yield from ((getattr(scope, "name", None), n.id)
                            for n in ast.walk(node) if isinstance(n, ast.Name))


# the position of the family among each system constructor's arguments
_FAMILY_ARGUMENT = {"SetSystem": 0, "with_sets": 0, "_system_over": 1}


def _empty_families(tree):
    """The lines that pass a system constructor an empty literal family."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            position = _FAMILY_ARGUMENT.get(name)
            if position is not None and position < len(node.args):
                family = node.args[position]
                if isinstance(family, (ast.Tuple, ast.List)) and not family.elts:
                    yield node.lineno


def test_the_universe_alone_owns_the_bit_order():
    # mask_of, elements_of, order and bit are bound in Universe and nowhere
    # else, and no module builds an empty family just to reach them
    coders = {"mask_of", "elements_of", "order", "bit"}
    owners, empty = set(), []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        owners |= {(path.name, scope, name) for scope, name in _bound_at_top(tree) if name in coders}
        empty += [f"{path.name}:{line}" for line in _empty_families(tree)]
    assert owners == {("systems.py", "Universe", name) for name in coders}
    assert not empty


# modules a run loads on first use, if at all: every CLI run pays for what
# ``import sparking.cli`` loads, and these were a third of a run's start-up
LAZY_MODULES = ("dataclasses", "inspect", "fractions", "decimal", "json", "pathlib",
                "random", "importlib.resources")


def test_import_loads_no_module_a_run_may_not_use():
    code = ("import sys; before = set(sys.modules); import sparking, sparking.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=str(Path(sparking.__file__).resolve().parents[1]))
    added = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                           capture_output=True, text=True).stdout.split()
    assert "sparking.cli" in added
    assert not set(LAZY_MODULES).intersection(added)
    # the records that lost their dataclass keep equality, hashing and immutability
    system = SetSystem([{1, 2, 3}, {1, 2, 4}])
    records = [sigma(system, (1, 0))[1], parking_set_permutation(system, {1, 3})]
    for record, again in zip(records, [sigma(system, (1, 0))[1],
                                       parking_set_permutation(system, {1, 3})]):
        assert record == again and hash(record) == hash(again) and record is not again
        for name in (record._fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, ())
    assert records[0] != sigma(system, (0, 1))[1]
