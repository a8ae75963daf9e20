"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run with
``pytest tests/test_acceptance.py -v -s`` to see them) and enforces the
stated time budget where one exists.
"""

import random
import time
import warnings
from importlib import resources
from itertools import combinations, product

import pytest

from sparking import (
    Matroid,
    SetSystem,
    Universe,
    delta,
    is_parking_function,
    is_parking_set,
    parking_function_permutation,
    parking_set_permutation,
    uniform_matroid,
)
from sparking.cli import u42_table
from sparking.enumeration import (
    all_set_systems,
    exhaustive_roundtrip_scan,
    random_set_system,
    verify_bijection,
)
from sparking.graphs import (
    classic_parking_functions,
    complete_graph,
    deletion_contraction_count,
    g_parking_equals_s_parking,
    graphic_matroid,
    random_connected_multigraph,
    spanning_tree_bijection,
    spanning_trees,
)
from sparking.matroids import parking_sets_vs_bases_circuit_side

SEED = 0


def _report(number, name, started, budget=None):
    elapsed = time.perf_counter() - started
    status = "PASS" if budget is None or elapsed < budget else "FAIL"
    limit = f" (budget {budget:.0f}s)" if budget is not None else ""
    print(f"[{status}] criterion {number} {name}: {elapsed:.2f}s{limit}")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded {budget}s"


@pytest.fixture(scope="module")
def graph_corpus():
    rng = random.Random(SEED)
    graphs = [complete_graph(n) for n in (2, 3, 4, 5)]
    graphs += [random_connected_multigraph(rng) for _ in range(100)]
    return graphs


def test_criterion_1_golden_table():
    started = time.perf_counter()
    computed = u42_table()
    golden = resources.files("sparking").joinpath("data/u42_table.txt").read_text()
    assert computed == golden
    rows = [line.split() for line in computed.splitlines()[1:]]
    assert [(r[1], r[2], r[3], r[4]) for r in rows] == [
        ("0", "0", "{1,3}", "{2,4}"),
        ("0", "1", "{2,3}", "{1,4}"),
        ("0", "2", "{3,4}", "{1,2}"),
        ("1", "0", "{1,4}", "{2,3}"),
        ("2", "0", "{2,4}", "{1,3}"),
    ]
    _report(1, "golden five-row table", started, budget=1.0)


def test_criterion_2_classic_counts():
    started = time.perf_counter()
    for n in range(1, 6):
        assert len(classic_parking_functions(n)) == (n + 1) ** (n - 1)
    _report(2, "classic counts (n+1)^(n-1) for n=1..5", started, budget=10.0)


def test_criterion_3_bijection_roundtrip():
    started = time.perf_counter()
    scan = exhaustive_roundtrip_scan(max_k=3, max_universe=6, canonical=False)
    assert scan.ok, scan.failures
    assert scan.systems == sum(1 + sum((2 ** k - 1) ** m for m in range(1, 7))
                               for k in (1, 2, 3))
    rng = random.Random(SEED)
    for _ in range(500):
        report = verify_bijection(random_set_system(rng, max_k=4))
        assert report.ok, report.failures
    _report(3, f"roundtrips ({scan.systems} exhaustive + 500 random systems, "
               f"{scan.members} members)", started, budget=60.0)


def test_criterion_4_graph_bijection(graph_corpus):
    started = time.perf_counter()
    for graph in graph_corpus:
        pairs = spanning_tree_bijection(graph)   # asserts image == brute-force trees
        assert len(pairs) == deletion_contraction_count(graph)
    _report(4, f"spanning-tree bijection on {len(graph_corpus)} graphs",
            started, budget=120.0)


def test_criterion_5_g_parking_equivalence(graph_corpus):
    started = time.perf_counter()
    for graph in graph_corpus:
        report = g_parking_equals_s_parking(graph)
        assert report.equal
        assert report.count == len(spanning_trees(graph))
    _report(5, f"degree/star parking equivalence on {len(graph_corpus)} graphs",
            started)


def _all_subsets(ground):
    elements = sorted(ground)
    out = []
    for size in range(len(elements) + 1):
        out.extend(frozenset(c) for c in combinations(elements, size))
    return out


def _identity_sweep(matroid, rng, exhaustive_cap=2000, n_random=40):
    """Check the intersection identity on arbitrary parts and the
    complement identity on circuit-union parts; exhaustive over the part
    tuples when feasible, seeded random otherwise."""
    k = len(matroid.ground) - matroid.rank_value
    checked = 0
    for pool, need_unions in [(_all_subsets(matroid.ground), False),
                              ([s for s in _all_subsets(matroid.ground)
                                if matroid.is_union_of_circuits(s)], True)]:
        total = len(pool) ** k if k else 1
        if total <= exhaustive_cap:
            tuples = product(pool, repeat=k)
        else:
            tuples = (tuple(rng.choice(pool) for _ in range(k))
                      for _ in range(n_random))
        for parts in tuples:
            report = parking_sets_vs_bases_circuit_side(matroid, parts)
            assert report.equal, (matroid, parts)
            if need_unions:
                assert report.parts_are_unions
                assert report.form == "complements-of-parking-sets"
            checked += 1
    return checked


def test_criterion_6_basis_identities(graph_corpus):
    started = time.perf_counter()
    rng = random.Random(SEED)
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for n in range(1, 6):
            for r in range(n + 1):
                checked += _identity_sweep(uniform_matroid(n, r), rng)
        for graph in graph_corpus:
            checked += _identity_sweep(graphic_matroid(graph), rng, n_random=10)
    _report(6, f"basis identities ({checked} part families)", started)


def test_criterion_7_structural_suite():
    started = time.perf_counter()

    # basis exchange is constructor-enforced: valid families pass, an
    # invalid one is refused
    uniform_matroid(5, 2)
    graphic_matroid(complete_graph(4))
    with pytest.raises(ValueError):
        Matroid({1, 2, 3, 4}, [{1, 2}, {3, 4}])

    # dual involution and rank complement
    for matroid in [uniform_matroid(4, 2), uniform_matroid(5, 1),
                    uniform_matroid(5, 4), graphic_matroid(complete_graph(4))]:
        assert matroid.dual.dual == matroid
        assert matroid.rank_value + matroid.dual.rank_value == len(matroid.ground)

    # rank monotonicity and submodularity, exhaustive over subset pairs
    for matroid in [uniform_matroid(4, 2), graphic_matroid(complete_graph(4)),
                    uniform_matroid(6, 3)]:
        ranks = {s: matroid.rank(s) for s in _all_subsets(matroid.ground)}
        for s in ranks:
            for t in ranks:
                if s <= t:
                    assert ranks[s] <= ranks[t]
                assert ranks[s | t] + ranks[s & t] <= ranks[s] + ranks[t]

    # delta is a bijection onto 0..|S|-1, identity and shuffled weights
    rng = random.Random(SEED)
    for size in range(1, 8):
        for _ in range(20):
            members = frozenset(rng.sample(range(1, 30), size))
            assert {delta(members, e) for e in members} == set(range(size))
        ids = list(range(1, size + 1))
        shuffled = ids[:]
        rng.shuffle(shuffled)
        universe = Universe(dict(zip(ids, shuffled)))
        assert {delta(ids, e, universe) for e in ids} == set(range(size))

    # permutation characterizations match the definitional oracles:
    # exhaustive families for k <= 2, canonical representatives for k = 3,
    # seeded random systems for k = 4
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        small = list(all_set_systems(2, 4, canonical=False))
        small += list(all_set_systems(3, 3, canonical=True))
        rng = random.Random(SEED)
        small += [random_set_system(rng, max_k=4, max_universe=6)
                  for _ in range(120)]
    for system in small:
        boxes = [range(len(a) + 1) for a in system.sets]
        for values in product(*boxes):
            member = is_parking_function(system, values)
            assert (parking_function_permutation(system, values) is not None) == member
        elements = sorted(system.covered)
        for combo in combinations(elements, system.k):
            member = is_parking_set(system, frozenset(combo))
            assert (parking_set_permutation(system, frozenset(combo)) is not None) == member

    _report(7, "structural suite", started)
