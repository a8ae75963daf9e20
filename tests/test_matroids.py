import json
import random
import time
import warnings
from itertools import combinations, compress, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparking.matroids
import sparking.systems
from sparking import (
    Matroid,
    PreconditionError,
    cocircuit_union_subsets,
    corollary_full_cover,
    find_cocircuit_cover_families,
    parking_sets_vs_bases_circuit_side,
    parking_sets_vs_bases_cocircuit_side,
    theorem_bijection,
    uniform_matroid,
)
from sparking.graphs import (
    Multigraph,
    complete_graph,
    face_boundary_bijection,
    g_parking_equals_s_parking,
    graphic_matroid,
    random_connected_multigraph,
    spanning_tree_bijection,
    star_sets,
)
from sparking.cli import main
from sparking.enumeration import _BITS, pool_filter, table_sets
from sparking.formats import parse_matroid
from sparking.matroids import (_FORMS, BasesIdentityReport, _bracket, _checked_side,
                               _independent_row, _parts_system)
from sparking.systems import SetSystem, _system_over, exactly_one_sets


def _subsets(ground):
    elements = sorted(ground)
    for size in range(len(elements) + 1):
        yield from (frozenset(c) for c in combinations(elements, size))


# --- construction and structure --------------------------------------------

def test_uniform_matroid_counts():
    assert len(uniform_matroid(4, 2).bases) == 6
    assert uniform_matroid(3, 0).bases == (frozenset(),)
    assert uniform_matroid(3, 3).bases == (frozenset({1, 2, 3}),)
    with pytest.raises(ValueError):
        uniform_matroid(3, 4)


@pytest.mark.parametrize("n, r", [(40, 20), (40000, 1)])
def test_uniform_matroid_beyond_the_cap_is_refused_at_once(n, r, tmp_path, capsys):
    # C(40, 20) masks, or 40,000 masks of 40,000 bits, would not fit in memory
    (tmp_path / "parts.txt").write_text("1 2\n1 2\n")
    start = time.perf_counter()
    assert main(["matroid", f"uniform:{n}:{r}", "--parts", str(tmp_path / "parts.txt"),
                 "--side", "cocircuit"]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.err.startswith(
        f"error: too large: C({n}, {r}) = {comb(n, r)} bases of {n} bits; building their "
        f"masks is capped at 10000000 64-bit words\n")
    assert captured.out == ""
    assert len(uniform_matroid(6, 3).bases) == 20


@pytest.mark.parametrize("spec", ["uniform:4_0:2", "uniform:x:2"])
def test_uniform_spec_follows_the_one_integer_rule(spec, tmp_path, capsys):
    # 4_0 would run as U(2, 40), and x would print int()'s own message
    (tmp_path / "parts.txt").write_text("1 2\n1 2\n")
    assert main(["matroid", spec, "--parts", str(tmp_path / "parts.txt"),
                 "--side", "cocircuit"]) == 2
    name = spec.split(":")[1]
    assert capsys.readouterr().err == (
        f"error: expected integer uniform:n:r fields, got ['{name}', '2']\n")


def _uniform_matroid_file(tmp_path, n, r):
    path = tmp_path / f"u{r}{n}.txt"
    path.write_text(f"ground {n} {r}\n" + "".join(
        " ".join(map(str, b)) + "\n" for b in combinations(range(1, n + 1), r)))
    return path


def test_a_matroid_file_beyond_the_exchange_cap_is_refused_at_once(tmp_path, capsys):
    # U(7, 14): 3,432 bases, 3432^2 * 7 = 82,450,368 exchange checks
    path, parts = _uniform_matroid_file(tmp_path, 14, 7), tmp_path / "parts.txt"
    parts.write_text("1 2\n1 2\n")
    start = time.perf_counter()
    assert main(["matroid", str(path), "--parts", str(parts), "--side", "cocircuit"]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.err == ("error: too large: 3432 bases of rank 7 need 82450368 basis "
                            "exchange checks; checking is capped at 10000000\n")
    assert captured.out == ""


def test_a_924_basis_matroid_file_loads_in_under_2_s(tmp_path):
    # U(6, 12): every pair of its 924 bases passes the exchange check
    text = _uniform_matroid_file(tmp_path, 12, 6).read_text()
    start = time.perf_counter()
    matroid = parse_matroid(text)
    assert time.perf_counter() - start < 2
    assert matroid == uniform_matroid(12, 6)


def test_exchange_validation_rejects_non_matroid():
    with pytest.raises(ValueError):
        Matroid({1, 2, 3, 4}, [{1, 2}, {3, 4}])


def test_bases_must_share_cardinality():
    with pytest.raises(ValueError):
        Matroid({1, 2, 3}, [{1}, {2, 3}])


def test_rank_examples(u42):
    assert u42.rank({1, 2, 3}) == 2
    assert u42.rank(set()) == 0
    assert u42.rank({1}) == 1
    with pytest.raises(ValueError):
        u42.rank({9})


def test_rank_monotone_and_submodular_exhaustively():
    for matroid in [uniform_matroid(4, 2), graphic_matroid(complete_graph(4)),
                    uniform_matroid(5, 3)]:
        ranks = {s: matroid.rank(s) for s in _subsets(matroid.ground)}
        subsets = list(ranks)
        for s in subsets:
            for t in subsets:
                if s <= t:
                    assert ranks[s] <= ranks[t]
                assert ranks[s | t] + ranks[s & t] <= ranks[s] + ranks[t]


def test_circuits_u42(u42):
    assert set(u42.circuits) == {frozenset(c) for c in combinations(range(1, 5), 3)}


def test_dual_involution_and_rank_sum():
    for matroid in [uniform_matroid(4, 2), uniform_matroid(5, 1),
                    graphic_matroid(complete_graph(4))]:
        assert matroid.dual.dual == matroid
        assert matroid.rank_value + matroid.dual.rank_value == len(matroid.ground)


def test_u42_is_self_dual(u42):
    assert u42.dual == u42
    assert set(u42.cocircuits) == set(u42.circuits)


def test_union_of_circuits(u42):
    assert u42.is_union_of_circuits({1, 2, 3})
    assert u42.is_union_of_circuits(set())
    assert not u42.is_union_of_circuits({1, 2})


def test_union_of_circuits_matches_direct_covering():
    for matroid in [uniform_matroid(4, 2), graphic_matroid(complete_graph(3)),
                    graphic_matroid(complete_graph(4))]:
        circuits = matroid.circuits
        for s in _subsets(matroid.ground):
            covered = frozenset(e for c in circuits if c <= s for e in c)
            assert matroid.is_union_of_circuits(s) == (covered == s)


def test_bases_containing(u42):
    assert u42.bases_containing({3, 4}) == [frozenset({3, 4})]
    assert len(u42.bases_containing(set())) == 6
    assert u42.bases_containing({1, 2, 3}) == []


def test_bracket_and_prime(u42):
    parts = [{1, 2, 3}, {1, 2, 4}]
    assert u42.bases_bracket(parts) == [frozenset({3, 4})]
    prime = u42.bases_prime(parts)
    assert len(prime) == 5
    assert frozenset({3, 4}) not in prime

    assert u42.bases_bracket([{1, 2, 3}]) == []
    assert set(u42.bases_prime([{1, 2, 3}])) == set(u42.bases)

    assert set(u42.bases_bracket([frozenset()])) == set(u42.bases)
    assert u42.bases_prime([frozenset()]) == []


def _bracket_by_definition(matroid, parts):
    hit = set()
    for imask in range(1, 1 << len(parts)):
        target = exactly_one_sets(p for j, p in enumerate(parts) if imask >> j & 1)
        hit.update(b for b in matroid.bases if target <= b)
    return sorted(hit, key=sorted)


def test_bracket_matches_the_definition_on_uniform_matroids():
    rng = random.Random(17)
    for n in range(0, 6):
        ground = list(_subsets(range(1, n + 1)))
        for r in range(n + 1):
            matroid = uniform_matroid(n, r)
            families = [[p] for p in ground] + [list(pair) for pair in product(ground, repeat=2)]
            families += [[rng.choice(ground) for _ in range(k)]
                         for k in (3, 4) for _ in range(20)]
            for parts in families:
                assert matroid.bases_bracket(parts) == _bracket_by_definition(matroid, parts)


def _bracket_matroids(two_triangles):
    """Graphic K4 and K5, 40 seeded multigraphs with loops and parallel
    edges, the duals of all of them, and one explicit matroid with a loop."""
    rng = random.Random(29)
    graphs = [complete_graph(4), complete_graph(5)]
    graphs += [random_connected_multigraph(rng, max_vertices=5, max_edges=8) for _ in range(40)]
    for graph in graphs:
        matroid = graphic_matroid(graph)
        yield from (matroid, matroid.dual)
    yield Matroid(range(1, 7), graphic_matroid(two_triangles).bases)


def test_bracket_matches_the_definition_beyond_uniform_matroids(two_triangles):
    rng = random.Random(31)
    matroids = empty_pools = 0
    for matroid in _bracket_matroids(two_triangles):
        matroids += 1
        ground = sorted(matroid.ground)
        families = [[{e for e in ground if rng.random() < 0.4} for _ in range(rng.randint(1, 4))]
                    for _ in range(5)]
        # a repeated part, and an empty part, make an exactly-one pool empty
        families += [families[0] + families[0][:1], [set(), set(ground)]]
        for parts in families:
            bracket = matroid.bases_bracket(parts)
            assert bracket == _bracket_by_definition(matroid, parts)
            assert matroid.bases_prime(parts) == [b for b in matroid.bases if b not in bracket]
            empty_pools += 0 in SetSystem(parts, matroid._universe, warn=False).table
    assert matroids == 85 and empty_pools >= 2 * matroids


def _pool_matroids():
    yield from (uniform_matroid(6, r) for r in (2, 3))
    k4 = graphic_matroid(complete_graph(4))
    yield from (k4, k4.dual, Matroid(range(1, 7), k4.bases))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(_pool_matroids())),
       st.lists(st.frozensets(st.integers(1, 6)), max_size=5))
def test_minimal_pools_decide_the_filter_and_the_bracket(matroid, parts):
    system = SetSystem(parts, matroid._universe, warn=False)
    pools, table = system.pools, system.table
    # an antichain inside the table, below every pool of it
    assert set(pools) <= set(table)
    assert all(p == q or p & q != p for p in pools for q in pools)
    assert all(any(p & q == p for p in pools) for q in table)
    masks = system.masks
    assert pool_filter(masks, pools) == pool_filter(masks, table)
    hit = _bracket(matroid, system)
    assert {m for i, m in enumerate(matroid._masks) if hit >> i & 1} == {
        m for m in matroid._masks if any(q & m == q for q in table)}
    assert hit < 1 << len(matroid._masks)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(_pool_matroids())),
       st.lists(st.frozensets(st.integers(1, 6)), max_size=5))
def test_independent_row_decides_on_the_minimal_pools(matroid, parts):
    system = _parts_system(matroid, parts)
    for reference in (matroid, matroid.dual):
        assert _independent_row(system, reference) == next(
            (imask for imask, pool in enumerate(system.table, 1)
             if reference._rank(pool) == pool.bit_count()), None)


def test_full_cover_ranks_only_the_minimal_pools():
    # every one of the 32,767 pools of the triangles through vertex 0 of K7
    # holds a cycle; the verdict ranks the 1,172 minimal ones alone
    k7 = complete_graph(7)
    edge = {(u, v): e for e, u, v in k7.edges}
    triangles = [{edge[0, i], edge[0, j], edge[i, j]} for i, j in combinations(range(1, 7), 2)]
    side = _checked_side(graphic_matroid(k7), triangles, "circuit")
    rank, calls = side.reference._rank, []
    side.reference._rank = lambda m: calls.append(m) or rank(m)
    assert side.cover()
    assert len(side.system.pools) == 1172 and len(calls) <= 1172


def test_parts_systems_reuse_the_universe_bit_order():
    matroid = graphic_matroid(complete_graph(5))
    universe = matroid._universe
    system = _checked_side(matroid, star_sets(complete_graph(5)), "cocircuit").system
    assert system.universe is universe
    assert universe.order is universe.order and universe.bit is universe.bit
    # parts systems stay quiet about an empty member; the public
    # constructor still warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _parts_system(matroid, [set()])
    with pytest.warns(UserWarning, match="empty set"):
        SetSystem([set()])


# --- identity reports ---------------------------------------------------------

def test_circuit_side_u42(u42):
    report = parking_sets_vs_bases_circuit_side(u42, [{1, 2, 3}, {1, 2, 4}])
    assert report.equal
    assert report.parts_are_unions
    assert report.form == "complements-of-parking-sets"
    assert len(report.lhs) == 5
    # a part may be any iterable, read once
    again = parking_sets_vs_bases_circuit_side(u42, [iter([1, 2, 3]), [1, 2, 4]])
    assert again.to_jsonable() == report.to_jsonable()


def test_circuit_side_rank_one():
    m = uniform_matroid(2, 1)
    report = parking_sets_vs_bases_circuit_side(m, [{1, 2}])
    assert report.equal
    assert report.lhs == frozenset({frozenset({1}), frozenset({2})})


def test_circuit_side_falls_back_without_unions(u42):
    report = parking_sets_vs_bases_circuit_side(u42, [{1, 2}, {1, 2, 4}])
    assert not report.parts_are_unions
    assert report.form == "bases-and-complements"
    assert report.equal


def test_circuit_side_k_precondition(u42):
    with pytest.raises(PreconditionError):
        parking_sets_vs_bases_circuit_side(u42, [{1, 2, 3}])


def test_cocircuit_side_k3_stars(k3):
    matroid = graphic_matroid(k3)
    report = parking_sets_vs_bases_cocircuit_side(matroid, star_sets(k3))
    assert report.equal
    assert report.form == "parking-sets"
    assert len(report.lhs) == 3


def test_cocircuit_side_u42(u42):
    report = parking_sets_vs_bases_cocircuit_side(u42, [{1, 2, 3}, {1, 2, 4}])
    assert report.equal
    assert len(report.lhs) == len(report.rhs) == 5


def test_cocircuit_side_with_empty_part(u42):
    report = parking_sets_vs_bases_cocircuit_side(u42, [frozenset(), {1, 2, 3}])
    assert report.lhs == frozenset()
    assert report.rhs == frozenset()
    assert report.equal


def test_cocircuit_side_k_precondition(u42):
    with pytest.raises(PreconditionError):
        parking_sets_vs_bases_cocircuit_side(u42, [{1, 2, 3}])


# --- theorem bijection ----------------------------------------------------------

def test_theorem_bijection_u42_table(u42):
    pairs = theorem_bijection(u42, [{1, 2, 3}, {1, 2, 4}], "circuit")
    assert pairs == [
        ((0, 0), frozenset({2, 4})),
        ((0, 1), frozenset({1, 4})),
        ((0, 2), frozenset({1, 2})),
        ((1, 0), frozenset({2, 3})),
        ((2, 0), frozenset({1, 3})),
    ]


def test_theorem_bijection_k3_stars(k3):
    matroid = graphic_matroid(k3)
    pairs = theorem_bijection(matroid, star_sets(k3), "cocircuit")
    assert {b for _, b in pairs} == set(matroid.bases)
    assert len(pairs) == 3


def test_theorem_bijection_rank_one_circuit_side():
    m = uniform_matroid(2, 1)
    pairs = theorem_bijection(m, [{1, 2}], "circuit")
    assert pairs == [((0,), frozenset({2})), ((1,), frozenset({1}))]


def test_theorem_bijection_with_custom_weights(u42):
    # a different weight order changes the pairing but still bijects
    # onto the same surviving bases
    parts = [{1, 2, 3}, {1, 2, 4}]
    weights = {1: 4, 2: 3, 3: 2, 4: 1}
    reweighted = theorem_bijection(u42, parts, "circuit", weights=weights)
    default = theorem_bijection(u42, parts, "circuit")
    assert {b for _, b in reweighted} == {b for _, b in default}
    assert reweighted != default


def test_theorem_bijection_names_failed_condition(u42):
    with pytest.raises(PreconditionError, match="k = "):
        theorem_bijection(u42, [{1, 2, 3}], "circuit")
    with pytest.raises(PreconditionError, match="part 1"):
        theorem_bijection(u42, [{1, 2}, {1, 2, 4}], "circuit")
    with pytest.raises(PreconditionError, match="cocircuit"):
        theorem_bijection(u42, [{1, 2}, {1, 2, 4}], "cocircuit")
    with pytest.raises(ValueError):
        theorem_bijection(u42, [{1, 2, 3}, {1, 2, 4}], "sideways")


def test_full_cover(u42, k3):
    matroid = graphic_matroid(k3)
    assert corollary_full_cover(matroid, star_sets(k3), "cocircuit") is True
    assert corollary_full_cover(u42, [{1, 2, 3}, {1, 2, 4}], "circuit") is False
    # repeated parts: their exactly-one set is empty, hence independent
    assert corollary_full_cover(u42, [{1, 2, 3}, {1, 2, 3}], "circuit") is False
    single_circuit = uniform_matroid(3, 2)
    assert corollary_full_cover(single_circuit, [{1, 2, 3}], "circuit") is True


# --- identity sweeps -----------------------------------------------------------------

def _circuit_union_subsets(matroid):
    return [s for s in _subsets(matroid.ground) if matroid.is_union_of_circuits(s)]


def test_intersection_identity_arbitrary_parts_small_uniform():
    rng = random.Random(2)
    for n in range(1, 5):
        for r in range(n + 1):
            matroid = uniform_matroid(n, r)
            k = n - r
            pool = list(_subsets(matroid.ground))
            tuples = (list(product(pool, repeat=k)) if len(pool) ** k <= 600
                      else [tuple(rng.choice(pool) for _ in range(k))
                            for _ in range(120)])
            for parts in tuples:
                assert parking_sets_vs_bases_circuit_side(matroid, parts).equal


def _cocircuit_side_by_definition(matroid, parts):
    """(lhs, rhs, parts are unions) of the cocircuit-side identity, from
    the definitions: cocircuits are the minimal sets meeting every basis."""
    ground, bases = matroid.ground, set(matroid.bases)
    pools = [exactly_one_sets(p for j, p in enumerate(parts) if imask >> j & 1)
             for imask in range(1, 1 << len(parts))]
    meeting = [s for s in _subsets(ground) if s and all(s & b for b in bases)]
    cocircuits = [s for s in meeting if not any(t < s for t in meeting)]
    unions = all(frozenset().union(*(c for c in cocircuits if c <= p)) == p for p in parts)
    parking = {s for s in _subsets(ground) if len(s) == len(parts)
               and all(s & pool for pool in pools)}
    lhs = {b for b in bases if all(b & pool for pool in pools)}
    return lhs, parking if unions else parking & bases, unions


def _bracket_masks(matroid, system):
    """The bracket of ``system`` on ``matroid`` as a set of basis masks."""
    columns, hit = matroid._columns, 0
    for pool in system.pools:
        held = (1 << len(matroid._masks)) - 1
        for b in range(pool.bit_length()):
            if pool >> b & 1:
                held &= columns[b]
        hit |= held
    return set(compress(matroid._masks, f"{hit:b}"[::-1].encode().translate(_BITS)))


def _identity_by_the_set_route(matroid, parts, side):
    """The identity report built as the library built it before its
    bracket became a bitset: the bracket as a set of masks, the survivors
    as a set difference, and one decode per surviving mask."""
    checked = _checked_side(matroid, parts, side)
    system, reference, xor = checked.system, checked.reference, checked.xor
    target = frozenset(reference._masks).difference(_bracket_masks(reference, system))
    if side == "cocircuit":
        full = (1 << len(matroid.ground)) - 1
        target = frozenset(full ^ m for m in target)
    unions = checked.non_union is None
    rhs = {d ^ xor for d in table_sets(system)}
    if not unions:
        rhs.intersection_update(matroid._masks)
    decode = system.universe.elements_of
    return BasesIdentityReport(side, _FORMS[side][not unions], system.sets, unions,
                               frozenset(map(decode, target)), frozenset(map(decode, rhs)))


def _identity_families():
    """(matroid, parts, side): every U(n, r) with n <= 6 on both sides with
    20 seeded parts families each, and the stars of graphic K4 and K5."""
    rng = random.Random(41)
    for n in range(7):
        for r in range(n + 1):
            matroid = uniform_matroid(n, r)
            for side, k in (("circuit", n - r), ("cocircuit", r)):
                for _ in range(20):
                    yield matroid, [{e for e in range(1, n + 1) if rng.random() < 0.6}
                                    for _ in range(k)], side
    for n in (4, 5):
        yield graphic_matroid(complete_graph(n)), star_sets(complete_graph(n)), "cocircuit"


def test_the_identity_reports_match_the_set_route_byte_for_byte():
    reports = unequal = 0
    for matroid, parts, side in _identity_families():
        report = _checked_side(matroid, parts, side).identity()
        old = _identity_by_the_set_route(matroid, parts, side)
        assert json.dumps(report.to_jsonable()) == json.dumps(old.to_jsonable())
        assert (report.lhs, report.rhs) == (old.lhs, old.rhs)
        reports += 1
        unequal += report.lhs != frozenset(matroid.bases)
        # the bracket and its complement split the bases, each in order
        inside = _bracket_masks(matroid, _parts_system(matroid, parts))
        assert matroid.bases_bracket(parts) == [
            b for b, m in zip(matroid.bases, matroid._masks) if m in inside]
        assert matroid.bases_prime(parts) == [
            b for b, m in zip(matroid.bases, matroid._masks) if m not in inside]
    assert reports == 1122 and unequal > 100


def test_cocircuit_identity_matches_the_definition_on_uniform_matroids():
    rng = random.Random(5)
    for n in range(0, 6):
        pool = list(_subsets(range(1, n + 1)))
        for r in range(n + 1):
            matroid = uniform_matroid(n, r)
            tuples = (list(product(pool, repeat=r)) if len(pool) ** r <= 600
                      else [tuple(rng.choice(pool) for _ in range(r)) for _ in range(120)])
            for parts in tuples:
                report = parking_sets_vs_bases_cocircuit_side(matroid, parts)
                lhs, rhs, unions = _cocircuit_side_by_definition(matroid, parts)
                assert (report.lhs, report.rhs, report.parts_are_unions) == (lhs, rhs, unions)
                assert report.form == ("parking-sets" if unions else "bases-and-parking-sets")
                assert report.equal


def test_union_identity_circuit_union_parts(u42):
    matroid = graphic_matroid(complete_graph(3))
    for m in [u42, matroid]:
        pool = _circuit_union_subsets(m)
        k = len(m.ground) - m.rank_value
        for parts in product(pool, repeat=k):
            report = parking_sets_vs_bases_circuit_side(m, parts)
            assert report.parts_are_unions
            assert report.form == "complements-of-parking-sets"
            assert report.equal


# --- exploration aid ---------------------------------------------------------------

def test_cocircuit_union_subsets_k3(k3):
    matroid = graphic_matroid(k3)
    unions = cocircuit_union_subsets(matroid)
    assert frozenset({1, 2}) in unions          # vertex star at the root
    assert frozenset({1}) not in unions


def test_search_finds_star_family_for_graphs(k3):
    matroid = graphic_matroid(k3)
    families = find_cocircuit_cover_families(matroid)
    assert families
    family = families[0]
    assert len(family) == matroid.rank_value
    assert corollary_full_cover(matroid, family, "cocircuit")


def test_search_finds_nothing_for_u42(u42):
    assert find_cocircuit_cover_families(u42, limit=3) == []


def test_a_rank_0_matroid_has_the_empty_cover_family():
    # no subfamily, so no exactly-one set to cover: the family of zero
    # parts is the vertex stars of a one-vertex graph
    for matroid in (graphic_matroid(Multigraph(1, [])), uniform_matroid(3, 0)):
        assert matroid.rank_value == 0
        assert find_cocircuit_cover_families(matroid) == [()]
        assert find_cocircuit_cover_families(matroid, limit=3) == [()]
        assert find_cocircuit_cover_families(matroid, limit=0) == []
        assert corollary_full_cover(matroid, [], "cocircuit")


def test_a_capped_cover_search_refuses_instead_of_returning_short(monkeypatch):
    # graphic K5 has cover families: 50 candidate extensions find two of
    # them, and the third needs more
    matroid = graphic_matroid(complete_graph(5))
    found = find_cocircuit_cover_families(matroid, 3)
    monkeypatch.setattr(sparking.matroids, "MAX_COVER_NODES", 50)
    assert find_cocircuit_cover_families(matroid, 2) == found[:2]
    with pytest.raises(ValueError, match=r"^too large: 2 of 3 families found within the cap "
                                         r"of 50 candidate extensions$"):
        find_cocircuit_cover_families(matroid, 3)


def test_the_cover_search_refuses_before_its_subset_listing(u42, monkeypatch):
    # 2^24 - 1 subsets of U(2, 24) pass the cap of 10^7; none is tried
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^too large: 2\^24 - 1 = 16777215 subsets"):
        find_cocircuit_cover_families(uniform_matroid(24, 2))
    assert time.perf_counter() - start < 1.0
    # the cap is inclusive: U(2, 4) has 15 non-empty subsets
    monkeypatch.setattr(sparking.matroids, "MAX_CHECK_CANDIDATES", 15)
    assert find_cocircuit_cover_families(u42) == []
    monkeypatch.setattr(sparking.matroids, "MAX_CHECK_CANDIDATES", 14)
    with pytest.raises(ValueError, match="^too large: "):
        cocircuit_union_subsets(u42)


def _lines(rows):
    return "".join(" ".join(map(str, row)) + "\n" for row in rows)


def _cover_families_by_full_tables(matroid, limit):
    """The cover search as a plain walk that checks every row of each
    extended family's own table."""
    k, candidates, results = matroid.rank_value, cocircuit_union_subsets(matroid), []

    def extend(prefix, start):
        if len(prefix) == k:
            results.append(tuple(prefix))
            return
        for idx in range(start, len(candidates)):
            if len(results) >= limit:
                return
            extended = prefix + [candidates[idx]]
            if _independent_row(_system_over(matroid.ground, extended), matroid.dual) is None:
                extend(extended, idx + 1)

    extend([], 0)  # at rank 0 the empty family is the one family
    return results[:limit]


def test_cover_search_checks_only_the_new_rows():
    matroids = [uniform_matroid(n, r) for n in range(1, 6) for r in range(n + 1)]
    matroids += [uniform_matroid(6, 3)] + [graphic_matroid(complete_graph(n)) for n in (4, 5)]
    found = 0
    for matroid in matroids:
        families = find_cocircuit_cover_families(matroid, 3)
        assert families == _cover_families_by_full_tables(matroid, 3)
        for limit in (1, 2):
            assert find_cocircuit_cover_families(matroid, limit) == families[:limit]
        found += len(families)
    assert found > 0


def _rank_matroids():
    rng = random.Random(8)
    yield from (uniform_matroid(n, r) for n in range(7) for r in range(n + 1))
    yield from (graphic_matroid(complete_graph(n)) for n in (3, 4, 5))
    yield from (graphic_matroid(random_connected_multigraph(rng, max_vertices=5, max_edges=8))
                for _ in range(30))


def test_rank_by_construction_is_the_max_over_bases():
    loops = 0
    for matroid in _rank_matroids():
        loops += len(matroid.ground - frozenset().union(*matroid.bases))
        for m in (matroid, matroid.dual, matroid.dual.dual):
            assert all(m.rank(s) == max(len(b & s) for b in m.bases)
                       for s in _subsets(m.ground))
    assert loops > 0   # the random multigraphs include loops


def test_each_public_call_builds_one_subfamily_table(monkeypatch, two_triangles, tmp_path,
                                                     capsys):
    builds = []
    table = sparking.systems.subfamily_table
    monkeypatch.setattr(sparking.systems, "subfamily_table",
                        lambda masks: builds.append(masks) or table(masks))
    u42 = uniform_matroid(4, 2)
    k5 = complete_graph(5)
    graphic, stars = graphic_matroid(k5), star_sets(k5)
    (tmp_path / "u42.txt").write_text("2 4\n1 2 3\n1 2 4\n")
    (tmp_path / "k5.txt").write_text("vertices 5\n" + _lines(k5.edges))
    (tmp_path / "stars.txt").write_text("4 10\n" + _lines(sorted(s) for s in stars))
    calls = {
        "identity, circuit side": lambda: parking_sets_vs_bases_circuit_side(
            u42, [{1, 2, 3}, {1, 2, 4}]),
        "identity, cocircuit side": lambda: parking_sets_vs_bases_cocircuit_side(
            u42, [{1, 2, 3}, {1, 2, 4}]),
        "theorem_bijection": lambda: theorem_bijection(graphic, stars, "cocircuit"),
        "corollary_full_cover": lambda: corollary_full_cover(graphic, stars, "cocircuit"),
        "face_boundary_bijection": lambda: face_boundary_bijection(
            two_triangles, [{1, 2, 3}, {3, 4, 5}]),
        "spanning_tree_bijection": lambda: spanning_tree_bijection(k5),
        "g_parking_equals_s_parking": lambda: g_parking_equals_s_parking(k5),
        "sparking matroid, circuit side": lambda: main(
            ["matroid", "uniform:4:2", "--parts", str(tmp_path / "u42.txt"),
             "--side", "circuit"]),
        "sparking matroid, cocircuit side": lambda: main(
            ["matroid", f"graphic:{tmp_path / 'k5.txt'}", "--parts", str(tmp_path / "stars.txt"),
             "--side", "cocircuit"]),
    }
    counts = {}
    for name, call in calls.items():
        builds.clear()
        call()
        counts[name] = len(builds)
    # the star side pairs off the sweep tree and reads no table at all
    walked = {"spanning_tree_bijection", "g_parking_equals_s_parking"}
    assert counts == {name: 0 if name in walked else 1 for name in calls}
    assert "surviving bases: 125  parking expression: 125  identity OK" in capsys.readouterr().out


def test_derived_matroids_skip_the_exchange_check(monkeypatch, tmp_path, capsys):
    calls = []
    check = Matroid._check_exchange
    monkeypatch.setattr(Matroid, "_check_exchange", lambda self: calls.append(self) or check(self))
    graphic = graphic_matroid(complete_graph(4))
    derived = [uniform_matroid(4, 2), graphic, graphic.dual, uniform_matroid(5, 2).dual]
    assert all(m.dual.dual == m for m in derived)
    assert calls == []
    with pytest.raises(ValueError, match="basis exchange fails"):
        Matroid({1, 2, 3, 4}, [{1, 2}, {3, 4}])
    assert len(calls) == 1
    (tmp_path / "bad.txt").write_text("ground 4 2\n1 2\n3 4\n")
    (tmp_path / "u42.txt").write_text("2 4\n1 2 3\n1 2 4\n")
    assert main(["matroid", str(tmp_path / "bad.txt"), "--parts", str(tmp_path / "u42.txt"),
                 "--side", "circuit"]) == 2
    assert capsys.readouterr().err.startswith("error: basis exchange fails")
    assert len(calls) == 2
