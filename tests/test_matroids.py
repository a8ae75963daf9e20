import random
from itertools import combinations, product

import pytest

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
    complete_graph,
    face_boundary_bijection,
    g_parking_equals_s_parking,
    graphic_matroid,
    spanning_tree_bijection,
    star_sets,
)
from sparking.cli import main
from sparking.systems import exactly_one_sets


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


# --- identity reports ---------------------------------------------------------

def test_circuit_side_u42(u42):
    report = parking_sets_vs_bases_circuit_side(u42, [{1, 2, 3}, {1, 2, 4}])
    assert report.equal
    assert report.parts_are_unions
    assert report.form == "complements-of-parking-sets"
    assert len(report.lhs) == 5


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


def _lines(rows):
    return "".join(" ".join(map(str, row)) + "\n" for row in rows)


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
    assert counts == dict.fromkeys(calls, 1)
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
