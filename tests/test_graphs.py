import random
import time
from itertools import product

import pytest

from sparking import (
    Multigraph,
    PreconditionError,
    classic_correspondence,
    classic_parking_functions,
    complete_graph,
    deletion_contraction_count,
    face_boundary_bijection,
    g_parking_equals_s_parking,
    graphic_matroid,
    is_g_parking_function,
    random_connected_multigraph,
    spanning_tree_bijection,
    spanning_trees,
    star_sets,
    star_system,
)
from sparking.enumeration import enumerate_parking_functions, enumerate_parking_sets
from sparking.matroids import corollary_full_cover


# --- multigraph basics -------------------------------------------------------

def test_multigraph_validation():
    with pytest.raises(ValueError):
        Multigraph(2, [(1, 0, 1), (1, 0, 1)])   # duplicate id
    with pytest.raises(ValueError):
        Multigraph(2, [(1, 0, 5)])              # endpoint out of range
    with pytest.raises(ValueError):
        Multigraph(0, [])
    with pytest.raises(ValueError, match="edge ids"):
        Multigraph(2, [(True, 0, 1)])           # bool is not an edge id
    with pytest.raises(ValueError, match="out of range"):
        Multigraph(2, [(1, True, False)])       # bools are not vertices
    with pytest.raises(ValueError, match="out of range"):
        Multigraph(2, [(1, 0, 1.0)])


def test_connectivity():
    assert complete_graph(4).is_connected()
    assert Multigraph(1, []).is_connected()
    assert not Multigraph(3, [(1, 0, 1)]).is_connected()
    # loops do not connect anything
    assert not Multigraph(2, [(1, 1, 1)]).is_connected()


# --- spanning trees ------------------------------------------------------------

def test_spanning_trees_k3(k3):
    assert set(spanning_trees(k3)) == {
        frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3})}


def test_spanning_trees_of_a_tree():
    tree = Multigraph(3, [(1, 0, 1), (2, 1, 2)])
    assert spanning_trees(tree) == [frozenset({1, 2})]


def test_spanning_trees_ignore_loops():
    g = Multigraph(3, [(1, 0, 1), (2, 0, 2), (3, 1, 2), (4, 1, 1)])
    assert len(spanning_trees(g)) == 3
    assert all(4 not in t for t in spanning_trees(g))


def test_spanning_trees_require_connectivity():
    with pytest.raises(ValueError):
        spanning_trees(Multigraph(3, [(1, 0, 1)]))


def test_deletion_contraction_matches_cayley():
    for n, count in [(2, 1), (3, 3), (4, 16), (5, 125)]:
        assert deletion_contraction_count(complete_graph(n)) == count


def test_deletion_contraction_matches_brute_force():
    rng = random.Random(9)
    for _ in range(40):
        g = random_connected_multigraph(rng)
        assert deletion_contraction_count(g) == len(spanning_trees(g))


# --- graphic matroid ------------------------------------------------------------

def test_graphic_matroid_k3(k3):
    matroid = graphic_matroid(k3)
    assert len(matroid.bases) == 3
    assert matroid.rank_value == 2


def test_graphic_matroid_with_loop_keeps_loop_in_ground():
    g = Multigraph(3, [(1, 0, 1), (2, 0, 2), (3, 1, 2), (4, 1, 1)])
    matroid = graphic_matroid(g)
    assert 4 in matroid.ground
    assert all(4 not in b for b in matroid.bases)
    assert frozenset({4}) in matroid.circuits


def test_graphic_matroid_rejects_disconnected():
    with pytest.raises(ValueError):
        graphic_matroid(Multigraph(3, [(1, 0, 1)]))


# --- star sets --------------------------------------------------------------------

def test_star_sets_k3(k3):
    assert star_sets(k3) == [frozenset({1, 3}), frozenset({2, 3})]


def test_star_sets_single_edge():
    p2 = Multigraph(2, [(1, 0, 1)])
    assert star_sets(p2) == [frozenset({1})]


def test_star_sets_exclude_loops():
    g = Multigraph(3, [(1, 0, 1), (2, 0, 2), (3, 1, 2), (4, 1, 1)])
    assert star_sets(g)[0] == frozenset({1, 3})


def test_star_sets_are_cocircuit_unions_with_full_cover():
    rng = random.Random(13)
    graphs = [complete_graph(3), complete_graph(4)]
    graphs += [random_connected_multigraph(rng, max_vertices=4, max_edges=6)
               for _ in range(8)]
    for g in graphs:
        matroid = graphic_matroid(g)
        stars = star_sets(g)
        assert all(matroid.dual.is_union_of_circuits(s) for s in stars)
        assert corollary_full_cover(matroid, stars, "cocircuit")


# --- degree-defined parking functions ------------------------------------------------

def test_g_parking_k3(k3):
    assert is_g_parking_function(k3, (0, 1))
    assert not is_g_parking_function(k3, (1, 1))


def test_g_parking_zero_function_always_works():
    rng = random.Random(4)
    for _ in range(20):
        g = random_connected_multigraph(rng)
        assert is_g_parking_function(g, (0,) * (g.n_vertices - 1))


def test_g_parking_validation(k3):
    with pytest.raises(ValueError):
        is_g_parking_function(k3, (0,))
    with pytest.raises(ValueError):
        is_g_parking_function(k3, (0, -1))
    with pytest.raises(ValueError, match="non-negative integers"):
        is_g_parking_function(k3, (True, 0))


def _g_parking_by_definition(graph, values):
    """Every non-empty set S of non-root vertices holds some i with more
    edges from i to vertices outside S than values[i-1], subset by subset."""
    n = graph.n_vertices - 1
    for imask in range(1, 1 << n):
        inside = {i for i in range(1, n + 1) if imask >> (i - 1) & 1}
        if not any(sum(1 for _, u, v in graph.edges if u != v
                       and ((u == i and v not in inside) or (v == i and u not in inside)))
                   > values[i - 1] for i in inside):
            return False
    return True


def test_degree_table_filter_matches_the_definition():
    rng = random.Random(21)
    graphs = [complete_graph(n) for n in (2, 3, 4, 5)]
    graphs += [random_connected_multigraph(rng) for _ in range(50)]
    for g in graphs:
        # one past each degree, so vectors off the star box are tried too
        boxes = [range(len(star) + 1) for star in star_sets(g)]
        expected = [f for f in product(*boxes) if _g_parking_by_definition(g, f)]
        assert [f for f in product(*boxes) if is_g_parking_function(g, f)] == expected
        report = g_parking_equals_s_parking(g)
        assert report.degree_defined == expected
        assert report.equal
        assert report.degree_defined == [f for f in expected
                                          if all(v < len(b) - 1 for v, b in zip(f, boxes))]


def test_burning_matches_the_definition_on_random_multigraphs():
    rng = random.Random(6)
    graphs = [random_connected_multigraph(rng) for _ in range(150)]
    assert any(u == v for g in graphs for _, u, v in g.edges)           # loops
    assert any(len({(min(u, v), max(u, v)) for _, u, v in g.edges if u != v})
               < sum(u != v for _, u, v in g.edges) for g in graphs)   # parallels
    tried = 0
    for g in graphs:
        for f in product(range(4), repeat=g.n_vertices - 1):
            assert is_g_parking_function(g, f) == _g_parking_by_definition(g, f), (g.edges, f)
            tried += 1
    assert tried > 10_000


def test_burning_needs_no_subset_walk():
    # a walk over the 2^24 sets of non-root vertices would take minutes
    k25 = complete_graph(25)
    start = time.perf_counter()
    assert is_g_parking_function(k25, tuple(range(24)))
    assert not is_g_parking_function(k25, (24,) + tuple(range(23)))
    assert not is_g_parking_function(k25, (23,) * 24)
    assert time.perf_counter() - start < 1.0


def test_g_parking_equals_s_parking_k3(k3):
    report = g_parking_equals_s_parking(k3)
    assert report.equal
    assert report.count == 3


def test_g_parking_equals_s_parking_k4():
    report = g_parking_equals_s_parking(complete_graph(4))
    assert report.equal
    assert report.count == 16


def test_g_parking_equals_s_parking_single_edge():
    report = g_parking_equals_s_parking(Multigraph(2, [(1, 0, 1)]))
    assert report.equal
    assert report.star_defined == [(0,)]


def test_g_parking_parallel_edges_count_with_multiplicity():
    doubled = Multigraph(2, [(1, 0, 1), (2, 0, 1)])
    assert is_g_parking_function(doubled, (1,))
    assert not is_g_parking_function(doubled, (2,))
    assert g_parking_equals_s_parking(doubled).equal


# --- classic parking functions ---------------------------------------------------------

def test_classic_n2():
    assert classic_parking_functions(2) == [(1, 1), (1, 2), (2, 1)]


def test_classic_n1():
    assert classic_parking_functions(1) == [(1,)]


def test_classic_counts():
    for n in range(1, 6):
        assert len(classic_parking_functions(n)) == (n + 1) ** (n - 1)


def test_classic_correspondence():
    for n in range(1, 5):
        assert classic_correspondence(n)


# --- tree bijections ----------------------------------------------------------------------

def test_spanning_tree_bijection_k3(k3):
    pairs = spanning_tree_bijection(k3)
    assert {tree for _, tree in pairs} == set(spanning_trees(k3))
    assert len(pairs) == 3


def test_spanning_tree_bijection_tree_graph():
    tree = Multigraph(3, [(1, 0, 1), (2, 1, 2)])
    assert spanning_tree_bijection(tree) == [((0, 0), frozenset({1, 2}))]


def test_spanning_tree_bijection_k4():
    pairs = spanning_tree_bijection(complete_graph(4))
    assert len(pairs) == 16
    assert {t for _, t in pairs} == set(spanning_trees(complete_graph(4)))


def test_star_parking_sets_are_exactly_the_trees(k3):
    assert set(enumerate_parking_sets(star_system(k3))) == set(spanning_trees(k3))


def test_face_bijection_triangle():
    tri = Multigraph(3, [(1, 0, 1), (2, 0, 2), (3, 1, 2)])
    pairs = face_boundary_bijection(tri, [{1, 2, 3}])
    assert pairs == [((0,), frozenset({2, 3})),
                     ((1,), frozenset({1, 3})),
                     ((2,), frozenset({1, 2}))]


def test_face_bijection_two_triangles(two_triangles):
    pairs = face_boundary_bijection(two_triangles, [{1, 2, 3}, {3, 4, 5}])
    assert len(pairs) == 8
    assert {t for _, t in pairs} == set(spanning_trees(two_triangles))
    assert len(spanning_trees(two_triangles)) == 8


def test_face_bijection_rejects_tree_input():
    tree = Multigraph(3, [(1, 0, 1), (2, 1, 2)])
    with pytest.raises(PreconditionError, match="k >= 1"):
        face_boundary_bijection(tree, [])


def test_face_bijection_rejects_wrong_count(two_triangles):
    with pytest.raises(PreconditionError, match="need k"):
        face_boundary_bijection(two_triangles, [{1, 2, 3}])


def test_face_bijection_names_bad_face(two_triangles):
    with pytest.raises(PreconditionError, match="face set 2"):
        face_boundary_bijection(two_triangles, [{1, 2, 3}, {3, 4}])


@pytest.mark.parametrize("faces", [[{1, 2, 3}, {1, 2, 3}], [{1, 2, 3}, {1, 2, 3, 4, 5}]],
                         ids=["empty", "forest"])
def test_face_bijection_names_a_cycle_free_exactly_one_set(two_triangles, faces):
    # both faces are unions of cycles, but the exactly-one set of the pair
    # (empty, or the forest {4, 5}) contains none
    with pytest.raises(PreconditionError,
                       match=r"exactly-one set of face sets \[1, 2\] contains no cycle"):
        face_boundary_bijection(two_triangles, faces)


def test_face_bijection_loop_circuit():
    looped_tree = Multigraph(2, [(1, 0, 1), (2, 1, 1)])
    pairs = face_boundary_bijection(looped_tree, [{2}])
    assert pairs == [((0,), frozenset({1}))]


def test_g_parking_matches_star_set_certificates():
    # the degree-defined membership coincides with the existence of a
    # star-set permutation certificate, vertex i <-> set i
    from sparking import parking_function_permutation
    from itertools import product as iproduct
    rng = random.Random(21)
    graphs = [complete_graph(3), complete_graph(4)]
    graphs += [random_connected_multigraph(rng, max_vertices=4, max_edges=6)
               for _ in range(10)]
    for g in graphs:
        system = star_system(g)
        boxes = [range(len(s) + 1) for s in system.sets]
        for values in iproduct(*boxes):
            certified = parking_function_permutation(system, values) is not None
            assert is_g_parking_function(g, values) == certified


# --- corpus law ---------------------------------------------------------------------------

def test_tree_counts_line_up_on_random_corpus():
    rng = random.Random(100)
    for _ in range(25):
        g = random_connected_multigraph(rng)
        n_trees = len(spanning_trees(g))
        assert deletion_contraction_count(g) == n_trees
        assert len(enumerate_parking_functions(star_system(g))) == n_trees
        report = g_parking_equals_s_parking(g)
        assert report.equal and report.count == n_trees
