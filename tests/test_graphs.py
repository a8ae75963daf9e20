import random
import time
from collections import Counter
from itertools import combinations, product

import pytest

import sparking.enumeration
import sparking.graphs
from sparking import (
    Multigraph,
    PreconditionError,
    SetSystem,
    Universe,
    classic_correspondence,
    classic_parking_functions,
    complete_graph,
    deletion_contraction_count,
    face_boundary_bijection,
    g_parking_equals_s_parking,
    graphic_matroid,
    is_g_parking_function,
    random_connected_multigraph,
    sigma,
    spanning_tree_bijection,
    spanning_trees,
    star_sets,
    star_system,
    theorem_bijection,
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


def _connected_by_roots(graph):
    """The root-comparison union-find that ``is_connected`` ran before it
    counted merges, after the same edge-count refusal."""
    if sum(u != v for _, u, v in graph.edges) < graph.n_vertices - 1:
        return False
    parent = list(range(graph.n_vertices))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for _, u, v in graph.edges:
        parent[find(u)] = find(v)
    root = find(0)
    return all(find(v) == root for v in range(graph.n_vertices))


def test_connectivity_equals_the_root_comparison_union_find():
    rng = random.Random(25)
    seen = Counter()
    for _ in range(400):
        n = rng.randint(1, 7)
        ends = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 10))]
        graph = Multigraph(n, [(i, u, v) for i, (u, v) in enumerate(ends, start=1)])
        connected = graph.is_connected()
        assert connected == _connected_by_roots(graph)
        touched = {x for pair in ends for x in pair}
        seen.update({"connected": connected, "disconnected": not connected,
                     "loop": any(u == v for u, v in ends),
                     "parallel": len(set(map(frozenset, ends))) < len(ends),
                     "isolated": len(touched) < n,
                     "refused early": sum(u != v for u, v in ends) < n - 1,
                     "disconnected with enough edges":
                         not connected and sum(u != v for u, v in ends) >= n - 1})
    assert min(seen.values()) >= 20, seen
    # the refusal comes before any per-vertex allocation
    assert not Multigraph(10 ** 12, [(1, 0, 1)]).is_connected()


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


def _spans_without_cycle(edges, n_vertices):
    parent = list(range(n_vertices))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for _, u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def _brute_force_trees(graph):
    """The reference listing: every (|V| - 1)-set of non-loop edges with
    no cycle, in combination order of the edge ids."""
    non_loop = sorted(e for e in graph.edges if e[1] != e[2])
    return [frozenset(e for e, _, _ in combo)
            for combo in combinations(non_loop, graph.n_vertices - 1)
            if _spans_without_cycle(combo, graph.n_vertices)]


def test_spanning_trees_match_the_brute_force_listing():
    # list for list, order included, as masks too
    rng = random.Random(16)
    graphs = [random_connected_multigraph(rng, 6, 10) for _ in range(60)]
    graphs += [complete_graph(n) for n in range(1, 8)]
    graphs += [Multigraph(1, [(1, 0, 0), (2, 0, 0)]),
               Multigraph(25, [(i + 1, i, i + 1) for i in range(24)])]
    for g in graphs:
        trees = _brute_force_trees(g)
        assert spanning_trees(g) == trees
        mask_of = Universe.identity(g.edge_ids).mask_of
        assert graphic_matroid(g)._masks == tuple(map(mask_of, trees))


def test_graphic_bases_follow_the_bit_order_of_the_universe():
    # edge ids with gaps, listed out of id order, with a loop and parallels:
    # bit b stands for the b-th smallest id whatever the listing order
    g = Multigraph(4, [(40, 2, 3), (7, 0, 1), (19, 1, 2), (3, 0, 2), (88, 3, 3),
                       (12, 0, 3), (25, 1, 2), (2, 3, 2)])
    trees = _brute_force_trees(g)
    matroid = graphic_matroid(g)
    assert len(trees) == 21 and list(matroid.bases) == trees
    assert matroid._masks == tuple(map(Universe.identity(g.edge_ids).mask_of, trees))


def test_deletion_contraction_matches_cayley():
    for n, count in [(2, 1), (3, 3), (4, 16), (5, 125)]:
        assert deletion_contraction_count(complete_graph(n)) == count


def test_deletion_contraction_matches_brute_force():
    rng = random.Random(9)
    for _ in range(40):
        g = random_connected_multigraph(rng)
        assert deletion_contraction_count(g) == len(spanning_trees(g))


def _recursive_count(graph):
    """The deletion-contraction count as a recursion over the edge list,
    without pruning: one call per branch, 2^|E| branches at most."""
    def count(n_vertices_left, pair_list):
        if n_vertices_left == 1:
            return 1
        if not pair_list:
            return 0
        u, v = pair_list[0]
        rest = pair_list[1:]
        merged = [(u if a == v else a, u if b == v else b) for a, b in rest]
        return count(n_vertices_left, rest) + count(n_vertices_left - 1,
                                                    [(a, b) for a, b in merged if a != b])
    return count(graph.n_vertices, [(u, v) for _, u, v in graph.edges if u != v])


def test_deletion_contraction_loop_equals_the_recursion():
    graphs = [complete_graph(n) for n in range(1, 7)]
    rng = random.Random(26)
    graphs += [random_connected_multigraph(rng, 6, 10) for _ in range(300)]
    for g in graphs:
        assert deletion_contraction_count(g) == _recursive_count(g)


def test_deletion_contraction_prunes_the_branches_that_cannot_span():
    # a tree has one spanning tree, and every deletion leaves too few edges:
    # the count is one walk down the contractions, with no recursion limit
    def path(n):
        return Multigraph(n, [(i, i - 1, i) for i in range(1, n)])
    start = time.perf_counter()
    assert deletion_contraction_count(path(1200)) == 1
    assert deletion_contraction_count(path(30)) == 1
    cycle = Multigraph(60, [(v + 1, v, (v + 1) % 60) for v in range(60)])
    assert deletion_contraction_count(cycle) == 60
    assert deletion_contraction_count(complete_graph(7)) == 7 ** 5
    assert time.perf_counter() - start < 5.0


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


def test_g_parking_equals_s_parking_star_graph_beyond_the_subset_cap():
    # 22 star sets, but one tree and a one-cell box: neither the burning
    # nor the walk lists subfamilies, so k alone is no reason to refuse
    star = Multigraph(23, [(i, 0, i) for i in range(1, 23)])
    report = g_parking_equals_s_parking(star)
    assert report.equal
    assert report.count == 1


def test_g_parking_parallel_edges_count_with_multiplicity():
    doubled = Multigraph(2, [(1, 0, 1), (2, 0, 1)])
    assert is_g_parking_function(doubled, (1,))
    assert not is_g_parking_function(doubled, (2,))
    assert g_parking_equals_s_parking(doubled).equal


def test_g_parking_equals_s_parking_refuses_beyond_the_cap():
    # K22 has 21 star sets: uncapped, the sweep tree would list 22^20
    # functions and the burning filter scan a 21^21 box
    k22 = complete_graph(22)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="value vectors in the box"):
        g_parking_equals_s_parking(k22)
    assert time.perf_counter() - start < 1.0


# --- classic parking functions ---------------------------------------------------------

def test_classic_n2():
    assert classic_parking_functions(2) == [(1, 1), (1, 2), (2, 1)]


def test_classic_n1():
    assert classic_parking_functions(1) == [(1,)]


def test_classic_n0_is_the_empty_function():
    # (n + 1)^(n - 1) = 1 at n = 0: the one function on no points, which
    # the one-vertex complete graph matches
    assert classic_parking_functions(0) == [()]
    assert classic_correspondence(0)
    with pytest.raises(ValueError, match="need n >= 0"):
        classic_parking_functions(-1)


def test_classic_counts():
    for n in range(1, 6):
        assert len(classic_parking_functions(n)) == (n + 1) ** (n - 1)


def test_classic_correspondence():
    for n in range(1, 5):
        assert classic_correspondence(n)


def test_classic_refuses_a_box_beyond_the_cap(monkeypatch):
    # 12^12 candidate functions; both refuse before they walk the box
    def no_box(*args, **kwargs):
        raise RuntimeError("the box was walked")
    monkeypatch.setattr(sparking.graphs, "product", no_box)
    for n in (8, 12):
        for classic in (classic_parking_functions, classic_correspondence):
            with pytest.raises(ValueError, match=f"^too large: {n ** n} value vectors in the box"):
                classic(n)
    monkeypatch.undo()
    # the cap is inclusive: a box of exactly the cap is walked
    monkeypatch.setattr(sparking.enumeration, "MAX_CHECK_CANDIDATES", 3 ** 3)
    assert len(classic_parking_functions(3)) == 16 and classic_correspondence(3)
    monkeypatch.setattr(sparking.enumeration, "MAX_CHECK_CANDIDATES", 3 ** 3 - 1)
    with pytest.raises(ValueError, match="^too large: 27 value vectors in the box"):
        classic_parking_functions(3)


# --- tree bijections ----------------------------------------------------------------------

@pytest.mark.parametrize("edges", [[], [(1, 0, 0)]], ids=["bare", "loop"])
def test_spanning_tree_bijection_on_one_vertex(edges):
    # the empty tree, paired with the empty function, as the rest of the
    # graph layer counts it
    graph = Multigraph(1, edges)
    assert spanning_tree_bijection(graph) == [((), frozenset())]
    assert spanning_tree_bijection(graph, {e: 2 * e for e, _, _ in edges}) == [((), frozenset())]
    assert spanning_trees(graph) == [frozenset()] and deletion_contraction_count(graph) == 1


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


@pytest.mark.parametrize("n", [25, 60])
def test_star_bijection_pairs_a_path_beyond_the_set_cap(n):
    # 24 or 59 star sets, more than the subfamily table takes, but the star
    # side walks the sweep tree and the path has one spanning tree
    path = Multigraph(n, [(v, v - 1, v) for v in range(1, n)])
    start = time.perf_counter()
    assert spanning_tree_bijection(path) == [((0,) * (n - 1), frozenset(range(1, n)))]
    assert time.perf_counter() - start < 1.0


def test_star_bijection_pairs_a_cycle_beyond_the_set_cap():
    # 29 star sets; the 30-cycle's trees each leave out one edge
    cycle = Multigraph(30, [(v + 1, v, (v + 1) % 30) for v in range(30)])
    start = time.perf_counter()
    pairs = spanning_tree_bijection(cycle)
    assert time.perf_counter() - start < 1.0
    edges = frozenset(range(1, 31))
    assert len(pairs) == 30 and {t for _, t in pairs} == {edges - {e} for e in edges}


def test_star_bijection_refuses_k22_by_its_candidate_edge_sets():
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"too large: C\(231, 21\) = 331488223958251318888250434410 "
                                         "candidate edge sets"):
        spanning_tree_bijection(complete_graph(22))
    assert time.perf_counter() - start < 1.0


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


@pytest.mark.parametrize("side", ["stars", "faces"])
def test_tree_bijections_follow_a_reversed_weight_order(side, two_triangles):
    # heavier edges are swept first: the same trees, paired otherwise, and
    # each pair is the sigma image (complemented on the face side) under
    # the reversed weights
    if side == "stars":
        graph = complete_graph(4)
        parts = star_sets(graph)
        bijection = lambda weights=None: spanning_tree_bijection(graph, weights)
    else:
        graph = two_triangles
        parts = [{1, 2, 3}, {3, 4, 5}]
        bijection = lambda weights=None: face_boundary_bijection(graph, parts, weights)
    reversed_weights = {e: -e for e in graph.edge_ids}
    pairs, plain = bijection(reversed_weights), bijection()
    trees = [t for _, t in pairs]
    assert len(set(trees)) == len(trees) and set(trees) == set(spanning_trees(graph))
    assert pairs != plain and {f for f, _ in pairs} == {f for f, _ in plain}
    system = SetSystem(parts, Universe(reversed_weights))
    for f, tree in pairs:
        image = sigma(system, f)[0]
        assert (image if side == "stars" else graph.edge_ids - image) == tree


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


@pytest.mark.parametrize("faces, named", [([{1, 2, 4}, {1, 3, 5}, {1, 3, 5}], "[2, 3]"),
                                          ([{1, 2, 4}, {1, 3, 5}, {1, 2, 4}], "[1, 3]")],
                         ids=["2-3", "1-3"])
def test_face_bijection_names_the_first_cycle_free_pair_of_three(faces, named):
    # K4's triangles 012 and 013 and a repeat of one: every face, and the
    # pair of the two triangles (a 4-cycle), holds a cycle; the pair with
    # the repeat has an empty exactly-one set
    with pytest.raises(PreconditionError) as caught:
        face_boundary_bijection(complete_graph(4), faces)
    assert str(caught.value) == f"exactly-one set of face sets {named} contains no cycle"


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


def test_face_weights_may_leave_out_an_edge_outside_every_face(two_triangles):
    # the pendant edge 6 lies in every spanning tree and in no face, and the
    # weights leave it out: each image is carried into the graph's bit order
    # through its element set, so the trees keep edge 6
    graph = Multigraph(5, two_triangles.edges + ((6, 3, 4),))
    faces, weights = [{1, 2, 3}, {3, 4, 5}], {1: 5, 2: 4, 3: 3, 4: 2, 5: 1}
    pairs = face_boundary_bijection(graph, faces, weights)
    assert pairs == theorem_bijection(graphic_matroid(graph), faces, "circuit", weights=weights)
    trees = [t for _, t in pairs]
    assert len(set(trees)) == len(trees) == 8 and set(trees) == set(spanning_trees(graph))
    assert dict(pairs)[(0, 0)] == {1, 2, 4, 6}
    system = SetSystem(faces, Universe(weights))
    assert all(graph.edge_ids - sigma(system, f)[0] == t for f, t in pairs)


@pytest.mark.parametrize("reverse", [False, True], ids=["identity", "reversed"])
def test_star_bijection_is_the_cocircuit_theorem(reverse):
    # the graph layer pairs the stars over the edge ids, the matroid layer
    # over the graphic matroid's bit order: the same pairs either way
    rng = random.Random(12)
    graphs = [complete_graph(n) for n in range(3, 7)]
    graphs += [random_connected_multigraph(rng, 5, 9) for _ in range(40)]
    assert any(u == v for g in graphs for _, u, v in g.edges)
    assert any(len({frozenset((u, v)) for _, u, v in g.edges}) < len(g.edges) for g in graphs)
    for graph in graphs:
        weights = {e: -e for e in graph.edge_ids} if reverse else None
        pairs = spanning_tree_bijection(graph, weights)
        assert pairs == theorem_bijection(graphic_matroid(graph), star_sets(graph), "cocircuit",
                                          weights=weights)
        assert {t for _, t in pairs} == set(spanning_trees(graph))


def test_g_parking_refuses_a_star_box_beyond_the_cap():
    # K12 has 11 star sets, within the table's cap, but 11^11 vectors to burn
    start = time.perf_counter()
    with pytest.raises(ValueError, match="too large: 285311670611 value vectors in the box"):
        g_parking_equals_s_parking(complete_graph(12))
    assert time.perf_counter() - start < 1.0


def test_spanning_trees_refuse_beyond_the_candidate_cap():
    # K8 is tried, C(28, 7) = 1,184,040 subsets; K12 would try C(66, 11)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"too large: C\(66, 11\) = 1074082795968 candidate edge sets"):
        spanning_trees(complete_graph(12))
    assert time.perf_counter() - start < 1.0
