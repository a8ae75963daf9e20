"""Multigraphs, their matroids, vertex stars and the tree bijections.

Vertices are labeled 0..n with 0 as the root.  Spanning trees are
enumerated by brute force and cross-checkable against a
deletion-contraction count.  The star sets of the non-root vertices
form the cocircuit-side family whose parking functions are exactly the
degree-defined parking functions of the graph and whose mapped sets are
exactly the spanning trees; face-boundary families supplied by the
caller drive the circuit-side variant.

G-parking functions are decided by Dhar's burning algorithm (Dhar 1990;
Postnikov-Shapiro 2004) on the graph itself, in O(|E|) per vector with
no cap on the vertex count; the star side of the equivalence comes from
the star system's subfamily table, so the two lists are computed by
different algorithms.  The face-boundary bijection reads its cover
precondition and its parking functions off one system's table.
"""

from dataclasses import dataclass
from itertools import combinations, product

from .enumeration import paired_images, table_functions
from .matroids import Matroid, PreconditionError, _independent_row
from .systems import _system_over


class Multigraph:
    """Vertices 0..n; edges carry unique positive ids; loops and parallel
    edges allowed.  Immutable."""

    def __init__(self, n_vertices, edges):
        if n_vertices < 1:
            raise ValueError("need at least one vertex")
        self.n_vertices = n_vertices
        seen = set()
        cleaned = []
        for edge_id, u, v in edges:
            if isinstance(edge_id, bool) or not isinstance(edge_id, int) or edge_id <= 0:
                raise ValueError(f"edge ids must be positive integers, got {edge_id!r}")
            if edge_id in seen:
                raise ValueError(f"duplicate edge id {edge_id}")
            seen.add(edge_id)
            if any(isinstance(x, bool) or not isinstance(x, int)
                   or not 0 <= x < n_vertices for x in (u, v)):
                raise ValueError(f"edge {edge_id} endpoints ({u}, {v}) out of range")
            cleaned.append((edge_id, u, v))
        self.edges = tuple(cleaned)

    @property
    def edge_ids(self):
        return frozenset(e for e, _, _ in self.edges)

    def is_connected(self):
        # a spanning tree needs n_vertices - 1 non-loop edges; refusing
        # earlier keeps a huge vertex count from being allocated
        if sum(u != v for _, u, v in self.edges) < self.n_vertices - 1:
            return False
        parent = list(range(self.n_vertices))
        for _, u, v in self.edges:
            parent[_find(parent, u)] = _find(parent, v)
        root = _find(parent, 0)
        return all(_find(parent, v) == root for v in range(self.n_vertices))

    def __repr__(self):
        return f"Multigraph({self.n_vertices} vertices, {len(self.edges)} edges)"


def complete_graph(n_vertices):
    """Complete simple graph on 0..n-1, edge ids 1.. in endpoint order."""
    edges = []
    next_id = 1
    for u in range(n_vertices):
        for v in range(u + 1, n_vertices):
            edges.append((next_id, u, v))
            next_id += 1
    return Multigraph(n_vertices, edges)


def _find(parent, a):
    """Root of ``a`` in the union-find forest ``parent``, halving paths."""
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


def _spans_without_cycle(edge_list, n_vertices):
    parent = list(range(n_vertices))
    for _, u, v in edge_list:
        ru, rv = _find(parent, u), _find(parent, v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def spanning_trees(graph):
    """All spanning-tree edge sets, brute force over (n_vertices-1)-subsets."""
    if not graph.is_connected():
        raise ValueError("graph is not connected")
    n = graph.n_vertices - 1
    if n == 0:
        return [frozenset()]
    non_loop = [e for e in graph.edges if e[1] != e[2]]
    return [frozenset(edge[0] for edge in combo)
            for combo in combinations(non_loop, n)
            if _spans_without_cycle(combo, graph.n_vertices)]


def deletion_contraction_count(graph):
    """Spanning-tree count by deletion-contraction; independent of the
    brute-force enumeration."""
    if not graph.is_connected():
        raise ValueError("graph is not connected")

    def count(n_vertices_left, pair_list):
        if n_vertices_left == 1:
            return 1
        if not pair_list:
            return 0
        u, v = pair_list[0]
        rest = pair_list[1:]
        deleted = count(n_vertices_left, rest)
        merged = []
        for a, b in rest:
            a2 = u if a == v else a
            b2 = u if b == v else b
            if a2 != b2:
                merged.append((a2, b2))
        contracted = count(n_vertices_left - 1, merged)
        return deleted + contracted

    pairs = [(u, v) for _, u, v in graph.edges if u != v]
    return count(graph.n_vertices, pairs)


def graphic_matroid(graph):
    """Matroid on the edge ids whose bases are the spanning trees; loops
    live in the ground set but in no basis."""
    return Matroid._by_construction(graph.edge_ids, spanning_trees(graph))


def star_sets(graph):
    """Non-loop edges at each non-root vertex, for vertices 1..n."""
    if not graph.is_connected():
        raise ValueError("graph is not connected")
    stars = []
    for vertex in range(1, graph.n_vertices):
        stars.append(frozenset(e for e, u, v in graph.edges
                               if u != v and vertex in (u, v)))
    return stars


def star_system(graph, weights=None):
    """Set system of the star sets over the full edge universe."""
    return _system_over(graph.edge_ids, star_sets(graph), weights)


def _burner(graph):
    """Dhar's burning test: ``burns(values)`` says whether a fire lit at
    root 0 burns every vertex; vertex i catches once more than values[i-1]
    of its edges lead to burnt ones (parallels count, loops never do)."""
    neighbours = [[] for _ in range(graph.n_vertices)]
    for _, u, v in graph.edges:
        if u != v:
            neighbours[u].append(v)
            neighbours[v].append(u)

    def burns(values):
        heat = [0] * graph.n_vertices
        burnt = [0]
        for u in burnt:  # grows as vertices catch; each catches once
            for w in neighbours[u]:
                heat[w] += 1
                if w and heat[w] == values[w - 1] + 1:
                    burnt.append(w)
        return len(burnt) == graph.n_vertices

    return burns


def is_g_parking_function(graph, values):
    """Degree-defined parking-function test over the non-root vertices.

    Every non-empty set of non-root vertices must contain a vertex with
    more edges leaving the set than its assigned value.
    """
    if not graph.is_connected():
        raise ValueError("graph is not connected")
    n = graph.n_vertices - 1
    values = tuple(values)
    if len(values) != n:
        raise ValueError(f"expected {n} values, got {len(values)}")
    if any(isinstance(v, bool) or not isinstance(v, int) or v < 0 for v in values):
        raise ValueError("values must be non-negative integers")
    return _burner(graph)(values)


@dataclass
class GParkingReport:
    """Both enumerations of the same family, for the equivalence check."""
    degree_defined: list
    star_defined: list

    @property
    def equal(self):
        return self.degree_defined == self.star_defined

    @property
    def count(self):
        return len(self.star_defined)


def g_parking_equals_s_parking(graph):
    """Enumerate the degree-defined parking functions and the star-set
    parking functions over the same value box and report equality."""
    system = star_system(graph)
    star_defined = table_functions(system)
    degree_defined = list(filter(_burner(graph), product(*(range(len(s)) for s in system.sets))))
    return GParkingReport(degree_defined, star_defined)


def _is_classic(values, n):
    ordered = sorted(values)
    return all(ordered[j] <= j + 1 for j in range(n))


def classic_parking_functions(n):
    """All functions 1..n -> 1..n where, for every j, at least j entries
    are <= j; lexicographic order."""
    if n < 1:
        raise ValueError("need n >= 1")
    return [f for f in product(range(1, n + 1), repeat=n) if _is_classic(f, n)]


def classic_correspondence(n):
    """Check, over the whole candidate box, that a function is a classic
    parking function exactly when shifting it down by one gives a
    degree-defined parking function of the complete graph on n+1
    vertices."""
    burns = _burner(complete_graph(n + 1))
    return all(burns(f) == _is_classic([v + 1 for v in f], n)
               for f in product(range(n), repeat=n))


def spanning_tree_bijection(graph, weights=None):
    """Map every star-set parking function to its parking set and verify
    those are exactly the spanning trees, each hit once."""
    if graph.n_vertices < 2:
        raise ValueError("need at least one non-root vertex")
    return paired_images(star_system(graph, weights), spanning_trees(graph))


def face_boundary_bijection(graph, boundaries, weights=None):
    """Circuit-side tree bijection from caller-supplied face boundaries.

    Needs exactly |E| - |V| + 1 >= 1 boundary edge sets, each a union of
    cycles, with every exactly-one combination containing a cycle; then
    complementing the mapped parking sets hits every spanning tree once.
    """
    if not graph.is_connected():
        raise ValueError("graph is not connected")
    boundaries = tuple(frozenset(b) for b in boundaries)
    for i, b in enumerate(boundaries, start=1):
        if not b <= graph.edge_ids:
            raise ValueError(f"face set {i} uses unknown edge ids")
    expected = len(graph.edges) - graph.n_vertices + 1
    if expected < 1:
        raise PreconditionError(
            f"graph has no independent cycles (|E| - |V| + 1 = {expected}); need k >= 1")
    if len(boundaries) != expected:
        raise PreconditionError(
            f"got {len(boundaries)} face sets, need k = |E| - |V| + 1 = {expected}")
    matroid = graphic_matroid(graph)
    for i, b in enumerate(boundaries, start=1):
        if not matroid.is_union_of_circuits(b):
            raise PreconditionError(f"face set {i} is not a union of cycles")
    system = _system_over(graph.edge_ids, boundaries, weights)
    row = _independent_row(system, matroid)
    if row is not None:
        raise PreconditionError(
            f"exactly-one set of face sets {[j + 1 for j, _ in row[1]]} contains no cycle")
    return paired_images(system, matroid.bases, lambda image: matroid.ground - image)


def random_connected_multigraph(rng, max_vertices=5, max_edges=8):
    """Seeded random connected multigraph: a random spanning tree plus
    extra random edges, loops and parallels allowed."""
    n_vertices = rng.randint(2, max_vertices)
    edges = []
    next_id = 1
    attached = [0]
    order = list(range(1, n_vertices))
    rng.shuffle(order)
    for vertex in order:
        edges.append((next_id, rng.choice(attached), vertex))
        attached.append(vertex)
        next_id += 1
    extra = rng.randint(0, max_edges - (n_vertices - 1))
    for _ in range(extra):
        u = rng.randrange(n_vertices)
        v = rng.randrange(n_vertices)
        edges.append((next_id, u, v))
        next_id += 1
    return Multigraph(n_vertices, edges)
