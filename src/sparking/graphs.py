"""Multigraphs, their matroids, vertex stars and the tree bijections.

Vertices are labeled 0..n with 0 as the root.  ``graphic_matroid`` lists
the spanning trees once, as masks: the (|V| - 1)-edge sets that meet
every star (``enumeration.pool_filter``) and that union-find ranks
|V| - 1, refused beyond ``MAX_CHECK_CANDIDATES`` candidates;
``spanning_trees`` decodes them, and a deletion-contraction count
cross-checks their number.  The star sets of the non-root vertices form
the cocircuit-side family whose parking functions are exactly the
degree-defined parking functions of the graph and whose mapped sets are
exactly the spanning trees; face-boundary families supplied by the
caller drive the circuit-side variant.  Both tree bijections pair off
the sweep tree (``bijections.walk``) against these bases; the face
side, whose cover check reads the subfamily table, also refuses more
than ``MAX_CHECK_SETS`` sets (``systems._subset_budget``) before any tree.

G-parking functions are decided by Dhar's burning algorithm (Dhar 1990;
Postnikov-Shapiro 2004) on the graph itself, in O(|E|) per vector with
no cap on the vertex count; the star side of the equivalence is the
star system's sweep tree, so the two lists are computed by different
algorithms.  The face-boundary bijection is the circuit side of the
graphic matroid (``matroids._checked_side``): its cover precondition
comes off the exactly-one pools of the boundary system's subfamily table.
"""

from functools import partial
from itertools import product
from math import comb, prod

from .bijections import walk
from .enumeration import paired_images, pool_filter
from .matroids import Matroid, PreconditionError, _checked_side, _independent_row
from .systems import MAX_CHECK_CANDIDATES, _subset_budget, _system_over


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
        return _merges(self.n_vertices, [(u, v) for _, u, v in self.edges]) == self.n_vertices - 1

    def __repr__(self):
        return f"Multigraph({self.n_vertices} vertices, {len(self.edges)} edges)"


def complete_graph(n_vertices):
    """Complete simple graph on 0..n-1, edge ids 1.. in endpoint order."""
    pairs = [(u, v) for u in range(n_vertices) for v in range(u + 1, n_vertices)]
    return Multigraph(n_vertices, [(i, u, v) for i, (u, v) in enumerate(pairs, start=1)])


def _find(parent, a):
    """Root of ``a`` in the union-find forest ``parent``, halving paths."""
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


def _merges(n_vertices, ends, mask=-1):
    """The merges union-find makes along the edges ``ends`` (endpoint
    pairs over vertices 0..n_vertices-1) whose bits are set in ``mask``,
    all of them by default: the rank of those edges in the graphic matroid."""
    parent = list(range(n_vertices))
    merges = 0
    for b, (u, v) in enumerate(ends):
        if mask >> b & 1:
            ru, rv = _find(parent, u), _find(parent, v)
            if ru != rv:
                parent[ru] = rv
                merges += 1
    return merges


def spanning_trees(graph):
    """All spanning-tree edge sets: the bases of ``graphic_matroid``, sorted
    by their sorted edge-id tuples, with its refusals."""
    return list(graphic_matroid(graph).bases)


def deletion_contraction_count(graph):
    """Spanning-tree count by deletion-contraction; independent of the
    listing in ``graphic_matroid``."""
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
    live in the ground set but in no basis.  The rank of an edge set is
    the number of merges union-find makes along it (``_merges``); bit b
    stands for the edge ``order[b]`` of the star system's universe.  The
    bases are the (|V| - 1)-sets of non-loop edges of full rank, in
    combination order, ranked only if they meet every star
    (``pool_filter``), as a spanning tree does.  Refuses a disconnected
    graph, then more than ``MAX_CHECK_CANDIDATES`` candidates."""
    stars = star_system(graph)  # refuses a disconnected graph
    n, covered = stars.k, len(stars.covered)  # covered: the non-loop edges
    if comb(covered, n) > MAX_CHECK_CANDIDATES:
        raise ValueError(
            f"too large: C({covered}, {n}) = {comb(covered, n)} candidate edge sets; "
            f"listing the spanning trees is capped at {MAX_CHECK_CANDIDATES}")
    ends = {e: (u, v) for e, u, v in graph.edges}
    rank = partial(_merges, graph.n_vertices, [ends[e] for e in stars.universe.order])
    trees = [m for m in pool_filter(stars.masks, stars.masks) if rank(m) == n]
    return Matroid._by_construction(graph.edge_ids, trees, rank)


def star_sets(graph):
    """Non-loop edges at each non-root vertex, for vertices 1..n."""
    if not graph.is_connected():
        raise ValueError("graph is not connected")
    return [frozenset(e for e, u, v in graph.edges if u != v and vertex in (u, v))
            for vertex in range(1, graph.n_vertices)]


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


class GParkingReport:
    """Both enumerations of the same family, for the equivalence check."""

    def __init__(self, degree_defined, star_defined):
        self.degree_defined, self.star_defined = degree_defined, star_defined

    @property
    def equal(self):
        return self.degree_defined == self.star_defined

    @property
    def count(self):
        return len(self.star_defined)


def g_parking_equals_s_parking(graph):
    """Enumerate the degree-defined parking functions, by burning every
    vector of the star box, and the star-set parking functions, off the
    star system's sweep tree, and report equality."""
    # the walk's leaves are not peeled here: the burning list checks them,
    # and the box cap bounds the walk's leaves as well as the burning
    system = star_system(graph)
    cells = prod(map(len, system.sets))
    if cells > MAX_CHECK_CANDIDATES:
        raise ValueError(
            f"too large: {cells} value vectors in the star box; "
            f"burning them is capped at {MAX_CHECK_CANDIDATES}")
    star_defined = [f for f, _ in walk(system.masks)]
    degree_defined = list(filter(_burner(graph), product(*(range(len(s)) for s in system.sets))))
    return GParkingReport(degree_defined, star_defined)


def _is_classic(values, n):
    ordered = sorted(values)
    return all(ordered[j] <= j + 1 for j in range(n))


def classic_parking_functions(n):
    """All functions 1..n -> 1..n where, for every j, at least j entries
    are <= j; lexicographic order."""
    if n < 0:
        raise ValueError("need n >= 0")
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
    weighted = None if weights is None else star_system(graph, weights)
    return paired_images(star_system(graph), graphic_matroid(graph)._masks, 0, weighted)


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
    _subset_budget(expected)
    side = _checked_side(graphic_matroid(graph), boundaries, "circuit", weights)
    if side.non_union is not None:
        raise PreconditionError(f"face set {side.non_union} is not a union of cycles")
    imask = _independent_row(side.system, side.matroid)
    if imask is not None:
        faces = [j + 1 for j in range(expected) if imask >> j & 1]
        raise PreconditionError(f"exactly-one set of face sets {faces} contains no cycle")
    # every pool holds a cycle, so no basis contains one: all bases survive
    return paired_images(side.system, side.matroid._masks, side.xor, side.weighted)


def random_connected_multigraph(rng, max_vertices=5, max_edges=8):
    """Seeded random connected multigraph: a random spanning tree plus
    extra random edges, loops and parallels allowed."""
    n_vertices = rng.randint(2, max_vertices)
    edges, attached = [], [0]
    order = list(range(1, n_vertices))
    rng.shuffle(order)
    for vertex in order:
        edges.append((len(edges) + 1, rng.choice(attached), vertex))
        attached.append(vertex)
    for _ in range(rng.randint(0, max_edges - (n_vertices - 1))):
        edges.append((len(edges) + 1, rng.randrange(n_vertices), rng.randrange(n_vertices)))
    return Multigraph(n_vertices, edges)
