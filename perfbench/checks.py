"""Independent reference checks for the benchmark's outputs.

Nothing here imports the library under test and nothing relies on its
``assert`` statements.  The references are small textbook
implementations:

- the exactly-one operation and the two greedy permutation certificates
  (a family member is eligible once its private part is large enough;
  eligibility only grows as members retire, so the greedy order decides
  membership exactly);
- one reference run of the paper's weight-ordered sweep, used to confirm
  every ``sigma``/``rho`` pairing;
- union-find spanning-tree recognition and Kirchhoff's matrix-tree count
  over exact fractions (the classical tree/parking correspondence of
  Postnikov and Shapiro fixes every graph's pair count to it);
- the surviving-basis families of the matroid identities, computed
  straight from their definitions.
"""

from fractions import Fraction
from itertools import combinations


def exactly_one(sets):
    """Elements lying in exactly one of ``sets``."""
    once, twice = set(), set()
    for s in sets:
        twice |= once & s
        once |= s
    return once - twice


def _greedy(sets, eligible):
    remaining = list(range(len(sets)))
    while remaining:
        pool = exactly_one(sets[i] for i in remaining)
        pick = next((i for i in remaining if eligible(i, pool)), None)
        if pick is None:
            return False
        remaining.remove(pick)
    return True


def is_parking_function(sets, values):
    """Greedy certificate for a parking function of the family ``sets``."""
    values = tuple(values)
    if len(values) != len(sets) or any(type(v) is not int or v < 0 for v in values):
        return False
    return _greedy(sets, lambda i, pool: len(sets[i] & pool) > values[i])


def is_parking_set(sets, elements):
    """Greedy certificate for a parking set of the family ``sets``."""
    chosen = frozenset(elements)
    if len(chosen) != len(sets):
        return False
    return _greedy(sets, lambda i, pool: bool(chosen & sets[i] & pool))


def sweep(sets, weight, values=None, chosen=None):
    """Reference sweep: the set ``sigma`` maps ``values`` to, or, given
    ``chosen``, the deletion counts ``rho`` maps it to.  None on a stall."""
    working = [set(s) for s in sets]
    active = list(range(len(sets)))
    budget = list(values) if values is not None else None
    counts = [0] * len(sets)
    fixed = set()
    while active:
        pool = exactly_one(working[j] for j in active)
        if not pool:
            return None
        e = min(pool, key=weight)
        s = next(j for j in active if e in working[j])
        delete = budget[s] > 0 if budget is not None else e not in chosen
        if delete:
            working[s].discard(e)
            counts[s] += 1
            if budget is not None:
                budget[s] -= 1
        else:
            fixed.add(e)
            active.remove(s)
    return frozenset(fixed) if budget is not None else tuple(counts)


def pairing_ok(sets, weight, values, image):
    """``values`` and ``image`` are members of their families and the
    reference sweeps map each onto the other."""
    return (is_parking_function(sets, values) and is_parking_set(sets, image)
            and sweep(sets, weight, values=values) == frozenset(image)
            and sweep(sets, weight, chosen=frozenset(image)) == tuple(values))


def star_sets(n_vertices, edges):
    """Non-loop edge ids at each vertex 1..n-1 (vertex 0 is the root)."""
    return [frozenset(e for e, u, v in edges if u != v and x in (u, v))
            for x in range(1, n_vertices)]


def is_spanning_tree(n_vertices, edges, tree):
    ends = {e: (u, v) for e, u, v in edges}
    if len(tree) != n_vertices - 1 or not set(tree) <= set(ends):
        return False
    parent = list(range(n_vertices))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for e in tree:
        ru, rv = find(ends[e][0]), find(ends[e][1])
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def kirchhoff(n_vertices, edges):
    """Spanning-tree count: determinant of the reduced Laplacian."""
    size = n_vertices - 1
    if size == 0:
        return 1
    lap = [[Fraction(0)] * size for _ in range(size)]
    for _, u, v in edges:
        if u == v:
            continue
        for a, b in ((u, v), (v, u)):
            if a:
                lap[a - 1][a - 1] += 1
                if b:
                    lap[a - 1][b - 1] -= 1
    det = Fraction(1)
    for c in range(size):
        pivot = next((r for r in range(c, size) if lap[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            lap[c], lap[pivot] = lap[pivot], lap[c]
            det = -det
        det *= lap[c][c]
        for r in range(c + 1, size):
            factor = lap[r][c] / lap[c][c]
            for j in range(c, size):
                lap[r][j] -= factor * lap[c][j]
    return int(det)


def tree_bijection_ok(n_vertices, edges, pairs):
    """``pairs`` maps the parking functions of the star family onto the
    spanning trees: distinct trees, as many as Kirchhoff counts, and each
    pair confirmed by the reference sweep (identity weights)."""
    parts = star_sets(n_vertices, edges)
    trees = [frozenset(t) for _, t in pairs]
    return (len(trees) == kirchhoff(n_vertices, edges)
            and len(set(trees)) == len(trees)
            and all(is_spanning_tree(n_vertices, edges, t) for t in trees)
            and all(pairing_ok(parts, int, f, t) for f, t in pairs))


def surviving_bases(bases, parts, side):
    """Bases left by the bracket: on the circuit side those containing no
    exactly-one set of a non-empty subfamily, on the cocircuit side those
    meeting every such set."""
    pools = [frozenset(exactly_one(sub)) for size in range(1, len(parts) + 1)
             for sub in combinations(parts, size)]
    if side == "circuit":
        return frozenset(b for b in bases if not any(p <= b for p in pools))
    return frozenset(b for b in bases if all(p & b for p in pools))


def uniform_bases(n, r):
    return [frozenset(c) for c in combinations(range(1, n + 1), r)]


def roundtrip_scan_size(max_k, max_universe):
    """Ordered systems the exhaustive scan visits: every element carries a
    non-empty membership pattern over the k sets."""
    return sum((2 ** k - 1) ** m for k in range(1, max_k + 1)
               for m in range(max_universe + 1))
