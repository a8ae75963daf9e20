"""Finite matroids given by explicit basis lists.

Rank, circuits, cocircuits and duality all derive from the basis list by
brute force, which is the point: everything here exists to verify the
parking-set/basis identities and the induced bijections on desk-scale
instances.  The cocircuit-side operations are implemented by delegating
to the circuit side on the dual matroid and complementing the outcome;
the bracket operator itself (bases containing a given exactly-one set)
is only ever used on the circuit side.  Each public call builds one
system of the parts; its subfamily table (``SetSystem.table``) gives the
parking sets, the bracket, the full-cover check and the parking functions
that the theorem bijection pairs.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .enumeration import paired_images, table_sets
from .systems import VerificationError, _index_subsets, _system_over, exactly_one_sets


class PreconditionError(ValueError):
    """A stated hypothesis of a verification operation does not hold."""


class Matroid:
    """Finite matroid over positive-integer ground elements.

    The basis list is deduplicated and kept in a deterministic order.
    Construction checks that all bases share one cardinality and that
    the basis-exchange axiom holds.
    """

    def __init__(self, ground, bases):
        self.ground = frozenset(ground)
        unique = {frozenset(b) for b in bases}
        if not unique:
            raise ValueError("a matroid needs at least one basis")
        self.bases = tuple(sorted(unique, key=sorted))
        for b in self.bases:
            if not b <= self.ground:
                raise ValueError(f"basis {sorted(b)} is not inside the ground set")
        cardinalities = {len(b) for b in self.bases}
        if len(cardinalities) != 1:
            raise ValueError("all bases must have the same cardinality")
        self.rank_value = cardinalities.pop()
        self._check_exchange()

    def _check_exchange(self):
        pool = set(self.bases)
        for b1 in self.bases:
            for b2 in self.bases:
                for x in b1 - b2:
                    if not any((b1 - {x}) | {y} in pool for y in b2 - b1):
                        raise ValueError(
                            f"basis exchange fails for {sorted(b1)} / {sorted(b2)} at {x}")

    def rank(self, subset):
        """Largest independent portion of ``subset``."""
        s = frozenset(subset)
        if not s <= self.ground:
            raise ValueError("subset must lie inside the ground set")
        return max(len(b & s) for b in self.bases)

    @cached_property
    def circuits(self):
        """Inclusion-minimal dependent sets, by increasing-size subset scan."""
        found = []
        elements = sorted(self.ground)
        for size in range(1, self.rank_value + 2):
            for combo in combinations(elements, size):
                s = frozenset(combo)
                if any(c <= s for c in found):
                    continue
                if self.rank(s) < size:
                    found.append(s)
        return tuple(found)

    @cached_property
    def dual(self):
        """Matroid whose bases are the complements of this one's."""
        return Matroid(self.ground, [self.ground - b for b in self.bases])

    @cached_property
    def cocircuits(self):
        return self.dual.circuits

    def is_union_of_circuits(self, subset):
        """True when deleting any single element keeps the rank unchanged;
        vacuously true for the empty set."""
        s = frozenset(subset)
        if not s <= self.ground:
            raise ValueError("subset must lie inside the ground set")
        full = self.rank(s) if s else 0
        return all(self.rank(s - {e}) == full for e in s)

    def bases_containing(self, subset):
        """Bases that contain ``subset``; empty exactly when it holds a circuit."""
        s = frozenset(subset)
        if not s <= self.ground:
            raise ValueError("subset must lie inside the ground set")
        return [b for b in self.bases if s <= b]

    def bases_bracket(self, parts):
        """Bases containing the exactly-one set of some non-empty subfamily."""
        return _bracket(self, _system_over(self.ground, _checked_parts(self, parts)))

    def bases_prime(self, parts):
        """Bases avoiding every bracket contribution."""
        bracket = set(self.bases_bracket(parts))
        return [b for b in self.bases if b not in bracket]

    def __eq__(self, other):
        return (isinstance(other, Matroid) and self.ground == other.ground
                and set(self.bases) == set(other.bases))

    def __hash__(self):
        return hash((self.ground, frozenset(self.bases)))

    def __repr__(self):
        return f"Matroid(|E|={len(self.ground)}, rank={self.rank_value}, bases={len(self.bases)})"


def uniform_matroid(n, r):
    """Ground set 1..n with every r-subset a basis."""
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n, got r={r}, n={n}")
    ground = range(1, n + 1)
    return Matroid(ground, [frozenset(c) for c in combinations(ground, r)])


def _checked_parts(matroid, parts):
    parts = tuple(frozenset(p) for p in parts)
    for i, p in enumerate(parts, start=1):
        if not p <= matroid.ground:
            raise ValueError(f"part {i} is not inside the ground set")
    return parts


def _bracket(matroid, system):
    """``bases_bracket`` of the parts of ``system``, off its subfamily table."""
    pools = {system.compiled.elements_of(pool) for pool, _ in system.table}
    return [b for b in matroid.bases if any(pool <= b for pool in pools)]


@dataclass
class BasesIdentityReport:
    """Outcome of checking one parking-set/basis identity.

    ``lhs`` is the surviving-basis family on the requested side, ``rhs``
    the parking-set expression the identity equates it with; ``form``
    names which expression applied (the unrestricted one when every part
    is a union of circuits respectively cocircuits, the
    intersected-with-bases one otherwise).
    """
    side: str
    form: str
    parts: tuple
    parts_are_unions: bool
    lhs: frozenset
    rhs: frozenset

    @property
    def equal(self):
        return self.lhs == self.rhs

    def to_jsonable(self):
        return {
            "side": self.side,
            "form": self.form,
            "parts": [sorted(p) for p in self.parts],
            "parts_are_unions": self.parts_are_unions,
            "lhs": sorted(sorted(b) for b in self.lhs),
            "rhs": sorted(sorted(b) for b in self.rhs),
            "equal": self.equal,
        }


def parking_sets_vs_bases_circuit_side(matroid, parts):
    """Check the circuit-side identity: with k = |E| - rank, the bases
    outside the bracket are exactly the complements of the parking sets
    (intersected with the bases when not all parts are circuit-unions)."""
    parts = _checked_parts(matroid, parts)
    _checked_count(matroid, parts, "circuit")
    unions = all(matroid.is_union_of_circuits(p) for p in parts)
    system = _system_over(matroid.ground, parts)
    complements = frozenset(matroid.ground - d for d in table_sets(system))
    prime = frozenset(matroid.bases).difference(_bracket(matroid, system))
    if unions:
        rhs, form = complements, "complements-of-parking-sets"
    else:
        rhs, form = complements & frozenset(matroid.bases), "bases-and-complements"
    return BasesIdentityReport("circuit", form, parts, unions, prime, rhs)


def parking_sets_vs_bases_cocircuit_side(matroid, parts):
    """Check the cocircuit-side identity: with k = rank, delegate to the
    circuit side of the dual matroid and complement both sides back."""
    parts = _checked_parts(matroid, parts)
    inner = parking_sets_vs_bases_circuit_side(_checked_count(matroid, parts, "cocircuit"), parts)
    lhs = frozenset(matroid.ground - b for b in inner.lhs)
    rhs = frozenset(matroid.ground - b for b in inner.rhs)
    form = ("parking-sets" if inner.parts_are_unions
            else "bases-and-parking-sets")
    return BasesIdentityReport("cocircuit", form, parts,
                               inner.parts_are_unions, lhs, rhs)


def _checked_count(matroid, parts, side):
    """Check the side's part count; returns the matroid (or dual) it reads."""
    k = len(parts)
    if side == "circuit":
        expected = len(matroid.ground) - matroid.rank_value
        if k != expected:
            raise PreconditionError(
                f"circuit side needs k = |ground| - rank = {expected}, got k = {k}")
        return matroid
    if side == "cocircuit":
        if k != matroid.rank_value:
            raise PreconditionError(
                f"cocircuit side needs k = rank = {matroid.rank_value}, got k = {k}")
        return matroid.dual
    raise ValueError(f"side must be 'circuit' or 'cocircuit', got {side!r}")


def _checked_side(matroid, parts, side, weights=None):
    """Validate the bijection hypotheses; returns the parts system, the
    target basis family read off its table, and the map from a mapped
    parking set to its basis (None for the identity)."""
    reference = _checked_count(matroid, parts, side)
    for i, p in enumerate(parts, start=1):
        if not reference.is_union_of_circuits(p):
            raise PreconditionError(f"part {i} is not a union of {side}s")
    system = _system_over(matroid.ground, parts, weights)
    survivors = frozenset(reference.bases).difference(_bracket(reference, system))
    if side == "circuit":
        return system, survivors, lambda image: matroid.ground - image
    return system, frozenset(matroid.ground - b for b in survivors), None


def theorem_bijection(matroid, parts, side, weights=None):
    """Pair every parking function with its basis.

    On the circuit side the basis is the ground complement of the mapped
    parking set; on the cocircuit side it is the mapped set itself.  The
    image is verified to be exactly the surviving-basis family, hit
    injectively.
    """
    return paired_images(*_checked_side(matroid, _checked_parts(matroid, parts), side, weights))


def corollary_full_cover(matroid, parts, side):
    """True when the exactly-one set of every non-empty subfamily is
    dependent (contains a circuit, or a cocircuit via the dual).  In
    that case the surviving-basis family is everything and the theorem
    bijection covers all bases, which is verified as well."""
    parts = _checked_parts(matroid, parts)
    system, target, transform = _checked_side(matroid, parts, side)
    reference = matroid if side == "circuit" else matroid.dual
    # no subfamily's exactly-one set is independent (circuit-free)
    cover = all(reference.rank(system.compiled.elements_of(pool)) < pool.bit_count()
                for pool, _ in system.table)
    if cover != (target == frozenset(matroid.bases)):
        raise VerificationError(
            "full cover disagrees with the surviving-basis family")
    if cover:
        paired_images(system, target, transform)
    return cover


# ---------------------------------------------------------------------------
# exploration aid: does a matroid admit a full-cover cocircuit family?

def cocircuit_union_subsets(matroid):
    """All non-empty subsets that are unions of cocircuits."""
    elements = sorted(matroid.ground)
    out = []
    for size in range(1, len(elements) + 1):
        for combo in combinations(elements, size):
            s = frozenset(combo)
            if matroid.dual.is_union_of_circuits(s):
                out.append(s)
    return out


def find_cocircuit_cover_families(matroid, limit=1, max_nodes=200000):
    """Search for families of rank-many cocircuit-unions whose every
    exactly-one combination contains a cocircuit.

    Exploration aid for the open question whether any non-graphic
    matroid admits such a family; graphic matroids always do (the vertex
    stars).  Families are returned as sorted tuples; the search walks
    strictly increasing candidate indices, which loses nothing because
    the cover property ignores the family order and repeated parts never
    survive (their pairwise exactly-one set is empty).
    """
    k = matroid.rank_value
    if k == 0:
        return []
    candidates = cocircuit_union_subsets(matroid)
    dual = matroid.dual
    results = []
    nodes = 0

    def dependent(pool):
        return dual.rank(pool) < len(pool)

    def extend(prefix, start):
        nonlocal nodes
        if len(results) >= limit or nodes > max_nodes:
            return
        if len(prefix) == k:
            results.append(tuple(prefix))
            return
        for idx in range(start, len(candidates)):
            nodes += 1
            if nodes > max_nodes:
                return
            part = candidates[idx]
            extended = prefix + [part]
            last = len(extended)
            ok = True
            for subset in _index_subsets(last):
                if last not in subset:
                    continue      # checked when the earlier prefix grew
                pool = exactly_one_sets(extended[i - 1] for i in subset)
                if not dependent(pool):
                    ok = False
                    break
            if ok:
                extend(extended, idx + 1)
            if len(results) >= limit:
                return

    extend([], 0)
    return results
