"""Finite matroids given by explicit basis lists.

Rank, circuits, cocircuits and duality all derive from the basis list by
brute force, which is the point: everything here exists to verify the
parking-set/basis identities and the induced bijections on desk-scale
instances.  A side of the theorem is computed once per call by
``_checked_side``: one system of the parts, whose subfamily table
(``SetSystem.table``) gives the parking sets, the bracket on the
reference matroid (the dual on the cocircuit side), the full-cover check
and the parking functions that the theorem bijection pairs.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import NamedTuple

from .enumeration import paired_images, table_sets
from .systems import SetSystem, VerificationError, _system_over


class PreconditionError(ValueError):
    """A stated hypothesis of a verification operation does not hold."""


class Matroid:
    """Finite matroid over positive-integer ground elements.

    The basis list is deduplicated and kept in a deterministic order.
    ``Matroid(...)``, and so every matroid file, checks that the bases lie
    in the ground set, share one cardinality and satisfy the
    basis-exchange axiom.  ``uniform_matroid``, ``graphic_matroid`` and
    ``dual`` are matroids by construction and skip the O(B²·r²) exchange
    check, keeping the others.
    """

    def __init__(self, ground, bases):
        self._store(ground, bases)
        self._check_exchange()

    @classmethod
    def _by_construction(cls, ground, bases):
        """A matroid whose bases satisfy exchange by construction."""
        matroid = cls.__new__(cls)
        matroid._store(ground, bases)
        return matroid

    def _store(self, ground, bases):
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
        return Matroid._by_construction(self.ground, [self.ground - b for b in self.bases])

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
    return Matroid._by_construction(ground, [frozenset(c) for c in combinations(ground, r)])


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


_FORMS = {"circuit": ("complements-of-parking-sets", "bases-and-complements"),
          "cocircuit": ("parking-sets", "bases-and-parking-sets")}


class _Side(NamedTuple):
    """One side of the theorem for one parts family, from ``_checked_side``."""
    matroid: Matroid
    name: str            # "circuit" or "cocircuit"
    system: SetSystem    # the parts, weighted
    reference: Matroid   # ``matroid``, or its dual on the cocircuit side
    target: frozenset    # the surviving bases of ``matroid``
    transform: object    # mapped parking set -> its basis
    non_union: object    # index of the first part not a union of circuits of reference, or None

    def identity(self):
        """The identity report: the surviving bases against the mapped
        parking sets, intersected with the bases unless all parts are unions."""
        unions = self.non_union is None
        rhs = frozenset(map(self.transform, table_sets(self.system)))
        if not unions:
            rhs &= frozenset(self.matroid.bases)
        return BasesIdentityReport(self.name, _FORMS[self.name][not unions],
                                   self.system.sets, unions, self.target, rhs)

    def theorem(self):
        """The theorem bijection's pairs, checked against the surviving
        bases; refuses a part that is not a union."""
        if self.non_union is not None:
            raise PreconditionError(f"part {self.non_union} is not a union of {self.name}s")
        return paired_images(self.system, self.target, self.transform)

    def cover(self):
        """Whether no exactly-one set is independent in the reference,
        checked against the surviving bases (call after ``theorem``)."""
        cover = _independent_row(self.system, self.reference) is None
        if cover != (self.target == frozenset(self.matroid.bases)):
            raise VerificationError(
                "full cover disagrees with the surviving-basis family")
        return cover


def _checked_side(matroid, parts, side, weights=None):
    """Check the side's part count and compute the side once.  The
    surviving bases avoid the reference's bracket, complemented back on
    the cocircuit side."""
    parts = _checked_parts(matroid, parts)
    k = len(parts)
    if side == "circuit":
        expected = len(matroid.ground) - matroid.rank_value
        if k != expected:
            raise PreconditionError(
                f"circuit side needs k = |ground| - rank = {expected}, got k = {k}")
        reference, transform = matroid, lambda image: matroid.ground - image
    elif side == "cocircuit":
        if k != matroid.rank_value:
            raise PreconditionError(
                f"cocircuit side needs k = rank = {matroid.rank_value}, got k = {k}")
        reference, transform = matroid.dual, lambda image: image
    else:
        raise ValueError(f"side must be 'circuit' or 'cocircuit', got {side!r}")
    non_union = next((i for i, p in enumerate(parts, start=1)
                      if not reference.is_union_of_circuits(p)), None)
    system = _system_over(matroid.ground, parts, weights)
    survivors = frozenset(reference.bases).difference(_bracket(reference, system))
    if side == "cocircuit":
        survivors = frozenset(matroid.ground - b for b in survivors)
    return _Side(matroid, side, system, reference, survivors, transform, non_union)


def _independent_row(system, reference):
    """The first row of ``system.table`` whose exactly-one set is
    independent (circuit-free) in ``reference``, or None."""
    elements_of = system.compiled.elements_of
    return next((row for row in system.table
                 if reference.rank(elements_of(row[0])) == row[0].bit_count()), None)


def parking_sets_vs_bases_circuit_side(matroid, parts):
    """Check the circuit-side identity: with k = |E| - rank, the bases
    outside the bracket are exactly the complements of the parking sets
    (intersected with the bases when not all parts are circuit-unions)."""
    return _checked_side(matroid, parts, "circuit").identity()


def parking_sets_vs_bases_cocircuit_side(matroid, parts):
    """Check the cocircuit-side identity: with k = rank, the bases meeting
    every exactly-one set are exactly the parking sets (intersected with
    the bases when not all parts are cocircuit-unions)."""
    return _checked_side(matroid, parts, "cocircuit").identity()


def theorem_bijection(matroid, parts, side, weights=None):
    """Pair every parking function with its basis.

    On the circuit side the basis is the ground complement of the mapped
    parking set; on the cocircuit side it is the mapped set itself.  The
    image is verified to be exactly the surviving-basis family, hit
    injectively.
    """
    return _checked_side(matroid, parts, side, weights).theorem()


def corollary_full_cover(matroid, parts, side):
    """True when the exactly-one set of every non-empty subfamily is
    dependent (contains a circuit, or a cocircuit via the dual).  In
    that case the surviving-basis family is everything and the theorem
    bijection covers all bases, which is verified as well."""
    checked = _checked_side(matroid, parts, side)
    checked.theorem()
    return checked.cover()


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
            extended = prefix + [candidates[idx]]
            if _independent_row(_system_over(matroid.ground, extended), dual) is None:
                extend(extended, idx + 1)
            if len(results) >= limit:
                return

    extend([], 0)
    return results
