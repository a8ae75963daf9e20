"""Finite matroids given by basis lists, with a rank function.

A matroid keeps its bases once, as masks over the bit order of its
identity universe (``Matroid._universe``), and ranks masks by the rule of
its construction: ``uniform_matroid`` by min(|S|, r), ``graphic_matroid``
by union-find, ``dual`` by r*(X) = |X| - r(E) + r(E - X), and an explicit
``Matroid(...)`` by the max over its bases; ``bases`` decodes them for the
public API.  Circuits and cocircuits still come from scans over bit
combinations, which is the point: everything here exists to verify the
parking-set/basis identities and the induced bijections on desk-scale
instances.  A side of the theorem is set up once per call by
``_checked_side``: one system of the parts over that universe, in its bit
order, whose masks give the union test (``_is_union``) and whose subfamily
table gives the parking sets, the bracket on the reference matroid (the
dual on the cocircuit side, computed on first use) and the full-cover
check.  The parking sets and the bracket read only the table's minimal
pools (``SetSystem.pools``); the bracket ANDs the cached columns
(``_columns``: per ground bit, a bitset of the bases holding it) of each
pool's bits and ORs over the pools, and the surviving bases and their
decoded sets are picked from the cached lists by that bitset's complement.
"""

from itertools import combinations, compress
from math import comb

from .enumeration import _selectors, paired_images, table_sets
from .systems import (MAX_CHECK_CANDIDATES, SetSystem, Universe, VerificationError, _cached,
                      _system_over)

# candidate extensions ``find_cocircuit_cover_families`` tries before it refuses
MAX_COVER_NODES = 200000


class PreconditionError(ValueError):
    """A stated hypothesis of a verification operation does not hold."""


class Matroid:
    """Finite matroid over positive-integer ground elements.

    The basis list is deduplicated and kept in a deterministic order.
    ``Matroid(...)``, and so every matroid file, checks that the bases lie
    in the ground set, share one cardinality and satisfy the
    basis-exchange axiom, and ranks a set by the max over the bases.
    ``uniform_matroid``, ``graphic_matroid`` and ``dual`` are matroids by
    construction: they skip these checks and pass the basis masks and the
    rank formula of their construction.
    """

    def __init__(self, ground, bases):
        self.ground = frozenset(ground)
        unique = sorted({frozenset(b) for b in bases}, key=sorted)
        if not unique:
            raise ValueError("a matroid needs at least one basis")
        for b in unique:
            if not b <= self.ground:
                raise ValueError(f"basis {sorted(b)} is not inside the ground set")
        if len({len(b) for b in unique}) != 1:
            raise ValueError("all bases must have the same cardinality")
        self._store(map(self._universe.mask_of, unique), self._rank_over_bases)
        self._check_exchange()

    @classmethod
    def _by_construction(cls, ground, masks, rank):
        """A matroid whose bases satisfy exchange by construction, given as
        ``masks`` in the order of their sorted element tuples and ranked
        by ``rank``, a function of a mask."""
        matroid = cls.__new__(cls)
        matroid.ground = frozenset(ground)
        matroid._store(masks, rank)
        return matroid

    def _store(self, masks, rank):
        self._rank = rank
        self._masks = tuple(masks)
        self.rank_value = self._masks[0].bit_count()

    def _check_exchange(self):
        """Basis exchange by ``_columns``: the bases failing b1 at x hold no
        y with b1 - x + y a basis (y = x keeps b1).  Names the first failing
        pair; refuses more than ``MAX_CHECK_CANDIDATES`` (b1, b2, x) checks."""
        masks, r, n = self._masks, self.rank_value, len(self.ground)
        if len(masks) ** 2 * r > MAX_CHECK_CANDIDATES:
            raise ValueError(f"too large: {len(masks)} bases of rank {r} need {len(masks) ** 2 * r}"
                             f" basis exchange checks; checking is capped at {MAX_CHECK_CANDIDATES}")
        pool, columns, past = set(masks), self._columns, 1 << len(masks)
        for m1 in masks:
            fails = [(past, 0)]  # per x in b1: the first basis failing at x, as a bit, and x
            for x in range(n):
                if m1 >> x & 1:
                    held = 0
                    for y in range(n):
                        if m1 ^ 1 << x | 1 << y in pool:
                            held |= columns[y]
                    fails.append((~held & held + 1, x))
            low, x = min(fails)
            if low < past:
                b1, b2 = map(self._universe.elements_of, (m1, masks[low.bit_length() - 1]))
                raise ValueError(f"basis exchange fails for {sorted(b1)} / {sorted(b2)} at "
                                 f"{self._universe.order[x]}")

    def _rank_over_bases(self, mask):
        return max((b & mask).bit_count() for b in self._masks)

    @_cached
    def _universe(self):
        """Identity weights on the ground set: the bases' bit order, and the
        universe of every unweighted parts system."""
        return Universe.identity(self.ground)

    @_cached
    def bases(self):
        """The bases as element sets, sorted by their sorted element tuples."""
        return tuple(map(self._universe.elements_of, self._masks))

    def _mask(self, subset):
        s = frozenset(subset)
        if not s <= self.ground:
            raise ValueError("subset must lie inside the ground set")
        return self._universe.mask_of(s)

    def rank(self, subset):
        """Largest independent portion of ``subset``."""
        return self._rank(self._mask(subset))

    @_cached
    def _columns(self):
        """Per ground bit, the bitset of the indices of the bases holding
        it, cut from the bases' binary digits laid end to end."""
        n = len(self.ground)
        digits = "".join(f"{m:0{n}b}" for m in reversed(self._masks))
        return [int(digits[n - 1 - b::n], 2) for b in range(n)]

    @_cached
    def circuits(self):
        """Inclusion-minimal dependent sets, by increasing-size scan over
        bit combinations."""
        found, bits = [], [1 << b for b in range(len(self.ground))]
        for size in range(1, self.rank_value + 2):
            for s in map(sum, combinations(bits, size)):
                if not any(c & s == c for c in found) and self._rank(s) < size:
                    found.append(s)
        return tuple(map(self._universe.elements_of, found))

    @_cached
    def dual(self):
        """Matroid whose bases are the complements of this one's, ranked by
        r*(X) = |X| - r(E) + r(E - X) (Oxley, Matroid Theory, 2nd ed., §2.1).
        Complementing equal-size sets reverses their order."""
        full, r, rank = (1 << len(self.ground)) - 1, self.rank_value, self._rank
        return Matroid._by_construction(self.ground, [full ^ m for m in reversed(self._masks)],
                                        lambda m: m.bit_count() - r + rank(full ^ m))

    @_cached
    def cocircuits(self):
        return self.dual.circuits

    def is_union_of_circuits(self, subset):
        """True when deleting any single element keeps the rank unchanged;
        vacuously true for the empty set."""
        return self._is_union(self._mask(subset))

    def _is_union(self, m):
        """``is_union_of_circuits`` of a mask."""
        full = self._rank(m)
        return all(self._rank(m ^ 1 << b) == full for b in range(m.bit_length()) if m >> b & 1)

    def bases_containing(self, subset):
        """Bases that contain ``subset``; empty exactly when it holds a circuit."""
        m = self._mask(subset)
        return [b for b, mask in zip(self.bases, self._masks) if mask & m == m]

    def bases_bracket(self, parts):
        """Bases containing the exactly-one set of some non-empty subfamily."""
        hit = _bracket(self, _parts_system(self, parts))
        return list(compress(self.bases, _selectors(hit, len(self._masks))))

    def bases_prime(self, parts):
        """Bases avoiding every bracket contribution."""
        hit = _bracket(self, _parts_system(self, parts))
        return list(compress(self.bases, _selectors(~hit, len(self._masks))))

    def __eq__(self, other):
        return (isinstance(other, Matroid) and self.ground == other.ground
                and self._masks == other._masks)

    def __hash__(self):
        return hash((self.ground, self._masks))

    def __repr__(self):
        return f"Matroid(|E|={len(self.ground)}, rank={self.rank_value}, bases={len(self._masks)})"


def uniform_matroid(n, r):
    """Ground set 1..n with every r-subset a basis; refuses more than
    ``MAX_CHECK_CANDIDATES`` 64-bit words of n-bit basis masks up front."""
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n, got r={r}, n={n}")
    if comb(n, r) * -(-n // 64) > MAX_CHECK_CANDIDATES:
        raise ValueError(f"too large: C({n}, {r}) = {comb(n, r)} bases of {n} bits; building "
                         f"their masks is capped at {MAX_CHECK_CANDIDATES} 64-bit words")
    return Matroid._by_construction(range(1, n + 1),
                                    map(sum, combinations([1 << b for b in range(n)], r)),
                                    lambda m: min(m.bit_count(), r))


def _parts_system(matroid, parts):
    """The parts, frozen once and checked to lie in the ground set, over ``_universe``."""
    parts = tuple(map(frozenset, parts))
    for i, p in enumerate(parts, start=1):
        if not p <= matroid.ground:
            raise ValueError(f"part {i} is not inside the ground set")
    return SetSystem(parts, matroid._universe, warn=False)


def _bracket(matroid, system):
    """``bases_bracket`` of the parts of ``system`` as a bitset over the
    indices of ``matroid._masks``: the bases holding a minimal pool are the
    AND of its bits' columns, and the bracket is the OR of those over the
    pools."""
    columns, every, hit = matroid._columns, (1 << len(matroid._masks)) - 1, 0
    for pool in system.pools:
        held = every
        for b in range(pool.bit_length()):
            if pool >> b & 1:
                held &= columns[b]
        hit |= held
    return hit


class BasesIdentityReport:
    """Outcome of checking one parking-set/basis identity.

    ``lhs`` is the surviving-basis family on the requested side, ``rhs``
    the parking-set expression the identity equates it with; ``form``
    names which expression applied (the unrestricted one when every part
    is a union of circuits respectively cocircuits, the
    intersected-with-bases one otherwise).
    """

    def __init__(self, side, form, parts, parts_are_unions, lhs, rhs):
        self.side, self.form, self.parts = side, form, parts
        self.parts_are_unions, self.lhs, self.rhs = parts_are_unions, lhs, rhs

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


class _Side:
    """One side of the theorem for one parts family, from ``_checked_side``."""

    def __init__(self, matroid, name, system, weighted, reference, xor, non_union):
        self.matroid, self.name = matroid, name  # name: "circuit" or "cocircuit"
        self.system = system        # the parts, over the matroid's identity universe
        self.weighted = weighted    # the parts over the caller's weights, or None
        self.reference = reference  # ``matroid``, or its dual on the cocircuit side
        self.xor = xor              # parking set ^ xor = its basis: the ground's mask, or 0
        self.non_union = non_union  # index of the first part that is no union of circuits, or None

    @_cached
    def _survivors(self):
        """``compress`` selectors over ``matroid._masks`` for its surviving
        bases, those outside the reference's bracket; read backwards on the
        cocircuit side, where ``dual`` lists the complements in reverse."""
        return _selectors(~_bracket(self.reference, self.system), len(self.matroid._masks),
                          self.name == "cocircuit")

    @_cached
    def target(self):
        """The masks of the surviving bases of ``matroid``."""
        return frozenset(compress(self.matroid._masks, self._survivors))

    def identity(self):
        """The identity report: the surviving bases against the mapped
        parking sets, intersected with the bases unless all parts are unions."""
        unions = self.non_union is None
        rhs = {d ^ self.xor for d in table_sets(self.system)}
        if not unions:
            rhs.intersection_update(self.matroid._masks)
        lhs = frozenset(compress(self.matroid.bases, self._survivors))
        return BasesIdentityReport(self.name, _FORMS[self.name][not unions],
                                   self.system.sets, unions, lhs, lhs if rhs == self.target
                                   else frozenset(map(self.system.universe.elements_of, rhs)))

    def theorem(self):
        """The theorem bijection's pairs, checked against the surviving
        bases; refuses a part that is not a union."""
        if self.non_union is not None:
            raise PreconditionError(f"part {self.non_union} is not a union of {self.name}s")
        return paired_images(self.system, self.target, self.xor, self.weighted)

    def cover(self):
        """Whether no exactly-one set is independent in the reference,
        checked against the surviving bases (call after ``theorem``)."""
        cover = _independent_row(self.system, self.reference) is None
        if cover != self.target.issuperset(self.matroid._masks):
            raise VerificationError(
                "full cover disagrees with the surviving-basis family")
        return cover


def _checked_side(matroid, parts, side, weights=None):
    """Check the side's part count and set up the side once; its surviving
    bases are computed on first use."""
    system = _parts_system(matroid, parts)
    k = system.k
    if side == "circuit":
        expected = len(matroid.ground) - matroid.rank_value
        if k != expected:
            raise PreconditionError(
                f"circuit side needs k = |ground| - rank = {expected}, got k = {k}")
        reference, xor = matroid, (1 << len(matroid.ground)) - 1
    elif side == "cocircuit":
        if k != matroid.rank_value:
            raise PreconditionError(
                f"cocircuit side needs k = rank = {matroid.rank_value}, got k = {k}")
        reference, xor = matroid.dual, 0
    else:
        raise ValueError(f"side must be 'circuit' or 'cocircuit', got {side!r}")
    non_union = next((i for i, m in enumerate(system.masks, start=1)
                      if not reference._is_union(m)), None)
    weighted = None if weights is None else _system_over(matroid.ground, system.sets, weights)
    return _Side(matroid, side, system, weighted, reference, xor, non_union)


def _independent_row(system, reference):
    """The bitmask of the first subfamily, in ``system.table`` order, whose
    exactly-one set is independent (circuit-free) in ``reference``, or None.
    Some pool is independent exactly when a minimal pool is, since every
    pool holds a minimal one, so the table is scanned only on a hit."""
    if all(reference._rank(p) < p.bit_count() for p in system.pools):
        return None
    return next(imask for imask, pool in enumerate(system.table, 1)
                if reference._rank(pool) == pool.bit_count())


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
    """All non-empty subsets that are unions of cocircuits, by size, then
    in combination order; refuses more than ``MAX_CHECK_CANDIDATES``
    subsets before it tries one."""
    n = len(matroid.ground)
    if (1 << n) - 1 > MAX_CHECK_CANDIDATES:
        raise ValueError(f"too large: 2^{n} - 1 = {(1 << n) - 1} subsets of the ground set; "
                         f"listing the cocircuit unions is capped at {MAX_CHECK_CANDIDATES}")
    dual, bits = matroid.dual, [1 << b for b in range(n)]
    found = [m for size in range(1, len(bits) + 1)
             for m in map(sum, combinations(bits, size)) if dual._is_union(m)]
    return list(map(matroid._universe.elements_of, found))


def find_cocircuit_cover_families(matroid, limit=1):
    """Search for families of rank-many cocircuit-unions whose every
    exactly-one combination contains a cocircuit.

    Exploration aid for the open question whether any non-graphic
    matroid admits such a family; graphic matroids always do (the vertex
    stars).  Families are returned as sorted tuples; the search walks
    strictly increasing candidate indices, which loses nothing because
    the cover property ignores the family order and repeated parts never
    survive (their pairwise exactly-one set is empty).  Refuses when
    ``MAX_COVER_NODES`` extensions run out before ``limit`` are found.
    """
    k = matroid.rank_value
    if k == 0:  # the empty family: no subfamily, so no exactly-one set to cover
        return [()][:limit]
    candidates = cocircuit_union_subsets(matroid)
    masks = _parts_system(matroid, candidates).masks
    dual = matroid.dual
    results = []
    nodes = 0

    def dependent(once, twice):
        pool = once & ~twice
        return dual._rank(pool) < pool.bit_count()

    def extend(prefix, folds, start):
        # folds: the (once, twice) fold of every subfamily of the prefix,
        # the empty one included; the prefix's own rows are all dependent
        nonlocal nodes
        if len(prefix) == k:
            results.append(tuple(prefix))
            return
        for idx in range(start, len(candidates)):
            nodes += 1
            if len(results) >= limit:
                return
            if nodes > MAX_COVER_NODES:
                raise ValueError(f"too large: {len(results)} of {limit} families found within "
                                 f"the cap of {MAX_COVER_NODES} candidate extensions")
            a = masks[idx]
            grown = [(once | a, twice | once & a) for once, twice in folds]
            if all(dependent(*fold) for fold in grown):
                extend(prefix + [candidates[idx]], folds + grown, idx + 1)

    extend([], [(0, 0)], 0)
    return results
