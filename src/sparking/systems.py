"""Finite set systems over weighted ground elements.

A system is an ordered family A_1..A_k of finite sets together with a
table of pairwise-distinct rational element weights, ints when integral.
This module holds the exactly-one operation, the 2^k parking-function /
parking-set test oracles, the greedy permutation certificates that
validate all input, the reductions the mapping algorithms lean on, and
the weight rank ``delta``.  The oracles, and the enumerations built on
them, read one set-level walk of the subfamilies, ``_subfamily_pools``,
which folds each subfamily's exactly-one set once, in bitmask order, on
frozensets and apart from the mask code.  A ``Universe`` owns the one
bit order of all its systems, and ``SetSystem.masks`` is a family in it:
the mapping sweep and the certificates' greedy peel run on those masks,
and their ``subfamily_table``, cached as ``SetSystem.table``, holds one
exactly-one pool mask per subfamily for the enumeration, matroid and
graph layers, and ``SetSystem.pools`` its inclusion-minimal pools.

Set indices are 1-based throughout the public API (valid indices are
1..k), matching the text file formats.  Element ids are positive
integers; the default weight of an element is its own id.
"""

import warnings
from collections import namedtuple

# The definitional oracles and the subfamily table walk all 2^k - 1 index
# subsets and refuse beyond this; the certificates that validate input have no cap.
MAX_CHECK_SETS = 20
# The parking sets are filtered out of all C(covered, k) k-subsets, refused beyond this.
MAX_CHECK_CANDIDATES = 10 ** 7
# The one wording of the warning for a family with an empty member.
_EMPTY_MEMBER = "family contains an empty set: no parking function exists"


class VerificationError(Exception):
    """A computed result contradicts what the theory guarantees."""


class _cached:
    """A property computed on first access into the instance ``__dict__``,
    as ``functools.cached_property`` does from Python 3.12 on; before 3.12
    that one takes one lock, shared by all instances, on each first access."""

    def __init__(self, func):
        self.func, self.__doc__ = func, func.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.func.__name__] = self.func(instance)
        return value


class Universe:
    """Weight table for ground elements; weights are pairwise distinct."""

    def __init__(self, weights):
        table = {}
        for element, w in dict(weights).items():
            if isinstance(element, bool) or not isinstance(element, int) or element <= 0:
                raise ValueError(
                    f"element ids must be positive integers, got {element!r}")
            if not isinstance(w, int):  # fractions loads only for these
                from fractions import Fraction
                w = Fraction(w)
            table[element] = int(w) if w.denominator == 1 else w
        if len(set(table.values())) != len(table):
            raise ValueError("element weights must be pairwise distinct")
        self._table = table

    @classmethod
    def identity(cls, elements):
        """Universe in which every element weighs its own id."""
        return cls({e: e for e in elements})

    @_cached
    def elements(self):
        return frozenset(self._table)

    @_cached
    def order(self):
        """The elements from lightest to heaviest: bit b of every mask over
        this universe stands for ``order[b]``, the lowest for the lightest."""
        return tuple(sorted(self._table, key=self._table.__getitem__))

    @_cached
    def bit(self):
        """Each element's bit."""
        return {e: 1 << b for b, e in enumerate(self.order)}

    def mask_of(self, elements):
        """Mask of ``elements``; elements outside the universe get no bit."""
        bit = self.bit
        return sum(bit.get(e, 0) for e in frozenset(elements))

    def elements_of(self, mask):
        """The elements of the set bits of ``mask``, visiting only those."""
        found = []
        while mask:
            low = mask & -mask
            found.append(self.order[low.bit_length() - 1])
            mask ^= low
        return frozenset(found)

    def weight(self, element):
        try:
            return self._table[element]
        except KeyError:
            raise ValueError(f"element {element} is not in the universe") from None

    def __contains__(self, element):
        return element in self._table

    def __len__(self):
        return len(self._table)

    def __eq__(self, other):
        return isinstance(other, Universe) and self._table == other._table

    def __hash__(self):
        return hash(frozenset(self._table.items()))

    def __repr__(self):
        return f"Universe({dict(sorted(self._table.items()))!r})"


class SetSystem:
    """Ordered family of finite element sets over a shared universe.

    The family may contain empty or repeated sets; an empty member makes
    the parking-function family empty, so a warning is emitted when one
    is present, unless ``warn`` is false.  k == 0 is allowed so that the
    reduction operations can shrink a one-set family to nothing.
    Instances are immutable.
    """

    def __init__(self, sets, universe=None, *, warn=True):
        self._sets = tuple(map(frozenset, sets))
        covered = frozenset().union(*self._sets)
        if universe is None:
            universe = Universe.identity(covered)
        stray = covered - universe.elements
        if stray:
            raise ValueError(f"elements {sorted(stray)} are not in the universe")
        if warn and not all(self._sets):
            warnings.warn(_EMPTY_MEMBER, stacklevel=2)
        self._universe = universe
        self._covered = covered

    @property
    def k(self):
        return len(self._sets)

    @property
    def sets(self):
        return self._sets

    @property
    def universe(self):
        return self._universe

    @property
    def covered(self):
        """Union of the family: the only elements that can ever matter."""
        return self._covered

    def set_at(self, index):
        """The family member at a 1-based index."""
        if not 1 <= index <= len(self._sets):
            raise ValueError(f"set index {index} out of range 1..{len(self._sets)}")
        return self._sets[index - 1]

    def weight(self, element):
        return self._universe.weight(element)

    @_cached
    def masks(self):
        """The family as masks in the universe's bit order, built on first
        use; an uncovered universe element has a bit no member holds."""
        bit = self._universe.bit  # the constructor refused elements outside it
        return tuple(sum(map(bit.__getitem__, s)) for s in self._sets)

    @_cached
    def table(self):
        """``subfamily_table`` of ``masks``, built on first use."""
        return subfamily_table(self.masks)

    @_cached
    def pools(self):
        """The inclusion-minimal distinct masks of ``table``, by size: a set
        meets every pool, or contains some pool, exactly when it does so
        for these."""
        kept = []
        for pool in sorted(set(self.table), key=int.bit_count):
            for p in kept:
                if p & pool == p:
                    break
            else:
                kept.append(pool)
        return kept

    def with_sets(self, sets):
        """A system over the same universe with a different family, without
        the empty-member warning."""
        return SetSystem(sets, self._universe, warn=False)

    def __eq__(self, other):
        return (isinstance(other, SetSystem)
                and self._sets == other._sets
                and self._universe == other._universe)

    def __hash__(self):
        return hash((self._sets, self._universe))

    def __repr__(self):
        inner = ", ".join("{" + ",".join(map(str, sorted(s))) + "}"
                          for s in self._sets)
        return f"SetSystem([{inner}])"


def _system_over(ground, sets, weights=None):
    """A system of ``sets`` weighted by ``weights``, else by identity weights
    on ``ground``, without the empty-member warning."""
    universe = Universe(weights) if weights is not None else Universe.identity(ground)
    return SetSystem(sets, universe, warn=False)


def _checked_indices(system, indices):
    chosen = sorted(set(indices))
    if not chosen:
        raise ValueError("index subset must be non-empty")
    if chosen[0] < 1 or chosen[-1] > system.k:
        raise ValueError(f"indices must lie in 1..{system.k}, got {chosen}")
    return chosen


def _checked_function(system, values):
    values = tuple(values)
    if len(values) != system.k:
        raise ValueError(f"expected {system.k} function values, got {len(values)}")
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int) or v < 0:
            raise ValueError(f"function values must be non-negative integers, got {v!r}")
    return values


def _checked_set(system, elements):
    chosen = frozenset(elements)
    if len(chosen) != system.k:
        raise ValueError(
            f"expected a {system.k}-element set, got {len(chosen)} elements")
    for e in chosen:
        if isinstance(e, bool) or not isinstance(e, int):
            raise ValueError(f"element ids must be positive integers, got {e!r}")
    return chosen


def _subset_budget(k):
    if k > MAX_CHECK_SETS:
        raise ValueError(
            f"too large: k={k} sets; walking all 2^k subfamilies is capped at k={MAX_CHECK_SETS}")


def subfamily_table(masks):
    """The exactly-one pool of every non-empty index subset of a bitmask
    family, as masks in bitmask order: entry imask - 1 is the pool of the
    subset whose member bits are set in imask.  Refuses k > ``MAX_CHECK_SETS``.
    """
    _subset_budget(len(masks))
    folds = [(0, 0)]  # (once, twice) of every subset of the masks seen so far
    for a in masks:
        folds += [(once | a, twice | once & a) for once, twice in folds]
    return [once & ~twice for once, twice in folds[1:]]


def exactly_one_sets(sets):
    """Elements that belong to exactly one of the given sets."""
    once, twice = set(), set()
    for s in sets:
        twice.update(once.intersection(s))
        once.update(s)
    return frozenset(once - twice)


def _subfamily_pools(system):
    """(indices, pool) for every non-empty subfamily of ``system``, in
    bitmask order: its 0-based member indices and its exactly-one set, by
    ``exactly_one_sets`` on the members.  Lazy, so a membership test that
    fails early folds no further pools.  Refuses k > ``MAX_CHECK_SETS``
    on the first step."""
    sets = system.sets
    _subset_budget(len(sets))
    for imask in range(1, 1 << len(sets)):
        indices = [j for j in range(len(sets)) if imask >> j & 1]
        yield indices, exactly_one_sets(sets[j] for j in indices)


def exactly_one(system, indices):
    """The exactly-one set of the subfamily named by ``indices``.

    Depends on ``indices`` only as a set; duplicates collapse.
    """
    chosen = _checked_indices(system, indices)
    return exactly_one_sets(system.set_at(i) for i in chosen)


def is_parking_function(system, values):
    """Definitional membership test, exhaustive over all 2^k - 1 subfamilies.

    ``values[i-1]`` is the value assigned to the i-th set.  Membership
    requires every non-empty subfamily to contain some index whose
    private part (its intersection with the subfamily's exactly-one set)
    is strictly larger than the assigned value.
    """
    f = _checked_function(system, values)
    sets = system.sets
    return all(any(len(sets[j] & pool) > f[j] for j in indices)
               for indices, pool in _subfamily_pools(system))


def _peel(system, values, within=-1):
    """The greedy peel of both certificates, over ``system.masks``: the
    (j, A_j & pool & within) steps of the smallest eligible remaining
    0-based indices j, or None when no remaining index is eligible."""
    masks = system.masks
    remaining = list(range(len(masks)))
    steps = []
    while remaining:
        once = twice = 0
        for j in remaining:
            twice |= once & masks[j]
            once |= masks[j]
        pool = once & ~twice
        for j in remaining:
            hit = masks[j] & pool & within
            if hit.bit_count() > values[j]:
                break
        else:
            return None
        steps.append((j, hit))
        remaining.remove(j)
    return steps


def parking_function_permutation(system, values):
    """Greedy permutation certificate for parking-function membership.

    At each step the smallest eligible index among the remaining ones is
    chosen: index i is eligible when its private part within the
    remaining subfamily exceeds values[i-1].  Returns the permutation as
    a tuple of 1-based indices, or None when no certificate exists
    (equivalently, when the values are not a parking function).
    """
    steps = _peel(system, _checked_function(system, values))
    return None if steps is None else tuple(j + 1 for j, _ in steps)


def is_parking_set(system, elements):
    """Definitional membership test for k-element parking sets."""
    chosen = _checked_set(system, elements)
    return all(not chosen.isdisjoint(pool) for _, pool in _subfamily_pools(system))


class ParkingSetCertificate(namedtuple("ParkingSetCertificate", "pi witnesses")):
    """Permutation certificate for parking-set membership.

    At step i the candidate set meets the private part of set pi[i-1] in
    exactly one element, recorded in witnesses.
    """
    __slots__ = ()


def parking_set_permutation(system, elements):
    """Greedy permutation certificate for parking-set membership.

    Smallest eligible index at each step.  Returns a certificate whose
    witnesses are the single element contributed at each step, or None
    when the elements are not a parking set.
    """
    universe = system.universe
    steps = _peel(system, [0] * system.k,
                  universe.mask_of(_checked_set(system, elements)))
    if steps is None:
        return None
    # a completed certificate picks up exactly one element per step,
    # because the k step contributions are pairwise disjoint inside a
    # k-element set
    if any(hit.bit_count() != 1 for _, hit in steps):
        raise VerificationError("parking-set certificate took a step with several elements")
    return ParkingSetCertificate(tuple(j + 1 for j, _ in steps),
                                 tuple(universe.order[hit.bit_length() - 1]
                                       for _, hit in steps))


def _owner_index(system, element):
    """Index of the unique set containing ``element``, which must belong
    to exactly one set of the whole family."""
    if element not in exactly_one(system, range(1, system.k + 1)):
        raise ValueError(f"element {element} does not belong to exactly one set")
    return next(i for i in range(1, system.k + 1)
                if element in system.set_at(i))


def reduce_function(system, values, element):
    """Shrink a parking function by deleting one privately-owned element.

    ``element`` must belong to exactly one set of the whole family, say
    the s-th, and values[s-1] must be positive.  Returns the reduced
    system (with the element removed from that set) and the reduced
    values (with that entry decremented); the result is a parking
    function of the reduced system.
    """
    f = _checked_function(system, values)
    if parking_function_permutation(system, f) is None:
        raise ValueError("values are not a parking function of the system")
    s = _owner_index(system, element)
    if f[s - 1] == 0:
        raise ValueError(f"value for set {s} is already zero")
    new_sets = list(system.sets)
    new_sets[s - 1] = new_sets[s - 1] - {element}
    new_values = list(f)
    new_values[s - 1] -= 1
    return system.with_sets(new_sets), tuple(new_values)


def drop_first_set(system, values):
    """Restrict a parking function to the family without its first set."""
    f = _checked_function(system, values)
    if system.k < 2:
        raise ValueError("need at least two sets to drop the first one")
    if parking_function_permutation(system, f) is None:
        raise ValueError("values are not a parking function of the system")
    return system.with_sets(system.sets[1:]), f[1:]


def reduce_set(system, elements, element):
    """Shrink a parking set along one privately-owned element.

    ``element`` must belong to exactly one set of the whole family, say
    the s-th.  When it lies outside the parking set, it is deleted from
    that set and the parking set is kept; when it lies inside, the s-th
    set is removed from the family together with the element.  Either
    way the result is a parking set of the reduced system.
    """
    chosen = _checked_set(system, elements)
    if parking_set_permutation(system, chosen) is None:
        raise ValueError("elements are not a parking set of the system")
    s = _owner_index(system, element)
    if element not in chosen:
        new_sets = list(system.sets)
        new_sets[s - 1] = new_sets[s - 1] - {element}
        return system.with_sets(new_sets), chosen
    new_sets = [a for i, a in enumerate(system.sets, start=1) if i != s]
    return system.with_sets(new_sets), chosen - {element}


def delta(elements, element, universe=None):
    """Weight rank of ``element`` inside ``elements``.

    Counts the strictly lighter members; identity weights when no
    universe is supplied.  Ranges over 0..len(elements)-1 and is
    injective on the set.
    """
    chosen = frozenset(elements)
    if element not in chosen:
        raise ValueError(f"element {element} is not a member of the set")
    if universe is None:
        weigh = lambda e: e
    else:
        weigh = universe.weight
    reference = weigh(element)
    return sum(1 for e in chosen if weigh(e) < reference)
