import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparking import (
    ParkingSetCertificate,
    SetSystem,
    Universe,
    delta,
    drop_first_set,
    exactly_one,
    is_parking_function,
    is_parking_set,
    parking_function_permutation,
    parking_set_permutation,
    reduce_function,
    reduce_set,
    rho,
    sigma,
)
from sparking.enumeration import all_set_systems, random_set_system
from sparking.systems import _cached, exactly_one_sets


# --- universes and systems -------------------------------------------------

def test_universe_rejects_duplicate_weights():
    with pytest.raises(ValueError):
        Universe({1: 3, 2: 3})


def test_universe_rejects_bad_ids():
    with pytest.raises(ValueError):
        Universe({0: 1})
    with pytest.raises(ValueError):
        Universe({"a": 1})
    with pytest.raises(ValueError, match="positive integers"):
        Universe({True: 1})                  # bool is not an element id


def test_set_inputs_reject_non_integer_ids(u42_system):
    # True and 1.0 hash like 1, so they would pass for element 1
    for chosen in ({True, 3}, {1.0, 3}):
        for check in (rho, is_parking_set, parking_set_permutation):
            with pytest.raises(ValueError, match="positive integers"):
                check(u42_system, chosen)
        with pytest.raises(ValueError, match="positive integers"):
            reduce_set(u42_system, chosen, 3)


def test_universe_accepts_rationals():
    u = Universe({1: Fraction(1, 2), 2: "1/3", 3: 7})
    assert u.weight(2) == Fraction(1, 3)


def test_integral_weights_are_ints_that_stand_in_for_their_fractions():
    given = {1: 7, 2: Fraction(6, 2), 3: 2.5, 4: True, 5: "-4", 6: Fraction(1, 3)}
    u = Universe(given)
    assert [type(u.weight(e)) for e in sorted(given)] == [int, int, Fraction, int, int, Fraction]
    for e, w in given.items():
        assert u.weight(e) == Fraction(w) and hash(u.weight(e)) == hash(Fraction(w))
    assert u == Universe({e: Fraction(w) for e, w in given.items()})
    assert hash(u) == hash(Universe({e: Fraction(w) for e, w in given.items()}))
    assert u.order == (5, 6, 4, 3, 2, 1)


def test_system_rejects_elements_outside_universe():
    with pytest.raises(ValueError):
        SetSystem([{1, 2}], Universe.identity({1}))


def test_system_warns_on_empty_member():
    with pytest.warns(UserWarning):
        SetSystem([{1}, set()])


def test_cached_properties_compute_once_per_instance_into_the_instance_dict():
    calls = []

    class Box:
        @_cached
        def value(self):
            """The value."""
            calls.append(self)
            return [len(calls)]

    first, second = Box(), Box()
    assert first.value is first.value and first.value == [1]
    assert first.__dict__ == {"value": [1]}
    assert second.value == [2] and calls == [first, second]
    # class access returns the descriptor itself, with its docstring
    assert isinstance(Box.value, _cached) and Box.value.__doc__ == "The value."
    # the library's own: a universe's order, a system's masks and table
    system = SetSystem([{1, 2, 3}, {1, 2, 4}])
    assert system.table is system.table and "table" in vars(system)
    assert system.universe.order is system.universe.order


def test_set_at_is_one_based(u42_system):
    assert u42_system.set_at(1) == {1, 2, 3}
    assert u42_system.set_at(2) == {1, 2, 4}
    with pytest.raises(ValueError):
        u42_system.set_at(0)
    with pytest.raises(ValueError):
        u42_system.set_at(3)


# --- exactly-one -----------------------------------------------------------

def test_exactly_one_u42(u42_system):
    assert exactly_one(u42_system, {1, 2}) == {3, 4}


def test_exactly_one_singleton_is_the_set(u42_system):
    assert exactly_one(u42_system, {1}) == {1, 2, 3}
    assert exactly_one(u42_system, {2}) == {1, 2, 4}


def test_exactly_one_every_element_twice():
    system = SetSystem([{1, 2}, {2, 3}, {1, 3}])
    assert exactly_one(system, {1, 2, 3}) == frozenset()


def test_exactly_one_rejects_empty_index_set(u42_system):
    with pytest.raises(ValueError):
        exactly_one(u42_system, [])
    with pytest.raises(ValueError):
        exactly_one(u42_system, [0, 1])


def test_exactly_one_depends_on_index_set_only(u42_system):
    assert exactly_one(u42_system, [2, 1]) == exactly_one(u42_system, [1, 2])
    assert exactly_one(u42_system, [1, 1, 2]) == exactly_one(u42_system, [1, 2])


@given(st.lists(st.frozensets(st.integers(1, 6), max_size=6), min_size=1, max_size=4),
       st.data())
def test_exactly_one_inside_selected_union(sets, data):
    system = SetSystem(sets) if all(sets) else None
    if system is None:
        return
    indices = data.draw(st.sets(st.integers(1, len(sets)), min_size=1))
    pool = exactly_one(system, indices)
    union = frozenset().union(*(system.set_at(i) for i in indices))
    assert pool <= union


# --- parking-function predicate and certificate -----------------------------

def test_parking_function_u42_table_members(u42_system):
    for values in [(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)]:
        assert is_parking_function(u42_system, values)


def test_parking_function_value_at_set_size_fails(u42_system):
    assert not is_parking_function(u42_system, (3, 0))


def test_parking_function_one_one_fails(u42_system):
    # the pair subfamily has private parts of size one on both sides
    assert not is_parking_function(u42_system, (1, 1))


def test_parking_function_rejects_bad_values(u42_system):
    with pytest.raises(ValueError):
        is_parking_function(u42_system, (0,))
    with pytest.raises(ValueError):
        is_parking_function(u42_system, (0, -1))
    with pytest.raises(ValueError, match="non-negative integers"):
        is_parking_function(u42_system, (True, False))
    with pytest.raises(ValueError, match="non-negative integers"):
        sigma(u42_system, (True, False))


def test_definitional_checks_cap_family_size():
    big = SetSystem([{1}] * 21)
    with pytest.raises(ValueError, match="cap"):
        is_parking_function(big, (0,) * 21)
    with pytest.raises(ValueError, match="cap"):
        is_parking_set(big, set(range(1, 22)))


def test_permutation_u42(u42_system):
    assert parking_function_permutation(u42_system, (1, 0)) == (2, 1)


def test_permutation_singleton():
    system = SetSystem([{5}])
    assert parking_function_permutation(system, (0,)) == (1,)


def test_permutation_absent_for_non_member(u42_system):
    assert parking_function_permutation(u42_system, (2, 2)) is None


def _brute_force_is_parking_function(system, values):
    """Independent oracle: direct quantifier evaluation over subfamilies."""
    k = system.k
    for mask in range(1, 1 << k):
        subset = [i + 1 for i in range(k) if mask >> i & 1]
        pool = exactly_one_sets(system.set_at(i) for i in subset)
        if all(len(system.set_at(i) & pool) <= values[i - 1] for i in subset):
            return False
    return True


def test_characterization_equivalence_exhaustive_small():
    for system in all_set_systems(2, 3, canonical=False):
        boxes = [range(len(a) + 2) for a in system.sets]
        for values in product(*boxes):
            member = _brute_force_is_parking_function(system, values)
            assert is_parking_function(system, values) == member
            assert (parking_function_permutation(system, values) is not None) == member


def test_characterization_equivalence_random():
    rng = random.Random(7)
    for _ in range(150):
        system = random_set_system(rng)
        values = tuple(rng.randint(0, max(len(a), 1)) for a in system.sets)
        member = is_parking_function(system, values)
        pi = parking_function_permutation(system, values)
        assert (pi is not None) == member
        if pi is not None:
            # the certificate inequality holds step by step
            rest = list(pi)
            while rest:
                i = rest[0]
                pool = exactly_one_sets(system.set_at(j) for j in rest)
                assert len(system.set_at(i) & pool) > values[i - 1]
                rest = rest[1:]


@settings(max_examples=60)
@given(st.data())
def test_parking_function_downward_closed(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    system = random_set_system(rng, max_k=3, max_universe=5)
    if not all(system.sets):
        return
    values = tuple(rng.randint(0, len(a) - 1) for a in system.sets)
    if not is_parking_function(system, values):
        return
    lower = tuple(data.draw(st.integers(0, v)) for v in values)
    assert is_parking_function(system, lower)


def _set_level_peel(system, values, within):
    """Reference greedy certificate over frozensets: the smallest
    remaining index whose private part inside ``within`` beats its value."""
    remaining = list(range(1, system.k + 1))
    steps = []
    while remaining:
        pool = exactly_one_sets(system.set_at(i) for i in remaining)
        hits = [(i, system.set_at(i) & pool & within) for i in remaining]
        step = next(((i, hit) for i, hit in hits if len(hit) > values[i - 1]), None)
        if step is None:
            return None
        steps.append(step)
        remaining.remove(step[0])
    return steps


def test_certificates_match_a_set_level_peel():
    # pi and witnesses, not just the verdicts, under two weight orders:
    # every value vector one past each |A_i|, every k-subset plus a stray id
    for base in all_set_systems(3, 4, canonical=False):
        ids = sorted(base.covered)
        for universe in (None, Universe({e: -e for e in ids})):
            system = base if universe is None else SetSystem(base.sets, universe)
            for values in product(*(range(len(a) + 1) for a in system.sets)):
                steps = _set_level_peel(system, values, system.covered)
                assert parking_function_permutation(system, values) == (
                    None if steps is None else tuple(i for i, _ in steps))
            for combo in combinations(ids + [99], system.k):
                steps = _set_level_peel(system, [0] * system.k, frozenset(combo))
                assert parking_set_permutation(system, combo) == (
                    None if steps is None else ParkingSetCertificate(
                        tuple(i for i, _ in steps), tuple(min(hit) for _, hit in steps)))


# --- parking-set predicate and certificate ----------------------------------

def test_parking_set_u42(u42_system):
    assert is_parking_set(u42_system, {1, 3})
    assert not is_parking_set(u42_system, {1, 2})


def test_parking_set_singleton():
    system = SetSystem([{6}])
    assert is_parking_set(system, {6})


def test_parking_set_rejects_wrong_size(u42_system):
    with pytest.raises(ValueError):
        is_parking_set(u42_system, {1})


def test_set_certificate_u42(u42_system):
    cert = parking_set_permutation(u42_system, {1, 3})
    assert cert.pi == (1, 2)
    assert cert.witnesses == (3, 1)


def test_set_certificate_smallest_index_tie_break(u42_system):
    cert = parking_set_permutation(u42_system, {3, 4})
    assert cert.pi[0] == 1


def test_set_certificate_singleton():
    system = SetSystem([{4}])
    cert = parking_set_permutation(system, {4})
    assert cert.pi == (1,)
    assert cert.witnesses == (4,)


def test_set_characterization_equivalence_exhaustive_small():
    from itertools import combinations
    for system in all_set_systems(2, 4, canonical=False):
        elements = sorted(system.covered) + [9]   # include a stray element
        for combo in combinations(elements, system.k):
            member = is_parking_set(system, frozenset(combo))
            cert = parking_set_permutation(system, frozenset(combo))
            assert (cert is not None) == member
            if cert is not None:
                assert len(set(cert.witnesses)) == system.k
                assert set(cert.witnesses) == set(combo)


# --- reductions --------------------------------------------------------------

def test_reduce_function_u42(u42_system):
    reduced, values = reduce_function(u42_system, (1, 0), 3)
    assert reduced.sets == (frozenset({1, 2}), frozenset({1, 2, 4}))
    assert values == (0, 0)
    assert is_parking_function(reduced, values)


def test_reduce_function_zero_value_rejected(u42_system):
    with pytest.raises(ValueError):
        reduce_function(u42_system, (0, 0), 3)


def test_reduce_function_shared_element_rejected(u42_system):
    with pytest.raises(ValueError):
        reduce_function(u42_system, (1, 0), 1)   # element 1 is in both sets


def test_reduce_function_general_set_index(u42_system):
    # the element's owner is the second set, not the first
    reduced, values = reduce_function(u42_system, (0, 1), 4)
    assert reduced.sets == (frozenset({1, 2, 3}), frozenset({1, 2}))
    assert values == (0, 0)
    assert is_parking_function(reduced, values)


def test_reduce_function_singleton_family():
    system = SetSystem([{5, 7}])
    reduced, values = reduce_function(system, (1,), 5)
    assert reduced.sets == (frozenset({7}),)
    assert values == (0,)


def test_drop_first_set(u42_system):
    reduced, values = drop_first_set(u42_system, (0, 0))
    assert reduced.sets == (frozenset({1, 2, 4}),)
    assert values == (0,)
    assert is_parking_function(reduced, values)

    reduced, values = drop_first_set(u42_system, (0, 2))
    assert values == (2,)
    assert is_parking_function(reduced, values)


def test_drop_first_set_needs_two_sets():
    with pytest.raises(ValueError):
        drop_first_set(SetSystem([{1}]), (0,))


def test_reduce_set_outside_element(u42_system):
    reduced, kept = reduce_set(u42_system, {1, 3}, 4)
    assert reduced.sets == (frozenset({1, 2, 3}), frozenset({1, 2}))
    assert kept == {1, 3}
    assert is_parking_set(reduced, kept)


def test_reduce_set_inside_element(u42_system):
    reduced, kept = reduce_set(u42_system, {1, 3}, 3)
    assert reduced.sets == (frozenset({1, 2, 4}),)
    assert kept == {1}
    assert is_parking_set(reduced, kept)


def test_reduce_set_to_empty_family():
    system = SetSystem([{9}])
    reduced, kept = reduce_set(system, {9}, 9)
    assert reduced.k == 0
    assert kept == frozenset()


def test_reduce_set_rejects_shared_element(u42_system):
    with pytest.raises(ValueError):
        reduce_set(u42_system, {1, 3}, 2)


def test_reductions_preserve_membership_randomized():
    from sparking.enumeration import enumerate_parking_functions, enumerate_parking_sets
    rng = random.Random(3)
    for _ in range(80):
        system = random_set_system(rng, max_k=3, max_universe=5)
        pool = exactly_one(system, range(1, system.k + 1)) if system.k else frozenset()
        for values in enumerate_parking_functions(system)[:4]:
            for e in sorted(pool):
                s = next(i for i in range(1, system.k + 1)
                         if e in system.set_at(i))
                if values[s - 1] > 0:
                    reduced, smaller = reduce_function(system, values, e)
                    assert is_parking_function(reduced, smaller)
        for chosen in enumerate_parking_sets(system)[:4]:
            for e in sorted(pool):
                reduced, kept = reduce_set(system, chosen, e)
                if reduced.k:
                    assert is_parking_set(reduced, kept)


# --- delta -------------------------------------------------------------------

def test_delta_examples():
    assert delta({5, 7}, 7) == 1
    assert delta({5, 7}, 5) == 0
    assert delta({1, 2, 3, 4}, 3) == 2


def test_delta_requires_membership():
    with pytest.raises(ValueError):
        delta({5, 7}, 6)


@given(st.frozensets(st.integers(1, 50), min_size=1, max_size=8))
def test_delta_is_a_bijection_identity_weights(elements):
    ranks = {delta(elements, e) for e in elements}
    assert ranks == set(range(len(elements)))


def test_delta_is_a_bijection_shuffled_weights():
    rng = random.Random(11)
    ids = list(range(1, 9))
    weights = ids[:]
    rng.shuffle(weights)
    universe = Universe(dict(zip(ids, weights)))
    ranks = {delta(ids, e, universe) for e in ids}
    assert ranks == set(range(len(ids)))
