import random
from fractions import Fraction
from itertools import chain, combinations, product

import pytest

import sparking.bijections
from sparking import (
    SetSystem,
    Universe,
    VerificationError,
    complete_graph,
    drop_first_set,
    is_parking_function,
    is_parking_set,
    reduce_set,
    rho,
    sigma,
    star_system,
)
from sparking.bijections import sweep
from sparking.enumeration import (
    all_mask_systems,
    all_set_systems,
    enumerate_parking_functions,
    enumerate_parking_sets,
    mask_families,
    random_set_system,
    tree_pairs,
)
from sparking.systems import ParkingSetCertificate, exactly_one_sets


# --- mapped values from the worked example ------------------------------------

def test_sigma_u42_table(u42_system):
    expected = {
        (0, 0): {1, 3},
        (0, 1): {2, 3},
        (0, 2): {3, 4},
        (1, 0): {1, 4},
        (2, 0): {2, 4},
    }
    for values, image in expected.items():
        assert sigma(u42_system, values)[0] == image


def test_rho_u42(u42_system):
    assert rho(u42_system, {1, 3})[0] == (0, 0)
    assert rho(u42_system, {2, 3})[0] == (0, 1)


def test_rho_singleton_family():
    system = SetSystem([{5, 7}])
    values, trace = rho(system, {7})
    assert values == (1,)
    assert trace.lines() == ["DEL 1 1 5", "FIX 2 1 7"]


def test_inputs_validated_eagerly(u42_system):
    with pytest.raises(ValueError, match="not a parking set"):
        rho(u42_system, {1, 2})
    with pytest.raises(ValueError, match="not a parking function"):
        sigma(u42_system, (2, 2))
    with pytest.raises(ValueError):
        sigma(u42_system, (0,))


def test_trusted_mode_detects_stall(u42_system, monkeypatch):
    # with the membership certificate trusted even when it wrongly accepts,
    # the sweep still stalls: (2, 2) drains both working sets down to a
    # shared pair, whose exactly-one pool is empty; that contradicts the
    # theorem
    monkeypatch.setattr(sparking.bijections, "parking_function_permutation",
                        lambda system, values: (1, 2))
    monkeypatch.setattr(sparking.bijections, "parking_set_permutation",
                        lambda system, elements: ParkingSetCertificate((1, 2), (1, 2)))
    with pytest.raises(VerificationError, match="emptied mid-run"):
        sigma(u42_system, (2, 2))
    with pytest.raises(VerificationError, match="emptied mid-run"):
        rho(u42_system, {1, 2})


def _accepts(mapping, system, argument):
    """Whether ``mapping`` takes ``argument``; a refusal must be the
    membership ValueError, anything else propagates."""
    try:
        mapping(system, argument)
    except ValueError as exc:
        assert "is not a parking" in str(exc)
        return False
    return True


def test_validation_agrees_with_the_oracles():
    # the certificates decide membership; the box runs one past each
    # set size and the candidate sets take in one stray id
    for system in chain(all_set_systems(2, 4, canonical=False), all_set_systems(3, 3)):
        for values in product(*(range(len(a) + 1) for a in system.sets)):
            assert _accepts(sigma, system, values) == is_parking_function(system, values)
        stray = max(system.covered, default=0) + 1
        for chosen in combinations(sorted(system.covered) + [stray], system.k):
            assert _accepts(rho, system, chosen) == is_parking_set(system, chosen)


def test_maps_run_past_the_oracle_cap():
    system = star_system(complete_graph(22))       # k = 21 star sets
    values = tuple(range(20, -1, -1))              # a classic parking function
    with pytest.raises(ValueError, match="cap"):
        is_parking_function(system, values)
    image, _ = sigma(system, values)
    assert rho(system, image)[0] == values
    assert sigma(system, rho(system, image)[0])[0] == image
    reduced, rest = drop_first_set(system, values)
    assert reduced.k == 20 and rest == values[1:]
    assert reduce_set(system, image, 1)[1] == image - {1}   # edge 1 = 01, private
    with pytest.raises(ValueError, match="not a parking function"):
        sigma(system, (1,) * 21)


# --- trace contracts -----------------------------------------------------------

def _replay(system, trace):
    """Re-execute the recorded events, checking each touched element is
    the lightest of the recomputed exactly-one pool of the active sets."""
    working = {j: set(system.set_at(j)) for j in range(1, system.k + 1)}
    active = list(range(1, system.k + 1))
    events = trace.events()
    assert [step for _, step, _, _ in events] == list(range(1, len(events) + 1))
    for kind, _, index, element in events:
        pool = exactly_one_sets(working[j] for j in active)
        assert element == min(pool, key=system.weight)
        assert element in working[index]
        assert all(element not in working[j] for j in active if j != index)
        if kind == "DEL":
            working[index].remove(element)
        else:
            active.remove(index)
    assert not active


def test_trace_replays_u42(u42_system):
    for values in enumerate_parking_functions(u42_system):
        image, trace = sigma(u42_system, values)
        _replay(u42_system, trace)
        assert frozenset(trace.chosen) == image
        assert trace.pi and len(trace.pi) == u42_system.k
    for chosen in enumerate_parking_sets(u42_system):
        values, trace = rho(u42_system, chosen)
        _replay(u42_system, trace)
        assert frozenset(trace.chosen) == chosen


def _families():
    yield SetSystem([{1, 2, 3}, {2, 4}, {3, 4, 5}],
                    Universe({1: 3, 2: 5, 3: 1, 4: 4, 5: 2}))
    yield SetSystem([{1, 2, 3, 5}, {2, 4}, {1, 4, 5}],
                    Universe({1: Fraction(1, 2), 2: -3, 3: Fraction(7, 3),
                              4: Fraction(-1, 7), 5: 0}))
    yield SetSystem([{1, 2}, {2, 3, 4}, {1, 4, 5}],
                    Universe({1: -2, 2: 5, 3: -7, 4: Fraction(1, 2), 5: -1}))
    yield SetSystem([])
    rng = random.Random(11)
    for _ in range(20):
        yield random_set_system(rng, shuffled_weights=True)


def test_trace_replays_for_every_weight_order():
    # the replay recomputes every step from exactly_one_sets and the
    # weights, so it pins the universe's bit order to the definition
    for system in _families():
        for values in enumerate_parking_functions(system):
            image, trace = sigma(system, values)
            _replay(system, trace)
            assert frozenset(trace.chosen) == image
        for chosen in enumerate_parking_sets(system):
            values, trace = rho(system, chosen)
            _replay(system, trace)
            assert frozenset(trace.chosen) == chosen


def test_empty_member_stalls_both_maps():
    with pytest.warns(UserWarning):
        system = SetSystem([{1, 2}, set()])
    assert enumerate_parking_sets(system) == []
    for values in [(0, 0), (1, 0)]:
        with pytest.raises(ValueError):
            sigma(system, values)
    for chosen in combinations([1, 2], 2):
        with pytest.raises(ValueError):
            rho(system, chosen)


def test_trace_contracts_randomized():
    rng = random.Random(5)
    checked = 0
    while checked < 60:
        system = random_set_system(rng)
        members = enumerate_parking_functions(system)
        if not members:
            continue
        values = rng.choice(members)
        image, trace = sigma(system, values)
        _replay(system, trace)
        deleted = {e for _, _, e in trace.deletions}
        assert deleted.isdisjoint(trace.chosen)
        assert len(set(trace.chosen)) == system.k
        # termination bound: every step deletes an element or retires a set
        assert len(trace.events()) <= len(system.covered) + system.k
        back, back_trace = rho(system, image)
        _replay(system, back_trace)
        assert back == values
        checked += 1


# --- roundtrips -----------------------------------------------------------------

def _check_roundtrip(system):
    functions = enumerate_parking_functions(system)
    sets_ = enumerate_parking_sets(system)
    assert len(functions) == len(sets_)
    images = set()
    for values in functions:
        image, _ = sigma(system, values)
        assert image in set(sets_)
        assert rho(system, image)[0] == values
        images.add(image)
    assert images == set(sets_)
    for chosen in sets_:
        values, _ = rho(system, chosen)
        assert sigma(system, values)[0] == chosen


def test_roundtrip_exhaustive_small():
    for system in all_set_systems(2, 4, canonical=False):
        _check_roundtrip(system)


def test_roundtrip_three_sets_selection():
    for system in all_set_systems(3, 3, canonical=True):
        _check_roundtrip(system)


def test_roundtrip_with_shuffled_weights():
    rng = random.Random(17)
    for _ in range(60):
        system = random_set_system(rng, shuffled_weights=True)
        _check_roundtrip(system)


def test_roundtrip_with_rational_weights():
    universe = Universe({1: Fraction(5, 2), 2: Fraction(-1, 3),
                         3: Fraction(1, 7), 4: 4})
    system = SetSystem([{1, 2, 3}, {1, 2, 4}], universe)
    _check_roundtrip(system)


def test_weight_choice_changes_the_pairing(u42_system):
    # reversed weights pair the all-zero function with a different set;
    # the mappings stay mutually inverse either way
    reversed_universe = Universe({1: 4, 2: 3, 3: 2, 4: 1})
    system = SetSystem([{1, 2, 3}, {1, 2, 4}], reversed_universe)
    _check_roundtrip(system)
    assert sigma(system, (0, 0))[0] != sigma(u42_system, (0, 0))[0]


def test_empty_family_roundtrip():
    system = SetSystem([{3}]).with_sets([])
    assert enumerate_parking_functions(system) == [()]
    assert enumerate_parking_sets(system) == [frozenset()]
    assert rho(system, frozenset())[0] == ()
    assert sigma(system, ())[0] == frozenset()


# --- the sweep against its refold-every-step form ------------------------------

def _sweep_refolding(masks, budget, fixed=0, events=None):
    """``sweep`` as it was before deletions stopped refolding the pool:
    the exactly-one pool is folded again before every step."""
    working = list(masks)
    used = [0] * len(masks)
    active = list(range(len(masks)))
    chosen = 0
    while active:
        once = twice = 0
        for j in active:
            a = working[j]
            twice |= once & a
            once |= a
        pool = once & ~twice
        if not pool:
            return None
        e = pool & -pool
        for j in active:
            if working[j] & e:
                break
        if e & fixed or used[j] == budget[j]:
            chosen |= e
            active.remove(j)
            kind = "FIX"
        else:
            working[j] ^= e
            used[j] += 1
            kind = "DEL"
        if events is not None:
            events.append((kind, j, e))
    return used, chosen


def _check_sweep_against_refolding(masks):
    """Every budget of the value box widened by one, which includes
    stalls and spent-over budgets, and every parking set as the fixed
    bits under the full budget (the ``rho`` path)."""
    cap = [a.bit_count() for a in masks]
    runs = [(budget, 0) for budget in product(*(range(c + 1) for c in cap))]
    runs += [(cap, d) for d in mask_families(masks)[1]]
    for budget, fixed in runs:
        events, reference = [], []
        assert ((sweep(masks, budget, fixed, events), events)
                == (_sweep_refolding(masks, budget, fixed, reference), reference))


def test_sweep_agrees_with_the_refolding_sweep_on_every_small_system():
    checked = 0
    for _, _, masks in all_mask_systems(3, 4, canonical=False):
        _check_sweep_against_refolding(masks)
        checked += 1
    assert checked == 5 + 121 + 2801


@pytest.mark.parametrize("n", range(3, 7))
def test_sweep_agrees_with_the_refolding_sweep_on_the_star_systems(n):
    _check_sweep_against_refolding(star_system(complete_graph(n)).masks)


def test_uncovered_universe_elements_change_no_sweep():
    # the universe's bits run over all of it: the uncovered elements
    # 1, 3, 5 and 7 get bits that no member mask holds, and sigma, rho and
    # their traces are those of the system over the covered elements alone
    universe = Universe({e: 10 - e for e in range(1, 10)})
    system = SetSystem([{2, 4}, {6, 8}, {2, 6, 9}], universe)
    assert universe.order == (9, 8, 7, 6, 5, 4, 3, 2, 1)
    held = 0
    for mask in system.masks:
        held |= mask
    assert held == universe.mask_of(system.covered)
    assert all(universe.bit[e] & ~held for e in (1, 3, 5, 7))
    narrow = SetSystem(system.sets, Universe({e: 10 - e for e in system.covered}))
    pairs = tree_pairs(system)
    assert len(pairs) == 8 and [f for f, _ in pairs] == [f for f, _ in tree_pairs(narrow)]
    for f, d in pairs:
        image, trace = sigma(system, f)
        assert image == universe.elements_of(d)
        assert (image, trace) == sigma(narrow, f)
        counters, back = rho(system, image)
        assert counters == f and (counters, back) == rho(narrow, image)
