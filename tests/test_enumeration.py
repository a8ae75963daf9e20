import os
import random
import signal
import threading
import time
import warnings
from collections import Counter
from fractions import Fraction
from itertools import combinations, islice, permutations, product
from math import comb

import pytest

import sparking.enumeration
import sparking.systems
from sparking import SetSystem, Universe, VerificationError, verify_bijection
from sparking.bijections import sweep, walk
from sparking.enumeration import (
    all_mask_systems,
    all_set_systems,
    box_filter,
    check_roundtrip,
    enumerate_parking_functions,
    enumerate_parking_sets,
    exhaustive_roundtrip_scan,
    mask_families,
    paired_images,
    pool_filter,
    random_set_system,
    system_from_masks,
    table_sets,
    tree_pairs,
)
from sparking.graphs import complete_graph, star_system
from sparking.systems import exactly_one, is_parking_function, is_parking_set, subfamily_table


def test_enumerate_functions_u42(u42_system):
    assert enumerate_parking_functions(u42_system) == [
        (0, 0), (0, 1), (0, 2), (1, 0), (2, 0)]


def test_enumerate_functions_singleton():
    assert enumerate_parking_functions(SetSystem([{9}])) == [(0,)]


def test_enumerate_functions_k3_star_sets():
    system = star_system(complete_graph(3))
    assert len(enumerate_parking_functions(system)) == 3


def test_enumerate_functions_empty_member_warns():
    with pytest.warns(UserWarning):
        system = SetSystem([{1}, set()])
    with pytest.warns(UserWarning):
        assert enumerate_parking_functions(system) == []


def test_enumerate_sets_u42(u42_system):
    assert enumerate_parking_sets(u42_system) == [
        frozenset(s) for s in [{1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}]]


def test_enumerate_sets_singleton():
    assert enumerate_parking_sets(SetSystem([{9}])) == [frozenset({9})]


def test_enumerate_sets_empty_when_nothing_private():
    system = SetSystem([{1, 2}, {2, 3}, {1, 3}])
    assert enumerate_parking_sets(system) == []
    assert enumerate_parking_functions(system) == []


def _check_against_per_candidate_filters(system):
    """Both enumerations equal testing every candidate by the membership
    oracle, and the empty-member warning names the caller's line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        functions = enumerate_parking_functions(system)
    assert [w.filename for w in caught] == ([] if all(system.sets) else [__file__])
    box = product(*(range(len(a)) for a in system.sets))
    assert functions == [f for f in box if is_parking_function(system, f)]
    candidates = map(frozenset, combinations(sorted(system.covered), system.k))
    assert enumerate_parking_sets(system) == [d for d in candidates if is_parking_set(system, d)]


def test_enumerations_equal_the_per_candidate_filters():
    for system in all_set_systems(3, 4, canonical=False):
        _check_against_per_candidate_filters(system)
    rng = random.Random(20)
    for _ in range(300):
        k, m = rng.randint(1, 5), rng.randint(1, 7)
        sets = [{e for e in range(1, m + 1) if rng.random() < 0.6} for _ in range(k)]
        weights = {e: Fraction(n, 7) for e, n in zip(range(1, m + 1), rng.sample(range(1, 100), m))}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            system = SetSystem(sets, Universe(weights))
        _check_against_per_candidate_filters(system)


def test_enumerations_fold_each_subfamily_once(monkeypatch):
    # one exactly-one set per subfamily and call, not one per candidate
    # and subfamily; a membership test stops at its first failing subfamily
    folds = []
    fold = sparking.systems.exactly_one_sets

    def counted(sets):
        folds.append(None)
        return fold(sets)
    monkeypatch.setattr(sparking.systems, "exactly_one_sets", counted)
    system = SetSystem([{1, 2, 3}, {1, 2, 4}, {3, 5}, {4, 5, 6}])
    for enumerate_family in (enumerate_parking_functions, enumerate_parking_sets):
        folds.clear()
        assert len(enumerate_family(system)) > 1
        assert len(folds) == 2 ** 4 - 1
    folds.clear()
    assert not is_parking_function(system, (1, 1, 0, 0))   # fails on {A_1, A_2}
    assert len(folds) == 3


def test_verify_bijection_u42(u42_system):
    report = verify_bijection(u42_system)
    assert report.ok
    assert report.n_functions == report.n_sets == 5
    assert dict(report.pairs) == {
        (0, 0): frozenset({1, 3}),
        (0, 1): frozenset({2, 3}),
        (0, 2): frozenset({3, 4}),
        (1, 0): frozenset({1, 4}),
        (2, 0): frozenset({2, 4}),
    }
    assert report.summary_line() == "|P|=5 |Q|=5 OK"


def test_verify_bijection_singleton():
    report = verify_bijection(SetSystem([{2}]))
    assert report.ok
    assert report.summary_line() == "|P|=1 |Q|=1 OK"


def test_verify_bijection_random_medium():
    rng = random.Random(23)
    for _ in range(25):
        report = verify_bijection(random_set_system(rng, max_k=3, max_universe=6))
        assert report.ok


# --- generators ---------------------------------------------------------------

def test_generator_counts_small():
    # k=1: one covering family per universe size (the full set)
    assert sum(1 for _ in all_mask_systems(1, 3, canonical=False)) == 4
    # k=2, m<=2: 1 + 3 + 9 families
    two = [masks for k, _, masks in all_mask_systems(2, 2, canonical=False) if k == 2]
    assert len(two) == 13


def test_generator_counts_match_the_closed_forms():
    # k-tuples of subsets covering m elements: (2^k - 1)^m in all; the
    # multisets of k subsets covering them by inclusion-exclusion over the
    # i elements left out
    counts = {canonical: Counter((k, m) for k, m, _ in all_mask_systems(4, 5, canonical))
              for canonical in (False, True)}
    for k in range(1, 5):
        for m in range(6):
            assert counts[False][k, m] == ((1 << k) - 1) ** m
            assert counts[True][k, m] == sum((-1) ** i * comb(m, i) * comb((1 << m - i) + k - 1, k)
                                             for i in range(m + 1))
    assert (counts[True].total(), counts[False].total()) == (42614, 833594)


def test_canonical_generator_covers_all_orbits():
    full = {masks for k, _, masks in all_mask_systems(2, 3, canonical=False) if k == 2}
    canon = {masks for k, _, masks in all_mask_systems(2, 3, canonical=True) if k == 2}
    for masks in full:
        assert any(tuple(masks[p[j]] for j in range(2)) in canon
                   for p in permutations(range(2)))
    assert canon <= full
    # the lexicographically smallest relabeling of a family is its sorted
    # order, so the canonical systems are the non-decreasing ones
    canon = list(all_mask_systems(4, 4, canonical=True))
    assert canon == [entry for entry in all_mask_systems(4, 4, canonical=False)
                     if list(entry[2]) == sorted(entry[2])]
    assert len(canon) == 3614 and all(masks == min(permutations(masks)) for _, _, masks in canon)


def test_index_relabeling_is_immaterial():
    # the verified properties do not depend on the order of the family
    rng = random.Random(31)
    for _ in range(20):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            system = random_set_system(rng, max_k=3, max_universe=5)
            perm = list(range(system.k))
            rng.shuffle(perm)
            shuffled = SetSystem([system.sets[j] for j in perm], system.universe)
        a = verify_bijection(system)
        b = verify_bijection(shuffled)
        assert a.ok and b.ok
        assert (a.n_functions, a.n_sets) == (b.n_functions, b.n_sets)
        assert {d for _, d in a.pairs} == {d for _, d in b.pairs}


def test_inert_universe_elements_are_immaterial(u42_system):
    from sparking import Universe
    padded = SetSystem([{1, 2, 3}, {1, 2, 4}],
                       Universe.identity(range(1, 8)))
    a = verify_bijection(u42_system)
    b = verify_bijection(padded)
    assert a.pairs == b.pairs


# --- mask-level families and the shared roundtrip check -----------------------

def _check_mask_system(masks):
    """The scan's mask filters find the definitional families, the
    roundtrip check passes on them, and verify_bijection pairs alike."""
    ps, qs = mask_families(masks)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        system = system_from_masks(masks)
        functions = enumerate_parking_functions(system)
        report = verify_bijection(system)
    universe = system.universe
    assert system.masks == masks         # identity weights: bit b is element b+1
    assert ps == functions
    assert qs == [universe.mask_of(d) for d in enumerate_parking_sets(system)]
    forward, failures = check_roundtrip(masks, ps, qs)
    assert not failures
    assert report.ok
    assert {f: universe.mask_of(d) for f, d in report.pairs} == forward


def test_fast_path_agrees_with_object_path_exhaustively():
    for _, _, masks in all_mask_systems(2, 3, canonical=False):
        _check_mask_system(masks)


def test_fast_path_agrees_on_three_set_samples():
    entries = [entry for entry in all_mask_systems(3, 4, canonical=True)]
    rng = random.Random(1)
    for _, _, masks in rng.sample(entries, 120):
        _check_mask_system(masks)


def test_scan_agrees_with_oracles_on_every_thousandth_system():
    # every 1000th system of the criterion-3 corpus (k <= 3, m <= 6)
    sample = islice(all_mask_systems(3, 6, canonical=False), 999, None, 1000)
    checked = 0
    for _, _, masks in sample:
        _check_mask_system(masks)
        checked += 1
    assert checked == 138


def test_roundtrip_check_reports_failures():
    masks = (0b0111, 0b1011)             # u42: {1,2,3} and {1,2,4}
    ps, qs = mask_families(masks)
    _, failures = check_roundtrip(masks, ps[1:] + [(2, 2)], qs)
    assert failures == ["sigma((2, 2)) = a stall is not a parking set",
                        "rho(0b101) = (0, 0) is not a parking function"]
    ps, qs = mask_families((1, 6))       # {1} and {2,3}: rho stalls on {2,3}
    _, failures = check_roundtrip((1, 6), ps, qs + [0b110])
    assert failures == ["|P|=2 differs from |Q|=3",
                        "rho(0b110) = a stall is not a parking function"]


def test_the_candidate_caps_are_inclusive(monkeypatch):
    # u42: k = 2 sets, C(4, 2) = 6 candidate sets, 3 * 3 = 9 value vectors
    masks = (0b0111, 0b1011)
    families = mask_families(masks)
    monkeypatch.setattr(sparking.systems, "MAX_CHECK_SETS", 2)
    monkeypatch.setattr(sparking.enumeration, "MAX_CHECK_CANDIDATES", 9)
    assert mask_families(masks) == families
    for sets, cap, refusal in ((1, 9, "k=2 sets"), (2, 8, "9 value vectors in the box"),
                               (2, 5, r"C\(4, 2\) = 6 candidate sets")):
        monkeypatch.setattr(sparking.systems, "MAX_CHECK_SETS", sets)
        monkeypatch.setattr(sparking.enumeration, "MAX_CHECK_CANDIDATES", cap)
        with pytest.raises(ValueError, match=f"^too large: {refusal}"):
            mask_families(masks)


def test_scan_small_scale():
    report = exhaustive_roundtrip_scan(2, 4, canonical=False)
    assert report.ok
    assert report.systems == 5 + (1 + 3 + 9 + 27 + 81)   # k=1 coverings + k=2 families


# --- the scan's shares ---------------------------------------------------------

def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("canonical", [False, True])
def test_scan_shares_deal_out_the_generator(canonical, monkeypatch):
    # every system fails, so each share reports the generator index of
    # every system it was dealt, and the masks it checked come in order
    checked = []
    monkeypatch.setattr(sparking.enumeration, "mask_families",
                        lambda masks: checked.append(masks) or ([], []))
    monkeypatch.setattr(sparking.enumeration, "check_roundtrip",
                        lambda masks, ps, qs: (None, ["dealt"]))
    entries = [masks for _, _, masks in all_mask_systems(3, 4, canonical)]
    dealt = []
    for share in range(3):
        del checked[:]
        systems, _, failures = sparking.enumeration._scan_share(3, 4, canonical, share, 3)
        indices = [index for index, _ in failures]
        assert indices == list(range(share, len(entries), 3))
        assert checked == [entries[index] for index in indices] and systems == len(indices)
        dealt += indices
    assert sorted(dealt) == list(range(len(entries)))


@pytest.mark.parametrize("scan", [(2, 4, False), (3, 5, False), (3, 5, True), (4, 4, True)],
                         ids=["2-4", "3-5", "3-5-canonical", "4-4-canonical"])
def test_scan_forked_equals_one_share(scan, monkeypatch):
    _cpus(monkeypatch, 3)
    forked = exhaustive_roundtrip_scan(*scan)
    _cpus(monkeypatch, 1)
    alone = exhaustive_roundtrip_scan(*scan)
    assert (forked.shares, alone.shares) == (3, 1)
    assert forked.ok and alone.ok
    assert (forked.systems, forked.members, forked.failures) == (
        alone.systems, alone.members, alone.failures)
    _no_child_left()


def test_scan_forked_reports_failures_in_generator_order(monkeypatch):
    def fake_check(masks, ps, qs):
        return None, [f"fake {len(ps)}"] if masks[0] % 3 else []

    monkeypatch.setattr(sparking.enumeration, "check_roundtrip", fake_check)
    expected = [f"system {masks}: ['fake {len(mask_families(masks)[0])}']"
                for _, _, masks in all_mask_systems(2, 4, canonical=False) if masks[0] % 3]
    reports = []
    for cpus in (3, 1):
        _cpus(monkeypatch, cpus)
        reports.append(exhaustive_roundtrip_scan(2, 4, canonical=False))
    assert [report.shares for report in reports] == [3, 1]
    assert reports[0].failures == reports[1].failures == expected
    _no_child_left()


def _failing_at(monkeypatch, index, error):
    """Make the roundtrip check end the process or raise ``error`` on the
    system at generator ``index`` of the (2, 4, non-canonical) scan."""
    target = list(all_mask_systems(2, 4, canonical=False))[index][2]
    caller = os.getpid()

    def check(masks, ps, qs):
        if masks == target:
            if error is None:
                # only a child may be killed: the caller is the test run
                assert os.getpid() != caller, "the share ran in the calling process"
                os.kill(os.getpid(), signal.SIGKILL)
            raise error
        return check_roundtrip(masks, ps, qs)

    monkeypatch.setattr(sparking.enumeration, "check_roundtrip", check)
    _cpus(monkeypatch, 3)


def test_scan_fails_when_a_child_raises(monkeypatch):
    _failing_at(monkeypatch, 4, ValueError("boom"))    # share 1 of 3
    with pytest.raises(RuntimeError, match=r"share 1 of 3 failed in its child: ValueError\('boom'\)"):
        exhaustive_roundtrip_scan(2, 4, canonical=False)
    _no_child_left()


def test_scan_fails_when_a_child_dies(monkeypatch):
    _failing_at(monkeypatch, 5, None)                  # share 2 of 3, killed
    with pytest.raises(RuntimeError, match="share 2 of 3 failed in its child: wait status 9"):
        exhaustive_roundtrip_scan(2, 4, canonical=False)
    _no_child_left()


@pytest.mark.parametrize("error", [ValueError("boom"), KeyboardInterrupt()],
                         ids=["ValueError", "KeyboardInterrupt"])
def test_scan_ends_every_child_when_its_own_share_fails(error, monkeypatch):
    _failing_at(monkeypatch, 0, error)                 # share 0, in this process
    with pytest.raises(type(error)):
        exhaustive_roundtrip_scan(2, 4, canonical=False)
    _no_child_left()


def test_scan_on_one_cpu_runs_in_process(monkeypatch):
    expected = exhaustive_roundtrip_scan(3, 4, canonical=True)

    def no_fork():
        raise AssertionError("forked with one CPU")

    _cpus(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", no_fork)
    report = exhaustive_roundtrip_scan(3, 4, canonical=True)
    assert report.shares == 1
    assert (report.systems, report.members, report.failures) == (
        expected.systems, expected.members, expected.failures)


# --- the share runner ----------------------------------------------------------

def _whose(share, shares):
    return share, shares, os.getpid()


def test_shares_come_back_in_share_order_with_share_0_in_process(monkeypatch):
    _cpus(monkeypatch, 3)
    results = sparking.enumeration._run_shares(_whose)
    assert [result[:2] for result in results] == [(0, 3), (1, 3), (2, 3)]
    pids = [result[2] for result in results]
    assert pids[0] == os.getpid() and len(set(pids)) == 3
    _no_child_left()


def test_shares_on_one_cpu_never_fork(monkeypatch):
    def no_fork():
        raise AssertionError("forked with one CPU")

    _cpus(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", no_fork)
    assert sparking.enumeration._run_shares(_whose) == [(0, 1, os.getpid())]


def test_shares_run_in_process_while_a_second_thread_runs(monkeypatch):
    # a forked child would get only the forking thread
    def no_fork():
        raise AssertionError("forked with a second thread running")

    _cpus(monkeypatch, 3)
    monkeypatch.setattr(os, "fork", no_fork)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        assert sparking.enumeration._run_shares(_whose) == [(0, 1, os.getpid())]
    finally:
        done.set()
        thread.join()


def test_shares_fail_when_a_child_exits_non_zero_after_a_whole_result(monkeypatch):
    real_exit = os._exit
    monkeypatch.setattr(os, "_exit", lambda status: real_exit(3))   # only the children call it
    _cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="share 1 of 2 failed in its child: wait status 768"):
        sparking.enumeration._run_shares(_whose)
    _no_child_left()


def test_shares_fail_when_a_child_sends_a_short_result(monkeypatch):
    dumps = sparking.enumeration.marshal.dumps
    monkeypatch.setattr(sparking.enumeration.marshal, "dumps", lambda value: dumps(value)[:-1])
    _cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="share 1 of 2 failed in its child: wait status 0"):
        sparking.enumeration._run_shares(_whose)
    _no_child_left()


def test_shares_kill_the_children_when_share_0_fails(monkeypatch, tmp_path):
    # a child left to run would leave its file behind before it is reaped
    def work(share, shares):
        if share == 0:
            raise ValueError("boom")
        time.sleep(2)
        (tmp_path / str(share)).touch()

    _cpus(monkeypatch, 3)
    with pytest.raises(ValueError, match="boom"):
        sparking.enumeration._run_shares(work)
    _no_child_left()
    assert not list(tmp_path.iterdir())


# --- the subfamily table against the definitional oracles ---------------------

def _reweighted(system, weights):
    ids = sorted(system.covered)
    return SetSystem(system.sets, Universe(dict(zip(ids, weights))))


def _check_table(system):
    """Both filters over the table give the oracles' lists, in order, and
    the table path warns exactly when the oracle does."""
    with warnings.catch_warnings(record=True) as oracle_warnings:
        warnings.simplefilter("always")
        functions = enumerate_parking_functions(system)
        sets_ = enumerate_parking_sets(system)
    with warnings.catch_warnings(record=True) as table_warnings:
        warnings.simplefilter("always")
        assert [f for f, _ in tree_pairs(system)] == functions
        found = table_sets(system)
    assert ([str(w.message) for w in table_warnings]
            == [str(w.message) for w in oracle_warnings])
    assert found == pool_filter(system.masks, system.table)
    assert sorted(map(system.universe.elements_of, found), key=sorted) == sets_
    assert mask_families(system.masks) == (functions, found)
    _check_table_order(system)


def _check_table_order(system):
    """Entry imask - 1 of the table is the exactly-one pool of the
    subfamily whose member bits are set in imask."""
    assert len(system.table) == 2 ** system.k - 1
    for imask, pool in enumerate(system.table, 1):
        indices = [j + 1 for j in range(system.k) if imask >> j & 1]
        assert pool == system.universe.mask_of(exactly_one(system, indices))


def test_table_agrees_with_oracles_on_every_small_system():
    rng = random.Random(7)
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for system in all_set_systems(3, 4, canonical=False):
            _check_table(system)
            checked += 1
            if checked % 5 == 0 and system.covered:
                m = len(system.covered)
                shuffled = list(range(1, m + 1))
                rng.shuffle(shuffled)
                _check_table(_reweighted(system, shuffled))
                _check_table(_reweighted(system, [Fraction(rng.randint(-50, 50), rng.randint(1, 9))
                                                  + Fraction(i, 1000) for i in range(m)]))
    assert checked == 5 + 121 + 2801


def _seeded_system(rng):
    """k = 0..4 sets over 1..m, with 0-2 elements no set covers, an empty
    member now and then, and identity, shuffled or Fraction weights."""
    k, m = rng.randint(0, 4), rng.randint(0, 6)
    sets = [{e for e in range(1, m + 1) if rng.random() < 0.6} for _ in range(k)]
    if sets and rng.random() < 0.1:
        sets[rng.randrange(k)] = set()
    ids = list(range(1, m + rng.randint(0, 2) + 1))
    kind = rng.randrange(3)
    if kind == 0:
        weights = ids
    elif kind == 1:
        weights = rng.sample(ids, len(ids))
    else:
        weights = [Fraction(n, 7) for n in rng.sample(range(-60, 60), len(ids))]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return SetSystem(sets, Universe(dict(zip(ids, weights))))


def test_table_agrees_with_oracles_on_seeded_systems():
    # the edge cases the exhaustive corpus lacks: k = 0, empty members and
    # universe elements that no set covers
    rng = random.Random(11)
    seen = {"empty member": 0, "k = 0": 0, "inert": 0}
    for _ in range(2000):
        system = _seeded_system(rng)
        _check_table(system)
        seen["empty member"] += not all(system.sets)
        seen["k = 0"] += system.k == 0
        seen["inert"] += len(system.universe) > len(system.covered)
    assert all(seen.values())


def test_table_sets_over_the_minimal_pools_equal_the_filter_over_all_pools():
    # the triangles through vertex 0 of K6: 197 of the 1,023 pools are
    # minimal, and the 1,296 parking sets are the complements of the trees
    k6 = complete_graph(6)
    edge = {(u, v): e for e, u, v in k6.edges}
    system = SetSystem([{edge[0, i], edge[0, j], edge[i, j]}
                        for i, j in combinations(range(1, 6), 2)])
    assert (len(system.table), len(system.pools)) == (1023, 197)
    found = table_sets(system)
    assert len(found) == 1296 and found == pool_filter(system.masks, system.table)


def test_table_lists_subsets_in_bitmask_order():
    table = subfamily_table((0b0111, 0b1011))          # u42: {1,2,3} and {1,2,4}
    assert table == [0b0111, 0b1011, 0b1100]
    system = SetSystem([{1, 2, 3}, {1, 2, 4}])
    assert system.table == table
    assert list(map(system.universe.elements_of, system.table)) == [
        frozenset({1, 2, 3}), frozenset({1, 2, 4}), frozenset({3, 4})]


def test_table_order_on_seeded_systems_with_four_to_six_sets():
    rng = random.Random(9)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for k in (4, 5, 6):
            for _ in range(20):
                m = rng.randint(1, 9)
                sets = [{e for e in range(1, m + 1) if rng.random() < 0.5} for _ in range(k)]
                weights = list(range(1, m + 1))
                rng.shuffle(weights)
                _check_table_order(SetSystem(sets, Universe(dict(zip(range(1, m + 1), weights)))))


def test_table_refuses_beyond_the_cap():
    with pytest.raises(ValueError, match="cap"):
        subfamily_table((1,) * 21)
    with pytest.raises(ValueError, match="cap"):
        table_sets(SetSystem([{1}] * 21))


def test_box_filter_keeps_lexicographic_order():
    # f[0] < 1 or f[1] < 2, over the box 0..2 x 0..2
    assert box_filter([range(3), range(3)], [[(0, 1), (1, 2)]]) == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0), (2, 1)]
    assert box_filter([], []) == [()]


def _box_filter_by_cell(boxes, thresholds):
    """The per-cell loop ``box_filter`` replaced, kept as its reference."""
    found = []
    for f in product(*boxes):
        for pairs in thresholds:
            for j, t in pairs:
                if f[j] < t:
                    break
            else:
                break
        else:
            found.append(f)
    return found


def test_box_filter_agrees_with_the_per_cell_loop():
    rng = random.Random(10)
    for _ in range(400):
        sizes = [rng.randint(0, 4) for _ in range(rng.randint(0, 5))]
        boxes = [range(c) for c in sizes]
        thresholds = []
        for _ in range(rng.randint(0, 4)):
            dims = rng.sample(range(len(sizes)), rng.randint(0, len(sizes)))
            thresholds.append([(j, rng.choice([0, sizes[j], rng.randint(0, sizes[j])]))
                               for j in dims])
        for case in (thresholds, []):
            assert box_filter(boxes, case) == _box_filter_by_cell(boxes, case)


@pytest.mark.parametrize("masks", [(0b011, 0b011), (0b1, 0), (0b0111, 0b1011, 0b1100)],
                         ids=["twins", "empty-member", "u42-and-its-pool"])
def test_mask_families_skip_both_filters_when_a_pool_is_empty(masks, monkeypatch):
    def refuse(*_):
        raise AssertionError("filtered a family with an empty pool")
    monkeypatch.setattr(sparking.enumeration, "box_filter", refuse)
    monkeypatch.setattr(sparking.enumeration, "pool_filter", refuse)
    assert 0 in subfamily_table(masks)
    assert mask_families(masks) == ([], [])


def test_mask_families_are_empty_exactly_when_a_pool_is():
    for _, _, masks in all_mask_systems(3, 4, canonical=False):
        assert (mask_families(masks) == ([], [])) == (0 in subfamily_table(masks))


# --- the sweep tree -----------------------------------------------------------

def _table_pairs(system):
    """The pairs as the subfamily table gives them: each parking function
    in box order with the mask of its sweep."""
    masks = system.masks
    return [(f, sweep(masks, f)[1]) for f in mask_families(masks)[0]]


def test_walk_leaves_equal_the_table_families():
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _, _, masks in all_mask_systems(3, 5, canonical=False):
            ps, qs = mask_families(masks)
            pairs = [(f, sweep(masks, f)[1]) for f in ps]
            assert walk(masks) == pairs
            # every element is covered, so the object form has these masks
            system = system_from_masks(masks)
            assert system.masks == masks
            elements_of = system.universe.elements_of
            assert paired_images(system, qs) == [
                (f, elements_of(d)) for f, d in pairs]
            checked += 1
    assert checked == 19978


@pytest.mark.parametrize("n", range(3, 8))
def test_walk_pairs_the_star_systems_like_the_table(n):
    system = star_system(complete_graph(n))
    pairs = _table_pairs(system)
    assert walk(system.masks) == pairs
    assert len(pairs) == n ** (n - 2)
    elements_of = system.universe.elements_of
    trees = [d for _, d in pairs]
    assert paired_images(system, trees) == [(f, elements_of(d)) for f, d in pairs]


def test_paired_images_certify_every_leaf(monkeypatch):
    # a leaf the peel rejects, (2, 2) on u42, stops the pairing
    system = SetSystem([{1, 2, 3}, {1, 2, 4}])
    leaves = walk(system.masks)
    monkeypatch.setattr(sparking.enumeration, "walk",
                        lambda masks: leaves + [((2, 2), 0b1100)])
    with pytest.raises(VerificationError, match="not a parking function"):
        paired_images(system, [])


def test_walk_has_no_subset_cap():
    # the table refuses k = 21; the tree of 21 disjoint pairs has 2^21
    # leaves, so a path of 21 overlapping pairs stands in: k + 1 leaves
    masks = tuple(0b11 << j for j in range(21))
    leaves = walk(masks)
    assert len(leaves) == 22
    assert all(sweep(masks, f) == (list(f), d) for f, d in leaves)
    # and at k = 0 the one run completes at once, deleting and fixing nothing
    assert walk(()) == [((), 0)]
    assert sweep((), ()) == ([], 0)
