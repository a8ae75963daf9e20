"""Enumeration of parking functions and parking sets, and the checks
that the two mappings are inverse bijections between them.

``tree_pairs`` gives a system's parking functions, in lexicographic
order, together with their ``sigma`` images, off the sweep tree
(``bijections.walk``), and certifies each by the greedy peel;
``paired_images`` pairs them for the matroid and graph bijections and
checks the image masks against a target family of masks, and
``enumerate`` lists them.  The subfamily table
(``systems.subfamily_table``; ``SetSystem.table`` for a system) holds
each subset's exactly-one pool mask.  ``pool_filter`` keeps the
k-subsets that meet every pool (Q); ``table_sets`` gives a system's
parking sets that way, as masks, over its minimal pools.  ``mask_families``
gives both families of a bare bitmask family: it alone derives each
subset's private-part thresholds (j, |A_j ∩ pool|), for ``box_filter`` to
keep the value vectors that beat one threshold of every subset (P).  The box
is one bitset with a bit per value vector, in lexicographic order, and
each subset clears the vectors that beat none of its thresholds with a
few big-integer operations.  ``enumerate_parking_functions`` and
``enumerate_parking_sets`` are the oracles, by definition and without
masks: each folds the exactly-one set of all 2^k - 1 subfamilies once
(``systems._subfamily_pools``), then keeps the value vectors that beat a
private size of every subfamily and the k-subsets that meet every pool.
Two rules skip work that cannot reject anything: the value oracle drops
each subfamily with a member wholly private to it, which every vector
of the box beats, and ``mask_families`` returns both families empty,
unfiltered, when some pool is empty.  ``verify_bijection`` and the tests
use the oracles.  ``_candidate_budget`` refuses as too large, before any
table is built or any candidate tried, k beyond ``MAX_CHECK_SETS`` and
more than ``MAX_CHECK_CANDIDATES`` candidate sets or value vectors;
``table_sets``, ``mask_families`` and ``verify_bijection`` call it first,
and ``verify_bijection`` also caps the oracles' candidate-subfamily pairs.
``_box_budget`` is its value-box cap alone, which ``sparking enumerate``
applies before the sweep tree lists the parking functions.

``check_roundtrip`` is the one roundtrip check: it runs the shared sweep
on both families in bitmask form.  ``verify_bijection`` feeds it the
definitional families of one system; ``exhaustive_roundtrip_scan`` feeds
it the table's families of every small system of a generator, dealt
round-robin, by position in the generator, into the shares of
``_run_shares``, the one share runner: one share per CPU of the process's
affinity mask, the first run in process and each other one in a forked
child, which sends back its result through a pipe with ``marshal``.
"""

import marshal
import os
import sys
import warnings
from functools import reduce
from itertools import combinations, combinations_with_replacement, compress, islice, product
from math import comb, prod
from operator import or_

from .bijections import sweep, walk
from .systems import (
    MAX_CHECK_CANDIDATES,
    VerificationError,
    _EMPTY_MEMBER,
    _peel,
    _subset_budget,
    _subfamily_pools,
    _system_over,
    subfamily_table,
)

# The oracles test each candidate against up to 2^k subfamilies;
# ``verify_bijection`` refuses more candidate-subfamily pairs than this.
MAX_ORACLE_PAIRS = 10 ** 8


def _empty_member(family):
    """Whether some member of ``family`` (sets or masks) is empty, so that
    no parking function exists; warns so, at the caller's caller."""
    if all(family):
        return False
    warnings.warn(_EMPTY_MEMBER, stacklevel=3)
    return True


def enumerate_parking_functions(system):
    """All parking functions, in lexicographic order of value vectors.

    The search box 0 <= values[i-1] <= |A_i| - 1 is complete: any larger
    entry already fails on the singleton subfamily.  Each subfamily's
    private sizes (j, |A_j ∩ pool|) are taken once, and a vector is kept
    when it beats one of them in every subfamily.  A subfamily with a
    member whose whole set is private to it, every singleton among them,
    is beaten by every vector of the box, so only the others are tested.
    Returns [] with a warning when some family member is empty.
    """
    sets = system.sets
    if _empty_member(sets):
        return []
    private = []
    for indices, pool in _subfamily_pools(system):
        sizes = [(j, len(sets[j] & pool)) for j in indices]
        if all(size < len(sets[j]) for j, size in sizes):
            private.append(sizes)
    return [f for f in product(*(range(len(a)) for a in sets))
            if all(any(f[j] < size for j, size in sizes) for sizes in private)]


def enumerate_parking_sets(system):
    """All parking sets, sorted by their sorted element tuples: the
    k-subsets of the covered elements that meet the exactly-one set of
    every subfamily, each of those sets folded once."""
    pools = [pool for _, pool in _subfamily_pools(system)]
    candidates = map(frozenset, combinations(sorted(system.covered), system.k))
    return [d for d in candidates if all(not d.isdisjoint(pool) for pool in pools)]


class VerificationReport:
    """Outcome of a full bijection check over one system; ``pairs`` holds
    (function values, mapped parking set) pairs."""

    def __init__(self, functions, sets, pairs, failures):
        self.functions, self.sets, self.pairs, self.failures = functions, sets, pairs, failures

    @property
    def n_functions(self):
        return len(self.functions)

    @property
    def n_sets(self):
        return len(self.sets)

    @property
    def counts_equal(self):
        return self.n_functions == self.n_sets

    @property
    def ok(self):
        return self.counts_equal and not self.failures

    def summary_line(self):
        verdict = "OK" if self.ok else "FAIL"
        return f"|P|={self.n_functions} |Q|={self.n_sets} {verdict}"

    def to_jsonable(self):
        return {
            "functions": [list(f) for f in self.functions],
            "sets": [sorted(d) for d in self.sets],
            "pairs": [[list(f), sorted(d)] for f, d in self.pairs],
            "failures": list(self.failures),
            "ok": self.ok,
        }


def verify_bijection(system):
    """Enumerate both families and check the two mappings are mutually
    inverse between them; failures are report content.  Refuses by
    ``_candidate_budget``, and more than ``MAX_ORACLE_PAIRS`` box cells or
    candidate sets times 2^k subfamilies, before it enumerates anything."""
    k, covered, cells = system.k, len(system.covered), prod(map(len, system.sets))
    _candidate_budget(k, covered, cells)
    for count, what in ((cells, "value vectors"), (comb(covered, k), "candidate sets")):
        if count << k > MAX_ORACLE_PAIRS:
            raise ValueError(
                f"too large: {count} {what} times 2^{k} subfamilies; checking them by "
                f"definition is capped at {MAX_ORACLE_PAIRS} pairs")
    functions = enumerate_parking_functions(system)
    sets_ = enumerate_parking_sets(system)
    universe = system.universe
    forward, failures = check_roundtrip(
        system.masks, functions, [universe.mask_of(d) for d in sets_],
        show=lambda d: sorted(universe.elements_of(d)))
    pairs = [(f, universe.elements_of(forward[f])) for f in functions
             if forward[f] is not None]
    return VerificationReport(functions, sets_, pairs, failures)


def check_roundtrip(masks, functions, sets, show=lambda d: f"0b{d:b}"):
    """Check that ``sigma`` maps the parking functions ``functions`` onto
    the parking sets ``sets`` (given as masks) and ``rho`` maps them back.

    Returns the forward map (function -> mask, None where the sweep
    stalls) and the failure lines, in which ``show`` renders a mask and a
    stalled sweep, either way, reads "a stall".
    """
    def render(d, show=show):
        return "a stall" if d is None else show(d)

    failures = []
    if len(functions) != len(sets):
        failures.append(f"|P|={len(functions)} differs from |Q|={len(sets)}")
    cap = [a.bit_count() for a in masks]
    forward = {}
    for f in functions:
        run = sweep(masks, f)
        forward[f] = None if run is None else run[1]
    backward = {}
    for d in sets:
        run = sweep(masks, cap, d)
        backward[d] = None if run is None else tuple(run[0])
    for f, d in forward.items():
        if d not in backward:
            failures.append(f"sigma({f}) = {render(d)} is not a parking set")
        elif backward[d] != f:
            failures.append(f"rho(sigma({f})) = {backward[d]} != {f}")
    for d, f in backward.items():
        if f not in forward:
            failures.append(f"rho({show(d)}) = {render(f, str)} is not a parking function")
        elif forward[f] != d:
            failures.append(f"sigma(rho({show(d)})) = {render(forward[f])} != {show(d)}")
    return forward, failures


def tree_pairs(system):
    """The parking functions of ``system``, in lexicographic order, each
    paired with the mask of its ``sigma`` image, off the sweep tree
    (``bijections.walk``).  Each leaf is certified by the greedy peel
    before it is returned; same empty-member warning as the oracle."""
    masks = system.masks
    if _empty_member(masks):
        return []
    leaves = walk(masks)
    for f, _ in leaves:
        if _peel(system, f) is None:
            raise VerificationError(f"the sweep tree completed on {f}, not a parking function")
    return leaves


def paired_images(system, target, xor=0, weighted=None):
    """Pair every parking function with the mask of its ``sigma`` image
    xor ``xor``, over ``system.masks``, and check that these hit each
    mask of ``target`` exactly once; raises VerificationError if not.
    ``weighted``, the family over other weights, is swept instead when
    given, each image carried over through its element set."""
    universe = system.universe
    if weighted is None:
        leaves = tree_pairs(system)
    else:
        elements_of = weighted.universe.elements_of
        leaves = [(f, universe.mask_of(elements_of(d))) for f, d in tree_pairs(weighted)]
    images = {d ^ xor for _, d in leaves}
    if len(images) != len(leaves):
        raise VerificationError("bijection image has a collision")
    if images != set(target):
        raise VerificationError("bijection image differs from the target family")
    return [(f, universe.elements_of(d ^ xor)) for f, d in leaves]


# ---------------------------------------------------------------------------
# system generators

def all_mask_systems(max_k, max_universe, canonical=True):
    """Exhaustively yield (k, m, masks) for small systems in bitmask form.

    Bit b of masks[j] says element b+1 belongs to the (j+1)-th set;
    weights are the identity, so lower bits are lighter.  Every universe
    element belongs to at least one set (inert elements change nothing).
    For each k, then m, the k-tuples of masks come in lexicographic order;
    with ``canonical`` only the lexicographically smallest relabeling of
    the set indices, the non-decreasing tuple, is emitted — all verified
    properties are invariant under that relabeling.  The tuples come from
    ``combinations_with_replacement`` (canonical) or ``product`` over
    ``range(1 << m)``, kept when their union is all m bits.
    """
    for k in range(1, max_k + 1):
        for m in range(max_universe + 1):
            full, subsets = (1 << m) - 1, range(1 << m)
            tuples = (combinations_with_replacement(subsets, k) if canonical
                      else product(subsets, repeat=k))
            for t in tuples:
                if reduce(or_, t) == full:
                    yield k, m, t


def system_from_masks(masks):
    """Object-level system matching one generator entry."""
    sets = [frozenset(b + 1 for b in range(mask.bit_length()) if mask >> b & 1)
            for mask in masks]
    return _system_over(frozenset().union(*sets), sets)


def all_set_systems(max_k, max_universe, canonical=True):
    """Object-level form of :func:`all_mask_systems`."""
    for _, _, masks in all_mask_systems(max_k, max_universe, canonical):
        yield system_from_masks(masks)


def random_set_system(rng, max_k=4, max_universe=6, shuffled_weights=False):
    """Seeded random system; elements 1..m, each kept per set with p=0.6."""
    k = rng.randint(1, max_k)
    m = rng.randint(1, max_universe)
    sets = [frozenset(e for e in range(1, m + 1) if rng.random() < 0.6)
            for _ in range(k)]
    ids = list(range(1, m + 1))
    weights = None
    if shuffled_weights:
        shuffled = ids[:]
        rng.shuffle(shuffled)
        weights = dict(zip(ids, shuffled))
    return _system_over(ids, sets, weights)


# ---------------------------------------------------------------------------
# the subfamily table: the production membership filters

_BITS = bytes.maketrans(b"01", b"\0\1")    # binary digits to compress() selectors


def _selectors(bits, n, backwards=False):
    """``compress`` selectors for the set bits of ``bits`` (negative for a
    complement) among the indices 0..n-1, or n-1..0 when ``backwards``."""
    digits = f"{bits & (1 << n) - 1:0{n}b}"
    return (digits if backwards else digits[::-1]).encode().translate(_BITS)


def box_filter(boxes, thresholds):
    """The value tuples f of the box ``boxes``, in lexicographic order,
    for which every threshold list holds some (j, t) with f[j] < t.

    Each box is ``range(c)``.  The box is one bitset with a bit per cell
    in row-major order, so ascending bits are lexicographic order; the
    cells with f[j] >= t repeat one run of bits every period of dimension
    j, and each threshold list clears the cells that lie in the runs of
    all of its pairs.
    """
    cells, runs = 1, []
    for box in reversed(boxes):
        runs.append((cells, (1 << len(box) * cells) - 1))
        cells *= len(box)
    if not cells:
        return []
    full = (1 << cells) - 1
    # per dimension: its stride, one period of cells, and the
    # multiplier that repeats a period across the box
    runs = [(stride, period, full // period) for stride, period in reversed(runs)]
    keep = full
    for pairs in thresholds:
        held = full
        for j, t in pairs:
            stride, period, repeat = runs[j]
            held &= (period >> t * stride << t * stride) * repeat
        keep &= ~held
    return list(compress(product(*boxes), _selectors(keep, cells)))


def _candidate_budget(k, covered, cells=1):
    """Refuse a family of k sets over ``covered`` elements before any
    table is built or any candidate tried: k > ``MAX_CHECK_SETS``, more
    than ``MAX_CHECK_CANDIDATES`` k-subsets of the covered elements, or
    more than that many ``cells`` in the value box (``_box_budget``)."""
    _subset_budget(k)
    candidates = comb(covered, k)
    if candidates > MAX_CHECK_CANDIDATES:
        raise ValueError(
            f"too large: C({covered}, {k}) = {candidates} candidate sets; "
            f"filtering the parking sets is capped at {MAX_CHECK_CANDIDATES}")
    _box_budget(cells)


def _box_budget(cells):
    """Refuse more than ``MAX_CHECK_CANDIDATES`` ``cells`` in the value box,
    which also bounds the parking functions the sweep tree can list."""
    if cells > MAX_CHECK_CANDIDATES:
        raise ValueError(
            f"too large: {cells} value vectors in the box; "
            f"filtering the parking functions is capped at {MAX_CHECK_CANDIDATES}")


def pool_filter(masks, pools):
    """The k-subsets of the covered bits that meet every pool, as masks
    in combination order (k = len(masks)); ``_candidate_budget`` caps the
    candidates."""
    union = reduce(or_, masks, 0)
    bits = [1 << b for b in range(union.bit_length()) if union >> b & 1]
    pools = list(dict.fromkeys(pools))
    found = []
    for d in map(sum, combinations(bits, len(masks))):
        for pool in pools:
            if not pool & d:
                break
        else:
            found.append(d)
    return found


def mask_families(masks):
    """Both families of one bitmask system from its subfamily table:
    P as value tuples in lexicographic order, Q as masks.  A singleton
    subfamily's threshold is |A_j| itself, which the box always beats,
    so only the larger subfamilies filter the box.  P is down-closed, so
    it is empty exactly when the zero vector fails, that is when some
    pool is empty; no k-set meets that pool either, so both families are
    [] without a filter.  Refuses by ``_candidate_budget`` first."""
    boxes = [range(a.bit_count()) for a in masks]
    union = reduce(or_, masks, 0)
    _candidate_budget(len(masks), union.bit_count(), prod(map(len, boxes)))
    pools = subfamily_table(masks)
    if 0 in pools:
        return [], []
    thresholds = [[(j, (a & pool).bit_count()) for j, a in enumerate(masks) if imask >> j & 1]
                  for imask, pool in enumerate(pools, 1) if imask & imask - 1]
    return box_filter(boxes, thresholds), pool_filter(masks, pools)


def table_sets(system):
    """The parking sets of ``system`` by ``pool_filter`` over the minimal
    pools of its subfamily table, as masks in the universe's bit order, in
    combination order of its bits.  Refuses by ``_candidate_budget``
    before it builds the table."""
    _candidate_budget(system.k, len(system.covered))
    return pool_filter(system.masks, system.pools)


class ScanReport:
    """Aggregate outcome of an exhaustive roundtrip sweep; ``shares`` is
    the number of shares it was dealt in, each but the first in a forked
    child."""

    def __init__(self, systems=0, members=0, failures=None, shares=1):
        self.systems, self.members = systems, members  # members: parking functions round-tripped
        self.failures = [] if failures is None else failures
        self.shares = shares

    @property
    def ok(self):
        return not self.failures


def _scan_share(max_k, max_universe, canonical, share, shares):
    """(systems, members, [(generator index, failure line)]) over the
    systems of :func:`all_mask_systems` whose position in its stream is
    ``share`` modulo ``shares``; every share walks the whole stream."""
    systems = members = 0
    failures = []
    stream = enumerate(all_mask_systems(max_k, max_universe, canonical))
    for index, (_, _, masks) in islice(stream, share, None, shares):
        systems += 1
        ps, qs = mask_families(masks)
        members += len(ps)
        _, lines = check_roundtrip(masks, ps, qs)
        if lines:
            failures.append((index, f"system {masks}: {lines}"))
    return systems, members, failures


def _share_count():
    """One share per CPU this process may run on, when it can fork: the
    platform has ``os.fork`` and no second thread is running (a forked
    child gets only the forking thread, and any lock another thread held)."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    threading = sys.modules.get("threading")
    if threading is not None and threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0))


def _run_shares(work):
    """``work(share, shares)`` for each share of ``_share_count()``, in share
    order.  Share 0 runs in this process and each other one in an
    ``os.fork()`` child, which sends back its marshalled result, or the
    repr of what it raised, through a pipe.  A child that raises, dies,
    exits non-zero or sends a short result makes the call raise
    ``RuntimeError``; every child is reaped before the call returns or
    raises, after a SIGKILL if the call is failing."""
    shares = _share_count()
    children = []   # [pid, read end of its pipe], in share order, until reaped
    try:
        for share in range(1, shares):
            read, write = os.pipe()
            children.append([None, open(read, "rb")])
            with open(write, "wb") as out:   # the parent's copy closes after the fork
                pid = children[-1][0] = os.fork()
                if pid == 0:   # the child never returns into the caller's stack
                    try:
                        try:
                            data = marshal.dumps((work(share, shares),))
                        except BaseException as error:
                            data = marshal.dumps(repr(error))
                        out.write(data)
                        out.flush()
                    finally:
                        os._exit(0)
        results = [work(0, shares)]
        while children:
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            try:
                sent = marshal.loads(data)
            except (EOFError, ValueError):
                sent = None
            if status or type(sent) is not tuple:
                detail = sent if type(sent) is str else f"wait status {status}"
                raise RuntimeError(f"share {len(results)} of {shares} failed in its child: {detail}")
            results.append(sent[0])
    finally:
        if children:   # the call is failing: end the children still running
            import signal
            for pid, pipe in children:
                pipe.close()
                if pid is not None:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
    return results


def exhaustive_roundtrip_scan(max_k=3, max_universe=6, canonical=True):
    """Run the roundtrip check over every generated system.

    The systems are dealt round-robin, by generator index, into the shares
    of ``_run_shares``, one per CPU of the process's affinity mask: the
    caller scans the first and a forked child each other one, and the
    report merges them, failures in generator order.  With one CPU, no
    ``os.fork`` or a second thread running, the one share runs in this
    process.  A failed child raises ``RuntimeError``; every child is
    reaped (and killed first, if the scan is failing) before the call
    returns or raises.
    """
    parts = _run_shares(lambda share, shares: _scan_share(
        max_k, max_universe, canonical, share, shares))
    systems, members, failures = zip(*parts)
    return ScanReport(sum(systems), sum(members),
                      [line for _, line in sorted(sum(failures, []))], len(parts))
