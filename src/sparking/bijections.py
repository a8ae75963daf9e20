"""The two mappings between parking sets and parking functions.

Both maps are one sweep, ``sweep``, over the bitmask form of the family
(``SetSystem.masks``): it repeatedly takes the lightest element of
the exactly-one pool of the still-active sets and either deletes it from
its owning set or fixes that set with it.  ``sigma`` turns a parking
function into a parking set by spending its values as deletion budgets;
``rho`` turns a parking set into a parking function by fixing exactly
the input's elements and counting the deletions.  ``walk`` takes both
choices at every step and so yields every completed sweep, that is every
parking function with its image, in one search.  The object-level
wrappers validate the input by its permutation certificate, run the sweep
and translate its events into a ``BijectionTrace`` (deletions and
fixations with global step numbers) so tests can replay the execution.
"""

from collections import namedtuple

from .systems import (
    VerificationError,
    _checked_function,
    parking_function_permutation,
    parking_set_permutation,
)


class BijectionTrace(namedtuple("BijectionTrace", "pi chosen deletions fixations")):
    """Execution record of one mapping run.

    pi is the sequence of set indices fixed at each fixation, chosen the
    elements fixed alongside them, and deletions / fixations carry
    (step, set index, element) triples where step is the global 1-based
    loop-iteration number.
    """
    __slots__ = ()

    def events(self):
        """All events merged in step order."""
        merged = [("DEL",) + d for d in self.deletions]
        merged += [("FIX",) + f for f in self.fixations]
        merged.sort(key=lambda ev: ev[1])
        return tuple(merged)

    def lines(self):
        """One-line-per-event serialization: ``KIND step set elem``."""
        return [f"{kind} {step} {index} {element}"
                for kind, step, index, element in self.events()]


def sweep(masks, budget, fixed=0, events=None):
    """The sweep both maps share, over one bitmask per set.

    Each step takes the lowest bit of the exactly-one pool of the active
    sets.  Its owner is fixed (and retired) when the bit is in ``fixed``
    or the owner has used up its deletion ``budget``; otherwise the bit
    is deleted from the owner.  Returns (deletions per set, mask of the
    fixed bits), or None when the pool empties while sets are active.
    With ``events`` given, one ("DEL" | "FIX", set position, bit) triple
    per step is appended to it.
    """
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
        # a deletion takes its bit out of the pool and changes no other
        # bit's count, so the pool is refolded only after a fixation
        while pool:
            e = pool & -pool
            for j in active:
                if working[j] & e:
                    break
            if e & fixed or used[j] == budget[j]:
                chosen |= e
                active.remove(j)
                if events is not None:
                    events.append(("FIX", j, e))
                break
            working[j] ^= e
            used[j] += 1
            pool ^= e
            if events is not None:
                events.append(("DEL", j, e))
        else:
            return None
    return used, chosen


def walk(masks):
    """Every completed ``sweep`` of ``masks`` under a deletion budget, by
    a depth-first search over the sweep tree.

    At each step of ``sweep`` the owner j of the lowest exactly-one bit
    is either fixed with it or loses it; the walk takes both branches,
    deleting only while ``used[j] + 1 < |A_j|`` (a budget beyond
    |A_j| - 1 stalls).  Branches whose pool empties are dropped.  Returns
    one (deletions per set, mask of the fixed bits) leaf per completed
    sweep, sorted lexicographically: the deletions are the budget that
    drives ``sweep`` to the same fixed mask.
    """
    cap = [a.bit_count() for a in masks]
    leaves = []
    stack = [(list(masks), [0] * len(masks), list(range(len(masks))), 0)]
    while stack:
        working, used, active, chosen = stack.pop()
        while active:
            once = twice = 0
            for j in active:
                a = working[j]
                twice |= once & a
                once |= a
            pool = once & ~twice
            if not pool:
                break
            e = pool & -pool
            for j in active:
                if working[j] & e:
                    break
            if used[j] + 1 < cap[j]:
                deleted, spent = working[:], used[:]
                deleted[j] ^= e
                spent[j] += 1
                stack.append((deleted, spent, active[:], chosen))
            active.remove(j)
            chosen |= e
        else:
            leaves.append((tuple(used), chosen))
    leaves.sort()
    return leaves


def _traced_sweep(system, budget, fixed, what):
    """Run the sweep on ``system`` for an input certified to be a ``what``;
    returns its result and its events translated into a trace."""
    events, order = [], system.universe.order
    result = sweep(system.masks, budget, fixed, events)
    if result is None:
        raise VerificationError(f"exactly-one pool emptied mid-run on a certified {what}")
    pi, chosen, deletions, fixations = [], [], [], []
    for step, (kind, j, e) in enumerate(events, start=1):
        event = (step, j + 1, order[e.bit_length() - 1])
        if kind == "FIX":
            pi.append(j + 1)
            chosen.append(event[2])
            fixations.append(event)
        else:
            deletions.append(event)
    return result, BijectionTrace(tuple(pi), tuple(chosen),
                                  tuple(deletions), tuple(fixations))


def rho(system, elements):
    """Map a parking set to a parking function.

    Repeatedly takes the lightest element of the exactly-one set of the
    active subfamily: elements outside the input set are deleted from
    their owning set (incrementing that set's counter), elements inside
    it fix their owning set and retire it.  Returns the counter vector
    and the trace.
    """
    certificate = parking_set_permutation(system, elements)
    if certificate is None:
        raise ValueError("input is not a parking set of the system")
    # the witnesses are the input set, and only they fix a set: its cap of
    # |A_j| deletions is never reached while it still owns a pool element
    cap = [len(a) for a in system.sets]
    (counters, _), trace = _traced_sweep(
        system, cap, system.universe.mask_of(certificate.witnesses), "parking set")
    return tuple(counters), trace


def sigma(system, values):
    """Map a parking function to a parking set.

    Same sweep as ``rho``, but the input values act as per-set deletion
    budgets: while the owning set still has budget, the lightest
    exactly-one element is deleted and the budget decremented; once the
    budget is spent, the element is fixed and the set retired.  Returns
    the set of fixed elements and the trace.
    """
    f = _checked_function(system, values)
    if parking_function_permutation(system, f) is None:
        raise ValueError("input is not a parking function of the system")
    _, trace = _traced_sweep(system, f, 0, "parking function")
    return frozenset(trace.chosen), trace
