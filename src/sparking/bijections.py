"""The two mappings between parking sets and parking functions.

Both maps are one sweep over the bitmask form of the family
(``SetSystem.masks``), written once in ``_resume``: it repeatedly takes
the lightest element of the exactly-one pool of the still-active sets
and either deletes it from its owning set or fixes that set with it.
``sigma`` turns a parking function into a parking set by spending its
values as deletion budgets; ``rho`` turns a parking set into a parking
function by fixing exactly the input's elements and counting the
deletions.  ``walk`` runs the same sweep, each deletion forking the run
that fixes the bit instead, and so yields every parking function with
its image in one search; all runs share the read-only family.  The
object-level wrappers validate the input by its permutation certificate,
run the sweep and translate its events into a ``BijectionTrace``
(deletions and fixations with global step numbers) for replay.
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


def _resume(masks, state, budget, fixed, events, forks):
    """Run the sweep of the read-only ``masks`` on from ``state`` =
    (deletions per set, active set positions, fixed bits, deleted bits),
    whose two lists it takes over.

    Each step takes the lowest bit of the exactly-one pool of the active
    sets.  Its owner is fixed (and retired) when the bit is in ``fixed``
    or the owner has used up its deletion ``budget``; otherwise the bit
    is deleted from the owner.  Returns (deletions per set, mask of the
    fixed bits), or None when the pool empties while sets are active.
    With ``events`` given, one ("DEL" | "FIX", set position, bit) triple
    per step is appended to it; with ``forks`` given, each deletion
    appends the state that fixes the bit instead.
    """
    used, active, chosen, deleted = state
    while active:
        once = twice = 0
        for j in active:
            a = masks[j]
            twice |= once & a
            once |= a
        # a deleted bit has left its only active owner and changes no other
        # bit's count, so the pool is refolded only after a fixation
        pool = once & ~twice & ~deleted
        while pool:
            e = pool & -pool
            for j in active:
                if masks[j] & e:
                    break
            if e & fixed or used[j] == budget[j]:
                chosen |= e
                active.remove(j)
                if events is not None:
                    events.append(("FIX", j, e))
                break
            if forks is not None:
                rest = active[:]
                rest.remove(j)
                forks.append((used[:], rest, chosen | e, deleted))
            deleted |= e
            used[j] += 1
            pool ^= e
            if events is not None:
                events.append(("DEL", j, e))
        else:
            return None
    return used, chosen


def sweep(masks, budget, fixed=0, events=None):
    """The sweep both maps share (``_resume``), from the start: nothing
    deleted or fixed, every set active."""
    return _resume(masks, ([0] * len(masks), list(range(len(masks))), 0, 0),
                   budget, fixed, events, None)


def walk(masks):
    """Every completed ``sweep`` of ``masks`` under a deletion budget, by
    a depth-first search over the sweep tree: each run deletes while
    ``used[j] < |A_j| - 1`` (a budget beyond that stalls) and forks the
    run that fixes the bit instead.  Stalled runs are dropped.  Returns
    one (deletions per set, mask of the fixed bits) leaf per completed
    run, sorted lexicographically: the deletions are the budget that
    drives ``sweep`` to the same fixed mask.
    """
    budget = [a.bit_count() - 1 for a in masks]
    leaves, forks = [], [([0] * len(masks), list(range(len(masks))), 0, 0)]
    while forks:
        run = _resume(masks, forks.pop(), budget, 0, None, forks)
        if run is not None:
            leaves.append((tuple(run[0]), run[1]))
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
