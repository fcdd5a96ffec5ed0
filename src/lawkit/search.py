"""The backtracking core behind every finite enumeration (after SEM, Zhang &
Zhang, IJCAI 1995)."""

from __future__ import annotations


class EnumerationBound(Exception):
    """Raised instead of sampling when a search space exceeds its bound."""


def search(domain, checks):
    """Yield, as tuples and in lexicographic order, every assignment of the
    ``len(checks)`` slots, assigned in order and depth first, that passes its
    checks.  ``domain(i, a)`` lists slot ``i``'s candidates, in order, given
    the assigned prefix ``a``.  ``checks[i]`` lists the checks first tried once
    slot ``i`` is assigned.  A check takes the prefix and returns ``True`` (it
    holds and is dropped for the rest of the branch), ``False`` (prune) or
    ``None`` (undecided; it is tried again after the next slot).
    """
    a: list = []

    def extend(pending):
        i = len(a)
        if i == len(checks):
            yield tuple(a)
            return
        tried = pending + checks[i]
        for value in domain(i, a):
            a.append(value)
            undecided = []
            for check in tried:
                verdict = check(a)
                if verdict is False:
                    break
                if verdict is None:
                    undecided.append(check)
            else:
                yield from extend(undecided)
            a.pop()

    yield from extend([])
