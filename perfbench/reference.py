"""Reference answers computed without importing lawkit.

Terms of the monoid signature are plain data: an ``int`` is a variable, the
string ``"u"`` is the unit and a pair ``(a, b)`` is ``m(a, b)``.  A table is
the flat row-major product table ``m[a * size + b]`` that lawkit's reports
use, with the unit as a one-entry table ``u``.
"""

from __future__ import annotations

import itertools


def is_monoid(m, u, size: int, commutative: bool = False) -> bool:
    if len(m) != size * size or len(u) != 1 or not all(0 <= v < size for v in m):
        return False
    e = u[0]
    if not 0 <= e < size:
        return False
    r = range(size)
    if any(m[e * size + x] != x or m[x * size + e] != x for x in r):
        return False
    if commutative and any(m[a * size + b] != m[b * size + a] for a in r for b in r):
        return False
    return all(m[m[a * size + b] * size + c] == m[a * size + m[b * size + c]]
               for a in r for b in r for c in r)


def monoid_tables(size: int, commutative: bool = False):
    """Every labelled monoid on ``{0..size-1}`` as ``(m, u)``.

    The unit's row and column are forced, so only the other cells are
    searched.
    """
    out = []
    free = [(a, b) for a in range(size) for b in range(size)]
    for e in range(size):
        cells = [(a, b) for a, b in free if a != e and b != e]
        for values in itertools.product(range(size), repeat=len(cells)):
            m = [0] * (size * size)
            for x in range(size):
                m[e * size + x] = x
                m[x * size + e] = x
            for (a, b), v in zip(cells, values):
                m[a * size + b] = v
            if is_monoid(m, (e,), size, commutative):
                out.append((tuple(m), (e,)))
    return out


def evaluate(term, env, m, e: int, size: int) -> int:
    if isinstance(term, int):
        return env[term]
    if term == "u":
        return e
    return m[evaluate(term[0], env, m, e, size) * size + evaluate(term[1], env, m, e, size)]


def holds_on_all(f, g, arity: int, tables, size: int) -> bool:
    """True when ``f`` and ``g`` agree on every input under every table."""
    envs = list(itertools.product(range(size), repeat=arity))
    return all(evaluate(f, env, m, u[0], size) == evaluate(g, env, m, u[0], size)
               for m, u in tables for env in envs)
