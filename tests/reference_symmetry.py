"""Reference for the search for a law's coordinate automorphisms.

This is ``symmetry.generators`` as it was before it tested the transposition
``(i t)`` exactly ahead of each table search: every level walks the 2-D
marginal tables from its first node, and every complete map is checked by
``is_automorphism``, which builds the ``rank tuple -> weight`` dict on each
call. The code below is kept verbatim apart from the default budget, written
out as a number; the differential tests require the search under test to
return equal generator lists at every budget (``tests/test_symmetry.py``).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Sequence


class _OverBudget(Exception):
    pass


def is_automorphism(view, axes: Sequence[tuple], perm: Sequence[int]) -> bool:
    """Exactly: does moving coordinate a to ``perm[a]`` preserve the law?"""
    weights, ranks, _ = view
    if sorted(perm) != list(range(len(axes))) or len(axes) < 2:
        return False
    if any(axes[a] != axes[b] for a, b in enumerate(perm)):
        return False
    inverse = [0] * len(perm)
    for a, b in enumerate(perm):
        inverse[b] = a
    move = itemgetter(*inverse)  # the moved atom reads axis b from axis inverse[b]
    law = dict(zip(ranks, weights))
    # the move is injective on the atoms, so equal weights everywhere make it
    # a bijection of the support
    return list(map(law.get, map(move, ranks))) == list(weights)


def generators(view, axes: Sequence[tuple], budget: int = 20_000) -> list[tuple[int, ...]]:
    """Generators of the law's coordinate-automorphism group, each verified by
    :func:`is_automorphism`; ``[]`` when only the identity was found.

    The stabilizer levels are searched deepest first. Level i looks for maps
    that fix 0..i-1 and send i to each t > i of its colour that the
    generators found so far cannot already reach from i (orbit closure), so
    the symmetric group on n coordinates takes n - 1 searches. A failed
    search also rules out the orbit of t. Past ``budget`` nodes the
    generators found so far are returned.
    """
    weights, ranks, sizes = view
    n = len(sizes)
    margins = [[0] * s for s in sizes]
    for r, w in zip(ranks, weights):
        for a, k in enumerate(r):
            margins[a][k] += w
    ids: dict[tuple, int] = {}
    colours = [ids.setdefault((axes[a], tuple(margins[a])), len(ids)) for a in range(n)]
    if len(ids) == n:
        return []
    columns = list(zip(*ranks))
    tables: dict[tuple[int, int], list[int]] = {}

    def table(a: int, c: int) -> list[int]:
        """The 2-D marginal weights of axes (a, c), flattened; the table of
        (c, a), its transpose, is kept at the same time."""
        t = tables.get((a, c))
        if t is None:
            sa, sc = sizes[a], sizes[c]
            t = [0] * (sa * sc)
            for x, y, w in zip(columns[a], columns[c], weights):
                t[x * sc + y] += w
            tables[a, c] = t
            tables[c, a] = [t[x * sc + y] for y in range(sc) for x in range(sa)]
        return t

    # identity first, then ascending, which finds a transposition at once
    choices = [sorted((b for b in range(n) if colours[b] == colours[j]),
                      key=lambda b, j=j: (b != j, b)) for j in range(n)]
    nodes = budget

    def extend(perm: list[int], used: set[int], j: int, first: int | None) -> bool:
        nonlocal nodes
        if j == n:
            return is_automorphism(view, axes, perm)
        for b in choices[j] if first is None else (first,):
            if b in used:
                continue
            nodes -= 1
            if nodes < 0:
                raise _OverBudget
            if all(table(c, j) == table(perm[c], b) for c in range(j)):
                perm.append(b)
                used.add(b)
                if extend(perm, used, j + 1, None):
                    return True
                perm.pop()
                used.discard(b)
        return False

    found: list[tuple[int, ...]] = []
    try:
        for i in range(n - 2, -1, -1):
            reached = _orbit(i, found)
            ruled_out: set[int] = set()
            for t in range(i + 1, n):
                if colours[t] != colours[i] or t in reached or t in ruled_out:
                    continue
                perm = list(range(i))
                if extend(perm, set(perm), i, t):
                    found.append(tuple(perm))
                    reached = _orbit(i, found)
                else:
                    ruled_out |= _orbit(t, found)
    except _OverBudget:
        pass
    return found


def _orbit(point: int, gens: Sequence[Sequence[int]]) -> set[int]:
    orbit = {point}
    frontier = [point]
    while frontier:
        x = frontier.pop()
        for perm in gens:
            if perm[x] not in orbit:
                orbit.add(perm[x])
                frontier.append(perm[x])
    return orbit
