"""Coordinate automorphisms of a finite law, and the orbits they induce on the
cells a checker scans.

A permutation ``perm`` of the (0-based) coordinates is an automorphism of the
law of X when the vector Y with ``Y[perm[a]] = X[a]`` has the law of X. On the
integer view that means: axes a and perm[a] carry the same support values, and
moving every atom's ranks by ``perm`` gives back the same weighted atoms.

The search refines by invariants and then verifies exactly, as in McKay &
Piperno (2014, "Practical graph isomorphism, II"). A coordinate's colour (its
value table, whose length is the axis size, and its 1-D marginal weights)
restricts its images; the 2-D marginal tables prune partial maps; and every
complete map is checked on the weights and ranks by :func:`is_automorphism`.
Soundness rests on that check alone: the pruning only decides how much is
searched (docs/theory.md section 11).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Sequence

#: Search nodes (one coordinate mapped) allowed per law. Past it the search
#: stops and keeps the generators found so far, which span a subgroup.
NODE_BUDGET = 20_000


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


def generators(view, axes: Sequence[tuple], budget: int = NODE_BUDGET) -> list[tuple[int, ...]]:
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


def orbit_roots(size: int, moves: Sequence[Sequence[int]]) -> list[int]:
    """For each of ``size`` items, the least item of its orbit, where each
    move sends item k to ``move[k]``: the classes of a union-find over the
    moves, each rooted at its least item."""
    parent = list(range(size))

    def find(k: int) -> int:
        while parent[k] != k:
            parent[k] = k = parent[parent[k]]
        return k

    for move in moves:
        for k, m in enumerate(move):
            a, b = find(k), find(m)
            if a != b:
                parent[max(a, b)] = min(a, b)
    return [find(k) for k in range(size)]


def orbit_leaders(gens: Sequence[Sequence[int]],
                  cells: Sequence[tuple[tuple[int, ...], ...]]) -> list[int] | None:
    """For each cell, the index of the earliest cell of its orbit, or None
    when there are no generators.

    A cell is a tuple of blocks of 1-based coordinates, and the list must be
    closed under the group. A permutation maps each block to its sorted
    image. A cell that stands for an unordered pair of blocks is listed in
    one order only, so an image missing from the list is looked up reversed.
    """
    if not gens:
        return None
    index = {cell: k for k, cell in enumerate(cells)}

    def image(perm: Sequence[int], cell: tuple[tuple[int, ...], ...]) -> int:
        moved = tuple(tuple(sorted(perm[j - 1] + 1 for j in block)) for block in cell)
        m = index.get(moved)
        return index[moved[::-1]] if m is None else m

    return orbit_roots(len(cells), [[image(perm, cell) for cell in cells] for perm in gens])
