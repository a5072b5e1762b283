"""Coordinate automorphisms of a finite law, and the orbits they induce on the
cells and orthant corners a checker scans.

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

from itertools import accumulate
from operator import eq, itemgetter
from typing import NamedTuple, Sequence

from .conditioning import tail_masks
from .stochorder import RankPacking
from .uppersets import keys_above

#: Search nodes (one coordinate mapped) allowed per law. Past it the search
#: stops and keeps the generators found so far, which span a subgroup.
NODE_BUDGET = 20_000


class _OverBudget(Exception):
    pass


def is_automorphism(law: dict, axes: Sequence[tuple], perm: Sequence[int]) -> bool:
    """Exactly: does moving coordinate a to ``perm[a]`` preserve the law,
    given as its integer view's ``rank tuple -> weight`` dict?"""
    if sorted(perm) != list(range(len(axes))) or len(axes) < 2:
        return False
    if any(axes[a] != axes[b] for a, b in enumerate(perm)):
        return False
    inverse = [0] * len(perm)
    for a, b in enumerate(perm):
        inverse[b] = a
    move = itemgetter(*inverse)  # the moved atom reads axis b from axis inverse[b]
    # the move is injective on the atoms, so equal weights everywhere make it
    # a bijection of the support; the first unequal weight decides
    return all(map(eq, map(law.get, map(move, law)), law.values()))


def generators(view, budget: int = NODE_BUDGET) -> list[tuple[int, ...]]:
    """Generators of the law's coordinate-automorphism group, each verified by
    :func:`is_automorphism`; ``[]`` when only the identity was found.

    The stabilizer levels are searched deepest first. Level i looks for maps
    that fix 0..i-1 and send i to each t > i of its colour that the
    generators found so far cannot already reach from i (orbit closure), so
    the symmetric group on n coordinates takes n - 1 searches. Each search
    first checks the transposition (i t) exactly, and walks the 2-D tables,
    skipping that leaf, only when it fails. A failed search also rules out
    the orbit of t. Past ``budget`` nodes the generators found so far are
    returned.
    """
    weights, ranks, sizes = view
    axes = view.axes
    n = len(sizes)
    ids: dict[tuple, int] = {}
    colours = [ids.setdefault((axis, tuple(line)), len(ids))
               for axis, line in zip(axes, view.margins)]
    if len(ids) == n:
        return []
    columns = list(zip(*ranks))
    tables: dict[tuple[int, int], list[int]] = {}
    law = dict(zip(ranks, weights))

    def table(a: int, c: int) -> list[int]:
        """The 2-D marginal weights of axes (a, c), flattened; the table of
        (c, a), its transpose, is kept at the same time."""
        t = tables.get((a, c))
        if t is None:
            sa, sc = sizes[a], sizes[c]
            t = tables[a, c] = _marginal_table(columns[a], columns[c], weights, sa, sc)
            tables[c, a] = [t[x * sc + y] for y in range(sc) for x in range(sa)]
        return t

    # identity first, then ascending, which finds a transposition at once
    choices = [sorted((b for b in range(n) if colours[b] == colours[j]),
                      key=lambda b, j=j: (b != j, b)) for j in range(n)]
    nodes = budget
    probe: list[int] = []  # the transposition tried ahead of each search

    def extend(perm: list[int], used: set[int], j: int, first: int | None) -> bool:
        nonlocal nodes
        if j == n:
            return perm != probe and is_automorphism(law, axes, perm)
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
                perm = probe = list(range(n))
                probe[i], probe[t] = t, i
                if is_automorphism(law, axes, probe):
                    # the transposition is the search's first leaf, and its
                    # path costs n - i nodes (docs/theory.md section 11)
                    nodes -= n - i
                    if nodes < 0:
                        raise _OverBudget
                else:
                    perm = list(range(i))
                    if not extend(perm, set(perm), i, t):
                        ruled_out |= _orbit(t, found)
                        continue
                found.append(tuple(perm))
                reached = _orbit(i, found)
    except _OverBudget:
        pass
    return found


def _marginal_table(xs: Sequence[int], ys: Sequence[int], weights: Sequence[int],
                    sx: int, sy: int) -> list[int]:
    """The 2-D marginal weights of two rank columns with ``sx`` and ``sy``
    values, flattened row by row."""
    t = [0] * (sx * sy)
    for x, y, w in zip(xs, ys, weights):
        t[x * sy + y] += w
    return t


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


def stabilizer(gens: Sequence[Sequence[int]], fixed: Sequence[int]) -> list[Sequence[int]]:
    """The generators that fix every coordinate in ``fixed``.

    They span a subgroup of the pointwise stabilizer of ``fixed``. For a
    prefix ``0..k-1`` and the generators :func:`generators` returns, they
    span all of it: those are the generators found at levels k and deeper
    (docs/theory.md section 11).
    """
    return [g for g in gens if all(g[c] == c for c in fixed)]


def least_failing_corner(view, gens: Sequence[Sequence[int]], upper: bool
                         ) -> tuple[list[int], int, int] | None:
    """The lexicographically first corner of the support grid at which the
    orthant bound fails, as (its position on each axis, J, prod M_i), or
    None when the bound holds at every corner. Position k of axis i is the
    event {rank <= k}, or {rank >= k} if upper; J is the weight of the
    joint event, M_i that of axis i's, and the bound fails when
    J * D**(n-1) > prod M_i, with D the total weight.

    ``gens`` must be automorphisms of the law, possibly none, and only the
    corners that no generator moves to a lexicographically smaller corner
    are visited: J and the product are constant on an orbit, so the first
    failing corner is the least of its orbit (docs/theory.md section 7). A
    depth-first walk fixes axis 0, then axis 1, and so on, keeping the AND
    of the axes' event bitsets over the atoms. A subtree whose bitset is
    empty has J = 0 and holds, and a branch is cut as soon as some
    generator g puts g.x below x: at each axis, the generators whose next
    comparison that axis fixes bound the positions it takes, and only a
    position equal to a bound moves its generator on.
    """
    weights, _, sizes = view
    n = len(sizes)
    scale = sum(weights) ** (n - 1)
    full = (1 << len(weights)) - 1
    op = ">=" if upper else "<="
    events = [tail_masks(above, op, sentinel=False) for above in view.above]
    if upper:
        margins = [list(accumulate(line[::-1]))[::-1] for line in view.margins]
    else:
        margins = [list(accumulate(line)) for line in view.margins]
    classes: dict[int, int] = {}  # weight -> its atoms; J is their weighted popcount
    for k, w in enumerate(weights):
        classes[w] = classes.get(w, 0) | 1 << k
    plans = []
    for g in gens:
        # (g.x)[b] = x[i] for b = g[i]: one comparison per position g moves
        # (a fixed one always agrees), ascending, as (the axis that fixes both)
        steps = sorted(((max(b, i), b, i) for i, b in enumerate(g) if i != b), key=itemgetter(1))
        if steps:
            plans.append((steps, 0))
    x = [0] * n

    def walk(a: int, mask: int, product: int, pending: list) -> tuple | None:
        """Axes 0..a-1 are fixed at x[:a]. ``pending`` holds each generator
        not yet known to put g.x above x, as (steps, p): g.x and x agree at
        steps[:p], and steps[p] is fixed at axis a or later. If at a, it
        bounds x[a] by some c, and only x[a] == c keeps the generator."""
        through, at = [], {}
        lo, hi = 0, len(events[a]) - 1
        for plan in pending:
            steps, p = plan
            ready, b, i = steps[p]
            if ready > a:
                through.append(plan)
                continue
            if b == a:                  # g.x < x once x[a] > x[i]
                c = x[i]
                if c < hi:
                    hi = c
            else:                       # g.x < x once x[a] < x[b]
                c = x[b]
                if c > lo:
                    lo = c
            at.setdefault(c, []).append(plan)
        for v in range(lo, hi + 1):
            inside = mask & events[a][v]
            if not inside:
                continue
            x[a] = v
            kept = through
            if v in at:
                kept = _advance(at[v], through, x, a)
                if kept is None:
                    continue
            product_v = product * margins[a][v]
            if a + 1 < n:
                found = walk(a + 1, inside, product_v, kept)
                if found:
                    return found
                continue
            joint = sum(w * (inside & bits).bit_count() for w, bits in classes.items())
            if joint * scale > product_v:
                return list(x), joint, product_v
        return None

    return walk(0, full, 1, plans)


def _advance(plans: list, through: list, x: list[int], a: int) -> list | None:
    """``through`` and the generators of ``plans``, whose comparison at
    axis a found g.x and x equal, each moved on past the comparisons that
    axis a fixes; None if one of them puts g.x below x."""
    kept = list(through)
    for steps, p in plans:
        p += 1
        while p < len(steps) and steps[p][0] <= a and x[steps[p][2]] == x[steps[p][1]]:
            p += 1
        if p == len(steps):
            continue                    # g.x = x on every corner below: dropped
        ready, b, i = steps[p]
        if ready > a:
            kept.append((steps, p))
        elif x[i] < x[b]:
            return None                 # g.x < x: not the least corner of its orbit
        # otherwise g.x > x on every corner below, and g is dropped
    return kept


class BlockOrbits(NamedTuple):
    """The orbits of a group of coordinate permutations on the projections of
    a law's atoms onto a block the group maps to itself.

    ``keys[k]`` is the packed key, in the block's own :class:`RankPacking`
    with guard bits ``guards``, of the orbit of atom k's projection, so a
    law masked by ``keys`` puts each orbit's total weight on one node. Orbit
    A has an edge to orbit B iff A's key is at most some point of B
    componentwise. ``above`` maps each key to the set of keys it has an
    edge to; it is None when the edges are just componentwise ``<=`` on the
    keys.
    """

    keys: tuple[int, ...]
    guards: int
    above: dict[int, frozenset[int]] | None

    def up(self, keys: Sequence[int]) -> list[int]:
        """The edges among the given orbit keys as at-or-above bitsets, for
        ``maxflow.positive_upper_set``: bit b of ``up[a]`` is set iff orbit
        a has an edge to orbit b. The edges are a partial order, since every
        generator preserves ``<=`` (docs/theory.md section 11)."""
        if self.above is None:
            return keys_above(keys, self.guards)
        return [sum(1 << b for b, y in enumerate(keys) if y in self.above[x]) for x in keys]


def _reader(items: Sequence[int]):
    """``itemgetter(*items)``, returning a tuple even for one item."""
    get = itemgetter(*items)
    return get if len(items) > 1 else lambda r: (get(r),)


def block_orbits(view, gens: Sequence[Sequence[int]], cols: Sequence[int]) -> BlockOrbits | None:
    """The orbits of the group spanned by ``gens`` on the atoms' projections
    onto the (0-based) columns ``cols``, which every generator must map to
    themselves; None without generators.

    When every generator is a transposition, the group is the product of the
    symmetric groups on the classes of coordinates they join, and an orbit's
    key is the projection with its ranks sorted within each class. Then some
    point of B lies above A's key iff the sorted ranks of each class do, so
    the edges are componentwise ``<=`` on the keys. Otherwise the orbits are
    the classes of a union-find over the generators' moves of the projected
    points, each keyed by its least point, and every edge is tested on the
    points (docs/theory.md section 11).
    """
    if not gens:
        return None
    _, ranks, sizes = view
    packing = RankPacking([sizes[c] for c in cols])
    guards = packing.guards
    if all(sum(a != b for a, b in enumerate(g)) == 2 for g in gens):
        classes: dict[int, list[int]] = {}
        roots = orbit_roots(len(sizes), gens)
        for c, shift in zip(cols, packing.shifts):
            classes.setdefault(roots[c], []).append((c, shift))
        # each class's columns, read as a tuple, and their fields' shifts;
        # a class's sorted ranks fill its fields in block order
        parts = [(_reader(cs), shifts) for cs, shifts in
                 (zip(*members) for members in classes.values())]
        keys = []
        for r in ranks:
            key = 0
            for get, shifts in parts:
                for v, shift in zip(sorted(get(r)), shifts):
                    key |= v << shift
            keys.append(key)
        return BlockOrbits(tuple(keys), guards, None)
    position = {c: pos for pos, c in enumerate(cols)}
    projected = list(map(_reader(cols), ranks))
    points = sorted(set(projected))
    index = {p: k for k, p in enumerate(points)}
    # a generator moves coordinate a to g[a], so the moved point reads
    # column c from the column g sends to c
    moves = [[index[read(p)] for p in points]
             for read in (_reader([position[g.index(c)] for c in cols]) for g in gens)]
    roots = orbit_roots(len(points), moves)
    packed = [packing.pack(p) for p in points]
    above = {packed[a]: frozenset(packed[roots[k]] for k, y in enumerate(packed)
                                  if ((y | guards) - packed[a]) & guards == guards)
             for a in set(roots)}
    return BlockOrbits(tuple(packed[roots[index[p]]] for p in projected), guards, above)
