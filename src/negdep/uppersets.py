"""Upper sets of finite componentwise-ordered point sets.

An upper set is identified by its antichain of minimal elements; enumeration
walks the points in decreasing lexicographic order (a linear extension of the
componentwise order runs the other way, so every point above a point is
decided before it) and emits every upward-closed subset exactly once, in a
fixed order starting from the empty set and ending at the full set. The walk
holds one bitset of the points still free, and carries a sum of per-point
values along, so the association scan and the sweep sum no set again.

The module also holds the one copy of the kernels on grids of small ints
that the checkers share: the at-or-above bitsets of a column, the covers of
a point set, and the flat lexicographic grid with its strides, the scatter
of an integer view, orthant sums and outer products. The label counts use
the flat grid, and so does NSMD, but only for a law its closure chain does
not certify on the atoms (docs/theory.md section 13); the orthant scans walk
the corners instead (docs/theory.md section 7).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, mul
from typing import Callable, Iterable, Iterator, Sequence

from .distributions import Vector
from .errors import EnumerationCapExceeded
from .maxflow import bits


def componentwise_leq(x: Sequence, y: Sequence) -> bool:
    return all(a <= b for a, b in zip(x, y))


def at_or_above(column: Iterable[int], size: int) -> list[int]:
    """``above[v]`` for v in 0..size: the bitset of the positions k with
    ``column[k] >= v`` (bit k set), a suffix OR over the values, which must
    lie in ``range(size)``; ``above[size]`` is 0. The points at or above a
    query point componentwise are the AND over the axes of one such bitset."""
    above = [0] * (size + 1)
    for k, v in enumerate(column):
        above[v] |= 1 << k
    for v in range(size - 1, -1, -1):
        above[v] |= above[v + 1]
    return above


def points_above(points: Sequence[Sequence[int]]) -> list[int]:
    """``up[a]`` for each of the given points of small nonnegative ints: the
    bitset of the points at or above point a componentwise, a included, as
    the AND over the axes of one ``at_or_above`` bitset."""
    up = [(1 << len(points)) - 1] * len(points)
    for column in zip(*points):
        above = at_or_above(column, max(column) + 1)
        up = [u & above[v] for u, v in zip(up, column)]
    return up


def keys_above(keys: Sequence[int], guards: int) -> list[int]:
    """``up[a]`` for each of the given packed rank keys, whose guard bits are
    ``guards`` (``stochorder.RankPacking``): the bitset of the keys at or
    above key a componentwise, a included. The guard bits give each axis's
    field, and the bitset is the AND over the axes of one ``at_or_above``
    bitset of the field's values (docs/theory.md section 2), which covers
    every value the field can hold."""
    up = [(1 << len(keys)) - 1] * len(keys)
    offset = 0
    while guards:
        low = guards & -guards
        guards ^= low
        top = low.bit_length() - 1
        if top > offset:                    # a one-value axis has no field bits
            field = (1 << (top - offset)) - 1
            column = [(key >> offset) & field for key in keys]
            above = at_or_above(column, field + 1)
            up = [u & above[v] for u, v in zip(up, column)]
        offset = top + 1
    return up


def poset_covers(points: Sequence[Sequence[int]]) -> tuple[list[tuple[int, int]], int]:
    """The cover pairs of distinct points of small nonnegative ints, given in
    lexicographic order, as index pairs ``(a, b)`` with ``points[b]`` covering
    ``points[a]`` componentwise, ascending; and the number of comparable
    pairs ``a < b``.

    With ``up`` the :func:`points_above` bitsets of the points: lexicographic
    order extends the componentwise one, so the lowest bit left in ``up[a]``
    once a is dropped is a cover of a, and dropping everything at or above
    it leaves the next cover lowest (docs/theory.md section 6). Points on one axis form a chain, whose
    covers are consecutive.
    """
    n = len(points)
    if n and len(points[0]) == 1:
        return list(zip(range(n - 1), range(1, n))), n * (n - 1) // 2
    up = points_above(points)
    covers = []
    for a, u in enumerate(up):
        u ^= 1 << a
        while u:
            b = (u & -u).bit_length() - 1
            covers.append((a, b))
            u &= ~up[b]
    return covers, sum(u.bit_count() for u in up) - len(up)


# -- the flat lexicographic grid ------------------------------------------------
#
# A grid range(s_0) x ... x range(s_{d-1}) is held as one flat list in
# lexicographic (row-major) order: point (i_0, ..., i_{d-1}) sits at position
# sum_a i_a * stride_a, the last axis with stride 1.

def grid_strides(sizes: Sequence[int]) -> tuple[list[int], int]:
    """Per-axis strides of the flat lex grid, and its number of points."""
    strides = [0] * len(sizes)
    acc = 1
    for a in range(len(sizes) - 1, -1, -1):
        strides[a] = acc
        acc *= sizes[a]
    return strides, acc


def scatter(view) -> tuple[list[int], list[list[int]]]:
    """An integer view ``(weights, ranks, sizes)`` laid out on the flat lex
    grid of its ranks: ``cells[k]`` is the weight at grid point k and
    ``lines[a][i]`` the weight of rank i on axis a, its marginal line."""
    weights, ranks, sizes = view
    strides, total = grid_strides(sizes)
    cells = [0] * total
    lines = [[0] * size for size in sizes]
    for rank, w in zip(ranks, weights):
        cells[sum(map(mul, rank, strides))] += w
        for line, i in zip(lines, rank):
            line[i] += w
    return cells, lines


def orthant_sums(cells: list[int], sizes: Sequence[int], reverse: bool) -> list[int]:
    """The flat lex grid summed over every lower orthant, or every upper one
    if reverse, in place, by prefix (suffix) sums along one axis at a time.

    Position k of the axis with stride ``step`` is the run of ``step`` cells
    at ``k * step`` in every block of ``step * size`` cells. Each position
    takes in its neighbour's sums one slice at a time: one contiguous slice
    per block, or one strided slice across the blocks per offset within the
    run, whichever are fewer.
    """
    step = len(cells)
    for size in sizes:
        step //= size
        period = step * size
        blocks = len(cells) // period
        for k in (range(size - 2, -1, -1) if reverse else range(1, size)):
            dst = k * step
            src = dst + step if reverse else dst - step
            if blocks <= step:
                for base in range(0, len(cells), period):
                    lo, hi = base + dst, base + src
                    cells[lo:lo + step] = map(add, cells[lo:lo + step], cells[hi:hi + step])
            else:
                for j in range(step):
                    cells[dst + j::period] = map(add, cells[dst + j::period],
                                                 cells[src + j::period])
    return cells


def outer_product(lines: Sequence[Sequence[int]]) -> list[int]:
    """The outer product of one line per axis, on the flat lex grid."""
    out = [1]
    for line in lines:
        out = [p * m for p in out for m in line]
    return out


def grid_covers(points: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """The unit steps ``a -> a + e_i`` between distinct grid points, given in
    lexicographic order, as index pairs ``(a, b)``, ascending. They are the
    cover pairs when the points are interval closed in the grid, as the
    nonempty labels of a tail grid are (docs/theory.md section 6)."""
    shape = [max(column) + 1 for column in zip(*points)]
    strides, _ = grid_strides(shape)
    flat = [sum(map(mul, p, strides)) for p in points]
    index = dict(zip(flat, range(len(points))))
    # the last axis has the shortest stride, so its step comes first
    shape, strides = shape[::-1], strides[::-1]
    return [(a, b) for a, (p, f) in enumerate(zip(points, flat))
            for v, size, step in zip(reversed(p), shape, strides)
            if v + 1 < size and (b := index.get(f + step)) is not None]


def grid_comparable_pairs(points: Sequence[Sequence[int]]) -> int:
    """The number of pairs of distinct grid points with ``a <= b``
    componentwise (dominance counting): the lower-orthant sums of the
    points' indicator count the points at or below each grid point, and
    summed over the points they count each point with itself too."""
    shape = [max(column) + 1 for column in zip(*points)]
    indicator, _ = scatter(([1] * len(points), points, shape))
    below = orthant_sums(list(indicator), shape, False)
    return sum(map(mul, indicator, below)) - len(points)


@dataclass(frozen=True)
class UpperSet:
    """An upward-closed subset of an ambient finite point set."""

    points: tuple[Vector, ...]   # members, ascending lex
    minimal: tuple[Vector, ...]  # minimal elements, ascending lex (an antichain)

    def contains(self, x: Sequence) -> bool:
        """Membership test for arbitrary vectors, via the minimal elements."""
        return any(componentwise_leq(m, x) for m in self.minimal)

    def __len__(self) -> int:
        return len(self.points)


def _minimal_elements(points: Iterable[Vector]) -> tuple[Vector, ...]:
    pts = sorted(points)
    keep = []
    for p in pts:
        if not any(componentwise_leq(q, p) for q in keep):
            keep.append(p)
    return tuple(keep)


def from_members(members: Iterable[Vector]) -> UpperSet:
    """Build an UpperSet from an explicit member list (assumed upward closed)."""
    pts = tuple(sorted(set(members)))
    return UpperSet(pts, _minimal_elements(pts))


def upper_set_sums(points: Sequence[Vector], values: Sequence, zero,
                   plus: Callable = add, cap: int | None = None) -> Iterator[tuple[int, object]]:
    """Yield each upper set of ``points`` as the bitset of its indices (bit i
    for ``points[i]``) and the sum, by ``plus`` from ``zero``, of ``values``
    over its members.

    The walk takes the points in decreasing lexicographic order and decides
    each one, excluded before included, so the empty set comes first and
    the full set last. Excluding a point forces out every later point at or
    below it, so a point still free has every point above it included; a
    forced point is skipped, and the walk has 2L - 1 nodes for L upper sets,
    each a few int operations and, when included, one ``plus``
    (docs/theory.md section 3). ``cap`` bounds the number of sets yielded
    (EnumerationCapExceeded past it); the worst case is exponential in the
    largest antichain.
    """
    n = len(points)
    order = sorted(range(n), key=points.__getitem__, reverse=True)
    ordered = [points[i] for i in order]
    # ranks that fall as the values rise, so "at or above" in them is "at or
    # below" in the points: out[k] holds position k and every later position
    # at or below it
    falling = [{v: r for r, v in enumerate(sorted(set(column), reverse=True))}
               for column in zip(*ordered)]
    out = points_above([tuple(map(dict.__getitem__, falling, p)) for p in ordered])
    member = [1 << i for i in order]
    value = list(map(values.__getitem__, order))
    count = 0
    stack = [((1 << n) - 1, 0, zero)]   # (free positions, members, their sum)
    while stack:
        free, members, total = stack.pop()
        while free:
            low = free & -free
            k = low.bit_length() - 1
            stack.append((free ^ low, members | member[k], plus(total, value[k])))
            free &= ~out[k]
        count += 1
        if cap is not None and count > cap:
            raise EnumerationCapExceeded(
                f"more than {cap} upper sets; raise the cap to enumerate them all"
            )
        yield members, total


def enumerate_upper_index_sets(points: Sequence[Vector],
                               cap: int | None = None) -> Iterator[tuple[int, ...]]:
    """Yield each upper set as an ascending tuple of indices into ``points``,
    in the order and under the cap of :func:`upper_set_sums`."""
    for members, _ in upper_set_sums(points, [0] * len(points), 0, cap=cap):
        yield tuple(bits(members))


def enumerate_upper_sets(points: Sequence[Vector],
                         cap: int | None = None) -> Iterator[UpperSet]:
    """Yield every upper set of the given distinct points, exactly once."""
    pts = list(points)
    if len(set(pts)) != len(pts):
        raise ValueError("points must be distinct")
    for idx in enumerate_upper_index_sets(pts, cap=cap):
        members = tuple(sorted(pts[i] for i in idx))
        yield UpperSet(members, _minimal_elements(members))


def count_upper_sets(points: Sequence[Vector], cap: int | None = None) -> int:
    return sum(1 for _ in enumerate_upper_index_sets(points, cap=cap))
