"""Upper sets of finite componentwise-ordered point sets.

An upper set is identified by its antichain of minimal elements; enumeration
walks the points in decreasing lexicographic order (a linear extension of the
componentwise order runs the other way, so all dominators of a point are
decided before it) and emits every upward-closed subset exactly once, in a
fixed order starting from the empty set and ending at the full set.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import add, mul
from typing import Iterable, Iterator, Sequence

from .distributions import Vector
from .errors import EnumerationCapExceeded


def componentwise_leq(x: Sequence, y: Sequence) -> bool:
    return all(a <= b for a, b in zip(x, y))


def poset_covers(points: Sequence[Sequence[int]]) -> tuple[list[tuple[int, int]], int]:
    """The cover pairs of distinct points of small nonnegative ints, given in
    lexicographic order, as index pairs ``(a, b)`` with ``points[b]`` covering
    ``points[a]`` componentwise, ascending; and the number of comparable
    pairs ``a < b``.

    ``up[a]`` is the bitset of the points at or above point a: the AND over
    the axes of the points whose value there is at least a's. Lexicographic
    order extends the componentwise one, so the lowest bit left in
    ``up[a]`` once a is dropped is a cover of a, and dropping everything at
    or above it leaves the next cover lowest (docs/theory.md section 6).
    Points on one axis form a chain, whose covers are consecutive.
    """
    n = len(points)
    if n and len(points[0]) == 1:
        return list(zip(range(n - 1), range(1, n))), n * (n - 1) // 2
    up = [(1 << n) - 1] * n
    for column in zip(*points):
        at_least = [0] * (max(column) + 2)
        for k, v in enumerate(column):
            at_least[v] |= 1 << k
        for v in range(len(at_least) - 2, -1, -1):
            at_least[v] |= at_least[v + 1]
        up = [u & at_least[v] for u, v in zip(up, column)]
    covers = []
    for a, u in enumerate(up):
        u ^= 1 << a
        while u:
            b = (u & -u).bit_length() - 1
            covers.append((a, b))
            u &= ~up[b]
    return covers, sum(u.bit_count() for u in up) - len(up)


def _grid(points: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """The smallest grid ``range(s_0) x ... x range(s_{d-1})`` holding the
    points, as its per-axis sizes and row-major strides."""
    shape = [max(column) + 1 for column in zip(*points)]
    strides = list(accumulate([1] + shape[:0:-1], mul))[::-1]
    return shape, strides


def grid_covers(points: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """The unit steps ``a -> a + e_i`` between distinct grid points, given in
    lexicographic order, as index pairs ``(a, b)``, ascending. They are the
    cover pairs when the points are interval closed in the grid, as the
    nonempty labels of a tail grid are (docs/theory.md section 6)."""
    shape, strides = _grid(points)
    flat = [sum(map(mul, p, strides)) for p in points]
    index = dict(zip(flat, range(len(points))))
    # the last axis has the shortest stride, so its step comes first
    shape, strides = shape[::-1], strides[::-1]
    return [(a, b) for a, (p, f) in enumerate(zip(points, flat))
            for v, size, step in zip(reversed(p), shape, strides)
            if v + 1 < size and (b := index.get(f + step)) is not None]


def grid_comparable_pairs(points: Sequence[Sequence[int]]) -> int:
    """The number of pairs of distinct grid points with ``a <= b``
    componentwise, by prefix sums over the grid (dominance counting).

    ``cells[f]`` ends as the number of points at or below grid point f. An
    axis with stride ``step`` and size ``size`` is summed along either each
    of its ``step`` residues at once or each of its outer blocks at once,
    whichever takes fewer slices.
    """
    shape, strides = _grid(points)
    total = shape[0] * strides[0] if points else 0
    cells = [0] * total
    flat = [sum(map(mul, p, strides)) for p in points]
    for f in flat:
        cells[f] = 1
    for size, step in zip(shape, strides):
        block = size * step
        for k in range(step, block, step):
            if step <= total // block:
                for r in range(k, k + step):
                    cells[r::block] = map(add, cells[r::block], cells[r - step::block])
            else:
                for lo in range(k, total, block):
                    cells[lo:lo + step] = map(add, cells[lo:lo + step], cells[lo - step:lo])
    return sum(map(cells.__getitem__, flat)) - len(flat)


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


def enumerate_upper_index_sets(points: Sequence[Vector],
                               cap: int | None = None) -> Iterator[tuple[int, ...]]:
    """Yield each upper set as a tuple of indices into ``points``.

    The empty set comes first and the full set last. ``cap`` bounds the number
    of sets yielded (EnumerationCapExceeded past it); the worst case is
    exponential in the largest antichain.
    """
    order = sorted(range(len(points)), key=lambda i: points[i], reverse=True)
    n = len(order)
    # dominators[k]: positions before k whose point componentwise-dominates
    # point k; including k requires all of them already included.
    dominators: list[list[int]] = []
    for k in range(n):
        pk = points[order[k]]
        dominators.append(
            [i for i in range(k) if componentwise_leq(pk, points[order[i]])]
        )

    included = [False] * n
    phase = [0] * n
    count = 0
    k = 0
    while k >= 0:
        if k == n:
            count += 1
            if cap is not None and count > cap:
                raise EnumerationCapExceeded(
                    f"more than {cap} upper sets; raise the cap to enumerate them all"
                )
            yield tuple(sorted(order[i] for i in range(n) if included[i]))
            k -= 1
            continue
        ph = phase[k]
        if ph == 0:          # try: point k excluded
            phase[k] = 1
            included[k] = False
            k += 1
            if k < n:
                phase[k] = 0
        elif ph == 1:        # try: point k included, if its dominators all are
            phase[k] = 2
            if all(included[i] for i in dominators[k]):
                included[k] = True
                k += 1
                if k < n:
                    phase[k] = 0
        else:                # exhausted both choices
            included[k] = False
            k -= 1


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
