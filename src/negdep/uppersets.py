"""Upper sets of finite componentwise-ordered point sets.

An upper set is identified by its antichain of minimal elements; enumeration
walks the points in decreasing lexicographic order (a linear extension of the
componentwise order runs the other way, so all dominators of a point are
decided before it) and emits every upward-closed subset exactly once, in a
fixed order starting from the empty set and ending at the full set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .distributions import Vector
from .errors import EnumerationCapExceeded


def componentwise_leq(x: Sequence, y: Sequence) -> bool:
    return all(a <= b for a, b in zip(x, y))


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
