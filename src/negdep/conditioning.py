"""The conditioning engine shared by the regression cells and the
conjecture partitions.

A cell conditions on a block J and observes the rest. Its labels are grid
positions of tail thresholds and ranks of pinned coordinates, each with the
bitset of the atoms its event holds on (docs/theory.md section 6). A cell
holds iff the conditional law of the observed block decreases in the usual
stochastic order along every comparable pair of labels. That order is
transitive, so only the cover pairs of the labels are decided, each on the
orbits of J's stabilizer when the law has one (docs/theory.md section 11).
Only a failing cell walks every pair, in order, so that its first failing
pair and counts are those of the plain pair loop; its witness is found on
the full laws.
"""

from __future__ import annotations

from operator import le
from typing import Sequence

from .errors import InternalConsistencyError
from .maxflow import positive_upper_set
from .stochorder import (
    IntegerLaw,
    SupportUnion,
    UpperSetViolation,
    cut_violation,
    masked_law,
    require_agreement,
    support_union,
    sweep_violation,
    tail_order,
)
from .uppersets import grid_comparable_pairs, grid_covers, keys_above, poset_covers

#: The block key of the orbit laws in ``CellContext.blocks``.
ORBITS = "orbits"

#: A tail grid with more nonempty labels than this takes its unit steps and
#: prefix sums, which are linear in the grid; a smaller one takes the bitset
#: pass of ``poset_covers``, which is quadratic but costs less there.
GRID_LABELS = 512


def tail_masks(above: Sequence[int], op: str, sentinel: bool) -> list[int]:
    """The atom masks of {x op v} for the support values v of one axis, ascending.

    ``above`` is the axis's table in ``IntegerView.above``: ``above[r]``
    holds the atoms of rank at least r, so ``above[0]`` is every atom, and
    the axis has ``len(above) - 1`` values. Upper tails read those bitsets,
    and lower tails their complements. With ``sentinel`` the grid also gets
    the unbounded threshold, whose mask is every atom: +inf after the values
    for lower tails, -inf before them for upper tails.
    """
    size = len(above) - 1
    if op in ("<=", "<"):
        masks = [above[0] ^ m for m in (above[1:] if op == "<=" else above[:size])]
        return masks + [above[0]] if sentinel else masks
    masks = above[:size] if op == ">=" else above[1:]
    return [above[0]] + masks if sentinel else masks


def label_masks(view, tails: Sequence[tuple[int, str]], pinned: Sequence[int],
                 sentinel: bool) -> list[tuple[tuple[int, ...], int]]:
    """Every conditioning label with a nonempty event, in lexicographic order,
    with its atom mask.

    A label holds one grid position per tail axis (``tails`` pairs a column
    with its comparison) followed by the ranks of the pinned columns. Its
    mask is the AND of one bitset per tail axis and the bitset of the atoms
    carrying those pinned ranks (docs/theory.md section 6).
    """
    ranks = view[1]
    axes = []
    for c, op in tails:
        masks = tail_masks(view.above[c], op, sentinel)
        axes.append([((p,), m) for p, m in enumerate(masks)])
    if pinned:
        groups: dict[tuple[int, ...], int] = {}
        for k, r in enumerate(ranks):
            key = tuple(map(r.__getitem__, pinned))
            groups[key] = groups.get(key, 0) | 1 << k
        axes.append(sorted(groups.items()))
    labels = [((), (1 << len(ranks)) - 1)]
    for axis in axes:
        labels = [(label + part, mask & bits) for label, mask in labels
                  for part, bits in axis if mask & bits]
    return labels


class CellContext:
    """Per-cell machinery: cached conditional laws, cached orders, the covers,
    the pair loop and the witness.

    ``given`` is the conditioning block; the observed block is the rest.
    ``work`` is the law's ``checks.LawCache``. Every order is decided on
    integer conditional laws keyed by packed ranks of the columns compared,
    or by the orbits of J's stabilizer on the observed block (block
    ``ORBITS``). Verify mode's upper-set sweep and the witness read the same
    integer weights on the union of two laws' supports.
    """

    def __init__(self, work, given, caps, st_mode):
        self.work = work
        self.caps = caps
        self.st_mode = st_mode
        self.weights, self.ranks, self.sizes = work.view
        self.i_max = tuple(j for j in range(1, len(self.sizes) + 1) if j not in given)
        self.blocks: dict[tuple[int, ...] | str, tuple[int, list[int], dict]] = {}
        self.orbits = work.orbits_of(self.i_max)
        if self.orbits:
            self.blocks[ORBITS] = (self.orbits.guards, self.orbits.keys, {})
        self.st_cache: dict[tuple[int, int], bool] = {}
        self.cuts: dict[tuple[tuple[int, ...], int, int], list[int]] = {}
        self.tallied: set[tuple[int, int]] = set()
        self.st_checks = 0

    def block(self, block: tuple[int, ...] | str):
        """The guard bits of the block's rank packing, each atom's packed ranks
        on the block, both kept on the ``LawCache``, and the block's integer
        laws by mask, kept for this cell; for ``ORBITS``, the same for the
        orbit keys."""
        entry = self.blocks.get(block)
        if entry is None:
            entry = self.blocks[block] = (*self.work.packed_keys(block), {})
        return entry

    def int_law(self, mask: int, block: tuple[int, ...] | str | None = None) -> IntegerLaw:
        """The law of the block (default: the observed one) given ``mask``."""
        _, keys, cache = self.block(block or self.i_max)
        law = cache.get(mask)
        if law is None:
            law = cache[mask] = masked_law(mask, keys, self.weights)
        return law

    def keyed_union(self, mask_hi: int, mask_lo: int,
                    block: tuple[int, ...] | str) -> SupportUnion:
        """The block's laws given ``mask_hi`` (X) and ``mask_lo`` (Y) on the
        union of their supports, keyed as the laws are, ascending."""
        hi, lo = self.int_law(mask_hi, block), self.int_law(mask_lo, block)
        return support_union(dict(zip(hi.keys, hi.weights)), dict(zip(lo.keys, lo.weights)))

    def union(self, mask_hi: int, mask_lo: int,
              block: tuple[int, ...]) -> tuple[SupportUnion, list[int]]:
        """``keyed_union`` with the support values as its points, and each
        point's packed key. Packed keys sort like the values they stand for,
        so the union is in the order of the values."""
        u = self.keyed_union(mask_hi, mask_lo, block)
        ranks, axes = dict(zip(self.block(block)[1], self.ranks)), self.work.view.axes
        return u._replace(points=[tuple(axes[j - 1][ranks[key][j - 1]] for j in block)
                                  for key in u.points]), u.points

    def decide(self, mask_lo: int, mask_hi: int, block: tuple[int, ...],
               orbits=None) -> bool:
        """Does [X_block | high] <=st [X_block | low]? With ``orbits``, J's
        stabilizer's orbits on the observed block, it is decided on the
        union of the orbit laws, under the orbits' own order. On the full
        laws a block of several coordinates is FALSE at its first failing
        one-coordinate marginal, with no network built (docs/theory.md
        section 14). Verify mode also sweeps the upper sets of the full laws
        and raises if the two oracles disagree. An order that ``min_cut``
        finds failing keeps its cut in ``cuts``, for ``witness``."""
        if orbits:
            u = self.keyed_union(mask_hi, mask_lo, ORBITS)
            holds = positive_upper_set(u.net(), orbits.up(u.points))[1] is None
        elif len(block) > 1 and not all(self.decide(mask_lo, mask_hi, (j,)) for j in block):
            holds = False
        else:
            holds = self.min_cut(mask_lo, mask_hi, block) is None
        if self.st_mode == "verify":
            violation, _ = sweep_violation(self.union(mask_hi, mask_lo, block)[0],
                                           self.caps.max_upper_sets)
            require_agreement(holds, violation is None)
        return holds

    def min_cut(self, mask_lo: int, mask_hi: int, block: tuple[int, ...]) -> list[int] | None:
        """The keys of a set of points of the block whose upward closure is
        the least upper set of greatest excess of X (the law given
        ``mask_hi``) over Y, on the block's full laws, or None if the order
        holds: by tail sums on one coordinate, else by the cut senders of
        ``positive_upper_set`` on the netted union. That set depends on the
        two laws alone, so it is kept in ``cuts`` and not found twice."""
        key = (block, mask_lo, mask_hi)
        cut = self.cuts.get(key)
        if cut is None:
            if len(block) == 1:
                hi = self.int_law(mask_hi, block)
                cut = tail_order(hi, self.int_law(mask_lo, block))
                cut = None if cut is None else [hi.keys[i] for i in cut]
            else:
                u = self.keyed_union(mask_hi, mask_lo, block)
                up = keys_above(u.points, self.block(block)[0])
                senders = positive_upper_set(u.net(), up)[1]
                cut = None if senders is None else [u.points[a] for a in senders]
            if cut is not None:
                self.cuts[key] = cut
        return cut

    def witness(self, mask_lo: int, mask_hi: int,
                block: tuple[int, ...]) -> tuple[SupportUnion, UpperSetViolation]:
        """The union of the block's laws given ``mask_hi`` and ``mask_lo``, and
        the least upper set of greatest excess of X over Y on those full
        laws, the same for every maximum flow (docs/theory.md section 2). Its
        cut is the one ``decide`` kept, or, when a marginal refuted the order
        first, ``min_cut``'s."""
        cut = self.min_cut(mask_lo, mask_hi, block)
        if cut is None:
            raise InternalConsistencyError(f"no failed order on block {block} to name")
        u, keys = self.union(mask_hi, mask_lo, block)
        index = {key: k for k, key in enumerate(keys)}
        return u, cut_violation(u, keys_above(keys, self.block(block)[0]),
                                [index[key] for key in cut])

    def tally(self, holds: bool) -> bool:
        """Count one order ``decide`` returned; its verdict."""
        self.st_checks += 1
        return holds

    def st_screen(self, mask_lo: int, mask_hi: int) -> bool:
        """``decide`` on the observed block, kept per pair of events and
        counted once per pass over the labels. A verdict on the orbits is the
        full laws' verdict (docs/theory.md section 11), so every one is kept."""
        key = (mask_lo, mask_hi)
        holds = self.st_cache.get(key)
        if holds is None:
            holds = self.st_cache[key] = self.decide(mask_lo, mask_hi, self.i_max, self.orbits)
        if key in self.tallied:
            return holds
        self.tallied.add(key)
        return self.tally(holds)

    def first_failing_pair(self, labels: list[tuple[tuple[int, ...], int]], grid=False):
        """The first ordered pair of labels, low <= high componentwise, whose
        conditional law at high is not below the one at low, as
        ``((low, mask_lo), (high, mask_hi))`` or None, and the number of
        ordered pairs examined up to it.

        The cover pairs of the labels are decided first, on J's stabilizer's
        orbits: the unit steps of a large tail ``grid``, else the covers of
        the labels' poset, the same pairs there. The cell holds iff they all do
        (docs/theory.md section 6). Only if one fails are the pairs walked in
        order, reusing the verdicts already decided, and counted afresh."""
        points = [label for label, _ in labels]
        if grid and len(points) > GRID_LABELS:
            covers, pairs = grid_covers(points), None
        else:
            covers, pairs = poset_covers(points)
        if all(self.st_screen(labels[a][1], labels[b][1]) for a, b in covers
               if labels[a][1] != labels[b][1]):
            return None, grid_comparable_pairs(points) if pairs is None else pairs
        self.tallied, self.st_checks, pairs = set(), 0, 0
        for a_pos, (low, mask_lo) in enumerate(labels):
            for high, mask_hi in labels[a_pos + 1:]:
                if not all(map(le, low, high)):
                    continue
                pairs += 1
                if mask_lo == mask_hi:
                    continue  # identical events, identical conditional laws
                if not self.st_screen(mask_lo, mask_hi):
                    return ((low, mask_lo), (high, mask_hi)), pairs
        return None, pairs
