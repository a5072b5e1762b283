"""Deciders for negative-dependence properties of finite joint laws.

Every checker returns a Verdict whose FALSE outcome carries a witness that
can be re-evaluated from scratch (see :func:`verify_witness`); enumeration
and witness selection are deterministic, and the block-conditioning checkers
can fan their independent cells out over worker processes without changing
any output.

Properties:

* lower/upper orthant bounds (joint tail probabilities vs products);
* negative association (all increasing functions of two disjoint blocks are
  nonpositively correlated, reduced to pairs of upper sets);
* negative supermodular dependence (below the independent copy in the
  supermodular order);
* negative regression / left-tail / right-tail dependence (conditional laws
  stochastically decreasing in the conditioning point; equality, weak lower
  or strict upper conditioning events), plus their single-coordinate forms.

The regression-style checkers screen each conditioning pair on the maximal
observed block first: the stochastic order is closed under coordinate
projections, so the full-complement comparison decides the cell and the
per-subset scan runs only to locate a minimal witness.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction
from operator import add, gt, le, mul, or_
from typing import Callable, Mapping, Sequence

from .distributions import (
    EQ,
    LOWER,
    UPPER,
    ConditioningEvent,
    FiniteJointDistribution,
    Vector,
    eq_event,
    independent_copy,
    lower_event,
    permutation_distribution,
    upper_event,
)
from .errors import (
    Caps,
    EnumerationCapExceeded,
    GridTooLarge,
    ImplicationViolation,
    InternalConsistencyError,
    default_caps,
)
from .rationals import NEG_INF, POS_INF, Extended, as_rational
from .stochorder import (
    IntegerLaw,
    RankPacking,
    UpperSetViolation,
    integer_coupling,
    integer_view,
    masked_law,
    require_agreement,
    st_leq,
    st_leq_uppersets,
)
from .supermodular import (
    SupermodularWitness,
    below_independent_copy,
    orthant_sums,
    witness_expectations,
)
from .uppersets import UpperSet, enumerate_upper_index_sets, from_members

ZERO = Fraction(0)
ONE = Fraction(1)

WEAK = "weak"
STRICT = "strict"

# -- verdicts and witnesses -------------------------------------------------

@dataclass(frozen=True)
class CheckStats:
    """What an enumeration actually examined before reaching its verdict."""

    cells: int = 0                # (I, J) or block-pair cells
    conditioning_pairs: int = 0   # conditioning-point pairs or grid corners
    st_checks: int = 0
    upper_sets: int = 0

    def plus(self, other: "CheckStats") -> "CheckStats":
        return CheckStats(
            self.cells + other.cells,
            self.conditioning_pairs + other.conditioning_pairs,
            self.st_checks + other.st_checks,
            self.upper_sets + other.upper_sets,
        )


@dataclass(frozen=True)
class Verdict:
    prop: str
    holds: bool
    witness: object | None
    stats: CheckStats
    definitive: bool = True  # False when a TRUE answer was size-restricted


@dataclass(frozen=True)
class OrthantWitness:
    side: str                       # "lower" | "upper"
    corner: tuple[Extended, ...]
    joint: Fraction
    product: Fraction


@dataclass(frozen=True)
class AssociationWitness:
    block1: tuple[int, ...]
    block2: tuple[int, ...]
    upper1: UpperSet
    upper2: UpperSet
    p_joint: Fraction
    p1: Fraction
    p2: Fraction


@dataclass(frozen=True)
class RegressionWitness:
    kind: str                          # eq | lower | upper
    variant: str                       # weak | strict (tail kinds only)
    given: tuple[int, ...]             # conditioning block J
    observed: tuple[int, ...]          # violating block I
    point_low: tuple[Extended, ...]
    point_high: tuple[Extended, ...]
    violation: UpperSetViolation       # on the conditional laws of I
    mean_low: tuple[Fraction, ...]     # coordinatewise means of [X_I | low]
    mean_high: tuple[Fraction, ...]


@dataclass(frozen=True)
class MonotonicityWitness:
    theta_low: tuple
    theta_high: tuple
    violation: UpperSetViolation


@dataclass(frozen=True)
class ConjectureWitness:
    raised: tuple[int, ...]            # block conditioned from below (>=)
    lowered: tuple[int, ...]           # block conditioned from above (<=)
    pinned: tuple[int, ...]            # block conditioned by equality
    observed: tuple[int, ...]          # block whose law must decrease
    # each triple: thresholds for the raised block, the lowered block, and
    # the pinned block's exact point
    triple_low: tuple[tuple[Extended, ...], tuple[Extended, ...], Vector]
    triple_high: tuple[tuple[Extended, ...], tuple[Extended, ...], Vector]
    violation: UpperSetViolation


def _require_joint(d: FiniteJointDistribution) -> None:
    if d.dim < 2:
        raise ValueError("dependence checks need dimension >= 2")


def _subsets(indices: Sequence[int], max_size: int | None = None) -> list[tuple[int, ...]]:
    """Nonempty subsets ordered by (size, lex)."""
    cap = len(indices) if max_size is None else min(max_size, len(indices))
    out: list[tuple[int, ...]] = []
    for size in range(1, cap + 1):
        out.extend(itertools.combinations(indices, size))
    return out


class LawCache:
    """Work shared by the properties decided on one law in one audit or one
    ``negdep check`` command.

    It holds the law's ``integer_view`` and support grid, each built on first
    use, the regression cell results keyed by (kind, variant, J) and the
    orthant verdicts keyed by side. A cell's result also depends on the caps
    and the st mode, which stay fixed while the cache lives.
    """

    def __init__(self, d: FiniteJointDistribution):
        self.d = d
        self.cells: dict[tuple, tuple] = {}
        self.orthants: dict[str, Verdict] = {}

    @cached_property
    def view(self):
        return integer_view(self.d)

    @cached_property
    def grid(self):
        return self.d.support_grid()


# -- orthant dependence -------------------------------------------------------

def _orthant_scan(work: LawCache, side: str) -> Verdict:
    """Compare the joint orthant mass with the product of marginal masses.

    Both sides are step functions jumping only at support values, so the
    per-axis corner grid is exhaustive; the upper side additionally needs a
    "no constraint" sentinel per axis (threshold below every support value).
    Cumulative sums keep the scan linear in the grid size.

    Lower side, axis positions k = 0..s-1: corner value axes[k], cell mass
    P(rank <= k). Upper side, positions k = 0..s: corner value -inf for
    k = 0 and axes[k-1] for k >= 1 (the event {X > axes[k-1]} holds iff
    rank >= k), cell mass P(rank >= k).

    Masses are integer weights over the law's common denominator D, so a
    corner fails iff joint * D**(n-1) > product of the marginal weights
    (docs/theory.md section 7). Corners are scanned in flat (lexicographic)
    order, and the first failing one is the witness. The verdict is kept in
    ``work``, so a law's scan of each side runs once.
    """
    cached = work.orthants.get(side)
    if cached is not None:
        return cached
    d = work.d
    _require_joint(d)
    weights, ranks, sizes = work.view
    n = d.dim
    upper = side == "upper"
    ext_sizes = [s + 1 if upper else s for s in sizes]

    strides = [0] * n
    acc = 1
    for a in range(n - 1, -1, -1):
        strides[a] = acc
        acc *= ext_sizes[a]
    cells = [0] * acc
    for r, w in zip(ranks, weights):
        cells[sum(k * step for k, step in zip(r, strides))] += w
    orthant_sums(cells, ext_sizes, upper)

    # an axis's marginal line runs through the corner that constrains no
    # other axis; the outer products lay the grid out in the same flat order
    products = [1]
    for step, size in zip(strides, ext_sizes):
        base = 0 if upper else acc - 1 - (size - 1) * step
        line = cells[base:base + size * step:step]
        products = [p * m for p in products for m in line]
    total = sum(weights)
    scale = total ** (n - 1)
    first = next(itertools.compress(
        itertools.count(),
        map(gt, map(mul, cells, itertools.repeat(scale)), products)), None)

    name = "nlod" if side == "lower" else "nuod"
    if first is None:
        verdict = Verdict(name, True, None, CheckStats(conditioning_pairs=acc))
    else:
        grid = [(NEG_INF,) + ax if upper else ax for ax in work.grid]
        corner = tuple(g[first // step % size]
                       for g, step, size in zip(grid, strides, ext_sizes))
        witness = OrthantWitness(side, corner, Fraction(cells[first], total),
                                 Fraction(products[first], total ** n))
        verdict = Verdict(name, False, witness, CheckStats(conditioning_pairs=first + 1))
    work.orthants[side] = verdict
    return verdict


def check_nlod(d: FiniteJointDistribution) -> Verdict:
    """P(X <= x) <= prod P(X_i <= x_i) at every corner."""
    return _orthant_scan(LawCache(d), "lower")


def check_nuod(d: FiniteJointDistribution) -> Verdict:
    """P(X > x) <= prod P(X_i > x_i) at every corner."""
    return _orthant_scan(LawCache(d), "upper")


def check_nod(d: FiniteJointDistribution) -> Verdict:
    """Both orthant bounds, on one integer view of the law."""
    return _check_nod(LawCache(d))


def _check_nod(work: LawCache) -> Verdict:
    """NLOD, then NUOD unless NLOD fails (docs/theory.md section 9)."""
    lower = _orthant_scan(work, "lower")
    if not lower.holds:
        return replace(lower, prop="nod")
    upper = _orthant_scan(work, "upper")
    return Verdict("nod", upper.holds, upper.witness, lower.stats.plus(upper.stats))


# -- negative association ----------------------------------------------------

def _block_pairs(n: int, max_block: int | None) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    subsets = _subsets(range(1, n + 1), max_block)
    rank = {s: k for k, s in enumerate(subsets)}
    pairs = []
    for a1 in subsets:
        taken = set(a1)
        for a2 in subsets:
            if rank[a2] > rank[a1] and not taken & set(a2):
                pairs.append((a1, a2))
    return pairs


def _scan_association_cell(args) -> tuple[AssociationWitness | None, CheckStats]:
    """Scan the upper-set pairs of one block pair in integer weights.

    The projected supports are kept as per-axis rank vectors, which sort and
    compare like the values they stand for, so the upper sets come out in the
    same order. With D the common denominator, a pair fails iff
    mass12 * D > mass1 * mass2 (docs/theory.md section 3).
    """
    work, a1, a2, caps = args
    weights, ranks, _ = work.view
    cols1 = [j - 1 for j in a1]
    cols2 = [j - 1 for j in a2]
    keys = [(tuple(r[c] for c in cols1), tuple(r[c] for c in cols2)) for r in ranks]
    support1 = sorted({a for a, _ in keys})
    support2 = sorted({b for _, b in keys})
    index1 = {a: i for i, a in enumerate(support1)}
    index2 = {b: i for i, b in enumerate(support2)}
    table = [[0] * len(support2) for _ in support1]
    for (a, b), w in zip(keys, weights):
        table[index1[a]][index2[b]] += w
    p1 = [sum(row) for row in table]
    p2 = [sum(col) for col in zip(*table)]
    total = sum(weights)

    upper2 = list(enumerate_upper_index_sets(support2, cap=caps.max_upper_sets))
    masses2 = [sum(map(p2.__getitem__, idx2)) for idx2 in upper2]
    examined = 0
    stats_upper = len(upper2)
    for idx1 in enumerate_upper_index_sets(support1, cap=caps.max_upper_sets):
        stats_upper += 1
        mass1 = sum(map(p1.__getitem__, idx1))
        row = [0] * len(support2)
        for i in idx1:
            row = list(map(add, row, table[i]))
        for idx2, mass2 in zip(upper2, masses2):
            examined += 1
            mass12 = sum(map(row.__getitem__, idx2))
            if mass12 * total > mass1 * mass2:
                axes = work.grid

                def members(support, idx, cols):
                    return from_members([tuple(axes[c][k] for c, k in zip(cols, support[i]))
                                         for i in idx])

                witness = AssociationWitness(
                    a1, a2, members(support1, idx1, cols1), members(support2, idx2, cols2),
                    Fraction(mass12, total), Fraction(mass1, total), Fraction(mass2, total),
                )
                return witness, CheckStats(
                    cells=1, conditioning_pairs=examined, upper_sets=stats_upper
                )
    return None, CheckStats(cells=1, conditioning_pairs=examined, upper_sets=stats_upper)


def check_na(d: FiniteJointDistribution, max_block: int | None = None,
             caps: Caps | None = None, jobs: int = 1) -> Verdict:
    """Negative association: for all disjoint blocks A1, A2 and upper sets
    U, V of their projected supports, P(both) <= P(U) P(V).

    Increasing functions on a finite support are nonnegative combinations of
    upper-set indicators plus constants, and constants drop out of the
    covariance, so this family of rectangle inequalities is exhaustive.
    """
    return _check_na(LawCache(d), max_block, caps, jobs)


def _check_na(work: LawCache, max_block, caps, jobs) -> Verdict:
    d = work.d
    _require_joint(d)
    if max_block is not None and max_block < 1:
        raise ValueError(f"max_block must be at least 1, got {max_block}")
    caps = caps or default_caps()
    work.view  # built here once, not in every worker
    cells = [(pair, (work, *pair, caps)) for pair in _block_pairs(d.dim, max_block)]
    witness, stats = _run_cells(_scan_association_cell, cells, jobs)
    restricted = max_block is not None and max_block < d.dim - 1
    return Verdict("na", witness is None, witness, stats,
                   definitive=witness is not None or not restricted)


# -- negative supermodular dependence -----------------------------------------

def check_nsmd(d: FiniteJointDistribution, caps: Caps | None = None) -> Verdict:
    """Below the independent copy in the supermodular order."""
    return _check_nsmd(LawCache(d), caps)


def _check_nsmd(work: LawCache, caps) -> Verdict:
    """On the law's integer view, with no independent-copy law (docs/theory.md
    section 10)."""
    _require_joint(work.d)
    points, witness = below_independent_copy(work.view, work.grid, caps)
    return Verdict("nsmd", witness is None, witness, CheckStats(conditioning_pairs=points))


# -- regression-style dependence ----------------------------------------------

def _tail_event(kind: str, variant: str, indices, thresholds) -> ConditioningEvent:
    if kind == EQ:
        return eq_event(indices, thresholds)
    if kind == LOWER:
        return lower_event(indices, thresholds, strict=(variant == STRICT))
    return upper_event(indices, thresholds, strict=(variant == WEAK))


_TAIL_OPS = {(LOWER, WEAK): "<=", (LOWER, STRICT): "<",
             (UPPER, WEAK): ">", (UPPER, STRICT): ">="}  # as in _tail_event


def _tail_masks(eq: list[int], op: str, sentinel: bool) -> list[int]:
    """The atom masks of {x op v} for the support values v of one axis, ascending.

    ``eq[r]`` is the mask of the atoms of rank r, so each mask is a prefix
    (lower tails) or suffix (upper tails) OR of them. With ``sentinel`` the
    grid also gets the unbounded threshold, whose mask is every atom: +inf
    after the values for lower tails, -inf before them for upper tails.
    """
    s = len(eq)
    if op in ("<=", "<"):
        below = list(itertools.accumulate(eq, or_, initial=0))  # below[r]: ranks < r
        masks = below[1:] if op == "<=" else below[:s]
        return masks + [below[s]] if sentinel else masks
    above = list(itertools.accumulate(reversed(eq), or_, initial=0))[::-1]  # ranks >= r
    masks = above[:s] if op == ">=" else above[1:]
    return [above[0]] + masks if sentinel else masks


def _label_masks(view, tails: Sequence[tuple[int, str]], pinned: Sequence[int],
                 sentinel: bool) -> list[tuple[tuple[int, ...], int]]:
    """Every conditioning label with a nonempty event, in lexicographic order,
    with its atom mask.

    A label holds one grid position per tail axis (``tails`` pairs a column
    with its comparison) followed by the ranks of the pinned columns. Its
    mask is the AND of one bitset per tail axis and the bitset of the atoms
    carrying those pinned ranks (docs/theory.md section 6).
    """
    _, ranks, sizes = view
    axes = []
    for c, op in tails:
        eq = [0] * sizes[c]
        for k, r in enumerate(ranks):
            eq[r[c]] |= 1 << k
        axes.append([((p,), m) for p, m in enumerate(_tail_masks(eq, op, sentinel))])
    groups: dict[tuple[int, ...], int] = {}
    for k, r in enumerate(ranks):
        key = tuple(r[c] for c in pinned)
        groups[key] = groups.get(key, 0) | 1 << k
    axes.append(sorted(groups.items()))
    labels = [((), (1 << len(ranks)) - 1)]
    for axis in axes:
        labels = [(label + part, mask & bits) for label, mask in labels
                  for part, bits in axis if mask & bits]
    return labels


def _ext_leq(a: Sequence[Extended], b: Sequence[Extended]) -> bool:
    return all(x <= y for x, y in zip(a, b))


class _CellContext:
    """Per-cell machinery: cached conditional laws, cached orders, the pair loop.

    ``given`` is the conditioning block; the observed block is the rest.
    Every order is decided on integer conditional laws keyed by packed ranks
    of the columns compared; Fraction conditional laws are read off them
    only for verify mode's upper-set sweep and for the witness.
    """

    def __init__(self, work: LawCache, given, caps, st_mode):
        self.work = work
        self.caps = caps
        self.st_mode = st_mode
        self.weights, self.ranks, self.sizes = work.view
        self.i_max = tuple(j for j in range(1, len(self.sizes) + 1) if j not in given)
        self.blocks: dict[tuple[int, ...], tuple[int, list[int], dict]] = {}
        self.guards = self.block(self.i_max)[0]
        self.st_cache: dict[tuple[int, int], bool] = {}
        self.st_checks = 0
        self.upper_sets = 0

    def block(self, block: tuple[int, ...]):
        """The guard bits of the block's rank packing, each atom's packed ranks
        on the block, and the block's integer laws by mask."""
        entry = self.blocks.get(block)
        if entry is None:
            cols = [j - 1 for j in block]
            packing = RankPacking([self.sizes[c] for c in cols])
            keys = [packing.pack([r[c] for c in cols]) for r in self.ranks]
            entry = self.blocks[block] = (packing.guards, keys, {})
        return entry

    def int_law(self, mask: int, block: tuple[int, ...] | None = None) -> IntegerLaw:
        """The law of the block (default: the observed one) given ``mask``."""
        _, keys, cache = self.block(block or self.i_max)
        law = cache.get(mask)
        if law is None:
            law = cache[mask] = masked_law(mask, keys, self.weights)
        return law

    def law(self, mask: int, block: tuple[int, ...] | None = None) -> FiniteJointDistribution:
        """``int_law`` as a Fraction law on the support values."""
        block = block or self.i_max
        law, grid = self.int_law(mask, block), self.work.grid
        ranks = dict(zip(self.block(block)[1], self.ranks))  # key -> an atom's ranks
        return FiniteJointDistribution(len(block), tuple(
            (tuple(grid[j - 1][ranks[key][j - 1]] for j in block), Fraction(w, law.total))
            for key, w in zip(law.keys, law.weights)))

    def decide(self, mask_lo: int, mask_hi: int, block: tuple[int, ...]) -> bool:
        """Does [X_block | high] <=st [X_block | low]? Verify mode also sweeps
        the upper sets of both laws and raises if the two oracles disagree."""
        hi, lo = self.int_law(mask_hi, block), self.int_law(mask_lo, block)
        holds = integer_coupling(hi, lo, self.block(block)[0])[0] is not None
        if self.st_mode == "verify":
            by_sets = st_leq_uppersets(self.law(mask_hi, block), self.law(mask_lo, block),
                                       caps=self.caps)
            require_agreement(holds, by_sets.holds)
            # counted as st_leq reports it: a TRUE verdict is the coupling's,
            # which examines no upper set
            if not holds:
                self.upper_sets += by_sets.upper_sets_examined
        self.st_checks += 1
        return holds

    def st_screen(self, mask_lo: int, mask_hi: int) -> bool:
        """``decide`` on the observed block, cached per pair of events."""
        key = (mask_lo, mask_hi)
        cached = self.st_cache.get(key)
        if cached is None:
            cached = self.st_cache[key] = self.decide(mask_lo, mask_hi, self.i_max)
        return cached

    def first_failing_pair(self, labels: list[tuple[tuple[int, ...], int]]):
        """The first ordered pair of labels, low <= high componentwise, whose
        conditional law at high is not below the one at low, as
        ``((low, mask_lo), (high, mask_hi))`` or None, and the number of
        ordered pairs examined up to it."""
        pairs = 0
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


def _deterministic_upper_violation(ctx: _CellContext, law_hi, law_lo) -> UpperSetViolation:
    """First violating upper set in enumeration order, for the witness of a
    regression cell or a conjecture partition; past the sweep's cap, the
    upper set of the coupling's minimal minimum cut."""
    try:
        verdict = st_leq_uppersets(law_hi, law_lo, caps=ctx.caps)
        ctx.upper_sets += verdict.upper_sets_examined
        if not verdict.holds:
            return verdict.violation
    except EnumerationCapExceeded:
        pass
    verdict = st_leq(law_hi, law_lo, mode="fast")
    if verdict.holds:
        raise InternalConsistencyError("screen failed but no violation found")
    return verdict.violation


def _coordinate_means(law: FiniteJointDistribution) -> tuple[Fraction, ...]:
    means = [ZERO] * law.dim
    for x, p in law.atoms:
        for a, v in enumerate(x):
            means[a] += v * p
    return tuple(means)


def _scan_regression_cell(args) -> tuple[RegressionWitness | None, CheckStats]:
    work, J, kind, variant, caps, st_mode = args
    ctx = _CellContext(work, J, caps, st_mode)
    cols = [j - 1 for j in J]
    if kind == EQ:
        labels = _label_masks(work.view, (), cols, sentinel=False)
    else:
        labels = _label_masks(work.view, [(c, _TAIL_OPS[kind, variant]) for c in cols], (),
                              sentinel=True)
    found, pairs_examined = ctx.first_failing_pair(labels)
    witness = None
    if found is not None:
        (low, mask_lo), (high, mask_hi) = found
        axes = work.grid
        grids = [axes[c] + (POS_INF,) if kind == LOWER
                 else (NEG_INF,) + axes[c] if kind == UPPER else axes[c] for c in cols]
        # violation somewhere; locate the minimal observed block
        block = next((b for b in _subsets(ctx.i_max)
                      if not ctx.decide(mask_lo, mask_hi, b)), None)
        if block is None:
            raise InternalConsistencyError(
                "full-block comparison failed but every sub-block passed"
            )
        law_hi, law_lo = ctx.law(mask_hi, block), ctx.law(mask_lo, block)
        witness = RegressionWitness(
            kind=kind, variant=variant, given=J, observed=block,
            point_low=tuple(g[p] for g, p in zip(grids, low)),
            point_high=tuple(g[p] for g, p in zip(grids, high)),
            violation=_deterministic_upper_violation(ctx, law_hi, law_lo),
            mean_low=_coordinate_means(law_lo),
            mean_high=_coordinate_means(law_hi),
        )
    return witness, CheckStats(cells=1, conditioning_pairs=pairs_examined,
                               st_checks=ctx.st_checks, upper_sets=ctx.upper_sets)


def _scan_in_order(scan: Callable, cells: list, jobs: int):
    """Yield the per-cell scan results in cell order, computed sequentially or
    in a process pool. Closing the generator stops the pool: cells not yet
    handed to a worker never start."""
    if jobs <= 1 or len(cells) <= 1:
        yield from map(scan, cells)
        return
    pool = ProcessPoolExecutor(max_workers=jobs)
    try:
        yield from pool.map(scan, cells, chunksize=max(1, len(cells) // (4 * jobs)))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _run_cells(scan: Callable, cells: list, jobs: int, done: dict | None = None):
    """The first witness in cell order, with the stats summed up to its cell,
    so worker count never changes the outcome.

    ``cells`` pairs each cell's key with its scan argument. A result is read
    from ``done`` by key when it is there; only the missing cells before the
    first kept witness are scanned, and their results are kept in ``done``.
    """
    done = {} if done is None else done
    todo = []
    for key, args in cells:
        if key not in done:
            todo.append(args)
        elif done[key][0] is not None:
            break
    total = CheckStats()
    with closing(_scan_in_order(scan, todo, jobs)) as fresh:
        for key, _ in cells:
            if key not in done:
                done[key] = next(fresh)
            witness, stats = done[key]
            total = total.plus(stats)
            if witness is not None:
                return witness, total
    return None, total


def _check_regression_family(work, kind, prop, max_j, variant, caps, st_mode, jobs):
    d = work.d
    _require_joint(d)
    if variant not in (WEAK, STRICT):
        raise ValueError(f"unknown variant {variant!r}")
    if max_j is not None and max_j < 1:
        raise ValueError(f"max_j must be at least 1, got {max_j}")
    caps = caps or default_caps()
    limit = d.dim - 1 if max_j is None else min(max_j, d.dim - 1)
    work.view  # built here once, not in every worker
    cells = [((kind, variant, J), (work, J, kind, variant, caps, st_mode))
             for J in _subsets(range(1, d.dim + 1), limit)]
    witness, stats = _run_cells(_scan_regression_cell, cells, jobs, work.cells)
    restricted = limit < d.dim - 1
    return Verdict(prop, witness is None, witness, stats,
                   definitive=witness is not None or not restricted)


def check_nrd(d: FiniteJointDistribution, max_j: int | None = None,
              caps: Caps | None = None, st_mode: str = "fast",
              jobs: int = 1) -> Verdict:
    """Conditional laws decrease stochastically in equality conditioning points."""
    return _check_regression_family(LawCache(d), EQ, "nrd", max_j, WEAK, caps, st_mode, jobs)


def check_nltd(d: FiniteJointDistribution, max_j: int | None = None,
               variant: str = WEAK, caps: Caps | None = None,
               st_mode: str = "fast", jobs: int = 1) -> Verdict:
    """Same with lower-tail conditioning {X_J <= x_J} (strict variant: <)."""
    return _check_regression_family(LawCache(d), LOWER, "nltd", max_j, variant, caps,
                                    st_mode, jobs)


def check_nrtd(d: FiniteJointDistribution, max_j: int | None = None,
               variant: str = WEAK, caps: Caps | None = None,
               st_mode: str = "fast", jobs: int = 1) -> Verdict:
    """Same with upper-tail conditioning {X_J > x_J} (strict variant: >=)."""
    return _check_regression_family(LawCache(d), UPPER, "nrtd", max_j, variant, caps,
                                    st_mode, jobs)


def check_nrd1(d, caps=None, st_mode="fast", jobs=1) -> Verdict:
    return PROPERTIES["nrd1"](LawCache(d), None, WEAK, caps, st_mode, jobs)


def check_nltd1(d, variant=WEAK, caps=None, st_mode="fast", jobs=1) -> Verdict:
    return PROPERTIES["nltd1"](LawCache(d), None, variant, caps, st_mode, jobs)


def check_nrtd1(d, variant=WEAK, caps=None, st_mode="fast", jobs=1) -> Verdict:
    return PROPERTIES["nrtd1"](LawCache(d), None, variant, caps, st_mode, jobs)


# -- stochastic monotonicity of a parametrized family --------------------------

def check_stoch_increasing(family: Mapping[tuple, FiniteJointDistribution],
                           caps: Caps | None = None,
                           st_mode: str = "fast") -> Verdict:
    """Is theta <= theta' implies family[theta] <=st family[theta']?"""
    items = sorted(family.items())
    pairs = 0
    stats_st = 0
    for k, (theta, dist) in enumerate(items):
        for theta2, dist2 in items[k + 1:]:
            if not _ext_leq(theta, theta2):
                continue
            pairs += 1
            verdict = st_leq(dist, dist2, mode=st_mode, caps=caps)
            stats_st += 1
            if not verdict.holds:
                witness = MonotonicityWitness(theta, theta2, verdict.violation)
                return Verdict("stoch_increasing", False, witness,
                               CheckStats(conditioning_pairs=pairs, st_checks=stats_st))
    return Verdict("stoch_increasing", True, None,
                   CheckStats(conditioning_pairs=pairs, st_checks=stats_st))


# -- implication audit ---------------------------------------------------------

def _regression_entry(kind: str, prop: str) -> Callable[..., Verdict]:
    """A PROPERTIES entry; a name ending in 1 conditions on one coordinate at
    a time, which is definitive."""
    base = prop.rstrip("1")

    def run(work, max_j, variant, caps, st_mode, jobs):
        v = _check_regression_family(work, kind, base, max_j if base == prop else 1,
                                     WEAK if kind == EQ else variant, caps, st_mode, jobs)
        return v if base == prop else replace(v, prop=prop, definitive=True)
    return run


#: Every property, in audit order, with its checker called on
#: (work, max_j, variant, caps, st_mode, jobs), where ``work`` is the law's
#: ``LawCache``, shared by every property decided on the law with the same
#: caps and st mode. A checker ignores the settings it has no use for; NA
#: reads max_j as its block cap.
PROPERTIES: dict[str, Callable[..., Verdict]] = {
    "nlod": lambda work, *_: _orthant_scan(work, "lower"),
    "nuod": lambda work, *_: _orthant_scan(work, "upper"),
    "nod": lambda work, *_: _check_nod(work),
    "na": lambda work, max_j, variant, caps, st_mode, jobs: _check_na(work, max_j, caps, jobs),
    "nsmd": lambda work, max_j, variant, caps, *_: _check_nsmd(work, caps),
    "nrd": _regression_entry(EQ, "nrd"),
    "nltd": _regression_entry(LOWER, "nltd"),
    "nrtd": _regression_entry(UPPER, "nrtd"),
    "nrd1": _regression_entry(EQ, "nrd1"),
    "nltd1": _regression_entry(LOWER, "nltd1"),
    "nrtd1": _regression_entry(UPPER, "nrtd1"),
}

#: Implications safe to assert between definitive verdicts. The open
#: questions (full regression dependence implying the tail forms or
#: association) are deliberately absent.
SAFE_IMPLICATIONS: tuple[tuple[str, str], ...] = (
    ("na", "nsmd"), ("na", "nod"), ("nsmd", "nod"),
    ("nrd", "nrd1"), ("nrd1", "nltd1"), ("nrd1", "nrtd1"),
    ("nltd", "nltd1"), ("nltd1", "nlod"), ("nrtd", "nrtd1"), ("nrtd1", "nuod"),
    ("nltd", "nlod"), ("nrtd", "nuod"),
)


@dataclass(frozen=True)
class AuditReport:
    verdicts: dict
    skipped: dict            # property -> reason string
    implications_checked: int


def audit_implications(d: FiniteJointDistribution, max_j: int | None = None,
                       caps: Caps | None = None, st_mode: str = "fast",
                       jobs: int = 1) -> AuditReport:
    """Run every checker and assert the safe implications between them.

    A failed implication is a bug in this artifact, not a property of the
    input, and raises ImplicationViolation. Checkers that exceed their caps
    are recorded as skipped; TRUE verdicts weakened by a block-size cap are
    never used as antecedents.
    """
    caps = caps or default_caps()
    verdicts: dict[str, Verdict] = {}
    skipped: dict[str, str] = {}

    work = LawCache(d)
    for name, run in PROPERTIES.items():
        try:
            verdicts[name] = run(work, max_j, WEAK, caps, st_mode, jobs)
        except (EnumerationCapExceeded, GridTooLarge) as exc:
            skipped[name] = f"{type(exc).__name__}: {exc}"

    checked = 0
    for antecedent, consequent in SAFE_IMPLICATIONS:
        va = verdicts.get(antecedent)
        vb = verdicts.get(consequent)
        if va is None or vb is None:
            continue
        if va.holds and va.definitive:
            checked += 1
            if not vb.holds:
                raise ImplicationViolation(
                    f"{antecedent} holds but {consequent} fails on the same law; "
                    f"witness: {vb.witness}"
                )
    return AuditReport(verdicts, skipped, checked)


# -- mixed-conditioning monotonicity on permutation laws -----------------------

@dataclass(frozen=True)
class ConjectureReport:
    values: tuple[Fraction, ...]
    holds_on_instance: bool
    witness: ConjectureWitness | None
    stats: CheckStats


def _scan_conjecture_partition(args):
    work, raised, lowered, pinned, observed, caps, st_mode = args
    ctx = _CellContext(work, raised + lowered + pinned, caps, st_mode)
    # a label is the raised thresholds' positions, then the lowered ones',
    # then the pinned block's ranks
    tails = [(j - 1, ">=") for j in raised] + [(j - 1, "<=") for j in lowered]
    labels = _label_masks(work.view, tails, [j - 1 for j in pinned], sentinel=False)
    found, pairs = ctx.first_failing_pair(labels)
    stats = CheckStats(cells=1, conditioning_pairs=pairs, st_checks=ctx.st_checks)
    if found is None:
        return None, stats
    (low, mask_lo), (high, mask_hi) = found
    axes = [work.grid[j - 1] for j in raised + lowered + pinned]
    cuts = (len(raised), len(raised) + len(lowered))

    def triple(label):
        point = tuple(ax[p] for ax, p in zip(axes, label))
        return point[:cuts[0]], point[cuts[0]:cuts[1]], point[cuts[1]:]

    witness = ConjectureWitness(
        raised=raised, lowered=lowered, pinned=pinned, observed=observed,
        triple_low=triple(low), triple_high=triple(high),
        violation=_deterministic_upper_violation(ctx, ctx.law(mask_hi), ctx.law(mask_lo)),
    )
    return witness, stats


def check_conjecture(values: Sequence, max_n: int = 5,
                     caps: Caps | None = None, st_mode: str = "fast",
                     jobs: int = 1) -> ConjectureReport:
    """Exhaustive mixed-conditioning monotonicity check on one permutation law.

    Partitions the coordinates into a raised block (conditioned {X_I >= x}),
    a lowered block ({X_J <= x}), a pinned block ({X_K = x}) and a nonempty
    observed block, and tests that the observed conditional law decreases
    stochastically as the conditioning triple increases. Reports only on this
    instance; a found counterexample is re-verified from scratch first.
    """
    if len(values) > max_n:
        raise EnumerationCapExceeded(
            f"{len(values)} values exceed the guard of {max_n}"
        )
    if len(values) < 2:
        raise ValueError("need at least two values")
    caps = caps or default_caps()
    d = permutation_distribution(values)
    work = LawCache(d)
    work.view  # built here once, not in every worker
    n = d.dim

    partitions = []
    for assignment in itertools.product(range(4), repeat=n):
        raised = tuple(k + 1 for k, a in enumerate(assignment) if a == 0)
        lowered = tuple(k + 1 for k, a in enumerate(assignment) if a == 1)
        pinned = tuple(k + 1 for k, a in enumerate(assignment) if a == 2)
        observed = tuple(k + 1 for k, a in enumerate(assignment) if a == 3)
        if not observed:
            continue
        if not (raised or lowered or pinned):
            continue  # nothing to vary
        partitions.append((assignment, (work, raised, lowered, pinned, observed, caps,
                                         st_mode)))

    witness, stats = _run_cells(_scan_conjecture_partition, partitions, jobs)
    if witness is not None:
        _reverify_conjecture_witness(d, witness)
    return ConjectureReport(tuple(as_rational(v) for v in values),
                            witness is None, witness, stats)


def _reverify_conjecture_witness(d: FiniteJointDistribution,
                                 w: ConjectureWitness) -> None:
    """Recompute the witness violation from scratch with first principles."""
    def conditional(triple):
        t_r, t_l, t_p = triple
        entries: dict[Vector, Fraction] = {}
        total = ZERO
        for x, p in d.atoms:
            if not all(x[j - 1] >= t for j, t in zip(w.raised, t_r)):
                continue
            if not all(x[j - 1] <= t for j, t in zip(w.lowered, t_l)):
                continue
            if not all(x[j - 1] == t for j, t in zip(w.pinned, t_p)):
                continue
            total += p
            key = tuple(x[j - 1] for j in w.observed)
            entries[key] = entries.get(key, ZERO) + p
        if total == 0:
            raise InternalConsistencyError("witness event has zero probability")
        return {x: p / total for x, p in entries.items()}

    law_lo = conditional(w.triple_low)
    law_hi = conditional(w.triple_high)
    u = w.violation.upper_set
    p_hi = sum((p for x, p in law_hi.items() if u.contains(x)), ZERO)
    p_lo = sum((p for x, p in law_lo.items() if u.contains(x)), ZERO)
    if not (p_hi == w.violation.p_left and p_lo == w.violation.p_right and p_hi > p_lo):
        raise InternalConsistencyError("conjecture witness failed re-verification")


# -- witness re-verification ----------------------------------------------------

def verify_witness(d: FiniteJointDistribution, verdict: Verdict) -> None:
    """Re-evaluate a FALSE verdict's witness from scratch; raise if it fails."""
    if verdict.holds:
        raise ValueError("nothing to verify on a TRUE verdict")
    w = verdict.witness
    if isinstance(w, OrthantWitness):
        n = d.dim
        tail = lower_event if w.side == "lower" else upper_event  # {X <= x} or {X > x}
        prod = ONE
        for j in range(1, n + 1):
            prod *= d.marginal([j]).mass_of(tail([1], [w.corner[j - 1]]))
        joint = d.mass_of(tail(range(1, n + 1), w.corner))
        if not (joint == w.joint and prod == w.product and joint > prod):
            raise InternalConsistencyError("orthant witness failed re-verification")
        return
    if isinstance(w, AssociationWitness):
        cols1 = [j - 1 for j in w.block1]
        cols2 = [j - 1 for j in w.block2]
        joint = ZERO
        p1 = ZERO
        p2 = ZERO
        for x, p in d.atoms:
            in1 = w.upper1.contains(tuple(x[c] for c in cols1))
            in2 = w.upper2.contains(tuple(x[c] for c in cols2))
            if in1:
                p1 += p
            if in2:
                p2 += p
            if in1 and in2:
                joint += p
        if not (joint == w.p_joint and p1 == w.p1 and p2 == w.p2 and joint > p1 * p2):
            raise InternalConsistencyError("association witness failed re-verification")
        return
    if isinstance(w, SupermodularWitness):
        # the re-check itself requires left > right
        if witness_expectations(w.function, d, independent_copy(d)) != (w.left, w.right):
            raise InternalConsistencyError("supermodular witness failed re-verification")
        return
    if isinstance(w, RegressionWitness):
        ev_lo = _tail_event(w.kind, w.variant, w.given, w.point_low)
        ev_hi = _tail_event(w.kind, w.variant, w.given, w.point_high)
        law_lo = d.condition(ev_lo, keep=list(w.observed))
        law_hi = d.condition(ev_hi, keep=list(w.observed))
        u = w.violation.upper_set
        p_hi = sum((p for x, p in law_hi.atoms if u.contains(x)), ZERO)
        p_lo = sum((p for x, p in law_lo.atoms if u.contains(x)), ZERO)
        ok = (p_hi == w.violation.p_left and p_lo == w.violation.p_right
              and p_hi > p_lo
              and _coordinate_means(law_lo) == w.mean_low
              and _coordinate_means(law_hi) == w.mean_high)
        if not ok:
            raise InternalConsistencyError("regression witness failed re-verification")
        return
    raise TypeError(f"no re-verification for witness type {type(w).__name__}")
