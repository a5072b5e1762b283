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

The regression-style checkers screen the cover pairs of each cell's
conditioning labels on the maximal observed block (``negdep.conditioning``):
the stochastic order is transitive and closed under coordinate projections,
so those comparisons decide the cell, and the per-subset scan runs only to
locate a minimal witness.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from fractions import Fraction
from operator import add, mul
from typing import Callable, Mapping, Sequence

from .conditioning import CellContext, label_masks
from .distributions import (
    EQ,
    LOWER,
    UPPER,
    ConditioningEvent,
    FiniteJointDistribution,
    IntegerView,
    Vector,
    eq_event,
    independent_copy,
    integer_view,
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
from .maxflow import bits
from .rationals import NEG_INF, POS_INF, Extended, as_rational
from .stochorder import RankPacking, UpperSetViolation, require_st_mode, st_leq
from .supermodular import SupermodularWitness, below_independent_copy, witness_expectations
from .symmetry import (
    block_orbits,
    generators,
    least_failing_corner,
    orbit_leaders,
    stabilizer,
)
from .uppersets import (
    UpperSet,
    componentwise_leq,
    from_members,
    grid_strides,
    upper_set_sums,
)

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
    st_checks: int = 0            # stochastic orders decided
    upper_sets: int = 0           # upper sets NA's scan enumerated

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

    It holds the law's ``integer_view``, with the support grid, and the
    generators of its coordinate automorphisms, each built on first use
    unless a parsed law file brings its view along; the regression cell
    results keyed by (kind, variant, J), the orthant verdicts keyed by side,
    the orbit maps keyed by observed block and the packed rank keys keyed by
    block. A cell's result also depends on the caps and the st mode, which
    stay fixed while the cache lives.
    """

    def __init__(self, d: FiniteJointDistribution, view: IntegerView | None = None):
        self.d = d
        if view is not None:
            self.view = view
        self.cells: dict[tuple, tuple] = {}
        self.orthants: dict[str, Verdict] = {}
        self.orbits: dict[tuple, object] = {}
        self.keys: dict[tuple[int, ...], tuple[int, list[int]]] = {}

    @cached_property
    def view(self):
        return integer_view(self.d)

    @cached_property
    def generators(self):
        return generators(self.view)

    def packed_keys(self, block: tuple[int, ...]) -> tuple[int, list[int]]:
        """The guard bits of the rank packing of the coordinates ``block``
        (1-based), and each atom's packed ranks on them."""
        if block not in self.keys:
            cols = [j - 1 for j in block]
            packing = RankPacking([self.view[2][c] for c in cols])
            self.keys[block] = (packing.guards,
                                [packing.pack(map(r.__getitem__, cols)) for r in self.view[1]])
        return self.keys[block]

    def leaders(self, cells):
        return orbit_leaders(self.generators, cells)

    def orbits_of(self, observed):
        """The orbits, on the block ``observed``, of the generators that fix
        every other coordinate (docs/theory.md section 11)."""
        if not self.generators:
            return None
        if observed not in self.orbits:
            cols = [j - 1 for j in observed]
            fixed = [c for c in range(self.d.dim) if c not in cols]
            self.orbits[observed] = block_orbits(
                self.view, stabilizer(self.generators, fixed), cols)
        return self.orbits[observed]


# -- orthant dependence -------------------------------------------------------

def _orthant_scan(work: LawCache, side: str) -> Verdict:
    """Compare the joint orthant mass with the product of marginal masses.

    Both sides are step functions jumping only at support values, so the
    per-axis corner grid is exhaustive; the upper side additionally needs a
    "no constraint" sentinel per axis (threshold below every support value).

    Lower side, axis positions k = 0..s-1: corner value axes[k], event
    {rank <= k}. Upper side, positions k = 0..s-1: corner value -inf for
    k = 0 and axes[k-1] for k >= 1 (the event {X > axes[k-1]} holds iff
    rank >= k). The upper corners at axes[s-1] bound an empty event and
    never fail, so they are not visited, but
    corners are counted on the grid that has them, of prod (s_i + 1)
    corners (docs/theory.md section 7).

    Masses are integer weights over the law's common denominator D, so a
    corner fails iff joint * D**(n-1) > product of the marginal weights.
    The witness is the lexicographically first failing corner, found by
    :func:`negdep.symmetry.least_failing_corner` with one corner per orbit
    of the law's automorphisms (each corner its own orbit when it has none)
    and no grid. The verdict is kept in ``work``, so a law's scan of each
    side runs once.
    """
    cached = work.orthants.get(side)
    if cached is not None:
        return cached
    d = work.d
    _require_joint(d)
    weights, _, sizes = work.view
    upper = side == "upper"
    total = sum(weights)
    first = least_failing_corner(work.view, work.generators, upper)
    name = "nlod" if side == "lower" else "nuod"
    counted, corners = grid_strides([s + upper for s in sizes])
    if first is None:
        verdict = Verdict(name, True, None, CheckStats(conditioning_pairs=corners))
    else:
        position, joint, product = first
        grids = [(NEG_INF,) + ax if upper else ax for ax in work.view.axes]
        witness = OrthantWitness(side, tuple(g[k] for g, k in zip(grids, position)),
                                 Fraction(joint, total), Fraction(product, total ** d.dim))
        verdict = Verdict(name, False, witness,
                          CheckStats(conditioning_pairs=sum(map(mul, position, counted)) + 1))
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

@lru_cache(maxsize=None)
def _block_pairs(n: int, max_block: int | None) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The disjoint pairs of blocks of coordinates 1..n, A1 before A2 in
    (size, lex) order, built once per (n, max_block)."""
    subsets = _subsets(range(1, n + 1), max_block)
    masks = [sum(1 << j for j in s) for s in subsets]
    return tuple((a1, a2) for k, (a1, m1) in enumerate(zip(subsets, masks))
                 for a2, m2 in zip(subsets[k + 1:], masks[k + 1:]) if not m1 & m2)


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
    p2 = [sum(col) for col in zip(*table)]
    total = sum(weights)

    upper2 = [(bits(m), mass2) for m, mass2 in
              upper_set_sums(support2, p2, 0, cap=caps.max_upper_sets)]
    examined = 0
    stats_upper = len(upper2)
    # each upper set of A1 carries its row of table sums, whose total is mass1
    for members1, row in upper_set_sums(support1, table, [0] * len(support2),
                                        lambda r, t: list(map(add, r, t)), caps.max_upper_sets):
        stats_upper += 1
        mass1 = sum(row)
        for idx2, mass2 in upper2:
            examined += 1
            mass12 = sum(map(row.__getitem__, idx2))
            if mass12 * total > mass1 * mass2:
                axes = work.view.axes

                def members(support, idx, cols):
                    return from_members([tuple(axes[c][k] for c, k in zip(cols, support[i]))
                                         for i in idx])

                witness = AssociationWitness(
                    a1, a2, members(support1, bits(members1), cols1),
                    members(support2, idx2, cols2),
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
    pairs = _block_pairs(d.dim, max_block)
    cells = [(pair, (work, *pair, caps)) for pair in pairs]
    witness, stats = _run_cells(_scan_association_cell, cells, jobs, None, work.leaders(pairs))
    restricted = max_block is not None and max_block < d.dim - 1
    return Verdict("na", witness is None, witness, stats,
                   definitive=witness is not None or not restricted)


# -- negative supermodular dependence -----------------------------------------

def check_nsmd(d: FiniteJointDistribution, caps: Caps | None = None) -> Verdict:
    """Below the independent copy in the supermodular order."""
    return _check_nsmd(LawCache(d), caps)


def _check_nsmd(work: LawCache, caps) -> Verdict:
    """On the law's integer view, with no independent-copy law: the grid cap,
    then the closure chain on the atoms, then, for a law the chain does not
    certify, the grid (docs/theory.md sections 10 and 13)."""
    _require_joint(work.d)
    points, witness = below_independent_copy(work.view, caps)
    return Verdict("nsmd", witness is None, witness, CheckStats(conditioning_pairs=points))


# -- regression-style dependence ----------------------------------------------

#: The comparison of a tail event {X_j op t} by (kind, variant).
_TAIL_OPS = {(LOWER, WEAK): "<=", (LOWER, STRICT): "<",
             (UPPER, WEAK): ">", (UPPER, STRICT): ">="}


def _tail_event(kind: str, variant: str, indices, thresholds) -> ConditioningEvent:
    if kind == EQ:
        return eq_event(indices, thresholds)
    op = _TAIL_OPS[kind, variant]
    event = lower_event if kind == LOWER else upper_event
    return event(indices, thresholds, strict=op in ("<", ">"))


def _scan_regression_cell(args) -> tuple[RegressionWitness | None, CheckStats]:
    work, J, kind, variant, caps, st_mode = args
    ctx = CellContext(work, J, caps, st_mode)
    cols = [j - 1 for j in J]
    if kind == EQ:
        labels = label_masks(work.view, (), cols, sentinel=False)
    else:
        labels = label_masks(work.view, [(c, _TAIL_OPS[kind, variant]) for c in cols], (),
                              sentinel=True)
    found, pairs_examined = ctx.first_failing_pair(labels, kind != EQ)
    witness = None
    if found is not None:
        (low, mask_lo), (high, mask_hi) = found
        axes = work.view.axes
        grids = [axes[c] + (POS_INF,) if kind == LOWER
                 else (NEG_INF,) + axes[c] if kind == UPPER else axes[c] for c in cols]
        # violation somewhere; locate the minimal observed block
        block = next((b for b in _subsets(ctx.i_max)
                      if not ctx.tally(ctx.decide(mask_lo, mask_hi, b))), None)
        if block is None:
            raise InternalConsistencyError(
                "full-block comparison failed but every sub-block passed"
            )
        u, violation = ctx.witness(mask_lo, mask_hi, block)
        mean_high, mean_low = u.means()
        witness = RegressionWitness(
            kind=kind, variant=variant, given=J, observed=block,
            point_low=tuple(g[p] for g, p in zip(grids, low)),
            point_high=tuple(g[p] for g, p in zip(grids, high)),
            violation=violation, mean_low=mean_low, mean_high=mean_high,
        )
    return witness, CheckStats(cells=1, conditioning_pairs=pairs_examined,
                               st_checks=ctx.st_checks)


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


def _run_cells(scan: Callable, cells: list, jobs: int, done: dict | None = None,
               leaders: list[int] | None = None):
    """The first witness in cell order, with the stats summed up to its cell,
    so worker count never changes the outcome.

    ``cells`` pairs each cell's key with its scan argument. A result is read
    from ``done`` by key when it is there; only the missing cells before the
    first kept witness are scanned, and their results are kept in ``done``.
    ``leaders`` gives each cell the index of the earliest cell of its
    symmetry orbit; only those are scanned, and every other cell takes its
    leader's result, which is TRUE (docs/theory.md section 11).
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    done = {} if done is None else done
    leaders = leaders or range(len(cells))
    todo = []
    for k, (key, args) in enumerate(cells):
        if key in done:
            if done[key][0] is not None:
                break
        elif leaders[k] == k:
            todo.append(args)
    total = CheckStats()
    with closing(_scan_in_order(scan, todo, jobs)) as fresh:
        for k, (key, _) in enumerate(cells):
            if key not in done:
                done[key] = next(fresh) if leaders[k] == k else done[cells[leaders[k]][0]]
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
    require_st_mode(st_mode)
    if max_j is not None and max_j < 1:
        raise ValueError(f"max_j must be at least 1, got {max_j}")
    caps = caps or default_caps()
    limit = d.dim - 1 if max_j is None else min(max_j, d.dim - 1)
    work.view  # built here once, not in every worker
    blocks = _subsets(range(1, d.dim + 1), limit)
    cells = [((kind, variant, J), (work, J, kind, variant, caps, st_mode)) for J in blocks]
    witness, stats = _run_cells(_scan_regression_cell, cells, jobs, work.cells,
                                work.leaders([(J,) for J in blocks]))
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


def check_nrd1(d: FiniteJointDistribution, caps: Caps | None = None,
               st_mode: str = "fast", jobs: int = 1) -> Verdict:
    """NRD conditioning on one coordinate at a time, which is definitive."""
    return PROPERTIES["nrd1"](LawCache(d), None, WEAK, caps, st_mode, jobs)


def check_nltd1(d: FiniteJointDistribution, variant: str = WEAK,
                caps: Caps | None = None, st_mode: str = "fast", jobs: int = 1) -> Verdict:
    """NLTD conditioning on one coordinate at a time, which is definitive."""
    return PROPERTIES["nltd1"](LawCache(d), None, variant, caps, st_mode, jobs)


def check_nrtd1(d: FiniteJointDistribution, variant: str = WEAK,
                caps: Caps | None = None, st_mode: str = "fast", jobs: int = 1) -> Verdict:
    """NRTD conditioning on one coordinate at a time, which is definitive."""
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
            if not componentwise_leq(theta, theta2):
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
    ctx = CellContext(work, raised + lowered + pinned, caps, st_mode)
    # a label is the raised thresholds' positions, then the lowered ones',
    # then the pinned block's ranks
    tails = [(j - 1, ">=") for j in raised] + [(j - 1, "<=") for j in lowered]
    labels = label_masks(work.view, tails, [j - 1 for j in pinned], sentinel=False)
    found, pairs = ctx.first_failing_pair(labels)
    witness = None
    if found is not None:
        (low, mask_lo), (high, mask_hi) = found
        axes = [work.view.axes[j - 1] for j in raised + lowered + pinned]
        cuts = (len(raised), len(raised) + len(lowered))

        def triple(label):
            point = tuple(ax[p] for ax, p in zip(axes, label))
            return point[:cuts[0]], point[cuts[0]:cuts[1]], point[cuts[1]:]

        witness = ConjectureWitness(
            raised=raised, lowered=lowered, pinned=pinned, observed=observed,
            triple_low=triple(low), triple_high=triple(high),
            violation=ctx.witness(mask_lo, mask_hi, ctx.i_max)[1],
        )
    return witness, CheckStats(cells=1, conditioning_pairs=pairs, st_checks=ctx.st_checks)


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
    require_st_mode(st_mode)
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
        blocks = (raised, lowered, pinned, observed)
        partitions.append((blocks, (work, *blocks, caps, st_mode)))

    witness, stats = _run_cells(_scan_conjecture_partition, partitions, jobs, None,
                                work.leaders([key for key, _ in partitions]))
    if witness is not None:
        _reverify_conjecture_witness(d, witness)
    return ConjectureReport(tuple(as_rational(v) for v in values),
                            witness is None, witness, stats)


def _reverify_conjecture_witness(d: FiniteJointDistribution,
                                 w: ConjectureWitness) -> None:
    """Recompute the witness violation from scratch with first principles."""
    def event(triple):
        t_r, t_l, t_p = triple
        return lambda x: (all(x[j - 1] >= t for j, t in zip(w.raised, t_r))
                          and all(x[j - 1] <= t for j, t in zip(w.lowered, t_l))
                          and all(x[j - 1] == t for j, t in zip(w.pinned, t_p)))

    _recheck_violation(d, w.observed, event(w.triple_low), event(w.triple_high),
                       w.violation, "conjecture")


# -- witness re-verification ----------------------------------------------------

def _recheck_violation(d: FiniteJointDistribution, observed: tuple[int, ...],
                       low: Callable, high: Callable, violation: UpperSetViolation,
                       what: str) -> list[dict[Vector, Fraction]]:
    """The Fraction laws of the observed block given the atom predicates
    ``low`` and ``high``, built from ``d.atoms``; raises unless the
    violation's upper set has mass p_left under high and p_right under low,
    with p_left > p_right."""
    laws = []
    for event in (low, high):
        entries: dict[Vector, Fraction] = {}
        total = ZERO
        for x, p in d.atoms:
            if event(x):
                total += p
                key = tuple(x[j - 1] for j in observed)
                entries[key] = entries.get(key, ZERO) + p
        if total == 0:
            raise InternalConsistencyError("witness event has zero probability")
        laws.append({x: p / total for x, p in entries.items()})
    u = violation.upper_set
    p_lo, p_hi = (sum((p for x, p in law.items() if u.contains(x)), ZERO) for law in laws)
    if not (p_hi == violation.p_left and p_lo == violation.p_right and p_hi > p_lo):
        raise InternalConsistencyError(f"{what} witness failed re-verification")
    return laws


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
        low, high = (_tail_event(w.kind, w.variant, w.given, point).matches
                     for point in (w.point_low, w.point_high))
        laws = _recheck_violation(d, w.observed, low, high, w.violation, "regression")
        means = [tuple(sum((x[a] * p for x, p in law.items()), ZERO)
                       for a in range(len(w.observed))) for law in laws]
        if means != [w.mean_low, w.mean_high]:
            raise InternalConsistencyError("regression witness failed re-verification")
        return
    raise TypeError(f"no re-verification for witness type {type(w).__name__}")
