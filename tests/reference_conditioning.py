"""Fraction reference for the regression cells and the conjecture partitions.

This is the conditioning engine as it was before both scans moved onto the
per-axis ranks of ``integer_view``: labels are tuples of support values, and
each label's atom mask is built by testing every atom against a Fraction
``ConditioningEvent`` (or, for the conjecture, against its own threshold
comparisons). Sub-blocks of the witness search are decided by Fraction
``st_leq`` on marginals of the Fraction conditional laws. The upper-set sweep
(``st_leq_uppersets``, summing Fractions), the ``st_leq`` that runs it in
verify mode to check the coupling's verdict, ``_deterministic_upper_violation``
and ``_coordinate_means`` are kept here too. So is the integer coupling
kernel as it was before the comparability bitsets and the first-fit warm
start: it tests every (x, y) pair against the guard bits and runs a cold
Dinic search on every call (``integer_coupling`` below), with its integer
re-check (``check_integer_coupling``). The reference shares no decision
code with the engine under test beyond the max-flow engine and
``st_leq_coupling``, which its ``st_leq`` calls on the sub-blocks of the
witness search and on the witness's two laws. It walks every
comparable pair of labels, as the engine did before it decided only the
cover pairs. Every witness, of a regression cell or a conjecture partition
and in either st mode, is the violation fast ``st_leq`` names on the
Fraction laws: the upward closure of the coupling's minimal minimum cut.
Apart from that witness rule and the module-level names, the code below is
kept verbatim. The differential tests compare the rank-bitset engine against
it, verdict, witness and stats alike, up to the orders a TRUE cell no longer
decides (``tests/test_conditioning.py``).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from negdep.checks import (
    ConjectureWitness,
    CheckStats,
    RegressionWitness,
    Verdict,
    WEAK,
    _subsets,
    _tail_event,
)
from negdep.distributions import EQ, LOWER, UPPER, FiniteJointDistribution, Vector, integer_view
from negdep.errors import Caps, InternalConsistencyError, default_caps
from negdep.maxflow import integer_max_flow
from negdep.rationals import NEG_INF, POS_INF, Extended
from negdep.stochorder import (
    IntegerLaw,
    RankPacking,
    StVerdict,
    UpperSetViolation,
    _require_same_dim,
    masked_law,
    require_agreement,
    st_leq_coupling,
)
from negdep.uppersets import componentwise_leq, enumerate_upper_index_sets, from_members

ZERO = Fraction(0)


def check_integer_coupling(flows: Sequence[tuple[int, int, int]], lx: IntegerLaw,
                           ly: IntegerLaw, guards: int,
                           comparable: Sequence[int] | None = None) -> None:
    """Exact re-check of a coupling of lx below ly, in integers.

    ``flows`` holds (i, j, f): mass ``f / (lx.total * ly.total)`` on the pair
    of atom i of lx and atom j of ly. Every mass must be positive on a
    comparable pair, and the row and column sums must be the two laws'
    weights on that common scale. Comparable means componentwise ``<=`` on
    the keys or, with ``comparable``, bit j set in ``comparable[i]``.
    """
    rows = [0] * len(lx.keys)
    cols = [0] * len(ly.keys)
    for i, j, f in flows:
        if f <= 0:
            raise InternalConsistencyError(f"coupling mass {f} at atoms {(i, j)}")
        if not (((ly.keys[j] | guards) - lx.keys[i]) & guards == guards if comparable is None
                else comparable[i] >> j & 1):
            raise InternalConsistencyError(f"coupling pair of atoms {(i, j)} is not ordered")
        rows[i] += f
        cols[j] += f
    if any(r != w * ly.total for r, w in zip(rows, lx.weights)):
        raise InternalConsistencyError("coupling row sums differ from the left law")
    if any(c != w * lx.total for c, w in zip(cols, ly.weights)):
        raise InternalConsistencyError("coupling column sums differ from the right law")


def integer_coupling(lx: IntegerLaw, ly: IntegerLaw, guards: int):
    """Decide lx <=st ly by exact transportation feasibility, in integers.

    Capacities are cross-multiplied by the other law's total: ``w_x * T_Y``
    on source and x -> y edges, ``w_y * T_X`` on sink edges (docs/theory.md
    section 2). The order holds iff the flow reaches ``T_X * T_Y``. Returns
    ``(flows, None)`` with the checked coupling's (i, j, f) triples when it
    holds, and ``(None, deficient)`` with the indices of the x-atoms on the
    source side of a minimum cut when it fails.
    """
    nx = len(lx.keys)
    tx, ty = lx.total, ly.total
    edges = [(0, 2 + i, w * ty) for i, w in enumerate(lx.weights)]
    edges.extend((2 + nx + j, 1, w * tx) for j, w in enumerate(ly.weights))
    y_guarded = [yj | guards for yj in ly.keys]
    middle = []
    for i, (xi, w) in enumerate(zip(lx.keys, lx.weights)):
        above = [j for j, yg in enumerate(y_guarded) if (yg - xi) & guards == guards]
        cap = w * ty
        edges.extend((2 + i, 2 + nx + j, cap) for j in above)
        middle.extend((i, j) for j in above)
    value, sent, seen = integer_max_flow(2 + nx + len(ly.keys), edges, 0, 1)
    if value == tx * ty:
        flows = [(i, j, f) for (i, j), f in zip(middle, sent[nx + len(ly.keys):]) if f]
        check_integer_coupling(flows, lx, ly, guards)
        return flows, None
    return None, [i for i in range(nx) if seen[2 + i]]


def st_leq_uppersets(dX: FiniteJointDistribution, dY: FiniteJointDistribution,
                     caps: Caps | None = None) -> StVerdict:
    """Decide X <=st Y by sweeping every upper set of the union support."""
    _require_same_dim(dX, dY)
    caps = caps or default_caps()
    px = dX.as_dict()
    py = dY.as_dict()
    points = sorted(set(px) | set(py))
    zero = Fraction(0)
    examined = 0
    for idx in enumerate_upper_index_sets(points, cap=caps.max_upper_sets):
        examined += 1
        mass_x = sum((px.get(points[i], zero) for i in idx), zero)
        mass_y = sum((py.get(points[i], zero) for i in idx), zero)
        if mass_x > mass_y:
            members = tuple(points[i] for i in idx)
            return StVerdict(
                holds=False,
                method="uppersets",
                violation=UpperSetViolation(from_members(members), mass_x, mass_y),
                upper_sets_examined=examined,
            )
    return StVerdict(holds=True, method="uppersets", upper_sets_examined=examined)


def st_leq(dX: FiniteJointDistribution, dY: FiniteJointDistribution,
           mode: str = "fast", caps: Caps | None = None) -> StVerdict:
    """Decide X <=st Y.

    ``fast`` runs the coupling decider alone; ``verify`` additionally runs
    the upper-set sweep and treats any disagreement as an internal error.
    Both modes return the coupling's verdict.
    """
    if mode not in ("fast", "verify"):
        raise ValueError(f"unknown mode {mode!r}")
    by_flow = st_leq_coupling(dX, dY)
    if mode == "verify":
        by_sets = st_leq_uppersets(dX, dY, caps=caps)
        require_agreement(by_flow.holds, by_sets.holds)
    return by_flow


def _deterministic_upper_violation(law_hi, law_lo) -> UpperSetViolation:
    """The min-cut upper set of the failed coupling, for the witness."""
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


def _conditioning_labels(d: FiniteJointDistribution, J: tuple[int, ...],
                         kind: str) -> list[tuple[Extended, ...]]:
    """Candidate conditioning points for the block J, in lexicographic order.

    Equality events run over the support of the J-marginal. Tail events run
    over the per-coordinate support values with an unbounded sentinel (the
    events depend on a threshold only through its position relative to the
    support, so this grid is exhaustive); zero-probability labels are skipped
    by the caller.
    """
    if kind == EQ:
        return [x for x, _ in d.marginal(list(J)).atoms]
    axes = d.support_grid()
    grids = []
    for j in J:
        values = list(axes[j - 1])
        grids.append([NEG_INF] + values if kind == UPPER else values + [POS_INF])
    return list(itertools.product(*grids))


class _CellContext:
    """Per-cell machinery: event masks, cached conditional laws, cached orders.

    The screen runs on integer conditional laws keyed by packed ranks of the
    observed columns; Fraction conditional laws are built only for verify
    mode and for the witness search.
    """

    def __init__(self, d, view, J, kind, variant, caps, st_mode):
        self.d = d
        self.J = J
        self.kind = kind
        self.variant = variant
        self.caps = caps
        self.st_mode = st_mode
        self.i_max = tuple(j for j in range(1, d.dim + 1) if j not in J)
        self.cols = [j - 1 for j in self.i_max]
        self.weights, ranks, sizes = view
        packing = RankPacking([sizes[c] for c in self.cols])
        self.guards = packing.guards
        self.keys = [packing.pack([r[c] for c in self.cols]) for r in ranks]
        self.int_cache: dict[int, IntegerLaw] = {}
        self.law_cache: dict[int, FiniteJointDistribution] = {}
        self.proj_cache: dict[tuple[int, tuple[int, ...]], FiniteJointDistribution] = {}
        self.st_cache: dict[tuple[int, int], bool] = {}
        self.st_checks = 0

    def mask_of(self, label) -> int:
        event = _tail_event(self.kind, self.variant, self.J, label)
        mask = 0
        for k, (x, _) in enumerate(self.d.atoms):
            if event.matches(x):
                mask |= 1 << k
        return mask

    def int_law(self, mask: int) -> IntegerLaw:
        law = self.int_cache.get(mask)
        if law is None:
            law = self.int_cache[mask] = masked_law(mask, self.keys, self.weights)
        return law

    def law(self, mask: int) -> FiniteJointDistribution:
        cached = self.law_cache.get(mask)
        if cached is not None:
            return cached
        merged: dict[Vector, Fraction] = {}
        total = ZERO
        m = mask
        atoms = self.d.atoms
        while m:
            low = m & -m
            k = low.bit_length() - 1
            m ^= low
            x, p = atoms[k]
            total += p
            key = tuple(x[c] for c in self.cols)
            merged[key] = merged.get(key, ZERO) + p
        law = FiniteJointDistribution(
            len(self.cols), tuple(sorted((x, p / total) for x, p in merged.items()))
        )
        self.law_cache[mask] = law
        return law

    def projected(self, mask: int, block: tuple[int, ...]) -> FiniteJointDistribution:
        if block == self.i_max:
            return self.law(mask)
        key = (mask, block)
        cached = self.proj_cache.get(key)
        if cached is None:
            positions = [self.i_max.index(j) + 1 for j in block]
            cached = self.law(mask).marginal(positions)
            self.proj_cache[key] = cached
        return cached

    def st_screen(self, mask_lo: int, mask_hi: int) -> bool:
        """Does [X_Imax | high] <=st [X_Imax | low]?

        Verify mode also sweeps the upper sets of the Fraction laws and
        raises if the two oracles disagree.
        """
        key = (mask_lo, mask_hi)
        cached = self.st_cache.get(key)
        if cached is None:
            flows, _ = integer_coupling(self.int_law(mask_hi), self.int_law(mask_lo),
                                        self.guards)
            cached = flows is not None
            if self.st_mode == "verify":
                by_sets = st_leq_uppersets(self.law(mask_hi), self.law(mask_lo),
                                           caps=self.caps)
                require_agreement(cached, by_sets.holds)
            self.st_cache[key] = cached
            self.st_checks += 1
        return cached


def _scan_regression_cell(args) -> tuple[RegressionWitness | None, CheckStats]:
    d, view, J, kind, variant, caps, st_mode = args
    ctx = _CellContext(d, view, J, kind, variant, caps, st_mode)
    labels = _conditioning_labels(d, J, kind)
    masks = {}
    for label in labels:
        mask = ctx.mask_of(label)
        if mask:
            masks[label] = mask
    live = [lab for lab in labels if lab in masks]

    pairs_examined = 0
    for a_pos, low in enumerate(live):
        for high in live[a_pos + 1:]:
            if not componentwise_leq(low, high):
                continue
            pairs_examined += 1
            mask_lo, mask_hi = masks[low], masks[high]
            if mask_lo == mask_hi:
                continue  # identical events, identical conditional laws
            if ctx.st_screen(mask_lo, mask_hi):
                continue
            # violation somewhere; locate the minimal observed block
            for block in _subsets(ctx.i_max):
                law_hi = ctx.projected(mask_hi, block)
                law_lo = ctx.projected(mask_lo, block)
                sub = st_leq(law_hi, law_lo, mode=st_mode, caps=caps)
                ctx.st_checks += 1
                if sub.holds:
                    continue
                violation = _deterministic_upper_violation(law_hi, law_lo)
                witness = RegressionWitness(
                    kind=kind, variant=variant, given=J, observed=block,
                    point_low=low, point_high=high, violation=violation,
                    mean_low=_coordinate_means(law_lo),
                    mean_high=_coordinate_means(law_hi),
                )
                stats = CheckStats(cells=1, conditioning_pairs=pairs_examined,
                                   st_checks=ctx.st_checks)
                return witness, stats
            raise InternalConsistencyError(
                "full-block comparison failed but every sub-block passed"
            )
    return None, CheckStats(cells=1, conditioning_pairs=pairs_examined,
                            st_checks=ctx.st_checks)


def _scan_conjecture_partition(args):
    d, raised, lowered, pinned, observed, caps, st_mode = args
    atoms = d.atoms
    axes = d.support_grid()

    # a label is (t_raised, t_lowered, t_pinned) with per-block tuples
    raised_grid = list(itertools.product(*(axes[j - 1] for j in raised)))
    lowered_grid = list(itertools.product(*(axes[j - 1] for j in lowered)))
    pinned_grid = ([x for x, _ in d.marginal(list(pinned)).atoms]
                   if pinned else [()])

    def mask_of(label) -> int:
        t_r, t_l, t_p = label
        mask = 0
        for k, (x, _) in enumerate(atoms):
            ok = all(x[j - 1] >= t for j, t in zip(raised, t_r))
            ok = ok and all(x[j - 1] <= t for j, t in zip(lowered, t_l))
            ok = ok and all(x[j - 1] == t for j, t in zip(pinned, t_p))
            if ok:
                mask |= 1 << k
        return mask

    labels = [
        (t_r, t_l, t_p)
        for t_r in raised_grid
        for t_l in lowered_grid
        for t_p in pinned_grid
    ]
    masks = {}
    for label in labels:
        m = mask_of(label)
        if m:
            masks[label] = m
    live = [lab for lab in labels if lab in masks]

    cols = [j - 1 for j in observed]

    def law(mask: int) -> FiniteJointDistribution:
        merged: dict[Vector, Fraction] = {}
        total = ZERO
        m = mask
        while m:
            low = m & -m
            k = low.bit_length() - 1
            m ^= low
            x, p = atoms[k]
            total += p
            key = tuple(x[c] for c in cols)
            merged[key] = merged.get(key, ZERO) + p
        return FiniteJointDistribution(
            len(cols), tuple(sorted((x, p / total) for x, p in merged.items()))
        )

    law_cache: dict[int, FiniteJointDistribution] = {}
    st_cache: dict[tuple[int, int], bool] = {}
    pairs = 0
    st_checks = 0
    for a_pos, low in enumerate(live):
        for high in live[a_pos + 1:]:
            flat_low = low[0] + low[1] + low[2]
            flat_high = high[0] + high[1] + high[2]
            if not componentwise_leq(flat_low, flat_high):
                continue
            pairs += 1
            m_lo, m_hi = masks[low], masks[high]
            if m_lo == m_hi:
                continue
            key = (m_lo, m_hi)
            cached = st_cache.get(key)
            if cached is None:
                for m in (m_lo, m_hi):
                    if m not in law_cache:
                        law_cache[m] = law(m)
                verdict = st_leq(law_cache[m_hi], law_cache[m_lo],
                                 mode=st_mode, caps=caps)
                st_checks += 1
                cached = verdict.holds
                st_cache[key] = cached
            if cached:
                continue
            witness = ConjectureWitness(
                raised=raised, lowered=lowered, pinned=pinned, observed=observed,
                triple_low=low, triple_high=high,
                violation=st_leq(law_cache[m_hi], law_cache[m_lo], "fast").violation,
            )
            return witness, CheckStats(cells=1, conditioning_pairs=pairs, st_checks=st_checks)
    return None, CheckStats(cells=1, conditioning_pairs=pairs, st_checks=st_checks)


def check_regression(d, kind, prop, max_j=None, variant=WEAK, caps=None, st_mode="fast"):
    """The regression-family checker over the reference cells, run in order."""
    caps = caps or default_caps()
    limit = d.dim - 1 if max_j is None else min(max_j, d.dim - 1)
    view = integer_view(d)
    total = CheckStats()
    witness = None
    for J in _subsets(range(1, d.dim + 1), limit):
        witness, stats = _scan_regression_cell((d, view, J, kind, variant, caps, st_mode))
        total = total.plus(stats)
        if witness is not None:
            break
    restricted = limit < d.dim - 1
    return Verdict(prop, witness is None, witness, total,
                   definitive=witness is not None or not restricted)


REGRESSION_KINDS = (("nrd", EQ), ("nltd", LOWER), ("nrtd", UPPER))
