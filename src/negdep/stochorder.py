"""Deciders for the usual stochastic order between finite joint laws.

Two independent algorithms answer "X <=st Y":

* upper-set sweep: P(X in U) <= P(Y in U) for every upper set U of the union
  support (may be exponential; capped);
* monotone coupling: feasibility of the transportation problem that routes
  the mass of X to the mass of Y along componentwise-increasing pairs,
  decided by exact max-flow (polynomial; the default).

Agreement of the two is a package invariant; ``mode="verify"`` checks it on
every call. A FALSE answer names one upper set U with P(X in U) > P(Y in U),
re-checkable by direct summation: the upward closure of the source side of
the coupling network's minimal minimum cut. That set depends on the two laws
alone, not on a cap, a mode or the maximum flow found (docs/theory.md
section 2); the sweep is a brute-force oracle and names no witness. On one
axis, ``tail_order`` finds the same cut from tail sums, with no network
(docs/theory.md section 14).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import lshift, mul
from typing import NamedTuple, Sequence

from .distributions import (
    FiniteJointDistribution,
    Vector,
    axis_ranks,
    integer_weights,
    over_common_denominator,
)
from .errors import Caps, InternalConsistencyError, default_caps
from .maxflow import first_fit, integer_max_flow
from .uppersets import (
    UpperSet,
    at_or_above,
    enumerate_upper_index_sets,
    from_members,
)


class RankPacking:
    """Packs per-axis ranks into one int so componentwise <= is one int expression.

    Axis a gets a field of ``(sizes[a] - 1).bit_length()`` value bits plus a
    guard bit above them, so there is no limit on the number of distinct
    values. Axis 0 sits in the highest field, so int order of packed keys is
    lexicographic order of the rank vectors. x <= y componentwise iff
    ``((y | guards) - x) & guards == guards``: each field of the difference
    stays at least 1 and below twice its guard, so no field borrows from the
    next, and its guard survives iff that field of y is at least that of x.
    """

    def __init__(self, sizes: Sequence[int]):
        shifts = []
        offset = 0
        guards = 0
        for size in reversed(sizes):
            bits = (size - 1).bit_length()
            shifts.append(offset)
            guards |= 1 << (offset + bits)
            offset += bits + 1
        self.shifts = tuple(reversed(shifts))
        self.guards = guards

    def pack(self, ranks: Sequence[int]) -> int:
        return sum(map(lshift, ranks, self.shifts))


def _pack_ranks(vectors: list[Vector]) -> tuple[list[int], int]:
    """Packed ranks of the vectors within their own per-axis value sets."""
    ranks, axes = axis_ranks(zip(*vectors))
    packing = RankPacking([len(ax) for ax in axes])
    return [packing.pack(r) for r in ranks], packing.guards


class IntegerLaw(NamedTuple):
    """A finite law as packed-rank keys with positive integer weights.

    Atom k has probability ``weights[k] / total``; keys come from one
    :class:`RankPacking`, shared by every law compared against this one.
    """

    keys: tuple[int, ...]
    weights: tuple[int, ...]
    total: int


def _integer_law(d: FiniteJointDistribution, keys: list[int]) -> IntegerLaw:
    weights = integer_weights(d)
    return IntegerLaw(tuple(keys), weights, sum(weights))


def masked_law(mask: int, keys: Sequence[int], weights: Sequence[int]) -> IntegerLaw:
    """The law of the atoms whose bits are set in ``mask``, merged by key.

    Keys come out ascending, which for packed ranks is lexicographic order.
    """
    merged: dict[int, int] = {}
    total = 0
    while mask:
        low = mask & -mask
        k = low.bit_length() - 1
        mask ^= low
        merged[keys[k]] = merged.get(keys[k], 0) + weights[k]
        total += weights[k]
    order = sorted(merged)
    return IntegerLaw(tuple(order), tuple(merged[key] for key in order), total)


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


def _above_masks(lx: IntegerLaw, ly: IntegerLaw, guards: int) -> list[int]:
    """For each atom i of lx, the bitset of the atoms j of ly with
    ``lx.keys[i] <= ly.keys[j]`` componentwise (bit j set).

    The guard bits give each axis's field. An x-atom's bitset is the AND
    over the axes of the y-atoms whose field is at least its own, read from
    the axis's ``at_or_above`` table (docs/theory.md section 2), which
    covers every value the field can hold.
    """
    masks = [(1 << len(ly.keys)) - 1] * len(lx.keys)
    offset = 0
    while guards:
        low = guards & -guards
        guards ^= low
        top = low.bit_length() - 1
        if top > offset:                    # a one-value axis has no field bits
            field = (1 << (top - offset)) - 1
            above = at_or_above([(y >> offset) & field for y in ly.keys], field + 1)
            masks = [m & above[(x >> offset) & field] for m, x in zip(masks, lx.keys)]
        offset = top + 1
    return masks


def _bits(m: int) -> list[int]:
    """The positions of the set bits of m, ascending."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def integer_coupling(lx: IntegerLaw, ly: IntegerLaw, guards: int,
                     comparable: Sequence[int] | None = None):
    """Decide lx <=st ly by exact transportation feasibility, in integers.

    Capacities are cross-multiplied by the other law's total: ``w_x * T_Y``
    on source and x -> y edges, ``w_y * T_X`` on sink edges (docs/theory.md
    section 2). The order holds iff the flow reaches ``T_X * T_Y``. A
    first-fit pass (:func:`maxflow.first_fit`) routes each x-atom, in key
    order, to its comparable y-atoms in key order; only if it leaves mass
    unrouted does Dinic run, on the residual network of that flow. Returns
    ``(flows, None)`` with the checked coupling's (i, j, f) triples when the
    order holds, and ``(None, deficient)`` with the indices of the x-atoms
    reachable from the source in the final residual network when it fails:
    the source side of the minimal minimum cut, which is the same for every
    maximum flow.

    Atom i of lx may send mass to the atoms j of ly whose keys are at least
    its own componentwise or, when ``comparable`` is given, to those whose
    bit j is set in ``comparable[i]``. The coupling is re-checked against the
    same relation.
    """
    nx, ny = len(lx.keys), len(ly.keys)
    tx, ty = lx.total, ly.total
    masks = _above_masks(lx, ly, guards) if comparable is None else comparable
    supply = [w * ty for w in lx.weights]
    demand = [w * tx for w in ly.weights]
    greedy = first_fit(masks, supply, demand)
    short = sum(supply)
    if short:
        # forward edges keep their residual capacity; each greedy flow
        # becomes a y -> x edge that can send it back
        middle = [(i, j) for i, m in enumerate(masks) for j in _bits(m)]
        back = list(greedy)
        edges = [(0, 2 + i, s) for i, s in enumerate(supply)]
        edges.extend((2 + nx + j, 1, d) for j, d in enumerate(demand))
        edges.extend((2 + i, 2 + nx + j, lx.weights[i] * ty - greedy.get((i, j), 0))
                     for i, j in middle)
        edges.extend((2 + nx + j, 2 + i, greedy[i, j]) for i, j in back)
        value, sent, seen = integer_max_flow(2 + nx + ny, edges, 0, 1)
        if value != short:
            return None, [i for i in range(nx) if seen[2 + i]]
        sent = sent[nx + ny:]
        for pair, f in zip(middle, sent):
            if f:
                greedy[pair] = greedy.get(pair, 0) + f
        for pair, f in zip(back, sent[len(middle):]):
            greedy[pair] -= f
    flows = sorted((i, j, f) for (i, j), f in greedy.items() if f)
    check_integer_coupling(flows, lx, ly, guards, comparable)
    return flows, None


def tail_order(lx: IntegerLaw, ly: IntegerLaw) -> list[int] | None:
    """Decide lx <=st ly on one axis by its tail sums, in integers.

    Both laws are keyed by the ranks of one axis. The order holds iff
    ``W_X(>= t) * T_Y <= W_Y(>= t) * T_X`` at every threshold t of lx's
    support; the thresholds are scanned from the top. Returns None when it
    holds, else the indices of the lx atoms at or above the largest
    threshold where the excess is greatest: the deficient set
    ``integer_coupling`` returns for the same laws (docs/theory.md
    section 14).
    """
    tx, ty = lx.total, ly.total
    above_x = above_y = best = 0
    cut = None
    j = len(ly.keys)
    for i in range(len(lx.keys) - 1, -1, -1):
        t = lx.keys[i]
        above_x += lx.weights[i]
        while j and ly.keys[j - 1] >= t:
            j -= 1
            above_y += ly.weights[j]
        excess = above_x * ty - above_y * tx
        if excess > best:
            best, cut = excess, i
    return None if cut is None else list(range(cut, len(lx.keys)))


@dataclass(frozen=True)
class Coupling:
    """Joint mass on pairs (x, y) with x <= y, certifying X <=st Y."""

    pairs: tuple[tuple[Vector, Vector, Fraction], ...]

    def validate(self, dX: FiniteJointDistribution, dY: FiniteJointDistribution) -> None:
        """Exact re-check of the marginal and support invariants."""
        rows: dict[Vector, Fraction] = {}
        cols: dict[Vector, Fraction] = {}
        for x, y, mass in self.pairs:
            if mass <= 0:
                raise InternalConsistencyError(f"coupling mass {mass} at {(x, y)}")
            if not all(a <= b for a, b in zip(x, y)):
                raise InternalConsistencyError(f"coupling pair {x} !<= {y}")
            rows[x] = rows.get(x, Fraction(0)) + mass
            cols[y] = cols.get(y, Fraction(0)) + mass
        if rows != dX.as_dict():
            raise InternalConsistencyError("coupling row sums differ from the left law")
        if cols != dY.as_dict():
            raise InternalConsistencyError("coupling column sums differ from the right law")


@dataclass(frozen=True)
class UpperSetViolation:
    """An upper set where the left law carries strictly more mass."""

    upper_set: UpperSet
    p_left: Fraction
    p_right: Fraction


@dataclass(frozen=True)
class StVerdict:
    holds: bool
    method: str
    coupling: Coupling | None = None
    violation: UpperSetViolation | None = None
    upper_sets_examined: int = 0


def _require_same_dim(dX, dY):
    if dX.dim != dY.dim:
        raise ValueError(f"dimension mismatch: {dX.dim} vs {dY.dim}")


class SupportUnion(NamedTuple):
    """Two laws X and Y as integer weights on the sorted union of their
    supports: X has mass ``wx[k] / tx`` at ``points[k]``, Y ``wy[k] / ty``."""

    points: list
    wx: list[int]
    wy: list[int]
    tx: int
    ty: int

    def means(self) -> list[tuple[Fraction, ...]]:
        """The coordinatewise means of X and of Y, summed in integers: each
        axis's values times the lcm of their denominators."""
        columns = [over_common_denominator(values) for values in zip(*self.points)]
        return [tuple(Fraction(sum(map(mul, weights, nums)), total * scale)
                      for nums, scale in columns)
                for weights, total in ((self.wx, self.tx), (self.wy, self.ty))]


def support_union(px: dict, py: dict) -> SupportUnion:
    """The ``SupportUnion`` of two laws given as point -> integer weight."""
    points = sorted(px.keys() | py.keys())
    return SupportUnion(points, [px.get(p, 0) for p in points],
                        [py.get(p, 0) for p in points], sum(px.values()), sum(py.values()))


def _violation(u: SupportUnion, idx: Sequence[int],
               minimal: tuple[Vector, ...] | None = None) -> UpperSetViolation | None:
    """The upper set of ``u.points`` at ``idx``, ascending, as a violation if
    X carries more mass there than Y, else None; compared cross-multiplied.
    ``minimal`` holds its minimal points when the caller knows them."""
    mass_x = sum(map(u.wx.__getitem__, idx))
    mass_y = sum(map(u.wy.__getitem__, idx))
    if mass_x * u.ty <= mass_y * u.tx:
        return None
    points = [u.points[i] for i in idx]
    return UpperSetViolation(from_members(points) if minimal is None
                             else UpperSet(tuple(points), minimal),
                             Fraction(mass_x, u.tx), Fraction(mass_y, u.ty))


def sweep_violation(u: SupportUnion, cap: int | None) -> tuple[UpperSetViolation | None, int]:
    """The first upper set of the union support, in enumeration order, on
    which X carries more mass than Y (None if there is none), and the number
    of upper sets examined up to it."""
    examined = 0
    for idx in enumerate_upper_index_sets(u.points, cap=cap):
        examined += 1
        violation = _violation(u, idx)
        if violation is not None:
            return violation, examined
    return None, examined


def cut_violation(u: SupportUnion, keys: Sequence[int], guards: int,
                  deficient: Sequence[int]) -> UpperSetViolation:
    """The upward closure, within the union support, of the deficient
    x-atoms that ``integer_coupling`` returns: the source side of the minimal
    minimum cut, which carries more mass under X than under Y.

    ``keys[k]`` is the packed rank key of ``u.points[k]``, with guard bits
    ``guards``, and ``deficient`` holds the keys of the deficient atoms. The
    closure and its minimal elements, those of the deficient atoms, are
    found on the keys by the guard test; keys sort like the points."""
    lows: list[int] = []
    for x in sorted(deficient):
        if not any(((x | guards) - q) & guards == guards for q in lows):
            lows.append(x)
    idx = [k for k, y in enumerate(keys) if any(((y | guards) - x) & guards == guards
                                                for x in lows)]
    lows_set = set(lows)
    violation = _violation(u, idx, tuple(u.points[k] for k in idx if keys[k] in lows_set))
    if violation is None:
        raise InternalConsistencyError("min cut did not produce a violating upper set")
    return violation


def st_leq_uppersets(dX: FiniteJointDistribution, dY: FiniteJointDistribution,
                     caps: Caps | None = None) -> StVerdict:
    """Decide X <=st Y by sweeping every upper set of the union support, on
    integer weights compared cross-multiplied; only a violation gets Fractions."""
    _require_same_dim(dX, dY)
    caps = caps or default_caps()
    u = support_union(dict(zip((x for x, _ in dX.atoms), integer_weights(dX))),
                      dict(zip((y for y, _ in dY.atoms), integer_weights(dY))))
    violation, examined = sweep_violation(u, caps.max_upper_sets)
    return StVerdict(holds=violation is None, method="uppersets", violation=violation,
                     upper_sets_examined=examined)


def st_leq_coupling(dX: FiniteJointDistribution,
                    dY: FiniteJointDistribution) -> StVerdict:
    """Decide X <=st Y by exact transportation feasibility.

    TRUE comes with the coupling; FALSE converts the min cut into an upper
    set violation (the cut's deficient source set, upward closed).
    """
    _require_same_dim(dX, dY)
    xs = [x for x, _ in dX.atoms]
    ys = [y for y, _ in dY.atoms]
    packed, guards = _pack_ranks(xs + ys)
    lx = _integer_law(dX, packed[: len(xs)])
    ly = _integer_law(dY, packed[len(xs):])
    flows, deficient = integer_coupling(lx, ly, guards)
    if flows is not None:
        scale = lx.total * ly.total
        pairs = [(xs[i], ys[j], Fraction(f, scale)) for i, j, f in flows]
        return StVerdict(holds=True, method="coupling", coupling=Coupling(tuple(sorted(pairs))))
    keyed = support_union(dict(zip(lx.keys, lx.weights)), dict(zip(ly.keys, ly.weights)))
    point = dict(zip(packed, xs + ys))
    u = keyed._replace(points=[point[key] for key in keyed.points])
    return StVerdict(holds=False, method="coupling", violation=cut_violation(
        u, keyed.points, guards, [lx.keys[i] for i in deficient]))


def require_agreement(by_coupling: bool, by_uppersets: bool) -> None:
    """Raise InternalConsistencyError unless the two oracles gave one answer."""
    if by_coupling != by_uppersets:
        raise InternalConsistencyError(
            f"stochastic-order oracles disagree: coupling={by_coupling} "
            f"uppersets={by_uppersets}"
        )


def st_leq(dX: FiniteJointDistribution, dY: FiniteJointDistribution,
           mode: str = "fast", caps: Caps | None = None) -> StVerdict:
    """Decide X <=st Y.

    ``fast`` runs the coupling decider alone; ``verify`` additionally runs
    the upper-set sweep and treats any disagreement as an internal error.
    Both modes return the coupling's verdict, so a FALSE answer names the
    min-cut upper set in either.
    """
    if mode not in ("fast", "verify"):
        raise ValueError(f"unknown mode {mode!r}")
    by_flow = st_leq_coupling(dX, dY)
    if mode == "verify":
        require_agreement(by_flow.holds, st_leq_uppersets(dX, dY, caps=caps).holds)
    return by_flow
