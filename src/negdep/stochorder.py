"""Deciders for the usual stochastic order between finite joint laws.

Two independent algorithms answer "X <=st Y":

* upper-set sweep: P(X in U) <= P(Y in U) for every upper set U of the union
  support (may be exponential; capped);
* monotone coupling: X's mass less Y's, netted at each point of the union
  support, either moves upward in full or some upper set has positive
  weight, decided by ``maxflow.positive_upper_set`` (polynomial; the
  default).

Agreement of the two is a package invariant; ``mode="verify"`` checks it on
every call. A FALSE answer names one upper set U with P(X in U) > P(Y in U),
re-checkable by direct summation: the upward closure of the source side of
the netted network's minimal minimum cut, the least upper set of greatest
weight. That set depends on the two laws alone, not on a cap, a mode or the
maximum flow found (docs/theory.md section 2); the sweep is a brute-force
oracle and names no witness. On one axis, ``tail_order`` finds the same set
from tail sums, with no network (docs/theory.md section 14).
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
from .maxflow import bits, positive_upper_set
from .uppersets import UpperSet, from_members, points_above, upper_set_sums


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
            width = (size - 1).bit_length()
            shifts.append(offset)
            guards |= 1 << (offset + width)
            offset += width + 1
        self.shifts = tuple(reversed(shifts))
        self.guards = guards

    def pack(self, ranks: Sequence[int]) -> int:
        return sum(map(lshift, ranks, self.shifts))


class IntegerLaw(NamedTuple):
    """A finite law as packed-rank keys with positive integer weights.

    Atom k has probability ``weights[k] / total``; keys come from one
    :class:`RankPacking`, shared by every law compared against this one.
    """

    keys: tuple[int, ...]
    weights: tuple[int, ...]
    total: int


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


def tail_order(lx: IntegerLaw, ly: IntegerLaw) -> list[int] | None:
    """Decide lx <=st ly on one axis by its tail sums, in integers.

    Both laws are keyed by the ranks of one axis. The order holds iff
    ``W_X(>= t) * T_Y <= W_Y(>= t) * T_X`` at every threshold t of lx's
    support; the thresholds are scanned from the top. Returns None when it
    holds, else the indices of the lx atoms at or above the largest
    threshold where the excess is greatest, whose upward closure is the
    least upper set of greatest excess (docs/theory.md section 14).
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

    def net(self) -> list[int]:
        """X's weight less Y's at each point, over ``tx * ty``: the weights
        whose upper sets are all at most 0 iff X <=st Y."""
        return [a * self.ty - b * self.tx for a, b in zip(self.wx, self.wy)]


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
    of upper sets examined up to it. Each set carries the sum of the netted
    weights over it, which is positive iff X carries more mass there."""
    examined = 0
    for members, excess in upper_set_sums(u.points, u.net(), 0, cap=cap):
        examined += 1
        if excess > 0:
            return _violation(u, bits(members)), examined
    return None, examined


def cut_violation(u: SupportUnion, up: Sequence[int],
                  senders: Sequence[int]) -> UpperSetViolation:
    """The upward closure of the points of ``u`` at ``senders``, with the
    at-or-above bitsets ``up`` over ``u.points``: the least upper set of
    greatest weight, which carries more mass under X than under Y, when the
    senders are the cut ``maxflow.positive_upper_set`` names. Its minimal
    points are the senders above no other sender."""
    closure = 0
    for a in senders:
        closure |= up[a]
    lows = [u.points[a] for a in senders
            if not any(up[b] >> a & 1 for b in senders if b != a)]
    violation = _violation(u, bits(closure), tuple(lows))
    if violation is None:
        raise InternalConsistencyError("min cut did not produce a violating upper set")
    return violation


def _fraction_union(dX: FiniteJointDistribution, dY: FiniteJointDistribution) -> SupportUnion:
    return support_union(dict(zip((x for x, _ in dX.atoms), integer_weights(dX))),
                         dict(zip((y for y, _ in dY.atoms), integer_weights(dY))))


def st_leq_uppersets(dX: FiniteJointDistribution, dY: FiniteJointDistribution,
                     caps: Caps | None = None) -> StVerdict:
    """Decide X <=st Y by sweeping every upper set of the union support, on
    integer weights compared cross-multiplied; only a violation gets Fractions."""
    _require_same_dim(dX, dY)
    caps = caps or default_caps()
    violation, examined = sweep_violation(_fraction_union(dX, dY), caps.max_upper_sets)
    return StVerdict(holds=violation is None, method="uppersets", violation=violation,
                     upper_sets_examined=examined)


def st_leq_coupling(dX: FiniteJointDistribution,
                    dY: FiniteJointDistribution) -> StVerdict:
    """Decide X <=st Y by ``maxflow.positive_upper_set`` on the netted
    weights of the union support.

    TRUE comes with a coupling: at each point z the mass both laws share,
    ``min(w_X(z) T_Y, w_Y(z) T_X)``, stays put and the transport moves the
    rest upward, all over ``T_X T_Y``. FALSE names the upward closure of the
    cut (``cut_violation``).
    """
    _require_same_dim(dX, dY)
    u = _fraction_union(dX, dY)
    up = points_above(axis_ranks(zip(*u.points))[0])
    transport, senders = positive_upper_set(u.net(), up)
    if senders is not None:
        return StVerdict(holds=False, method="coupling", violation=cut_violation(u, up, senders))
    scale = u.tx * u.ty
    pairs = [(u.points[a], u.points[b], Fraction(f, scale)) for (a, b), f in transport.items()]
    pairs += [(z, z, Fraction(m, scale)) for z, a, b in zip(u.points, u.wx, u.wy)
              if (m := min(a * u.ty, b * u.tx))]
    return StVerdict(holds=True, method="coupling", coupling=Coupling(tuple(sorted(pairs))))


def require_agreement(by_coupling: bool, by_uppersets: bool) -> None:
    """Raise InternalConsistencyError unless the two oracles gave one answer."""
    if by_coupling != by_uppersets:
        raise InternalConsistencyError(
            f"stochastic-order oracles disagree: coupling={by_coupling} "
            f"uppersets={by_uppersets}"
        )


def require_st_mode(mode: str) -> None:
    """Raise unless ``mode`` is an st mode: ``fast`` or ``verify``."""
    if mode not in ("fast", "verify"):
        raise ValueError(f"unknown mode {mode!r}")


def st_leq(dX: FiniteJointDistribution, dY: FiniteJointDistribution,
           mode: str = "fast", caps: Caps | None = None) -> StVerdict:
    """Decide X <=st Y.

    ``fast`` runs the coupling decider alone; ``verify`` additionally runs
    the upper-set sweep and treats any disagreement as an internal error.
    Both modes return the coupling's verdict, so a FALSE answer names the
    min-cut upper set in either.
    """
    require_st_mode(mode)
    by_flow = st_leq_coupling(dX, dY)
    if mode == "verify":
        require_agreement(by_flow.holds, st_leq_uppersets(dX, dY, caps=caps).holds)
    return by_flow
