"""Supermodular stochastic-order decision by exact linear programming.

Whether E[psi(X)] <= E[psi(Y)] for every supermodular psi is decided on the
finite product grid spanned by both supports: the adjacent-step conditions

    psi(x + e_i + e_j) - psi(x + e_i) - psi(x + e_j) + psi(x) >= 0

over all grid points and coordinate pairs generate the whole supermodular
cone on the grid (see docs/theory.md), and the box -1 <= psi <= 1
compactifies it. Maximizing E[psi(X)] - E[psi(Y)] over that polytope gives
exactly 0 when the order holds and a strictly positive gap when it fails.
A failed order is witnessed by the indicator of its most negative orthant
of p_Y - p_X when it has one, with no LP, and otherwise by the maximizing
psi; an order that holds is certified by the box LP's optimal duals
(docs/theory.md section 5).

One integer core decides the order (:func:`decide_on_grid`): it reads the
signed measure p_Y - p_X as ints on the flat lexicographic grid over one
positive scale, and re-checks its answer there by grid position
(docs/theory.md section 10). Two front ends build that measure: one from two
laws (:func:`supermodular_leq`), one from a law's integer view against its
independent copy (:func:`below_independent_copy`). The second first checks
the grid cap and then tries a sufficient certificate on the atoms, with no
grid and no LP: a chain of one-coordinate maximum-weight closures, each
step decided by suffix sums or by ``maxflow.positive_upper_set``
(:func:`closure_chain_holds`, docs/theory.md section 13). Every law the
chain does not certify goes to :func:`decide_on_grid`, as both laws of the
first front end do: the orthant screen, then one box LP, one variable per
grid point and one row per cell and per point, whose optimal primal is the
witness and whose optimal duals are the transfer certificate. The law's
automorphisms play no part in it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .distributions import FiniteJointDistribution, Vector, over_common_denominator
from .errors import Caps, GridTooLarge, InternalConsistencyError, UndefinedAtAtom, default_caps
from .maxflow import positive_upper_set
from .simplex import OPTIMAL, LinearProgram, simplex_solve
from .uppersets import (
    grid_strides,
    orthant_sums,
    outer_product,
    points_above,
    scatter,
)


@dataclass(frozen=True, eq=True)
class GridFunction:
    """A rational-valued function on a full product grid."""

    axes: tuple[tuple[Fraction, ...], ...]
    values: tuple[tuple[Vector, Fraction], ...]  # grid point -> value, lex order

    def as_dict(self) -> dict[Vector, Fraction]:
        return dict(self.values)


@dataclass(frozen=True)
class SupermodularVerdict:
    holds: bool
    gap: Fraction                 # E[psi(X)] - E[psi(Y)] of the witness; 0 iff holds
    witness: GridFunction | None  # psi when the order fails
    grid_points: int


@dataclass(frozen=True)
class SupermodularWitness:
    function: GridFunction
    gap: Fraction
    left: Fraction    # E[psi] under the law itself
    right: Fraction   # E[psi] under its independent copy


def _union_axes(dX: FiniteJointDistribution,
                dY: FiniteJointDistribution) -> tuple[tuple[Fraction, ...], ...]:
    gx = dX.support_grid()
    gy = dY.support_grid()
    return tuple(tuple(sorted(set(a) | set(b))) for a, b in zip(gx, gy))


def _grid_size(sizes: Sequence[int], caps: Caps | None) -> int:
    total = math.prod(sizes)
    cap = (caps or default_caps()).max_lp_vars
    if total > cap:
        raise GridTooLarge(f"product grid has {total} points, over the cap of {cap} LP variables")
    return total


def _grid_cells(sizes: list[int]) -> list[tuple[int, int, int, int]]:
    """All (k, k+e_i, k+e_j, k+e_i+e_j) index quadruples of the lex grid."""
    dim = len(sizes)
    strides, acc = grid_strides(sizes)
    cells = []
    for k in range(acc):
        pos = []
        rem = k
        for a in range(dim):
            pos.append(rem // strides[a])
            rem %= strides[a]
        for a1 in range(dim):
            if pos[a1] + 1 >= sizes[a1]:
                continue
            for a2 in range(a1 + 1, dim):
                if pos[a2] + 1 >= sizes[a2]:
                    continue
                k1 = k + strides[a1]
                k2 = k + strides[a2]
                cells.append((k, k1, k2, k1 + strides[a2]))
    return cells


def orthant_screen(r: list[int], sizes: list[int]) -> tuple[int, bool, int] | None:
    """The most negative orthant sum of r, as (sum, reverse, k): the sum over
    the lower orthant of grid position k, or the upper one if reverse. On a
    tie a lower orthant wins, then the lowest position. None when no orthant
    sum is negative; a negative one rules out every transfer certificate
    (docs/theory.md section 5)."""
    worst = None
    for reverse in (False, True):
        sums = orthant_sums(list(r), sizes, reverse)
        low = min(sums)
        if low < 0 and (worst is None or low < worst[0]):
            worst = (low, reverse, sums.index(low))
    return worst


def _orthant_indicator(sizes: Sequence[int], reverse: bool, k: int) -> list[int]:
    """1{z <= x}, or 1{z >= x} if reverse, for x at grid position k, as the
    outer product of one 0/1 line per axis."""
    strides, _ = grid_strides(sizes)
    lines = []
    for size, step in zip(sizes, strides):
        i, k = divmod(k, step)
        lines.append([int(j >= i if reverse else j <= i) for j in range(size)])
    return outer_product(lines)


def _recheck(sizes: Sequence[int], r: Sequence[int], scale: int,
             psi: Sequence[int], den: int) -> Fraction:
    """Re-check psi[k] / den against r[k] / scale = p_Y - p_X on the flat lex
    grid, by position and in integers: the box, every adjacent-step
    inequality, one stride loop per axis pair, and a positive gap, which is
    returned."""
    if any(abs(v) > den for v in psi):
        raise InternalConsistencyError("witness leaves the [-1, 1] box")
    strides, _ = grid_strides(sizes)
    for a1, a2 in itertools.combinations(range(len(sizes)), 2):
        s1, s2 = strides[a1], strides[a2]
        corners = [0]  # every k with a successor on both axes, ascending
        for a, (size, step) in enumerate(zip(sizes, strides)):
            steps = range(size - 1 if a in (a1, a2) else size)
            corners = [k + i * step for k in corners for i in steps]
        for k in corners:
            if psi[k + s1 + s2] - psi[k + s1] - psi[k + s2] + psi[k] < 0:
                raise InternalConsistencyError(
                    f"witness is not supermodular at grid position {k} on axes {(a1 + 1, a2 + 1)}"
                )
    gap = Fraction(-sum(map(mul, psi, r)), den * scale)
    if gap <= 0:
        raise InternalConsistencyError(f"witness gap {gap} is not positive")
    return gap


def decide_on_grid(sizes: list[int], r: list[int],
                   scale: int) -> tuple[Fraction, list[int] | None, int]:
    """Decide X <=sm Y on the flat lex grid with the given axis sizes, where
    ``r[k] / scale`` is p_Y - p_X at grid position k (ints, scale > 0).

    Returns (gap, psi, den). The order holds iff psi is None, and then the
    gap is 0. Otherwise ``psi[k] / den`` is the witness, re-checked by
    position, and the gap is its E[psi(X)] - E[psi(Y)] > 0. When some
    orthant sum of r is negative, psi is the indicator of the most negative
    orthant (see :func:`orthant_screen`), den is 1 and no LP runs; otherwise
    psi is the box LP's maximizer and the gap its optimum.

    The order holds iff the box LP's optimum is 0. A negative orthant sum of
    r rules that out, and the orthant's indicator, which is supermodular and
    in the box, is the witness. Otherwise the box LP is the one LP solved.
    When its optimum is 0, its optimal duals on the cell rows are a transfer
    certificate: nonnegative coefficients of the elementary transfer vectors
    delta(x) - delta(x+e_i) - delta(x+e_j) + delta(x+e_i+e_j) that sum to r
    (docs/theory.md section 5), re-checked here by direct summation. The LP
    reads r divided by the gcd of its entries, which scales every objective
    coefficient by one positive factor and so changes no pivot.
    """
    if sum(r) != 0:
        raise InternalConsistencyError("signed measure does not balance")
    g = math.gcd(*r) or 1
    target = [v // g for v in r]
    worst = orthant_screen(target, sizes)
    if worst is not None:
        low, reverse, k = worst
        psi = _orthant_indicator(sizes, reverse, k)
        gap = Fraction(-low * g, scale)
        if _recheck(sizes, r, scale, psi, 1) != gap:
            raise InternalConsistencyError("witness gap differs from the orthant sum")
        return gap, psi, 1

    # maximize the gap over the box-bounded cone: one row per cell,
    # -(psi(up12) - psi(up1) - psi(up2) + psi(x)) <= 0, then the shifted box
    # 0 <= phi <= 2, one row per grid point
    cells = _grid_cells(sizes)
    constraints = [({k12: -1, k1: 1, k2: 1, k: -1}, 0) for k, k1, k2, k12 in cells]
    constraints += [({k: 1}, 2) for k in range(len(target))]
    result = simplex_solve(LinearProgram(
        num_vars=len(target),
        objective={k: -v for k, v in enumerate(target) if v},
        constraints=constraints,
    ))
    if result.status != OPTIMAL:
        raise InternalConsistencyError(f"supermodular LP ended {result.status}")
    if result.objective < 0:
        raise InternalConsistencyError(
            f"box LP optimum {result.objective} is below that of phi = 0")
    if result.objective == 0:
        # re-check the transfer certificate by direct summation
        lam, lam_den = over_common_denominator(result.duals[:len(cells)])
        achieved = [0] * len(target)
        for (k, k1, k2, k12), v in zip(cells, lam):
            if v:
                if v < 0:
                    raise InternalConsistencyError("negative transfer coefficient")
                achieved[k] += v
                achieved[k12] += v
                achieved[k1] -= v
                achieved[k2] -= v
        if achieved != [v * lam_den for v in target]:
            raise InternalConsistencyError(
                "transfer certificate does not reproduce p_Y - p_X")
        return Fraction(0), None, 1

    # the box shift cancels in the objective, so psi = phi - 1 has the same gap
    gap = result.objective * g / scale
    phi, den = over_common_denominator(result.solution)
    psi = [v - den for v in phi]
    if _recheck(sizes, r, scale, psi, den) != gap:
        raise InternalConsistencyError("witness gap differs from the box LP optimum")
    return gap, psi, den


def _grid_function(axes, psi: list[int], den: int) -> GridFunction:
    return GridFunction(axes, tuple(zip(itertools.product(*axes),
                                        (Fraction(v, den) for v in psi))))


def _weights_on(axes, d: FiniteJointDistribution) -> tuple[list[int], int]:
    """The law's probabilities on the flat lex grid of ``axes``, as ints over
    their common denominator, which is returned with them."""
    if d.dim != len(axes):
        raise UndefinedAtAtom(f"a grid of dimension {len(axes)} meets a law of dimension {d.dim}")
    strides, total = grid_strides([len(ax) for ax in axes])
    offsets = [{v: i * step for i, v in enumerate(ax)} for ax, step in zip(axes, strides)]
    scale = math.lcm(*(p.denominator for _, p in d.atoms))
    weights = [0] * total
    for x, p in d.atoms:
        try:
            k = sum(offset[v] for offset, v in zip(offsets, x))
        except KeyError as exc:
            raise UndefinedAtAtom(f"integrand undefined at {x}") from exc
        weights[k] += p.numerator * (scale // p.denominator)
    return weights, scale


def _signed_measure(x: tuple[list[int], int], y: tuple[list[int], int]) -> tuple[list[int], int]:
    """p_Y - p_X as ints over one scale, from each law's (weights, scale)."""
    (wx, sx), (wy, sy) = x, y
    scale = math.lcm(sx, sy)
    return [b * (scale // sy) - a * (scale // sx) for a, b in zip(wx, wy)], scale


def witness_expectations(witness: GridFunction, dX: FiniteJointDistribution,
                         dY: FiniteJointDistribution) -> tuple[Fraction, Fraction]:
    """Re-check a witness from scratch and return (E[psi(X)], E[psi(Y)]).

    The witness's points must be the lex grid of its axes; psi is then read
    by position, over one denominator, and checked for the box, every
    adjacent-step inequality and a positive gap E[psi(X)] - E[psi(Y)].
    """
    axes = witness.axes
    if tuple(x for x, _ in witness.values) != tuple(itertools.product(*axes)):
        raise InternalConsistencyError("witness points are not the lex grid of its axes")
    psi, den = over_common_denominator([v for _, v in witness.values])
    x, y = _weights_on(axes, dX), _weights_on(axes, dY)
    _recheck([len(ax) for ax in axes], *_signed_measure(x, y), psi, den)
    return tuple(Fraction(sum(map(mul, psi, w)), den * scale) for w, scale in (x, y))


def supermodular_leq(dX: FiniteJointDistribution, dY: FiniteJointDistribution,
                     caps: Caps | None = None) -> SupermodularVerdict:
    """Decide X <=sm Y (all supermodular expectations ordered), exactly, on
    the product grid of both supports (see :func:`decide_on_grid`)."""
    if dX.dim != dY.dim:
        raise ValueError(f"dimension mismatch: {dX.dim} vs {dY.dim}")
    axes = _union_axes(dX, dY)
    sizes = [len(ax) for ax in axes]
    total = _grid_size(sizes, caps)
    r, scale = _signed_measure(_weights_on(axes, dX), _weights_on(axes, dY))
    gap, psi, den = decide_on_grid(sizes, r, scale)
    if psi is None:
        return SupermodularVerdict(True, gap, None, total)
    return SupermodularVerdict(False, gap, _grid_function(axes, psi, den), total)


def closure_chain_holds(view) -> bool:
    """A sufficient condition, in polynomial time, for a law to lie below its
    independent copy in the supermodular order, on its integer view.

    For each coordinate j = 2..n and each threshold t of X_j below its
    largest value, no upper set U of the support of X_<j = (X_1..X_{j-1})
    may have P(X_<j in U, X_j > t) > P(X_<j in U) P(X_j > t). With atom
    weights over their total T, point z of that support gets the weight
    w(z, X_j > t) T - w(z) W_t, where W_t is the weight of {X_j > t}, and
    the condition is that no upper set has positive weight. At j = 2 the
    support is a chain, whose upper sets are its suffixes, so the largest
    suffix sum decides. Past it, ``maxflow.positive_upper_set`` decides on
    the at-or-above bitsets of the support. Every NA law passes; a law that
    fails is not decided (docs/theory.md section 13).
    """
    weights, ranks, sizes = view
    total = sum(weights)
    for c in range(1, len(sizes)):  # X_j is column c, and z = X_<j its first c ranks
        by_prefix: dict[tuple[int, ...], list[int]] = {}  # z -> weight of each rank of X_j
        for rank, w in zip(ranks, weights):
            by_prefix.setdefault(rank[:c], [0] * sizes[c])[rank[c]] += w
        points = sorted(by_prefix)
        if c > 1:
            up = points_above(points)
        lines = [by_prefix[z] for z in points]
        mass = [sum(line) for line in lines]
        tails = [0] * len(points)  # weight of each z with X_j at rank >= v: X_j > t, t of rank v-1
        for v in range(sizes[c] - 1, 0, -1):
            tails = [a + line[v] for a, line in zip(tails, lines)]
            above = sum(tails)
            excess = [a * total - w * above for a, w in zip(tails, mass)]
            if c == 1:
                if max(itertools.accumulate(reversed(excess))) > 0:
                    return False
            elif positive_upper_set(excess, up)[1] is not None:
                return False
    return True


def independence_grid(view) -> tuple[list[int], list[int], int]:
    """A law's integer view laid out on the flat lex grid of its support:
    (cells, products, mass). The law puts cells[k] / mass on grid point k
    and its independent copy products[k] / mass**dim, the outer product of
    the marginal lines."""
    cells, lines = scatter(view)
    return cells, outer_product(lines), sum(view[0])


def below_independent_copy(view, caps: Caps | None = None
                           ) -> tuple[int, SupermodularWitness | None]:
    """The law below its independent copy in the supermodular order (NSMD),
    decided on its integer view, whose ``axes`` are its support grid.

    Returns the number of grid points and, when the order fails, the
    witness. The grid cap is checked first, then :func:`closure_chain_holds`
    runs on the atoms: a law it certifies holds with no grid built. Any
    other law is laid out on the grid, where r = products - mass**(dim-1) *
    cells over mass**dim is p_perp - p_X, and :func:`decide_on_grid` decides
    it; E[psi] under the law and under its copy are integer sums over the
    same grid. A chain that holds proves NSMD, hence NOD, so the orthant
    screen could never have fired on a law it certifies.
    """
    total = _grid_size(view[2], caps)
    if closure_chain_holds(view):
        return total, None
    cells, products, mass = independence_grid(view)
    lift = mass ** (len(view.axes) - 1)
    r = [p - lift * c for p, c in zip(products, cells)]
    gap, psi, den = decide_on_grid(view[2], r, lift * mass)
    if psi is None:
        return total, None
    return total, SupermodularWitness(
        function=_grid_function(view.axes, psi, den),
        gap=gap,
        left=Fraction(sum(map(mul, psi, cells)), den * mass),
        right=Fraction(sum(map(mul, psi, products)), den * lift * mass),
    )
