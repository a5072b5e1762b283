"""Supermodular stochastic-order decision by exact linear programming.

Whether E[psi(X)] <= E[psi(Y)] for every supermodular psi is decided on the
finite product grid spanned by both supports: the adjacent-step inequalities

    psi(x + e_i + e_j) - psi(x + e_i) - psi(x + e_j) + psi(x) >= 0

over all grid points and coordinate pairs generate the whole supermodular
cone on the grid (see docs/theory.md), and the box -1 <= psi <= 1
compactifies it. Maximizing E[psi(X)] - E[psi(Y)] over that polytope gives
exactly 0 when the order holds and a strictly positive gap, with the
maximizing psi as a witness, when it fails.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .distributions import FiniteJointDistribution, Vector
from .errors import Caps, GridTooLarge, InternalConsistencyError, default_caps
from .simplex import OPTIMAL, LinearProgram, SimplexResult, simplex_solve


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
    gap: Fraction                 # max of E[psi(X)] - E[psi(Y)]; 0 iff holds
    witness: GridFunction | None  # maximizing psi when the order fails
    grid_points: int


def _union_axes(dX: FiniteJointDistribution,
                dY: FiniteJointDistribution) -> tuple[tuple[Fraction, ...], ...]:
    gx = dX.support_grid()
    gy = dY.support_grid()
    return tuple(tuple(sorted(set(a) | set(b))) for a, b in zip(gx, gy))


def local_supermodularity_deficits(f: GridFunction):
    """Yield (point, axis_pair, value) of every adjacent-step inequality."""
    values = f.as_dict()
    axes = f.axes
    dim = len(axes)
    for pos in itertools.product(*(range(len(ax)) for ax in axes)):
        x = tuple(axes[a][p] for a, p in enumerate(pos))
        for a1 in range(dim):
            if pos[a1] + 1 >= len(axes[a1]):
                continue
            for a2 in range(a1 + 1, dim):
                if pos[a2] + 1 >= len(axes[a2]):
                    continue
                up1 = list(x)
                up1[a1] = axes[a1][pos[a1] + 1]
                up2 = list(x)
                up2[a2] = axes[a2][pos[a2] + 1]
                up12 = list(up1)
                up12[a2] = axes[a2][pos[a2] + 1]
                deficit = (values[tuple(up12)] - values[tuple(up1)]
                           - values[tuple(up2)] + values[x])
                yield x, (a1 + 1, a2 + 1), deficit


def verify_supermodular_witness(witness: GridFunction,
                                dX: FiniteJointDistribution,
                                dY: FiniteJointDistribution) -> Fraction:
    """Re-check a witness from scratch; returns the (positive) gap."""
    values = witness.as_dict()
    if any(abs(v) > 1 for v in values.values()):
        raise InternalConsistencyError("witness leaves the [-1, 1] box")
    for x, pair, deficit in local_supermodularity_deficits(witness):
        if deficit < 0:
            raise InternalConsistencyError(
                f"witness is not supermodular at {x} on axes {pair}"
            )
    gap = dX.expectation(lambda v: values[v]) - dY.expectation(lambda v: values[v])
    if gap <= 0:
        raise InternalConsistencyError(f"witness gap {gap} is not positive")
    return gap


def _grid_cells(sizes: list[int]) -> list[tuple[int, int, int, int]]:
    """All (k, k+e_i, k+e_j, k+e_i+e_j) index quadruples of the lex grid."""
    dim = len(sizes)
    strides = [0] * dim
    acc = 1
    for a in range(dim - 1, -1, -1):
        strides[a] = acc
        acc *= sizes[a]
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


def orthant_sums(cells: list[int], sizes: list[int], reverse: bool) -> list[int]:
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


def supermodular_leq(dX: FiniteJointDistribution, dY: FiniteJointDistribution,
                     caps: Caps | None = None) -> SupermodularVerdict:
    """Decide X <=sm Y (all supermodular expectations ordered), exactly.

    The order holds iff the box LP's optimum is 0, which by LP duality is
    the same as p_Y - p_X being a nonnegative combination of elementary
    transfer vectors delta(x) - delta(x+e_i) - delta(x+e_j) + delta(x+e_i+e_j)
    (constant functions make the box shift cancel out). Orthant indicators
    are supermodular, so a negative sum of p_Y - p_X over a lower or upper
    orthant already rules the transfers out. Otherwise the feasibility
    system is solved first — it is far less degenerate — and its certificate
    is re-verified by direct summation; only a failed order runs the box LP,
    to maximize the gap and extract the witness psi.
    """
    if dX.dim != dY.dim:
        raise ValueError(f"dimension mismatch: {dX.dim} vs {dY.dim}")
    caps = caps or default_caps()
    axes = _union_axes(dX, dY)
    total = 1
    for ax in axes:
        total *= len(ax)
    if total > caps.max_lp_vars:
        raise GridTooLarge(
            f"product grid has {total} points, over the cap of {caps.max_lp_vars} "
            "LP variables"
        )

    grid = list(itertools.product(*axes))
    index = {point: k for k, point in enumerate(grid)}
    sizes = [len(ax) for ax in axes]
    cells = _grid_cells(sizes)

    # signed target measure r = p_Y - p_X on the grid, as integers over scale
    scale = math.lcm(*(p.denominator for _, p in dX.atoms + dY.atoms))
    r = [0] * len(grid)
    for atoms, sign in ((dX.atoms, -1), (dY.atoms, 1)):
        for x, p in atoms:
            r[index[x]] += sign * p.numerator * (scale // p.denominator)
    if sum(r) != 0:
        raise InternalConsistencyError("signed measure does not balance")

    # feasibility: sum of lambda_c * transfer_c == r, lambda >= 0, unless a
    # negative orthant sum of r rules it out (docs/theory.md section 5)
    if not any(min(orthant_sums(list(r), sizes, reverse)) < 0 for reverse in (False, True)):
        target = [Fraction(v, scale) for v in r]
        rows: dict[int, dict[int, int]] = {k: {} for k in range(len(grid))}
        for c, cell in enumerate(cells):
            for k, sign in zip(cell, (1, -1, -1, 1)):
                rows[k][c] = sign
        feas = simplex_solve(LinearProgram(
            num_vars=len(cells),
            objective={},
            constraints=(),
            equalities=[(rows[k], target[k]) for k in range(len(grid))],
        ))
        if feas.status == OPTIMAL:
            # re-check the transfer certificate by direct summation
            achieved = [Fraction(0)] * len(grid)
            for c, lam in enumerate(feas.solution):
                if lam:
                    if lam < 0:
                        raise InternalConsistencyError("negative transfer coefficient")
                    k, k1, k2, k12 = cells[c]
                    achieved[k] += lam
                    achieved[k12] += lam
                    achieved[k1] -= lam
                    achieved[k2] -= lam
            if achieved != target:
                raise InternalConsistencyError(
                    "transfer certificate does not reproduce p_Y - p_X")
            return SupermodularVerdict(True, Fraction(0), None, len(grid))

    # order violated: maximize the gap over the box-bounded cone for a witness
    constraints: list[tuple[dict[int, int], int]] = []
    for k, k1, k2, k12 in cells:
        # -(psi(up12) - psi(up1) - psi(up2) + psi(x)) <= 0
        constraints.append(({k12: -1, k1: 1, k2: 1, k: -1}, 0))
    for k in range(len(grid)):
        constraints.append(({k: 1}, 2))  # shifted box: 0 <= phi <= 2
    objective = {k: Fraction(-v, scale) for k, v in enumerate(r) if v}

    result: SimplexResult = simplex_solve(
        LinearProgram(num_vars=len(grid), objective=objective, constraints=constraints)
    )
    if result.status != OPTIMAL:
        raise InternalConsistencyError(f"supermodular LP ended {result.status}")
    gap = result.objective
    if gap <= 0:
        raise InternalConsistencyError(
            f"transfer system infeasible but box LP optimum is {gap}"
        )

    # the box shift cancels in the objective, so psi = phi - 1 has the same gap
    witness = GridFunction(
        axes=axes,
        values=tuple((point, result.solution[k] - 1) for k, point in enumerate(grid)),
    )
    verify_supermodular_witness(witness, dX, dY)
    return SupermodularVerdict(False, gap, witness, len(grid))
