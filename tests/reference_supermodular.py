"""Fraction reference for the supermodular order and NSMD.

``supermodular_leq`` always solves the transfer system first, with Fraction
rows, and decides the order by it alone. A failed order is then witnessed
by the indicator of the most negative orthant sum of p_Y - p_X, each sum
taken by enumerating the orthant's points, with a lower orthant before an
upper one and then the lowest grid position on a tie; only when no orthant
sum is negative does the box LP run for the witness. The transfer LP and
the box LP are kept as the separate helpers :func:`transfer_lp` and
:func:`box_lp`, as they were before the orthant pre-screen. Next to them are
the witness check as it was before it ran by grid position, on
Fraction-keyed dicts, and ``check_nsmd`` as it was before it ran on the
law's integer view, through an independent-copy law and
``GridFunction.as_dict``. The union grid, the grid cells and the simplex
are imported from the package, unchanged. The differential tests compare
the live decisions against them, verdict, gap, witness and expectations
alike.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from negdep.checks import CheckStats, Verdict, _require_joint
from negdep.distributions import FiniteJointDistribution, independent_copy
from negdep.errors import Caps, GridTooLarge, InternalConsistencyError, default_caps
from negdep.simplex import OPTIMAL, LinearProgram, SimplexResult, simplex_solve
from negdep.supermodular import (
    GridFunction,
    SupermodularVerdict,
    SupermodularWitness,
    _grid_cells,
    _union_axes,
)


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


def signed_measure(dX: FiniteJointDistribution, dY: FiniteJointDistribution,
                   caps: Caps | None = None):
    """(axes, grid, cells, r): the union grid in lex order, its local cells
    and r = p_Y - p_X on it, in Fractions."""
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
    cells = _grid_cells([len(ax) for ax in axes])

    # signed target measure r = p_Y - p_X on the grid
    r = [Fraction(0)] * len(grid)
    for x, p in dX.atoms:
        r[index[x]] -= p
    for y, q in dY.atoms:
        r[index[y]] += q
    if sum(r) != 0:
        raise InternalConsistencyError("signed measure does not balance")
    return axes, grid, cells, r


def transfer_lp(cells, r) -> SimplexResult:
    """Feasibility of sum of lambda_c * transfer_c == r, lambda >= 0, with
    the certificate re-checked by direct summation when it is feasible."""
    one = Fraction(1)
    rows: dict[int, dict[int, Fraction]] = {k: {} for k in range(len(r))}
    for c, (k, k1, k2, k12) in enumerate(cells):
        rows[k][c] = rows[k].get(c, Fraction(0)) + one
        rows[k12][c] = rows[k12].get(c, Fraction(0)) + one
        rows[k1][c] = rows[k1].get(c, Fraction(0)) - one
        rows[k2][c] = rows[k2].get(c, Fraction(0)) - one
    feas = simplex_solve(LinearProgram(
        num_vars=len(cells),
        objective={},
        constraints=(),
        equalities=[(rows[k], r[k]) for k in range(len(r))],
    ))
    if feas.status == OPTIMAL:
        achieved = [Fraction(0)] * len(r)
        for c, lam in enumerate(feas.solution):
            if lam:
                if lam < 0:
                    raise InternalConsistencyError("negative transfer coefficient")
                k, k1, k2, k12 = cells[c]
                achieved[k] += lam
                achieved[k12] += lam
                achieved[k1] -= lam
                achieved[k2] -= lam
        if achieved != r:
            raise InternalConsistencyError("transfer certificate does not reproduce p_Y - p_X")
    return feas


def box_lp(cells, r) -> tuple[Fraction, list[Fraction]]:
    """The maximum of E[psi(X)] - E[psi(Y)] over locally supermodular psi in
    the box [-1, 1], and its maximizing psi."""
    one = Fraction(1)
    constraints: list[tuple[dict[int, Fraction], Fraction]] = []
    for k, k1, k2, k12 in cells:
        # -(psi(up12) - psi(up1) - psi(up2) + psi(x)) <= 0
        constraints.append(({k12: -one, k1: one, k2: one, k: -one}, Fraction(0)))
    for k in range(len(r)):
        constraints.append(({k: one}, Fraction(2)))  # shifted box: 0 <= phi <= 2
    objective = {k: -v for k, v in enumerate(r) if v}

    result: SimplexResult = simplex_solve(
        LinearProgram(num_vars=len(r), objective=objective, constraints=constraints)
    )
    if result.status != OPTIMAL:
        raise InternalConsistencyError(f"supermodular LP ended {result.status}")
    # the box shift cancels in the objective, so psi = phi - 1 has the same gap
    return result.objective, [v - 1 for v in result.solution]


def in_orthant(z, x, upper: bool) -> bool:
    """Whether z lies in the lower orthant {z <= x}, or the upper one."""
    return all(a >= b if upper else a <= b for a, b in zip(z, x))


def orthant_sums(grid, r) -> dict[tuple[bool, int], Fraction]:
    """(upper, k) -> the sum of r over the lower orthant of grid[k], or the
    upper one, by enumerating the orthant's points."""
    return {(upper, k): sum((v for z, v in zip(grid, r) if in_orthant(z, x, upper)), Fraction(0))
            for upper in (False, True) for k, x in enumerate(grid)}


def worst_orthant(grid, r) -> tuple[Fraction, bool, int] | None:
    """(sum, upper, k) of the most negative orthant sum, a lower orthant
    first and then the lowest k on a tie; None if no sum is negative."""
    low, upper, k = min((s, upper, k) for (upper, k), s in orthant_sums(grid, r).items())
    return (low, upper, k) if low < 0 else None


def supermodular_leq(dX: FiniteJointDistribution, dY: FiniteJointDistribution,
                     caps: Caps | None = None) -> SupermodularVerdict:
    """Decide X <=sm Y (all supermodular expectations ordered), exactly.

    The order holds iff the box LP's optimum is 0, which by LP duality is
    the same as p_Y - p_X being a nonnegative combination of elementary
    transfer vectors delta(x) - delta(x+e_i) - delta(x+e_j) + delta(x+e_i+e_j)
    (constant functions make the box shift cancel out). The feasibility
    system decides; a failed order reports the indicator of its most
    negative orthant, which is supermodular and in the box, or, with no
    negative orthant sum, the box LP's maximizing psi.
    """
    axes, grid, cells, r = signed_measure(dX, dY, caps)
    if transfer_lp(cells, r).status == OPTIMAL:
        return SupermodularVerdict(True, Fraction(0), None, len(grid))

    worst = worst_orthant(grid, r)
    if worst is None:
        gap, psi = box_lp(cells, r)
    else:
        low, upper, k = worst
        gap = -low
        psi = [Fraction(int(in_orthant(z, grid[k], upper))) for z in grid]
    if gap <= 0:
        raise InternalConsistencyError(
            f"transfer system infeasible but the witness gap is {gap}"
        )
    witness = GridFunction(axes=axes, values=tuple(zip(grid, psi)))
    if verify_supermodular_witness(witness, dX, dY) != gap:
        raise InternalConsistencyError("witness gap differs from the reported gap")
    return SupermodularVerdict(False, gap, witness, len(grid))


def check_nsmd(d: FiniteJointDistribution, caps: Caps | None = None) -> Verdict:
    """Below the independent copy in the supermodular order."""
    _require_joint(d)
    perp = independent_copy(d)
    verdict = supermodular_leq(d, perp, caps=caps)
    if verdict.holds:
        return Verdict("nsmd", True, None, CheckStats(conditioning_pairs=verdict.grid_points))
    values = verdict.witness.as_dict()
    witness = SupermodularWitness(
        function=verdict.witness,
        gap=verdict.gap,
        left=d.expectation(lambda v: values[v]),
        right=perp.expectation(lambda v: values[v]),
    )
    return Verdict("nsmd", False, witness,
                   CheckStats(conditioning_pairs=verdict.grid_points))
