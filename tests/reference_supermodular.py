"""Fraction reference for the supermodular order.

This is ``supermodular_leq`` as it was before the orthant pre-screen: it
always solves the transfer system first, with Fraction rows, and runs the
box LP only when that system is infeasible. It is kept verbatim; the union
grid, the grid cells, the witness check and the simplex are imported from the
package, unchanged. The differential tests compare the live decision against
it, verdict, gap and witness alike.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from negdep.distributions import FiniteJointDistribution
from negdep.errors import Caps, GridTooLarge, InternalConsistencyError, default_caps
from negdep.simplex import OPTIMAL, LinearProgram, SimplexResult, simplex_solve
from negdep.supermodular import (
    GridFunction,
    SupermodularVerdict,
    _grid_cells,
    _union_axes,
    verify_supermodular_witness,
)


def supermodular_leq(dX: FiniteJointDistribution, dY: FiniteJointDistribution,
                     caps: Caps | None = None) -> SupermodularVerdict:
    """Decide X <=sm Y (all supermodular expectations ordered), exactly.

    The order holds iff the box LP's optimum is 0, which by LP duality is
    the same as p_Y - p_X being a nonnegative combination of elementary
    transfer vectors delta(x) - delta(x+e_i) - delta(x+e_j) + delta(x+e_i+e_j)
    (constant functions make the box shift cancel out). The feasibility
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
    one = Fraction(1)

    # signed target measure r = p_Y - p_X on the grid
    r = [Fraction(0)] * len(grid)
    for x, p in dX.atoms:
        r[index[x]] -= p
    for y, q in dY.atoms:
        r[index[y]] += q
    if sum(r) != 0:
        raise InternalConsistencyError("signed measure does not balance")

    # feasibility: sum of lambda_c * transfer_c == r, lambda >= 0
    rows: dict[int, dict[int, Fraction]] = {k: {} for k in range(len(grid))}
    for c, (k, k1, k2, k12) in enumerate(cells):
        rows[k][c] = rows[k].get(c, Fraction(0)) + one
        rows[k12][c] = rows[k12].get(c, Fraction(0)) + one
        rows[k1][c] = rows[k1].get(c, Fraction(0)) - one
        rows[k2][c] = rows[k2].get(c, Fraction(0)) - one
    feas = simplex_solve(LinearProgram(
        num_vars=len(cells),
        objective={},
        constraints=(),
        equalities=[(rows[k], r[k]) for k in range(len(grid))],
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
        if achieved != r:
            raise InternalConsistencyError("transfer certificate does not reproduce p_Y - p_X")
        return SupermodularVerdict(True, Fraction(0), None, len(grid))

    # order violated: maximize the gap over the box-bounded cone for a witness
    constraints: list[tuple[dict[int, Fraction], Fraction]] = []
    for k, k1, k2, k12 in cells:
        # -(psi(up12) - psi(up1) - psi(up2) + psi(x)) <= 0
        constraints.append(({k12: -one, k1: one, k2: one, k: -one}, Fraction(0)))
    for k in range(len(grid)):
        constraints.append(({k: one}, Fraction(2)))  # shifted box: 0 <= phi <= 2
    objective = {k: -v for k, v in enumerate(r) if v}

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
