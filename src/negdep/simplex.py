"""Exact simplex for LPs in standard inequality form, pivoting in integers.

    maximize    c . x
    subject to  A x <= b,   x >= 0,   with b >= 0,

so the basis of slacks is feasible before the first pivot; a negative rhs
or an equality row raises ``ValueError``. Rows are sparse dicts of integers
plus an integer rhs; each row's basic column has a positive coefficient and
appears in no other row, and the reduced costs and objective value are
integers over one positive denominator. A pivot takes an integer combination
of each row with the pivot row and divides out its gcd (docs/theory.md
section 8); Fractions appear only at the API.

The entering variable follows Bland's rule (lowest eligible index), which
both terminates and — by entering the original sparse columns first — keeps
fill-in low; ratio ties prefer the sparsest row, and after a long degenerate
streak tie-breaking reverts to lowest basis index, which restores Bland's
termination guarantee in full. Positive row scaling changes none of these
choices, so the pivots are those of the tableau in normalised Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearProgram:
    """max objective . x  s.t.  each (coeffs, rhs) row means coeffs . x <= rhs,
    with every rhs >= 0.

    ``equalities`` must stay empty: :func:`simplex_solve` rejects any row in
    it. The field is kept only because ``perfbench/layertrace.py`` reads its
    length.
    """

    num_vars: int
    objective: Mapping[int, Fraction]
    constraints: Sequence[tuple[Mapping[int, Fraction], Fraction]]
    equalities: Sequence[tuple[Mapping[int, Fraction], Fraction]] = ()


@dataclass(frozen=True)
class SimplexResult:
    """At optimum, ``duals`` holds one optimal dual value per ``constraints``
    row, minus the final reduced cost of the row's slack (docs/theory.md
    section 8)."""

    status: str
    objective: Fraction | None = None
    solution: tuple[Fraction, ...] | None = None
    duals: tuple[Fraction, ...] | None = None


def _integer_row(coeffs: Mapping[int, Fraction], rhs) -> tuple[dict[int, int], int, int]:
    """The row times L, the lcm of its denominators: (coefficients, rhs, L).
    A row already in ints is copied without its zeros, with L = 1."""
    if type(rhs) is int and all(type(a) is int for a in coeffs.values()):
        return {c: a for c, a in coeffs.items() if a}, rhs, 1
    items = [(c, a) for c, a in coeffs.items() if a]
    scale = lcm(rhs.denominator, *(a.denominator for _, a in items))
    return ({c: a.numerator * (scale // a.denominator) for c, a in items},
            rhs.numerator * (scale // rhs.denominator), scale)


def _eliminate(row: dict[int, int], tail: tuple[int, ...], pivot_row: dict[int, int],
               pivot_tail: tuple[int, ...], e: int) -> tuple[dict[int, int], list[int]]:
    """m * row - f * pivot_row with the least m > 0 that clears column e,
    divided by its gcd. ``tail`` holds entries outside the columns (rhs, ...),
    combined the same way. Keys keep their order; new keys follow the pivot
    row's order."""
    g = gcd(pivot_row[e], row[e])
    m, f = pivot_row[e] // g, row[e] // g
    if m != 1:
        row = {c: a * m for c, a in row.items()}
    get = row.get
    for c, a in pivot_row.items():
        val = get(c, 0) - f * a
        if val:
            row[c] = val
        else:
            del row[c]
    tail = [x * m - f * y for x, y in zip(tail, pivot_tail)]
    g = gcd(*tail, *row.values())
    if g > 1:
        row = {c: a // g for c, a in row.items()}
        tail = [x // g for x in tail]
    return row, tail


class _Tableau:
    def __init__(self, num_structural: int):
        self.rows: list[dict[int, int]] = []
        self.rhs: list[int] = []
        self.basis: list[int] = []
        self.z: dict[int, int] = {}  # reduced costs times z_den
        self.z_value = 0             # objective value times z_den
        self.z_den = 1
        self.num_cols = num_structural

    def pivot(self, r: int, e: int) -> None:
        row, tail = self.rows[r], (self.rhs[r],)
        for i, other in enumerate(self.rows):
            if i != r and other.get(e):
                self.rows[i], (self.rhs[i],) = _eliminate(other, (self.rhs[i],), row, tail, e)
        if self.z.get(e):
            self.z, (self.z_value, self.z_den) = _eliminate(
                self.z, (self.z_value, self.z_den), row, (-self.rhs[r], 0), e)
        self.basis[r] = e

    def _entering(self) -> int | None:
        return min((c for c, cost in self.z.items() if cost > 0), default=None)

    def _leaving(self, e: int, pure_bland_ties: bool) -> int | None:
        # rhs_i / a_i < rhs_best / a_best, cross-multiplied: both a are positive
        best_row = None
        best_rhs = best_a = best_key = None
        for i, row in enumerate(self.rows):
            a = row.get(e)
            if a and a > 0:
                b = self.rhs[i]
                key = self.basis[i] if pure_bland_ties else (len(row), self.basis[i])
                if best_row is None or b * best_a < best_rhs * a or (
                        b * best_a == best_rhs * a and key < best_key):
                    best_row, best_rhs, best_a, best_key = i, b, a, key
        return best_row

    def run(self) -> str:
        """Pivot to optimality or detect unboundedness."""
        pure_bland_ties = False
        degenerate_streak = 0
        switch_after = 3 * (len(self.rows) + self.num_cols) + 20
        while True:
            e = self._entering()
            if e is None:
                return OPTIMAL
            r = self._leaving(e, pure_bland_ties)
            if r is None:
                return UNBOUNDED
            degenerate = self.rhs[r] == 0
            self.pivot(r, e)
            if degenerate:
                degenerate_streak += 1
                if degenerate_streak > switch_after:
                    pure_bland_ties = True
            else:
                degenerate_streak = 0


def simplex_solve(lp: LinearProgram) -> SimplexResult:
    """Exact optimum of the LP, or UNBOUNDED. A negative rhs or an equality
    row raises ``ValueError``."""
    if lp.equalities:
        raise ValueError("equality rows are not supported; every row is coeffs . x <= rhs")
    t = _Tableau(lp.num_vars)
    for coeffs, rhs in lp.constraints:
        row, b, scale = _integer_row(coeffs, rhs)
        if b < 0:
            raise ValueError(f"rhs {rhs} is negative; every rhs must be >= 0")
        row[t.num_cols] = scale  # the row's slack, basic at level b
        t.basis.append(t.num_cols)
        t.num_cols += 1
        t.rows.append(row)
        t.rhs.append(b)
    # every basic column is a slack, with cost 0, so the costs are the reduced costs
    t.z, t.z_value, t.z_den = _integer_row(lp.objective, 0)
    if t.run() == UNBOUNDED:
        return SimplexResult(status=UNBOUNDED)

    values = [Fraction(0)] * lp.num_vars
    for r, b in enumerate(t.basis):
        if b < lp.num_vars:
            values[b] = Fraction(t.rhs[r], t.rows[r][b])
    return SimplexResult(
        status=OPTIMAL,
        objective=Fraction(t.z_value, t.z_den),
        solution=tuple(values),
        duals=tuple(Fraction(-t.z.get(s, 0), t.z_den) for s in range(lp.num_vars, t.num_cols)),
    )
