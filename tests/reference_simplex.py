"""Fraction reference for the exact simplex.

This is the simplex as it was before the tableau moved to integer rows: every
pivot divides and subtracts exact Fractions. The differential tests compare
the integer tableau against it, pivot for pivot. Its duals are minus the
final reduced costs of the slacks, as the integer tableau's are.
"""

from __future__ import annotations

from fractions import Fraction

from negdep.errors import InternalConsistencyError
from negdep.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram, SimplexResult

_Q = Fraction


def _back(q) -> Fraction:
    return q if isinstance(q, Fraction) else Fraction(int(q.numerator), int(q.denominator))


class _Tableau:
    def __init__(self, num_structural: int):
        self.rows: list[dict[int, object]] = []
        self.rhs: list[object] = []
        self.basis: list[int] = []
        self.z: dict[int, object] = {}
        self.z_value = _Q(0)
        self.num_structural = num_structural
        self.num_cols = num_structural

    def new_col(self) -> int:
        col = self.num_cols
        self.num_cols += 1
        return col

    def set_objective(self, coeffs: dict[int, object]) -> None:
        """Install reduced costs for the given objective, pricing out the basis."""
        self.z = dict(coeffs)
        self.z_value = _Q(0)
        for r, b in enumerate(self.basis):
            cb = coeffs.get(b)
            if cb:
                row = self.rows[r]
                for col, a in row.items():
                    val = self.z.get(col, _Q(0)) - cb * a
                    if val:
                        self.z[col] = val
                    else:
                        self.z.pop(col, None)
                self.z_value += cb * self.rhs[r]
        for b in self.basis:
            self.z.pop(b, None)

    def pivot(self, r: int, e: int) -> None:
        row = self.rows[r]
        piv = row[e]
        if piv != 1:
            inv = _Q(1) / piv
            self.rows[r] = row = {c: a * inv for c, a in row.items()}
            self.rhs[r] *= inv
        rhs_r = self.rhs[r]
        for i, other in enumerate(self.rows):
            if i == r:
                continue
            f = other.get(e)
            if not f:
                continue
            for c, a in row.items():
                val = other.get(c, _Q(0)) - f * a
                if val:
                    other[c] = val
                else:
                    other.pop(c, None)
            self.rhs[i] -= f * rhs_r
        f = self.z.get(e)
        if f:
            for c, a in row.items():
                val = self.z.get(c, _Q(0)) - f * a
                if val:
                    self.z[c] = val
                else:
                    self.z.pop(c, None)
            self.z_value += f * rhs_r
        self.basis[r] = e

    def _entering(self) -> int | None:
        best = None
        for c, cost in self.z.items():
            if cost > 0 and (best is None or c < best):
                best = c
        return best

    def _leaving(self, e: int, pure_bland_ties: bool) -> int | None:
        best_row = None
        best_ratio = None
        best_key = None
        for i, row in enumerate(self.rows):
            a = row.get(e)
            if a and a > 0:
                ratio = self.rhs[i] / a
                key = self.basis[i] if pure_bland_ties else (len(row), self.basis[i])
                if best_ratio is None or ratio < best_ratio or (ratio == best_ratio
                                                                and key < best_key):
                    best_row, best_ratio, best_key = i, ratio, key
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


def _to_q(value) -> object:
    if isinstance(value, Fraction):
        return _Q(value.numerator, value.denominator)
    return _Q(value)


def simplex_solve(lp: LinearProgram) -> SimplexResult:
    """Exact optimum of the LP, or UNBOUNDED / INFEASIBLE."""
    t = _Tableau(lp.num_vars)
    needs_phase1 = False
    artificials: list[int] = []
    slacks: list[int] = []

    for coeffs, rhs in lp.constraints:
        row = {c: _to_q(a) for c, a in coeffs.items() if a}
        b = _to_q(rhs)
        slack = t.new_col()
        slacks.append(slack)
        row[slack] = _Q(1)
        if b < 0:
            row = {c: -a for c, a in row.items()}
            b = -b
            art = t.new_col()
            row[art] = _Q(1)
            artificials.append(art)
            t.basis.append(art)
            needs_phase1 = True
        else:
            t.basis.append(slack)
        t.rows.append(row)
        t.rhs.append(b)

    for coeffs, rhs in lp.equalities:
        row = {c: _to_q(a) for c, a in coeffs.items() if a}
        b = _to_q(rhs)
        if b < 0:
            row = {c: -a for c, a in row.items()}
            b = -b
        art = t.new_col()
        row[art] = _Q(1)
        artificials.append(art)
        t.basis.append(art)
        t.rows.append(row)
        t.rhs.append(b)
        needs_phase1 = True

    if needs_phase1:
        t.set_objective({a: _Q(-1) for a in artificials})
        status = t.run()
        if status != OPTIMAL:
            raise InternalConsistencyError(
                f"phase 1 ended {status}, but its objective is bounded above by 0"
            )
        if t.z_value != 0:
            return SimplexResult(status=INFEASIBLE)
        art_set = set(artificials)
        for r in range(len(t.rows)):
            if t.basis[r] in art_set:
                # basic artificial at value 0: pivot it out on any real column
                candidate = None
                for c, a in t.rows[r].items():
                    if c not in art_set and a:
                        candidate = c
                        break
                if candidate is not None:
                    t.pivot(r, candidate)
        keep = [r for r in range(len(t.rows)) if t.basis[r] not in art_set]
        t.rows = [t.rows[r] for r in keep]
        t.rhs = [t.rhs[r] for r in keep]
        t.basis = [t.basis[r] for r in keep]
        for row in t.rows:
            for a in artificials:
                row.pop(a, None)

    objective = {c: _to_q(v) for c, v in lp.objective.items() if v}
    t.set_objective(objective)
    status = t.run()
    if status == UNBOUNDED:
        return SimplexResult(status=UNBOUNDED)

    values = [_Q(0)] * lp.num_vars
    for r, b in enumerate(t.basis):
        if b < lp.num_vars:
            values[b] = t.rhs[r]
    return SimplexResult(
        status=OPTIMAL,
        objective=_back(t.z_value),
        solution=tuple(_back(v) for v in values),
        duals=tuple(_back(-t.z.get(s, _Q(0))) for s in slacks),
    )
