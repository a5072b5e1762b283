from fractions import Fraction

import pytest

from negdep import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    InternalConsistencyError,
    LinearProgram,
    simplex_solve,
)
from negdep.simplex import _Tableau

F = Fraction


def lp(num_vars, objective, rows):
    return LinearProgram(
        num_vars=num_vars,
        objective={k: F(v) for k, v in objective.items()},
        constraints=[({k: F(v) for k, v in row.items()}, F(rhs)) for row, rhs in rows],
    )


def test_single_variable_box():
    result = simplex_solve(lp(1, {0: 1}, [({0: 1}, 3)]))
    assert result.status == OPTIMAL
    assert result.objective == 3
    assert result.solution == (F(3),)


def test_shared_budget():
    result = simplex_solve(lp(2, {0: 1, 1: 1}, [({0: 1, 1: 1}, F(1, 2))]))
    assert result.status == OPTIMAL
    assert result.objective == F(1, 2)


def test_degenerate_redundant_constraints():
    # the same face three times over; optimum is still x + y = 1 at (1, 0)
    result = simplex_solve(lp(
        2,
        {0: 2, 1: 1},
        [
            ({0: 1, 1: 1}, 1),
            ({0: 2, 1: 2}, 2),
            ({0: 3, 1: 3}, 3),
            ({0: 1}, 1),
            ({1: 1}, 1),
        ],
    ))
    assert result.status == OPTIMAL
    assert result.objective == 2
    assert result.solution == (F(1), F(0))


def test_unbounded():
    assert simplex_solve(lp(2, {0: 1}, [({1: 1}, 1)])).status == UNBOUNDED


def test_infeasible():
    # x <= -1 with x >= 0 cannot hold
    assert simplex_solve(lp(1, {0: 1}, [({0: 1}, -1)])).status == INFEASIBLE


def test_negative_rhs_feasible():
    # x >= 2 encoded as -x <= -2, maximize -x: optimum at x = 2
    result = simplex_solve(lp(1, {0: -1}, [({0: -1}, -2), ({0: 1}, 5)]))
    assert result.status == OPTIMAL
    assert result.objective == -2
    assert result.solution == (F(2),)


def test_fractional_coefficients_exact():
    result = simplex_solve(lp(
        2,
        {0: F(1, 3), 1: F(1, 7)},
        [({0: F(2, 5), 1: 1}, F(9, 11)), ({0: 1}, F(1, 2))],
    ))
    assert result.status == OPTIMAL
    # x0 = 1/2, x1 = 9/11 - 1/5 = 34/55; objective = 1/6 + 34/385
    assert result.solution == (F(1, 2), F(34, 55))
    assert result.objective == F(1, 6) + F(34, 385)


def test_equality_via_two_inequalities():
    rows = [({0: 1, 1: 1}, 1), ({0: -1, 1: -1}, -1), ({0: 1}, F(3, 4))]
    result = simplex_solve(lp(2, {0: 1}, rows))
    assert result.status == OPTIMAL
    assert result.objective == F(3, 4)


def test_native_equality_rows():
    program = LinearProgram(
        num_vars=2,
        objective={0: F(1)},
        constraints=[({0: F(1)}, F(3, 4))],
        equalities=[({0: F(1), 1: F(1)}, F(1))],
    )
    result = simplex_solve(program)
    assert result.status == OPTIMAL
    assert result.objective == F(3, 4)
    assert result.solution == (F(3, 4), F(1, 4))


def test_infeasible_equality_system():
    program = LinearProgram(
        num_vars=1,
        objective={},
        constraints=[({0: F(1)}, F(1, 2))],
        equalities=[({0: F(1)}, F(2))],
    )
    assert simplex_solve(program).status == INFEASIBLE


def test_pure_feasibility_with_empty_objective():
    program = LinearProgram(
        num_vars=2,
        objective={},
        constraints=(),
        equalities=[({0: F(1), 1: F(2)}, F(5)), ({0: F(1)}, F(1))],
    )
    result = simplex_solve(program)
    assert result.status == OPTIMAL
    assert result.solution == (F(1), F(2))


def test_phase1_non_optimal_status_raises(monkeypatch):
    # phase 1 cannot be unbounded; if it ever reports so, the solver must say
    # so loudly, also under python -O, instead of reading a stale objective
    monkeypatch.setattr(_Tableau, "run", lambda self: UNBOUNDED)
    equality_lp = LinearProgram(
        num_vars=2,
        objective={0: F(1)},
        constraints=[],
        equalities=[({0: F(1), 1: F(1)}, F(1))],
    )
    with pytest.raises(InternalConsistencyError):
        simplex_solve(equality_lp)
