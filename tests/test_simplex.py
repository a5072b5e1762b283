from fractions import Fraction

import pytest

from negdep import (
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    simplex_solve,
)

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
    # x <= -1 with x >= 0 cannot hold; with every rhs >= 0, x = 0 is always
    # feasible, so the only way to state an infeasible LP is refused
    with pytest.raises(ValueError, match="negative"):
        simplex_solve(lp(1, {0: 1}, [({0: 1}, -1)]))


def test_negative_rhs_feasible():
    # x >= 2 encoded as -x <= -2 is feasible, but the slack basis is not, and
    # there is no phase 1 to find another
    with pytest.raises(ValueError, match="negative"):
        simplex_solve(lp(1, {0: -1}, [({0: -1}, -2), ({0: 1}, 5)]))
    with pytest.raises(ValueError, match="negative"):
        simplex_solve(lp(1, {0: -1}, [({0: 1}, 5), ({0: F(-1, 3)}, F(-2, 3))]))


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
    # x == y as x - y <= 0 and y - x <= 0, both degenerate at the start
    rows = [({0: 1, 1: -1}, 0), ({0: -1, 1: 1}, 0), ({0: 1}, F(3, 4))]
    result = simplex_solve(lp(2, {0: 1, 1: 1}, rows))
    assert result.status == OPTIMAL
    assert result.objective == F(3, 2)
    assert result.solution == (F(3, 4), F(3, 4))


def test_native_equality_rows():
    # equality rows are refused before any pivot, even a feasible one
    program = LinearProgram(
        num_vars=2,
        objective={0: F(1)},
        constraints=[({0: F(1)}, F(3, 4))],
        equalities=[({0: F(1), 1: F(1)}, F(1))],
    )
    with pytest.raises(ValueError, match="equality"):
        simplex_solve(program)


def test_infeasible_equality_system():
    # x == 2 against x <= 1/2: refused as an equality row, not reported
    # infeasible, since there is no phase 1 to find that out
    program = LinearProgram(
        num_vars=1,
        objective={},
        constraints=[({0: F(1)}, F(1, 2))],
        equalities=[({0: F(1)}, F(2))],
    )
    with pytest.raises(ValueError, match="equality"):
        simplex_solve(program)


def test_pure_feasibility_with_empty_objective():
    # with no objective the slack basis is optimal at once: x = 0, duals 0
    program = LinearProgram(
        num_vars=2,
        objective={},
        constraints=[({0: F(1), 1: F(2)}, F(5)), ({0: F(1)}, F(1))],
    )
    result = simplex_solve(program)
    assert result.status == OPTIMAL
    assert result.objective == 0
    assert result.solution == (F(0), F(0))
    assert result.duals == (F(0), F(0))
