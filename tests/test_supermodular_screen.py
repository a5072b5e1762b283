"""The supermodular order with its orthant pre-screen against the Fraction
reference, against the reference's transfer LP, which the live decision
never solves, and its orthant witness against the box LP that it skips."""

import itertools
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negdep import (
    checks,
    independent_copy,
    make_pmf,
    permutation_distribution,
    simplex,
    supermodular,
)
from negdep.simplex import INFEASIBLE, OPTIMAL, SimplexResult

from . import reference_supermodular as ref

F = Fraction

# negative and non-integer values, so grid positions, not values, matter
_VALUES = [F(-2), F(-1, 2), F(0), F(1, 3), F(1), F(5, 2)]


@st.composite
def small_laws(draw, dim=None, pool=None):
    """Laws of dimension 2-4 on a small grid; half of them put every column in
    the same order, which makes the coordinates positively dependent."""
    if dim is None:
        dim = draw(st.integers(2, 4))
    if pool is None:
        pool = draw(st.lists(st.sampled_from(_VALUES), min_size=2,
                             max_size=3 if dim <= 3 else 2, unique=True))
    size = draw(st.integers(1, 6))
    columns = [draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
               for _ in range(dim)]
    if draw(st.booleans()):
        columns = [sorted(column) for column in columns]
    weights = draw(st.lists(st.integers(1, 9), min_size=size, max_size=size))
    total = sum(weights)
    return make_pmf(dim, [(x, F(w, total)) for x, w in zip(zip(*columns), weights)])


@st.composite
def law_pairs(draw):
    """Two laws of one dimension. TRUE cases come from a law against itself
    and from the independent copy below a comonotone law; random pairs with
    different marginals are FALSE."""
    d = draw(small_laws())
    kind = draw(st.sampled_from(["self", "copy-below", "copy-above", "random"]))
    if kind == "self":
        return d, d
    if kind == "copy-below":
        return independent_copy(d), d
    if kind == "copy-above":
        return d, independent_copy(d)
    pool = sorted({v for x, _ in d.atoms for v in x})
    return d, draw(small_laws(dim=d.dim, pool=pool[:3] if d.dim <= 3 else pool[:2]))


def _up_to_scale(result):
    """An LP result with its objective reduced to a sign, and no duals. The
    live decision reads p_Y - p_X divided by the gcd of its integer entries,
    so its box-LP optimum is the reference's times one positive factor, at
    the same maximizer."""
    return SimplexResult(
        result.status,
        result.objective and F((result.objective > 0) - (result.objective < 0)),
        result.solution)


def _solves(module, call):
    """Run ``call``; return its result and, for every LP solved through
    ``module.simplex_solve``, the result up to scale and the pivots in order."""
    solves = []
    pivot, solve = simplex._Tableau.pivot, module.simplex_solve

    def recording_pivot(self, r, e):
        solves[-1][1].append((r, e))
        pivot(self, r, e)

    def recording_solve(lp):
        solves.append([None, []])
        result = solve(lp)
        solves[-1][0] = _up_to_scale(result)
        return result

    with mock.patch.object(simplex._Tableau, "pivot", recording_pivot), \
            mock.patch.object(module, "simplex_solve", recording_solve):
        return call(), solves


_PAIRS = st.one_of(law_pairs(), small_laws().map(lambda d: (d, independent_copy(d))))


@settings(max_examples=300, deadline=None)
@given(_PAIRS)
def test_orders_match_fraction_reference(pair):
    dX, dY = pair
    got, want = supermodular.supermodular_leq(dX, dY), ref.supermodular_leq(dX, dY)
    assert got == want
    assert repr(got) == repr(want)


def _assert_screen_is_sound(dX, dY):
    """If the pre-screen fires, the live decision solves no LP and the
    reference's transfer LP is infeasible, after which the reference takes
    its witness from the orthant too. Otherwise the live decision solves one
    box LP: when the order fails it pivots exactly as the reference's box LP
    does, after the reference's infeasible transfer LP; when the order holds
    the reference's transfer LP is feasible. Returns whether it fired."""
    got, got_solves = _solves(supermodular, lambda: supermodular.supermodular_leq(dX, dY))
    want, want_solves = _solves(ref, lambda: ref.supermodular_leq(dX, dY))
    assert repr(got) == repr(want)
    fired = not got_solves
    statuses = [result.status for result, _ in want_solves]
    if fired:
        assert statuses == [INFEASIBLE]
    elif got.holds:
        assert len(got_solves) == 1 and statuses == [OPTIMAL]
    else:
        assert statuses[0] == INFEASIBLE and got_solves == want_solves[1:]
    return fired


@settings(max_examples=150, deadline=None)
@given(_PAIRS)
def test_prescreen_fires_only_where_the_transfer_lp_is_infeasible(pair):
    dX, dY = pair
    fired = _assert_screen_is_sound(dX, dY)
    if dX.dim == 2 and dY == independent_copy(dX) and not ref.supermodular_leq(dX, dY).holds:
        # Tchen (1980): in dimension 2 the order against the independent
        # copy compares the CDFs, so a failure always shows on an orthant
        assert fired


def test_prescreen_decides_the_diagonal_law_without_the_transfer_lp():
    d = make_pmf(4, [((i, i, i, j), F(1, 9)) for i in range(3) for j in range(3)])
    assert _assert_screen_is_sound(d, independent_copy(d))
    assert not _assert_screen_is_sound(*(2 * [permutation_distribution([0, 1, 2])]))


def test_orthant_sums_can_pass_where_the_order_fails():
    # nonnegative orthant sums do not imply the supermodular order in
    # dimension 3: every orthant sum of p_Y - p_X is nonnegative here, yet the
    # transfer system is infeasible, so the screen stays silent and the box LP runs
    points = list(itertools.product(range(3), range(3), range(2)))
    weights = [20, 12, 16, 20, 14, 14, 13, 20, 15, 12, 18, 18, 17, 14, 15, 18, 16, 16]
    dX = make_pmf(3, [(p, F(1, 18)) for p in points])
    dY = make_pmf(3, [(p, F(w, 288)) for p, w in zip(points, weights)])
    assert not _assert_screen_is_sound(dX, dY)
    verdict = supermodular.supermodular_leq(dX, dY)
    assert not verdict.holds and verdict.gap == F(1, 144)
    left, right = supermodular.witness_expectations(verdict.witness, dX, dY)
    assert left - right == verdict.gap


def _no_lp(lp):
    raise AssertionError("an LP was solved")


@pytest.mark.parametrize("d", [
    make_pmf(4, [((i, i, i, j), F(1, 9)) for i in range(3) for j in range(3)]),
    make_pmf(2, [((0, 0), F(1, 2)), ((1, 1), F(1, 2))]),
], ids=["diagonal-iiij", "comonotone"])
def test_a_screened_law_is_decided_without_any_lp(d):
    with mock.patch.object(supermodular, "simplex_solve", _no_lp):
        verdict = checks.check_nsmd(d)
    assert not verdict.holds
    checks.verify_witness(d, verdict)


@settings(max_examples=150, deadline=None)
@given(_PAIRS)
def test_a_screened_witness_is_the_most_negative_orthant(pair):
    dX, dY = pair
    got, solves = _solves(supermodular, lambda: supermodular.supermodular_leq(dX, dY))
    if solves:
        return
    _, grid, cells, r = ref.signed_measure(dX, dY)
    low, upper, k = ref.worst_orthant(grid, r)
    assert {v for _, v in got.witness.values} <= {0, 1}
    support = [z for z, v in got.witness.values if v == 1]
    assert support == [z for z in grid if ref.in_orthant(z, grid[k], upper)]
    assert sum(v for z, v in zip(grid, r) if z in support) == low == min(
        ref.orthant_sums(grid, r).values())
    assert 0 < got.gap == -low <= ref.box_lp(cells, r)[0]
