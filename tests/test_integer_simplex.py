"""The integer simplex tableau against the Fraction reference, pivot for pivot,
and the NSMD checker against laws whose verdict follows from a theorem."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from negdep import (
    LinearProgram,
    check_nlod,
    check_nsmd,
    check_nuod,
    independent_copy,
    make_pmf,
    permutation_distribution,
    simplex,
    supermodular,
    verify_witness,
)

from . import reference_simplex as ref

F = Fraction

_COEFFS = [F(-2), F(-1), F(-1, 2), F(1, 3), F(1), F(3, 2), F(2)]
_RHS = [F(-3, 2), F(-1), F(0), F(0), F(1, 2), F(1), F(2), F(7, 3)]


def _recorded(module, call, pure_bland_ties=False):
    """Run ``call`` with ``module``'s simplex; return its result and every
    pivot in order: the row, the entering column and the pivot row's key
    order, which the phase-1 clean-up reads. With ``pure_bland_ties`` the
    ratio ties go to the lowest basis index from the first pivot on, as they
    do after a long degenerate streak."""
    pivots = []
    pivot = module._Tableau.pivot
    leaving = module._Tableau._leaving

    def recording(self, r, e):
        pivots.append((r, e, tuple(self.rows[r])))
        pivot(self, r, e)

    def bland_leaving(self, e, pure):
        return leaving(self, e, pure or pure_bland_ties)

    with mock.patch.object(module._Tableau, "pivot", recording), \
            mock.patch.object(module._Tableau, "_leaving", bland_leaving), \
            mock.patch.object(supermodular, "simplex_solve", module.simplex_solve):
        return call(), pivots


def _assert_same_solve(lp, pure_bland_ties=False):
    got, got_pivots = _recorded(simplex, lambda: simplex.simplex_solve(lp), pure_bland_ties)
    want, want_pivots = _recorded(ref, lambda: ref.simplex_solve(lp), pure_bland_ties)
    assert got_pivots == want_pivots
    assert got == want
    assert repr(got) == repr(want)
    return got


@st.composite
def programs(draw):
    """Small LPs with negative rhs (phase 1), equality rows, fractional
    coefficients, possibly an empty objective, and often a zero rhs or a
    repeated row, so degenerate pivots, unbounded and infeasible LPs occur."""
    n = draw(st.integers(1, 5))

    def row():
        coeffs = {c: draw(st.sampled_from(_COEFFS)) for c in range(n) if draw(st.booleans())}
        return coeffs, draw(st.sampled_from(_RHS))

    constraints = [row() for _ in range(draw(st.integers(0, 6)))]
    equalities = [row() for _ in range(draw(st.integers(0, 3)))]
    for rows in (constraints, equalities):
        if rows and draw(st.booleans()):
            coeffs, rhs = draw(st.sampled_from(rows))
            k = draw(st.sampled_from([F(1), F(2), F(1, 3)]))
            rows.append(({c: k * a for c, a in coeffs.items()}, k * rhs))
    objective = {}
    if draw(st.integers(0, 3)):
        objective = {c: draw(st.sampled_from(_COEFFS)) for c in range(n) if draw(st.booleans())}
    return LinearProgram(num_vars=n, objective=objective, constraints=constraints,
                         equalities=equalities)


@settings(max_examples=400, deadline=None)
@given(programs(), st.booleans())
def test_integer_tableau_matches_fraction_reference(lp, pure_bland_ties):
    _assert_same_solve(lp, pure_bland_ties)


def _lp(num_vars, objective, constraints=(), equalities=()):
    def rows(spec):
        return [({c: F(a) for c, a in coeffs.items()}, F(b)) for coeffs, b in spec]
    return LinearProgram(num_vars, {c: F(a) for c, a in objective.items()},
                         rows(constraints), rows(equalities))


@pytest.mark.parametrize("lp, status", [
    (_lp(2, {0: 1}, [({1: 1}, 1)]), simplex.UNBOUNDED),
    (_lp(1, {0: 1}, [({0: 1}, -1)]), simplex.INFEASIBLE),
    (_lp(1, {}, [({0: 1}, F(1, 2))], [({0: 1}, 2)]), simplex.INFEASIBLE),
    (_lp(2, {0: 2, 1: 1}, [({0: 1, 1: 1}, 1), ({0: 2, 1: 2}, 2), ({0: 3, 1: 3}, 3),
                           ({0: 1}, 1), ({1: 1}, 1)]), simplex.OPTIMAL),
    (_lp(1, {0: -1}, [({0: -1}, -2), ({0: 1}, 5)]), simplex.OPTIMAL),
    # a redundant equality leaves an artificial basic at zero in a row with
    # no real column, so the row is dropped
    (_lp(2, {0: 1, 1: 1}, [({0: 1}, 3)], [({0: 1, 1: -1}, 1), ({0: 2, 1: -2}, 2)]),
     simplex.OPTIMAL),
    # here the artificial left at zero leaves on a negative coefficient
    (_lp(2, {0: 1}, equalities=[({0: 1, 1: 1}, 0), ({0: 1, 1: -1}, 0)]), simplex.OPTIMAL),
    (_lp(3, {}, equalities=[({0: 1, 1: 2}, 5), ({0: 1}, 1), ({2: F(2, 3)}, 0)]),
     simplex.OPTIMAL),
])
def test_hand_programs_match_fraction_reference(lp, status):
    assert _assert_same_solve(lp).status == status


_LADDER = [permutation_distribution(values)
           for values in ((0, 1, 2), (0, 0, 0, 1, 1), (0, 0, 1, 2), (0, 1, 1, 2))]
_LADDER.append(make_pmf(4, [((i, i, i, j), F(1, 9)) for i in range(3) for j in range(3)]))


@pytest.mark.parametrize("law", _LADDER, ids=["perm-012", "perm-00011", "perm-0012",
                                               "perm-0112", "diagonal-iiij"])
def test_nsmd_ladder_verdicts_match_fraction_reference(law):
    perp = independent_copy(law)
    got, got_pivots = _recorded(simplex, lambda: supermodular.supermodular_leq(law, perp))
    want, want_pivots = _recorded(ref, lambda: supermodular.supermodular_leq(law, perp))
    assert got_pivots == want_pivots
    assert got == want
    assert repr(got) == repr(want)


# -- theorem oracles ------------------------------------------------------------

_VALUES = [F(-2), F(-1, 2), F(0), F(1, 3), F(1), F(5, 2)]


@st.composite
def planar_laws(draw):
    """2-d laws; half of them put both columns in the same order, which makes
    the coordinates positively dependent, so FALSE verdicts are common."""
    size = draw(st.integers(1, 6))
    columns = [draw(st.lists(st.sampled_from(_VALUES), min_size=size, max_size=size))
               for _ in range(2)]
    if draw(st.booleans()):
        columns = [sorted(column) for column in columns]
    weights = draw(st.lists(st.integers(1, 9), min_size=size, max_size=size))
    total = sum(weights)
    return make_pmf(2, [(x, F(w, total)) for x, w in zip(zip(*columns), weights)])


@settings(max_examples=200, deadline=None)
@given(planar_laws())
def test_planar_nsmd_is_nlod_and_nuod(d):
    # Tchen (1980): in dimension 2 the supermodular order compares the joint
    # and product CDFs, and there lower and upper orthant bounds coincide
    nsmd = check_nsmd(d)
    assert check_nlod(d).holds == check_nuod(d).holds == nsmd.holds
    if not nsmd.holds:
        verify_witness(d, nsmd)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=2, max_size=6))
def test_small_permutation_laws_are_nsmd(values):
    # permutation laws are negatively associated (Joag-Dev & Proschan 1983),
    # and negative association implies negative supermodular dependence
    assume(len(set(values)) ** len(values) <= 81)
    verdict = check_nsmd(permutation_distribution(values))
    assert verdict.holds and verdict.definitive
