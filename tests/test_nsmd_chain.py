"""The chain of one-coordinate maximum-weight closures that certifies NSMD
with no LP (docs/theory.md section 13): the closure kernel against brute
force, the chain against the LP decision, the verdicts against the
chain-free path, permutation laws as an oracle, and the integer re-check of
every cut."""

import itertools
from itertools import combinations_with_replacement
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negdep import checks, make_pmf, permutation_distribution, supermodular
from negdep.distributions import integer_view
from negdep.errors import InternalConsistencyError
from negdep.maxflow import integer_max_flow
from negdep.uppersets import enumerate_upper_index_sets, poset_covers

from .strategies import grid_laws

F = Fraction


@st.composite
def weighted_posets(draw):
    """Distinct points of a small grid in lexicographic order, with integer
    weights of both signs."""
    dim = draw(st.integers(1, 3))
    points = sorted(draw(st.sets(st.tuples(*[st.integers(0, 2)] * dim), min_size=1,
                                 max_size=8)))
    weights = draw(st.lists(st.integers(-9, 9), min_size=len(points), max_size=len(points)))
    return points, weights


@settings(max_examples=200, deadline=None)
@given(weighted_posets())
def test_closure_excess_is_the_heaviest_upper_set(poset):
    points, weights = poset
    covers, _ = poset_covers(points)
    best = max(sum(weights[k] for k in idx) for idx in enumerate_upper_index_sets(points))
    assert supermodular.closure_excess(weights, covers) == best


def _signed_measure(d):
    view = integer_view(d)
    cells, products, mass = supermodular.independence_grid(view)
    lift = mass ** (d.dim - 1)
    return view, [p - lift * c for p, c in zip(products, cells)], lift * mass


@settings(max_examples=300, deadline=None)
@given(grid_laws())
def test_chain_is_sound_and_changes_no_verdict(d):
    view, r, scale = _signed_measure(d)
    if supermodular.closure_chain_holds(view):
        assert supermodular.decide_on_grid(view[2], r, scale) == (0, None, 1)
    with mock.patch.object(supermodular, "closure_chain_holds", return_value=False):
        want = checks.check_nsmd(d)
    assert repr(checks.check_nsmd(d)) == repr(want)


def _permutation_laws(max_points=81):
    """Permutation laws of 2 to 5 values, up to relabelling the values, whose
    support grids have at most ``max_points`` points."""
    for n in range(2, 6):
        for k in range(2, n + 1):
            if k ** n <= max_points:
                yield from (values for values in combinations_with_replacement(range(k), n)
                            if len(set(values)) == k)


@pytest.mark.parametrize("values", list(_permutation_laws()))
def test_permutation_laws_need_no_lp(values):
    # permutation laws are NA (Joag-Dev & Proschan 1983), and every NA law
    # passes each step of the chain
    d = permutation_distribution(list(values))
    with mock.patch.object(supermodular, "simplex_solve", side_effect=AssertionError("LP ran")):
        verdict = checks.check_nsmd(d)
    assert verdict.holds and verdict.definitive
    assert verdict.stats.conditioning_pairs == len(set(values)) ** len(values)


# the orthant screen passes on both, so only the chain stands before the LPs:
# an exchangeable law that is not NSMD (the box LP names the witness), and
# one that is, though the chain's step at j = 4 fails
_NOT_NSMD = make_pmf(3, [
    (x, F(w, 33))
    for cls, w in {(0, 0, 1): 1, (0, 0, 2): 1, (0, 2, 2): 5, (1, 1, 2): 2, (1, 2, 2): 2}.items()
    for x in sorted(set(itertools.permutations(cls)))])
_NSMD_PAST_THE_CHAIN = make_pmf(4, [((0, 1, 1, 0), F(1, 4)), ((0, 1, 1, 1), F(1, 20)),
                                    ((1, 0, 0, 1), F(1, 10)), ((1, 0, 1, 0), F(3, 10)),
                                    ((1, 1, 0, 0), F(3, 10))])


@pytest.mark.parametrize("d, holds", [(_NOT_NSMD, False), (_NSMD_PAST_THE_CHAIN, True)],
                         ids=["not-nsmd", "nsmd"])
def test_a_failed_chain_falls_back_to_the_lps(d, holds):
    view, r, scale = _signed_measure(d)
    assert supermodular.orthant_screen(r, view[2]) is None
    assert not supermodular.closure_chain_holds(view)
    with mock.patch.object(supermodular, "simplex_solve",
                           wraps=supermodular.simplex_solve) as lp:
        verdict = checks.check_nsmd(d)
    assert verdict.holds == holds and lp.call_count == (1 if holds else 2)
    if not holds:
        checks.verify_witness(d, verdict)


# -- the integer re-check of each cut -------------------------------------------

def _tampered(how):
    def run(n, edges, src, dst):
        value, sent, side = integer_max_flow(n, edges, src, dst)
        sent = list(sent)
        if how == "over capacity":
            k = next(k for k, (u, _, _) in enumerate(edges) if u == src)
            sent[k] = edges[k][2] + 1
        elif how == "not conserved":
            k = next(k for k, (_, v, _) in enumerate(edges) if v == dst)
            sent[k] -= 1
        elif how == "wrong value":
            value += 1
        elif how == "cut not upward closed":
            side = [True] + [False] * (n - 1)
        elif how == "cut of the wrong weight":  # the source and the top point
            side = [k in (n - 3, n - 2) for k in range(n)]
        return value, sent, side
    return run


@pytest.mark.parametrize("how, message", [
    ("over capacity", "of capacity"),
    ("not conserved", "not conserved"),
    ("wrong value", "has value"),
    ("cut not upward closed", "not an upper set"),
    ("cut of the wrong weight", "does not weigh"),
])
def test_a_tampered_flow_raises(how, message):
    d = permutation_distribution([0, 1, 2])
    with mock.patch.object(supermodular, "integer_max_flow", _tampered(how)):
        with pytest.raises(InternalConsistencyError, match=message):
            checks.check_nsmd(d)
