"""The orthant scans on one corner per symmetry orbit against the Fraction
reference that scans every corner of the grid: equal verdicts, witnesses and
stats on symmetric laws, with the whole automorphism group or only part of
it, and no flat grid built for any law."""

import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negdep import (
    FixedDraw,
    RandomDraw,
    check_nlod,
    check_nod,
    check_nsmd,
    check_nuod,
    checks,
    equal_strength,
    knockout_fixed_draw,
    knockout_random_draw,
    make_pmf,
    permutation_distribution,
    supermodular,
    symmetry,
    uppersets,
    verify_witness,
)
from negdep.checks import LawCache

from . import reference_scans as ref
from .test_symmetry import XOR

F = Fraction

# few values, so that atoms tie on some coordinates
_VALUES = [F(-1), F(0), F(1, 2), F(2)]

# the wreath product of S_2 by S_2 on four coordinates, of order 8
WREATH = [(1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)]


def _group(gens, n):
    """Every element of the group the permutations span."""
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        g = frontier.pop()
        for s in gens:
            h = tuple(s[g[a]] for a in range(n))
            if h not in group:
                group.add(h)
                frontier.append(h)
    return sorted(group)


@st.composite
def symmetrized_laws(draw):
    """A random law of dimension 2-4 averaged over a group of coordinate
    permutations: the symmetric group, one transposition, or (in dimension
    4) the wreath group. Columns put in one order make the coordinates
    positively dependent, so FALSE verdicts are common; weights drawn all
    distinct give atoms of several weights."""
    dim = draw(st.integers(2, 4))
    size = draw(st.integers(1, 5))
    columns = [draw(st.lists(st.sampled_from(_VALUES), min_size=size, max_size=size))
               for _ in range(dim)]
    if draw(st.booleans()):
        columns = [sorted(column) for column in columns]
    weights = draw(st.lists(st.integers(1, 30), min_size=size, max_size=size,
                            unique=draw(st.booleans())))
    kinds = ["symmetric", "transposition"] + (["wreath"] if dim == 4 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "symmetric":
        group = list(itertools.permutations(range(dim)))
    elif kind == "wreath":
        group = _group(WREATH, 4)
    else:
        i, j = draw(st.lists(st.integers(0, dim - 1), min_size=2, max_size=2, unique=True))
        swap = list(range(dim))
        swap[i], swap[j] = j, i
        group = [tuple(range(dim)), tuple(swap)]
    total = sum(weights) * len(group)
    atoms = {}
    for x, w in zip(zip(*columns), weights):
        for g in group:
            y = [None] * dim
            for a, b in enumerate(g):  # coordinate a moves to g[a]
                y[b] = x[a]
            atoms[tuple(y)] = atoms.get(tuple(y), 0) + w
    return make_pmf(dim, [(x, F(w, total)) for x, w in atoms.items()])


def _no_flat_grid(monkeypatch):
    # ``supermodular`` binds ``scatter`` at import, so both names are patched.
    # Of the checkers these tests run, only NSMD's grid path, on a law its
    # closure chain does not certify, reaches either name; a grid built by
    # the orthant checkers is caught by the tracemalloc bound of
    # tests/test_integer_scans.py::test_orthant_scans_without_automorphisms_build_no_grid
    def scatter(view):
        raise AssertionError("the flat grid was built")

    monkeypatch.setattr(uppersets, "scatter", scatter)
    monkeypatch.setattr(supermodular, "scatter", scatter)


def test_the_flat_grid_guard_fires_on_nsmd(monkeypatch):
    # a positive control: XOR is not NSMD, so the chain cannot certify it and
    # NSMD lays the law out on the flat grid
    _no_flat_grid(monkeypatch)
    with pytest.raises(AssertionError, match="the flat grid was built"):
        check_nsmd(XOR)


def _assert_reference_scans(d):
    assert LawCache(d).generators  # so the orbit walk decides
    pairs = ((check_nlod, ref.check_nlod), (check_nuod, ref.check_nuod),
             (check_nod, ref.check_nod))
    for checker, reference in pairs:
        got = checker(d)
        assert repr(got) == repr(reference(d))
        if not got.holds:
            verify_witness(d, got)


@settings(max_examples=150, deadline=None)
@given(symmetrized_laws())
def test_orbit_scans_match_the_fraction_reference(d):
    with pytest.MonkeyPatch.context() as mp:
        _no_flat_grid(mp)
        _assert_reference_scans(d)


@settings(max_examples=80, deadline=None)
@given(symmetrized_laws(), st.integers(1, 12))
def test_a_subgroup_gives_the_same_scans(d, budget):
    # a search cut short at its node budget keeps the generators found so
    # far, which span a subgroup; ``checks`` binds the search's default
    # budget at import, so the budget is passed through the name it calls
    found = symmetry.generators
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checks, "generators", functools.partial(found, budget=budget))
        if LawCache(d).generators:
            _assert_reference_scans(d)


def test_a_subgroup_of_the_fixed_draw_gives_the_same_scans():
    d = knockout_fixed_draw(equal_strength(2, FixedDraw((1, 2, 3, 4))))
    work = LawCache(d)
    assert len(_group(work.generators, 4)) == 8
    for budget in range(1, 12):  # none, then one, then two of the three generators
        part = symmetry.generators(work.view, budget=budget)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(checks, "generators", lambda view, part=part: part)
            for checker, reference in ((check_nlod, ref.check_nlod),
                                       (check_nuod, ref.check_nuod)):
                assert repr(checker(d)) == repr(reference(d))


def test_the_witness_is_the_least_corner_of_its_orbit():
    # exchangeable: the lower bound first fails at (0, 1), then at its image
    # (1, 0); the upper bound first fails at {X_1 > 0, X_2 > 1}, then at its
    # image {X_1 > 1, X_2 > 0}
    d = make_pmf(2, [((0, 1), F(1, 4)), ((1, 0), F(1, 4)), ((2, 2), F(1, 2))])
    assert LawCache(d).generators == [(1, 0)]
    for checker, reference in ((check_nlod, ref.check_nlod), (check_nuod, ref.check_nuod),
                               (check_nod, ref.check_nod)):
        got = checker(d)
        assert not got.holds and repr(got) == repr(reference(d))
        assert got.witness.corner == (0, 1)


_LAWS = {
    "fixed-draw-128": lambda: knockout_fixed_draw(equal_strength(3, FixedDraw(tuple(range(1, 9))))),
    "permutation-012345": lambda: permutation_distribution(range(6)),
    "random-draw-840": lambda: knockout_random_draw(equal_strength(3, RandomDraw())),
}


@pytest.mark.parametrize("label", sorted(_LAWS))
def test_symmetric_laws_build_no_flat_grid(label, monkeypatch):
    # the walk on one corner per orbit against the same walk on the trivial
    # group, which visits every corner the empty-event pruning leaves
    d = _LAWS[label]()
    sizes = [len(axis) for axis in d.support_grid()]
    _no_flat_grid(monkeypatch)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checks, "generators", lambda view: [])
        trivial = [checker(d) for checker in (check_nlod, check_nuod, check_nod)]
    walked = [checker(d) for checker in (check_nlod, check_nuod, check_nod)]
    assert repr(walked) == repr(trivial)
    lower, upper, both = walked
    assert lower.holds and upper.holds and both.holds
    assert lower.stats.conditioning_pairs == math.prod(sizes)
    assert upper.stats.conditioning_pairs == math.prod(s + 1 for s in sizes)
