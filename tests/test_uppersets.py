import functools
import itertools
from fractions import Fraction
from operator import and_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negdep import EnumerationCapExceeded, count_upper_sets, enumerate_upper_sets
from negdep.stochorder import RankPacking, SupportUnion, cut_violation
from negdep.uppersets import (
    at_or_above,
    componentwise_leq,
    from_members,
    grid_comparable_pairs,
    grid_covers,
    keys_above,
    poset_covers,
)

from .test_stochorder import pack_ranks

F = Fraction


def vecs(*tuples):
    return [tuple(F(v) for v in t) for t in tuples]


def test_chain_has_length_plus_one():
    assert count_upper_sets(vecs((0,), (1,), (2,))) == 4


def test_antichain_has_all_subsets():
    assert count_upper_sets(vecs((1, 0), (0, 1))) == 4


def test_two_by_two_grid():
    # monotone boolean functions of two variables
    points = vecs((0, 0), (0, 1), (1, 0), (1, 1))
    assert count_upper_sets(points) == 6


def test_first_is_empty_last_is_full():
    points = vecs((0, 0), (0, 1), (1, 0), (1, 1))
    sets = list(enumerate_upper_sets(points))
    assert len(sets[0]) == 0
    assert sets[-1].points == tuple(sorted(points))


def test_every_yielded_set_is_upward_closed():
    points = vecs((0, 0), (0, 2), (2, 0), (1, 1), (2, 2))
    for u in enumerate_upper_sets(points):
        members = set(u.points)
        for p in points:
            if u.contains(p):
                assert p in members
            else:
                assert p not in members


def test_minimal_elements_are_an_antichain():
    points = vecs((0, 0), (0, 1), (1, 0), (1, 1), (2, 2))
    for u in enumerate_upper_sets(points):
        for a in u.minimal:
            for b in u.minimal:
                if a != b:
                    assert not all(x <= y for x, y in zip(a, b))


def test_cap_exceeded():
    points = vecs((0, 3), (1, 2), (2, 1), (3, 0))  # antichain: 16 upper sets
    with pytest.raises(EnumerationCapExceeded):
        list(enumerate_upper_sets(points, cap=15))


def test_upper_closure():
    # the min-cut witness is the upward closure of the cut senders within
    # the union support
    ambient = vecs((0, 0), (0, 1), (1, 0), (1, 1), (2, 2))
    keys, guards = pack_ranks(ambient)
    v = cut_violation(SupportUnion(ambient, [0, 0, 3, 0, 0], [2, 0, 0, 0, 1], 3, 3),
                      keys_above(keys, guards), [2])
    assert v.upper_set.points == tuple(vecs((1, 0), (1, 1), (2, 2)))
    assert v.upper_set.minimal == tuple(vecs((1, 0)))
    assert (v.p_left, v.p_right) == (1, F(1, 3))


def test_membership_beyond_ambient():
    u = from_members(vecs((1, 1), (2, 2)))
    assert u.contains(tuple(F(v) for v in (5, 5)))
    assert not u.contains(tuple(F(v) for v in (1, 0)))


# -- covers and comparable pairs of label grids --------------------------------

@st.composite
def grid_subsets(draw):
    """Distinct points of a small grid, in lexicographic order."""
    shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    grid = list(itertools.product(*map(range, shape)))
    return sorted(draw(st.sets(st.sampled_from(grid), min_size=1)))


def _comparable(points):
    return [(a, b) for a in range(len(points)) for b in range(a + 1, len(points))
            if componentwise_leq(points[a], points[b])]


@settings(max_examples=300, deadline=None)
@given(grid_subsets())
def test_covers_and_pair_counts_match_brute_force(points):
    comparable = _comparable(points)
    covers = [(a, b) for a, b in comparable
              if not any(componentwise_leq(points[a], points[c])
                         and componentwise_leq(points[c], points[b])
                         for c in range(a + 1, b))]
    assert poset_covers(points) == (covers, len(comparable))
    assert grid_comparable_pairs(points) == len(comparable)
    steps = [(a, b) for a, b in comparable
             if sum(y - x for x, y in zip(points[a], points[b])) == 1]
    assert sorted(grid_covers(points)) == steps


@settings(max_examples=100, deadline=None)
@given(grid_subsets())
def test_unit_steps_are_the_covers_of_an_up_set(points):
    # the nonempty labels of a lower-tail grid are closed upward
    shape = [max(column) + 1 for column in zip(*points)]
    up = sorted({q for p in points for q in itertools.product(*map(range, shape))
                 if componentwise_leq(p, q)})
    assert sorted(grid_covers(up)) == poset_covers(up)[0]


@st.composite
def points_and_queries(draw):
    """Points in a small grid with a one-value axis, kept below the top value
    of every longer axis, and query points that may sit above them all."""
    shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    shape[draw(st.integers(0, len(shape) - 1))] = 1
    points = draw(st.lists(st.tuples(*(st.integers(0, max(s - 2, 0)) for s in shape)),
                           min_size=1, max_size=12))
    queries = draw(st.lists(st.tuples(*(st.integers(0, s - 1) for s in shape)),
                            min_size=1, max_size=8))
    return shape, points, queries + [tuple(s - 1 for s in shape)]


def _brute_above(points, q):
    return sum(1 << j for j, p in enumerate(points) if componentwise_leq(q, p))


@settings(max_examples=300, deadline=None)
@given(points_and_queries())
def test_at_or_above_bitsets_match_brute_force(case):
    shape, points, queries = case
    tables = [at_or_above(column, size) for column, size in zip(zip(*points), shape)]
    for table, size in zip(tables, shape):
        assert len(table) == size + 1 and table[size] == 0
    for q in queries + [tuple(shape)]:  # shape itself reads every table's last entry
        assert functools.reduce(and_, map(list.__getitem__, tables, q)) == _brute_above(points, q)


@settings(max_examples=300, deadline=None)
@given(points_and_queries())
def test_coupling_masks_match_brute_force(case):
    # one key list holds the points and the queries, some above them all
    shape, points, queries = case
    packing = RankPacking(shape)
    everything = queries + points
    assert keys_above(list(map(packing.pack, everything)), packing.guards) == [
        _brute_above(everything, q) for q in everything]
