"""The rank-bitset conditioning engine against the Fraction reference, for the
regression cells and the conjecture partitions alike.

The engine decides only the cover pairs of a cell's labels (a), each on the
orbits of J's stabilizer (b). The reference walks every comparable pair on
the full laws. Each reduction is switched off here by monkeypatching: every
comparable pair stands in for the covers, and no cell gets orbits. With (a)
on, every tail grid takes either its unit steps or the bitset cover pass,
whatever its size. With (a) off, the engine is the pair loop, so every
verdict, witness and stat matches the reference. With (a) on, a TRUE cell
decides fewer orders, so only ``st_checks`` may differ, and it may only be
smaller; a FALSE cell re-runs the pair loop and matches in full.
"""

import contextlib
import itertools
from dataclasses import replace
from fractions import Fraction
from math import lcm
from operator import le

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negdep import (
    FixedDraw,
    check_nrd,
    checks,
    conditioning,
    equal_strength,
    knockout_fixed_draw,
    make_pmf,
    permutation_distribution,
    verify_witness,
)
from negdep.checks import LawCache, Verdict, _scan_conjecture_partition, _subsets
from negdep.conditioning import ORBITS, CellContext, label_masks, tail_masks
from negdep.distributions import at_or_above, integer_view
from negdep.errors import Caps, InternalConsistencyError, default_caps
from negdep.maxflow import positive_upper_set
from negdep.stochorder import IntegerLaw
from negdep.symmetry import BlockOrbits

from . import reference_conditioning as ref
from .strategies import finite_distributions
from .test_symmetry import XOR, symmetric_laws

F = Fraction

#: (covers, orbits): the covers of tail grids from their unit steps, from
#: the bitset pass, or off; the orbits on or off
ENGINES = list(itertools.product(("grid", "poset", None), (True, False)))


def _all_comparable(points):
    """Every comparable pair of labels, in place of the covers, and their
    number."""
    pairs = [(a, b) for a, low in enumerate(points) for b in range(a + 1, len(points))
             if all(map(le, low, points[b]))]
    return pairs, len(pairs)


@contextlib.contextmanager
def _engine(covers, orbits):
    """The engine with tail grids covered by ``"grid"`` (unit steps) or
    ``"poset"`` (the bitset pass) at every size, or with no covers (every
    comparable pair decided); and with or without orbits."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conditioning, "GRID_LABELS", 0 if covers == "grid" else 10 ** 9)
        if not covers:
            mp.setattr(conditioning, "poset_covers", _all_comparable)
        if not orbits:
            mp.setattr(checks, "block_orbits", lambda *args: None)
        yield


def _stats(result):
    return result.stats if isinstance(result, Verdict) else result[1]


def _without_st_checks(result):
    if isinstance(result, Verdict):
        return replace(result, stats=replace(result.stats, st_checks=0))
    return result[0], replace(result[1], st_checks=0)


def _assert_matches(got, want, exact):
    """``got`` is ``want`` byte for byte when ``exact``, else up to a smaller
    ``st_checks``; both are verdicts or (witness, stats) cell results."""
    if exact:
        assert repr(got) == repr(want)
    else:
        assert repr(_without_st_checks(got)) == repr(_without_st_checks(want))
        assert _stats(got).st_checks <= _stats(want).st_checks


def _regression_matches(d, st_mode, max_j=None, variants=("weak", "strict")):
    for prop, kind in ref.REGRESSION_KINDS:
        for variant in variants:
            want = ref.check_regression(d, kind, prop, max_j=max_j, variant=variant,
                                        st_mode=st_mode)
            for covers, orbits in ENGINES:
                with _engine(covers, orbits):
                    got = checks._check_regression_family(LawCache(d), kind, prop, max_j,
                                                          variant, None, st_mode, 1)
                _assert_matches(got, want, exact=not covers)
                if not got.holds:
                    verify_witness(d, got)


def _regression_cells_match(d, st_mode):
    """Cell by cell, so that a FALSE cell is compared in full."""
    caps, view = default_caps(), integer_view(d)
    for _, kind in ref.REGRESSION_KINDS:
        for variant, J in itertools.product(("weak", "strict"), _subsets(range(1, d.dim + 1))):
            want = ref._scan_regression_cell((d, view, J, kind, variant, caps, st_mode))
            for covers, orbits in ENGINES:
                with _engine(covers, orbits):
                    got = checks._scan_regression_cell((LawCache(d), J, kind, variant, caps,
                                                        st_mode))
                _assert_matches(got, want, exact=not covers or want[0] is not None)


def _partitions_match(d, st_mode):
    caps = default_caps()
    for assignment in itertools.product(range(4), repeat=d.dim):
        raised, lowered, pinned, observed = (
            tuple(k + 1 for k, a in enumerate(assignment) if a == block) for block in range(4))
        if not observed or not (raised or lowered or pinned):
            continue
        args = (d, raised, lowered, pinned, observed, caps, st_mode)
        want = ref._scan_conjecture_partition(args)
        for covers, orbits in ENGINES:
            with _engine(covers, orbits):
                got = _scan_conjecture_partition((LawCache(d),) + args[1:])
            _assert_matches(got, want, exact=not covers or want[0] is not None)
            if got[0] is not None:
                checks._reverify_conjecture_witness(d, got[0])


# negative and non-integer values, so ranks, not values, must drive the masks
_VALUES = [F(-2), F(-1, 2), F(0), F(1, 3), F(1), F(5, 2)]


@st.composite
def tied_laws(draw, min_dim=2, max_dim=4):
    """Laws of dimension 2-4 whose columns repeat values; half of them put
    every column in the same order, so FALSE verdicts are common."""
    dim = draw(st.integers(min_dim, max_dim))
    size = draw(st.integers(1, 6))
    pool = draw(st.lists(st.sampled_from(_VALUES), min_size=2, max_size=4, unique=True))
    columns = [draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
               for _ in range(dim)]
    if draw(st.booleans()):
        columns = [sorted(column) for column in columns]
    weights = draw(st.lists(st.integers(1, 9), min_size=size, max_size=size))
    total = sum(weights)
    return make_pmf(dim, [(x, F(w, total)) for x, w in zip(zip(*columns), weights)])


def test_tail_masks_follow_the_variant_mapping():
    # ranks 0, 1, 2 hold atoms {0}, {1, 2}, {3}; the masks read the column's
    # at-or-above bitsets, the table an integer view keeps per axis
    above = at_or_above([0, 1, 1, 2], 3)
    assert above == [0b1111, 0b1110, 0b1000, 0b0000]
    assert tail_masks(above, "<=", sentinel=True) == [0b0001, 0b0111, 0b1111, 0b1111]
    assert tail_masks(above, "<", sentinel=True) == [0b0000, 0b0001, 0b0111, 0b1111]
    assert tail_masks(above, ">", sentinel=True) == [0b1111, 0b1110, 0b1000, 0b0000]
    assert tail_masks(above, ">=", sentinel=True) == [0b1111, 0b1111, 0b1110, 0b1000]
    assert tail_masks(above, ">=", sentinel=False) == [0b1111, 0b1110, 0b1000]
    assert tail_masks(above, "<=", sentinel=False) == [0b0001, 0b0111, 0b1111]
    # weak upper tails are the strict events {X > t}, strict ones {X >= t}
    assert checks._TAIL_OPS == {("lower", "weak"): "<=", ("lower", "strict"): "<",
                                ("upper", "weak"): ">", ("upper", "strict"): ">="}


@settings(max_examples=150, deadline=None)
@given(tied_laws(), st.sampled_from(["fast", "verify"]))
def test_regression_family_matches_fraction_reference(d, st_mode):
    _regression_matches(d, st_mode)


@settings(max_examples=40, deadline=None)
@given(tied_laws(min_dim=3), st.integers(1, 2))
def test_block_capped_regression_matches_fraction_reference(d, max_j):
    _regression_matches(d, "fast", max_j=max_j, variants=("weak",))


@settings(max_examples=60, deadline=None)
@given(tied_laws(max_dim=3), st.sampled_from(["fast", "verify"]))
def test_conjecture_partitions_match_fraction_reference(d, st_mode):
    _partitions_match(d, st_mode)


# -- covers and orbits on laws with planted symmetry ----------------------------

_POOL = [F(0), F(1), F(2)]


@st.composite
def paired_laws(draw):
    """(A1 + A2, A1, B1, A2, B2) with (A1, B1) and (A2, B2) i.i.d. pairs: the
    swap of the pairs fixes X1 and is not a product of transpositions that
    keep the law, so J = (1,) takes the union-find orbits."""
    base = draw(finite_distributions(min_dim=2, max_dim=2, max_atoms=3, values=_POOL))
    atoms: dict = {}
    for (a1, b1), p in base.atoms:
        for (a2, b2), q in base.atoms:
            x = (a1 + a2, a1, b1, a2, b2)
            atoms[x] = atoms.get(x, 0) + p * q
    return make_pmf(5, sorted(atoms.items()))


planted_laws = st.one_of(symmetric_laws, paired_laws())


@settings(max_examples=12, deadline=None)
@given(planted_laws, st.sampled_from(["fast", "verify"]))
def test_covers_and_orbits_match_the_pair_loop_on_planted_symmetry(d, st_mode):
    _regression_cells_match(d, st_mode)
    _regression_matches(d, st_mode)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from([0, 1, 2]), min_size=2, max_size=3).map(permutation_distribution),
       st.sampled_from(["fast", "verify"]))
def test_covers_and_orbits_match_the_pair_loop_on_conjecture_partitions(d, st_mode):
    _partitions_match(d, st_mode)


@pytest.mark.parametrize("st_mode", ["fast", "verify"])
def test_covers_and_orbits_match_the_pair_loop_on_the_xor_law(st_mode):
    _regression_cells_match(XOR, st_mode)
    _regression_matches(XOR, st_mode)


# (A1 + A2, A1, B1, A2, B2) with B = 2A a fair bit
_PAIRED = make_pmf(5, [((a1 + a2, a1, b1, a2, b2), F(1, 4))
                       for a1, b1 in ((0, 0), (1, 2)) for a2, b2 in ((0, 0), (1, 2))])


def test_the_pair_swap_takes_the_union_find_orbits():
    orbits = LawCache(_PAIRED).orbits_of((2, 3, 4, 5))
    assert orbits.above is not None
    # (0, 0, 1, 2) and (1, 2, 0, 0) are one orbit; the others are fixed
    assert len(set(orbits.keys)) == 3


def _fixed_draw_8():
    return knockout_fixed_draw(equal_strength(3, FixedDraw(tuple(range(1, 9)))))


@pytest.mark.parametrize("law, orbit_count, young", [
    (_fixed_draw_8, 8, False),
    (lambda: permutation_distribution([0, 0, 1, 2, 3]), 4, True),
])
def test_an_orbit_flow_spreads_evenly_to_a_coupling_of_the_atoms(law, orbit_count, young):
    # every unit step of NRTD's labels on J = (1,) holds; its coupling on the
    # orbits (the mass both laws share at each orbit, plus the kernel's
    # transport), spread evenly over the comparable atom pairs of each orbit
    # pair and scaled to integers, is a coupling of the full conditional laws
    d = law()
    ctx = CellContext(LawCache(d), (1,), Caps(), "fast")
    orbits = ctx.orbits
    assert len(set(orbits.keys)) == orbit_count and (orbits.above is None) == young
    guards, keys, _ = ctx.block(ctx.i_max)
    orbit_of = dict(zip(keys, orbits.keys))
    labels = label_masks(ctx.work.view, [(0, ">")], (), sentinel=True)
    steps = 0
    for (_, lo), (_, hi) in zip(labels, labels[1:]):
        if lo == hi:
            continue
        steps += 1
        u = ctx.keyed_union(hi, lo, ORBITS)
        transport, _ = positive_upper_set(u.net(), orbits.up(u.points))
        assert transport is not None
        flows = [(u.points[a], u.points[b], f) for (a, b), f in transport.items()]
        flows += [(z, z, m) for z, x, y in zip(u.points, u.wx, u.wy)
                  if (m := min(x * u.ty, y * u.tx))]
        fhi, flo = ctx.int_law(hi), ctx.int_law(lo)
        spread: dict[tuple[int, int], Fraction] = {}
        for a, b, f in flows:
            xs = [i for i, x in enumerate(fhi.keys) if orbit_of[x] == a]
            ys = [j for j, y in enumerate(flo.keys) if orbit_of[y] == b]
            edges = [(i, j) for i in xs for j in ys
                     if ((flo.keys[j] | guards) - fhi.keys[i]) & guards == guards]
            # every x of the orbit has as many comparable y in the other one
            assert len({sum(i == k for k, _ in edges) for i in xs}) == 1
            for pair in edges:
                spread[pair] = spread.get(pair, 0) + F(f, len(edges))
        scale = lcm(*(m.denominator for m in spread.values()))
        scaled = IntegerLaw(fhi.keys, tuple(w * scale for w in fhi.weights), fhi.total * scale)
        ref.check_integer_coupling(sorted((i, j, int(m * scale)) for (i, j), m in spread.items()),
                               scaled, flo, guards)
    assert steps >= 2


_COMONOTONE = make_pmf(3, [((0, 0, 0), F(1, 2)), ((1, 1, 1), F(1, 2))])


@pytest.mark.parametrize("d", [_COMONOTONE, _PAIRED], ids=["young", "union-find"])
def test_verify_mode_catches_a_wrong_orbit_edge_relation(d, monkeypatch):
    # NRD fails at J = (1,), whose stabilizer is nontrivial; with every orbit
    # edge present the orbit coupling holds, and the sweep on the full laws
    # disagrees
    assert not check_nrd(d, st_mode="verify").holds
    monkeypatch.setattr(BlockOrbits, "up", lambda self, keys: [(1 << len(keys)) - 1] * len(keys))
    with pytest.raises(InternalConsistencyError, match="oracles disagree"):
        check_nrd(d, st_mode="verify")


def test_conjecture_partitions_fail_on_dependent_laws():
    # sorted columns make every coordinate comonotone, so raising a threshold
    # pushes the observed block up and FALSE witnesses must appear
    d = make_pmf(3, [((F(-1), F(0), F(1, 3)), F(1, 4)), ((F(0), F(0), F(1)), F(1, 4)),
                     ((F(1), F(5, 2), F(1)), F(1, 2))])
    caps = default_caps()
    failures = 0
    for args in ((d, (1,), (), (), (2, 3), caps, "fast"),
                 (d, (), (2,), (3,), (1,), caps, "verify"),
                 (d, (), (), (1, 2), (3,), caps, "fast")):
        got = _scan_conjecture_partition((LawCache(d),) + args[1:])
        assert repr(got) == repr(ref._scan_conjecture_partition(args))
        if got[0] is not None:
            failures += 1
            checks._reverify_conjecture_witness(d, got[0])
    assert failures >= 2


def test_conjecture_witness_past_the_sweep_cap_comes_from_the_min_cut():
    # the partition fails; its witness is the coupling's minimum cut, as a
    # regression cell's is, so a cap of one upper set does not stop it
    d = make_pmf(2, [((F(0), F(0)), F(1, 2)), ((F(1), F(1)), F(1, 2))])
    witness, stats = _scan_conjecture_partition(
        (LawCache(d), (1,), (), (), (2,), Caps(max_upper_sets=1), "fast"))
    assert witness is not None and stats.cells == 1
    checks._reverify_conjecture_witness(d, witness)
