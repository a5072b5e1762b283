"""One witness rule for a failed stochastic order.

A FALSE regression cell or conjecture partition names the upward closure of
the source side of the coupling network's minimal minimum cut. That set is
the same for every maximum flow (docs/theory.md section 2), so the witness
depends on the two conditional laws alone: not on the upper-set cap, not on
the st mode, and not on the order in which the max-flow engine meets its
edges.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from negdep import (
    FixedDraw,
    check_stoch_increasing,
    equal_strength,
    knockout_fixed_draw,
    make_pmf,
    st_leq_coupling,
    stochorder,
    verify_witness,
)
from negdep.checks import (
    PROPERTIES,
    ConjectureWitness,
    LawCache,
    _reverify_conjecture_witness,
    _scan_conjecture_partition,
)
from negdep.errors import Caps, default_caps

from .strategies import distribution_pairs, finite_distributions

F = Fraction

#: the upper-set caps each witness is found at: the smallest ones, the
#: default and none
CAPS = (1, 2, 10, default_caps().max_upper_sets, None)

REGRESSION = ("nrd", "nltd", "nrtd", "nrd1", "nltd1", "nrtd1")

#: a conjecture partition of a comonotone law: raised (1,), lowered (2,),
#: pinned (3,), observed (4, 5)
_COMONOTONE5 = make_pmf(5, [((v,) * 5, F(1, 3)) for v in (0, 1, 2)])
_PARTITION = ((1,), (2,), (3,), (4, 5))

#: a family that fails to increase: the upper-set sweep meets {3} first, the
#: minimal minimum cut is {2, 3}
_FAMILY = {(0,): make_pmf(1, [((2,), F(1, 2)), ((3,), F(1, 2))]),
           (1,): make_pmf(1, [((1,), F(1))])}


def _fixed_draw_8():
    return knockout_fixed_draw(equal_strength(3, FixedDraw(tuple(range(1, 9)))))


def _regression(d, prop, variant, caps, st_mode="fast"):
    return PROPERTIES[prop](LawCache(d), None, variant, caps, st_mode, 1)


def _false_cases(request):
    """(name, law, run) for each FALSE witness the rule is pinned on; ``run``
    takes caps and an st mode and returns the verdict or the partition's
    witness."""
    laws = {"table1": request.getfixturevalue("table1"),
            "counterexample": request.getfixturevalue("random_draw_counterexample")}
    cases = []
    for name, d in laws.items():
        for prop in REGRESSION:
            for variant in ("weak", "strict"):
                if not _regression(d, prop, variant, default_caps()).holds:
                    cases.append((f"{name}-{prop}-{variant}", d,
                                  lambda caps, mode, d=d, p=prop, v=variant:
                                  _regression(d, p, v, caps, mode)))
    cases.append(("comonotone-partition", _COMONOTONE5,
                  lambda caps, mode: _scan_conjecture_partition(
                      (LawCache(_COMONOTONE5), *_PARTITION, caps, mode))[0]))
    cases.append(("family", None,
                  lambda caps, mode: check_stoch_increasing(_FAMILY, caps, mode)))
    return cases


def _eight_player_cases():
    """NRD and NLTD on the 128-atom fixed-draw law, run in fast mode only:
    verify mode would sweep the upper sets of a 7-coordinate block."""
    d = _fixed_draw_8()
    return [(f"fixed-draw-8-{prop}", d,
             lambda caps, mode, p=prop: _regression(d, p, "weak", caps, mode))
            for prop in ("nrd", "nltd")]


def _witness(result):
    """A verdict's witness; a partition's scan returns the witness itself."""
    return getattr(result, "witness", result)


def _check(d, result):
    """Re-derive a witness from scratch; the family's has no joint law."""
    if isinstance(result, ConjectureWitness):
        _reverify_conjecture_witness(d, result)
    elif d is not None:
        verify_witness(d, result)


@pytest.mark.parametrize("cap", CAPS)
def test_the_eight_player_witnesses_do_not_depend_on_the_cap(cap):
    # the paper's fixed draw is "in general not NRD or NLTD"; the witness is
    # {x3 >= 2}, 1/2 vs 1/4 for NRD and 1/3 vs 1/4 for NLTD, at every cap
    for name, d, run in _eight_player_cases():
        verdict = run(Caps(max_upper_sets=cap), "fast")
        assert not verdict.holds and verdict.definitive, name
        violation = verdict.witness.violation
        assert violation.upper_set.minimal == ((F(2),),), name
        assert violation.p_right == F(1, 4), name
        verify_witness(d, verdict)


def test_every_false_witness_is_the_same_at_every_cap_and_in_both_modes(request):
    cases = _false_cases(request)
    assert len(cases) >= 10
    for name, d, run in cases:
        want = run(default_caps(), "fast")
        assert _witness(want) is not None, name
        _check(d, want)
        for cap in CAPS:
            assert repr(run(Caps(max_upper_sets=cap), "fast")) == repr(want), (name, cap)
        # verify mode sweeps every upper set of each order it decides, so it
        # runs at the caps that let it finish
        for cap in CAPS[-2:]:
            got = run(Caps(max_upper_sets=cap), "verify")
            assert repr(_witness(got)) == repr(_witness(want)), (name, cap)


def _shuffled_max_flow(seed):
    """``integer_max_flow`` on a seeded permutation of its edge list, with the
    flows mapped back to the input order."""
    rng = random.Random(seed)
    engine = stochorder.integer_max_flow

    def run(n, edges, src, dst):
        order = list(range(len(edges)))
        rng.shuffle(order)
        value, sent, seen = engine(n, [edges[k] for k in order], src, dst)
        back = [0] * len(edges)
        for k, f in zip(order, sent):
            back[k] = f
        return value, back, seen

    return run


def _under_shuffles(run, seeds=range(3)):
    """``run()`` under each seeded edge order."""
    results = []
    for seed in seeds:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stochorder, "integer_max_flow", _shuffled_max_flow(seed))
            results.append(run())
    return results


#: a FALSE pair whose residual network has more than one maximum flow
_MOVING = (make_pmf(2, [((0, 0), F(1, 8)), ((0, 1), F(1, 8)), ((0, 2), F(3, 8)),
                        ((2, 1), F(3, 8))]),
           make_pmf(2, [((1, 2), F(1, 6)), ((2, 0), F(1, 3)), ((2, 2), F(1, 2))]))


def test_the_shuffles_move_the_flow_and_not_the_witness():
    calls = []
    engine = stochorder.integer_max_flow
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stochorder, "integer_max_flow",
                   lambda *args: calls.append(args) or engine(*args))
        want = st_leq_coupling(*_MOVING)
    assert not want.holds and len(calls) == 1
    runs = [_shuffled_max_flow(seed)(*calls[0]) for seed in range(8)]
    assert len({tuple(sent) for _, sent, _ in runs}) > 1
    assert len({(value, tuple(seen)) for value, _, seen in runs}) == 1
    assert all(got == want for got in _under_shuffles(lambda: st_leq_coupling(*_MOVING)))


def test_every_false_witness_is_the_same_in_any_edge_order(request):
    for name, d, run in _false_cases(request) + _eight_player_cases():
        want = run(default_caps(), "fast")
        for got in _under_shuffles(lambda: run(default_caps(), "fast")):
            assert repr(_witness(got)) == repr(_witness(want)), name
            _check(d, got)


@settings(max_examples=60, deadline=None)
@given(distribution_pairs(dim=2))
def test_an_order_names_the_same_witness_in_any_edge_order(pair):
    dX, dY = pair
    want = st_leq_coupling(dX, dY)
    for got in _under_shuffles(lambda: st_leq_coupling(dX, dY)):
        assert got.holds == want.holds
        assert got.violation == want.violation


@settings(max_examples=40, deadline=None)
@given(finite_distributions(min_dim=2, max_dim=3))
def test_a_regression_witness_is_the_same_in_any_edge_order(d):
    for prop in ("nrd", "nltd", "nrtd"):
        want = _regression(d, prop, "weak", default_caps())
        for got in _under_shuffles(lambda: _regression(d, prop, "weak", default_caps())):
            assert repr(got) == repr(want)
