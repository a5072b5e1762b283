import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negdep import (
    InternalConsistencyError,
    eq_event,
    make_pmf,
    st_leq,
    st_leq_coupling,
    st_leq_uppersets,
)
from negdep import maxflow
from negdep.checks import LawCache
from negdep.conditioning import CellContext
from negdep.distributions import axis_ranks
from negdep.errors import Caps
from negdep.maxflow import bits, positive_upper_set
from negdep.stochorder import (
    IntegerLaw,
    RankPacking,
    SupportUnion,
    cut_violation,
    support_union,
)
from negdep.uppersets import componentwise_leq, keys_above, points_above

from . import reference_conditioning as ref
from .strategies import distribution_pairs, finite_distributions

F = Fraction


def delta(*values):
    return make_pmf(len(values), [(tuple(values), F(1))])


class TestUpperSetsOracle:
    def test_reflexive(self, table1):
        assert st_leq_uppersets(table1, table1).holds

    def test_incomparable_point_masses(self):
        verdict = st_leq_uppersets(delta(1, 0), delta(0, 1))
        assert not verdict.holds
        # first violating upper set in enumeration order: the closure of (1,0)
        assert verdict.violation.upper_set.minimal == ((F(1), F(0)),)
        assert verdict.violation.p_left == 1
        assert verdict.violation.p_right == 0

    def test_witness_reproducible_by_summation(self):
        dX = make_pmf(2, [((0, 1), F(1, 2)), ((2, 0), F(1, 2))])
        dY = make_pmf(2, [((1, 1), F(3, 4)), ((0, 0), F(1, 4))])
        verdict = st_leq_uppersets(dX, dY)
        if not verdict.holds:
            u = verdict.violation.upper_set
            px = sum(p for x, p in dX.atoms if u.contains(x))
            py = sum(p for y, p in dY.atoms if u.contains(y))
            assert px == verdict.violation.p_left
            assert py == verdict.violation.p_right
            assert px > py


class TestCouplingOracle:
    def test_reflexive_identity_coupling(self, table1):
        verdict = st_leq_coupling(table1, table1)
        assert verdict.holds
        assert all(x == y for x, y, _ in verdict.coupling.pairs)

    def test_uniform_below_point_mass(self):
        u = make_pmf(1, [((0,), F(1, 2)), ((1,), F(1, 2))])
        verdict = st_leq_coupling(u, delta(1))
        assert verdict.holds
        assert sorted(verdict.coupling.pairs) == [
            ((F(0),), (F(1),), F(1, 2)),
            ((F(1),), (F(1),), F(1, 2)),
        ]

    def test_failure_gives_violating_upper_set(self):
        verdict = st_leq_coupling(delta(1, 0), delta(0, 1))
        assert not verdict.holds
        v = verdict.violation
        assert v.p_left > v.p_right

    def test_conditional_laws_of_random_draw_example(self, random_draw_counterexample):
        # conditioning the third score on the first: the law at 1 dominates
        # the law at 0, the wrong way around for negative regression
        at0 = random_draw_counterexample.condition(eq_event([1], [0]), keep=[3])
        at1 = random_draw_counterexample.condition(eq_event([1], [1]), keep=[3])
        assert st_leq_coupling(at0, at1).holds
        assert not st_leq_coupling(at1, at0).holds


class TestAgreementAndInvariants:
    def test_verify_mode_smoke(self, table1):
        assert st_leq(table1, table1, mode="verify").holds

    def test_verify_mode_returns_the_fast_witness(self):
        # the sweep's first violating upper set is {3}; both modes name the
        # min-cut set {2, 3}
        hi = make_pmf(1, [((2,), F(1, 2)), ((3,), F(1, 2))])
        lo = delta(1)
        fast, verify = st_leq(hi, lo, mode="fast"), st_leq(hi, lo, mode="verify")
        assert not fast.holds and verify == fast
        assert fast.violation.upper_set.minimal == ((F(2),),)
        assert st_leq_uppersets(hi, lo).violation.upper_set.minimal == ((F(3),),)

    def test_unknown_mode(self, table1):
        with pytest.raises(ValueError):
            st_leq(table1, table1, mode="typo")

    def test_dim_mismatch(self, table1):
        with pytest.raises(ValueError):
            st_leq(table1, table1.marginal([1, 2]))

    @settings(max_examples=120, deadline=None)
    @given(distribution_pairs(dim=2))
    def test_oracles_agree(self, pair):
        dX, dY = pair
        assert st_leq_uppersets(dX, dY).holds == st_leq_coupling(dX, dY).holds

    @settings(max_examples=80, deadline=None)
    @given(distribution_pairs(dim=2))
    def test_coupling_validates_on_success(self, pair):
        dX, dY = pair
        verdict = st_leq_coupling(dX, dY)
        if verdict.holds:
            verdict.coupling.validate(dX, dY)  # raises on any defect
        else:
            u = verdict.violation.upper_set
            px = sum(p for x, p in dX.atoms if u.contains(x))
            py = sum(p for y, p in dY.atoms if u.contains(y))
            assert px > py

    @settings(max_examples=80, deadline=None)
    @given(distribution_pairs(dim=2, max_atoms=3))
    def test_antisymmetry(self, pair):
        dX, dY = pair
        if st_leq(dX, dY).holds and st_leq(dY, dX).holds:
            assert dX == dY

    @settings(max_examples=60, deadline=None)
    @given(
        finite_distributions(min_dim=2, max_dim=2, max_atoms=3),
        finite_distributions(min_dim=2, max_dim=2, max_atoms=3),
        finite_distributions(min_dim=2, max_dim=2, max_atoms=3),
    )
    def test_transitivity(self, a, b, c):
        if st_leq(a, b).holds and st_leq(b, c).holds:
            assert st_leq(a, c).holds

    def test_coupling_validate_rejects_bad_marginals(self, table1):
        verdict = st_leq_coupling(table1, table1)
        broken = verdict.coupling.pairs[1:]
        from negdep import Coupling

        with pytest.raises(InternalConsistencyError):
            Coupling(broken).validate(table1, table1)


def pack_ranks(vectors):
    """Packed ranks of the vectors within their own per-axis value sets, and
    the packing's guard bits."""
    ranks, axes = axis_ranks(zip(*vectors))
    packing = RankPacking([len(ax) for ax in axes])
    return [packing.pack(r) for r in ranks], packing.guards


class TestRankPacking:
    def test_wide_axis_packs_and_orders_componentwise(self):
        # 40,000 distinct values on one axis: past the old 16-bit field limit
        rng = random.Random(7)
        vectors = [(F(k, 3), F(rng.randrange(5)), F(-k % 11)) for k in range(40_000)]
        packed, guards = pack_ranks(vectors)
        pairs = [(rng.randrange(len(vectors)), rng.randrange(len(vectors)))
                 for _ in range(4000)]
        # near-diagonal pairs, where the wide axis alone does not decide
        pairs += [(k, k + rng.randrange(1, 4)) for k in range(0, 39_990, 10)]
        for a, b in pairs:
            for i, j in ((a, b), (b, a)):
                ordered = ((packed[j] | guards) - packed[i]) & guards == guards
                assert ordered == componentwise_leq(vectors[i], vectors[j])

    def test_packed_order_is_lexicographic(self):
        vectors = sorted({(F(a), F(b, 2)) for a in range(-2, 3) for b in range(6)})
        packed, _ = pack_ranks(vectors)
        assert packed == sorted(packed)


@st.composite
def parent_law_and_masks(draw):
    d = draw(finite_distributions(min_dim=3, max_dim=3, max_atoms=7))
    full = (1 << len(d.atoms)) - 1
    masks = st.integers(1, full)
    return d, draw(st.sampled_from([(1,), (2,), (3,), (1, 2), (2, 3)])), draw(masks), draw(masks)


@st.composite
def coupled_laws(draw):
    """Integer laws on the 3x3 rank grid with Y made from X by moving each
    piece of mass up, so X <=st Y; first fit often sends a piece too low."""
    point = st.tuples(st.integers(0, 2), st.integers(0, 2))
    pieces = draw(st.lists(st.tuples(point, point, st.integers(1, 9)), min_size=1, max_size=8))
    packing = RankPacking([3, 3])
    wx: dict[int, int] = {}
    wy: dict[int, int] = {}
    for x, step, w in pieces:
        kx = packing.pack(x)
        ky = packing.pack([min(2, a + b) for a, b in zip(x, step)])
        wx[kx] = wx.get(kx, 0) + w
        wy[ky] = wy.get(ky, 0) + w

    def law(weights):
        keys = sorted(weights)
        return IntegerLaw(tuple(keys), tuple(weights[k] for k in keys), sum(weights.values()))

    return law(wx), law(wy), packing.guards


def _cell(d, J):
    return CellContext(LawCache(d), J, Caps(), "fast")


def _fraction_law(d, J, mask):
    """The Fraction law of the coordinates outside J given the atoms whose
    bits are set in ``mask``."""
    observed = [j - 1 for j in range(1, d.dim + 1) if j not in J]
    atoms = [(tuple(x[c] for c in observed), p)
             for k, (x, p) in enumerate(d.atoms) if mask >> k & 1]
    total = sum(p for _, p in atoms)
    return make_pmf(len(observed), [(x, p / total) for x, p in atoms])


def _netted(lx, ly, guards):
    """Two integer laws of one packing on the union of their supports, and
    the union's at-or-above bitsets."""
    u = support_union(dict(zip(lx.keys, lx.weights)), dict(zip(ly.keys, ly.weights)))
    return u, keys_above(u.points, guards)


def _closure(up, senders):
    closure = 0
    for a in senders:
        closure |= up[a]
    return bits(closure)


class TestIntegerKernel:
    @settings(max_examples=200, deadline=None)
    @given(parent_law_and_masks())
    def test_matches_fraction_oracles(self, case):
        d, J, mask_x, mask_y = case
        ctx = _cell(d, J)
        lx, ly = ctx.int_law(mask_x), ctx.int_law(mask_y)
        dX, dY = _fraction_law(d, J, mask_x), _fraction_law(d, J, mask_y)
        u, up = _netted(lx, ly, ctx.block(ctx.i_max)[0])
        transport, _ = positive_upper_set(u.net(), up)
        verdict = st_leq_coupling(dX, dY)
        assert (transport is not None) == verdict.holds == st_leq_uppersets(dX, dY).holds
        if transport is None:
            assert verdict.violation == ctx.witness(mask_y, mask_x, ctx.i_max)[1]
            return
        # conditional-law atoms and integer-law keys share the same (lex)
        # order, and the cell's weights are the Fraction laws' up to one
        # factor per law, which scales the transport and the diagonal alike
        points = sorted({x for x, _ in dX.atoms} | {y for y, _ in dY.atoms})
        assert [F(w, lx.total) for w in lx.weights] == [p for _, p in dX.atoms]
        scale = u.tx * u.ty
        expected = [(points[a], points[b], F(f, scale)) for (a, b), f in transport.items()]
        expected += [(z, z, F(m, scale)) for z, a, b in zip(points, u.wx, u.wy)
                     if (m := min(a * u.ty, b * u.tx))]
        assert list(verdict.coupling.pairs) == sorted(expected)
        verdict.coupling.validate(dX, dY)

    @settings(max_examples=300, deadline=None)
    @given(parent_law_and_masks())
    def test_matches_the_guard_test_kernel(self, case):
        # the bipartite x -> y network of the reference, run cold: the same
        # verdict, and its deficient x-atoms have the same upward closure
        # in the union support as the kernel's cut senders
        d, J, mask_x, mask_y = case
        ctx = _cell(d, J)
        lx, ly = ctx.int_law(mask_x), ctx.int_law(mask_y)
        guards = ctx.block(ctx.i_max)[0]
        u, up = _netted(lx, ly, guards)
        transport, senders = positive_upper_set(u.net(), up)
        ref_flows, ref_deficient = ref.integer_coupling(lx, ly, guards)
        assert (transport is None) == (ref_flows is None)
        if senders is not None:
            index = {key: k for k, key in enumerate(u.points)}
            assert _closure(up, senders) == _closure(up, [index[lx.keys[i]]
                                                          for i in ref_deficient])

    @settings(max_examples=200, deadline=None)
    @given(coupled_laws())
    def test_holds_on_laws_made_by_moving_mass_up(self, case):
        u, up = _netted(*case)
        transport, senders = positive_upper_set(u.net(), up)
        assert senders is None and transport is not None
        assert ref.integer_coupling(*case)[0] is not None

    def _counting_max_flow(self, monkeypatch):
        calls = []
        engine = maxflow.integer_max_flow
        monkeypatch.setattr(maxflow, "integer_max_flow",
                            lambda *args: calls.append(args) or engine(*args))
        return calls

    def test_stuck_first_fit_holds_by_rerouting(self, monkeypatch):
        # both senders have three points at or above them; first fit sends
        # all of (0,0,1) to (1,1,1), the lowest receiver above it, which
        # leaves (0,1,0) short; the flow sends it back to (2,0,2)
        calls = self._counting_max_flow(monkeypatch)
        up = points_above([(0, 0, 1), (0, 1, 0), (1, 1, 1), (1, 2, 0), (2, 0, 2)])
        transport, senders = positive_upper_set([2, 3, -2, -1, -2], up)
        assert len(calls) == 1 and senders is None
        assert transport == {(0, 4): 2, (1, 2): 2, (1, 3): 1}

    def test_stuck_first_fit_fails_with_the_minimal_cut(self, monkeypatch):
        # x-atoms (0,0) and (0,1) with weights 1 and 2, y-atoms (0,1) and
        # (1,0) with weight 1: (0,1) nets to 1 and has no receiver above it
        calls = self._counting_max_flow(monkeypatch)
        packing = RankPacking([2, 2])
        lx = IntegerLaw(tuple(map(packing.pack, [(0, 0), (0, 1)])), (1, 2), 3)
        ly = IntegerLaw(tuple(map(packing.pack, [(0, 1), (1, 0)])), (1, 1), 2)
        u, up = _netted(lx, ly, packing.guards)
        assert u.net() == [2, 1, -3]
        transport, senders = positive_upper_set(u.net(), up)
        assert len(calls) == 1
        # P(X >= (0,1)) = 2/3 > P(Y >= (0,1)) = 1/2
        assert transport is None and senders == [1]
        assert ref.integer_coupling(lx, ly, packing.guards) == (None, [1])

    def _tampered_first_fit(self, monkeypatch, tamper):
        first_fit = maxflow.first_fit

        def run(senders, up, supply, demand):
            routed = first_fit(senders, up, supply, demand)
            tamper(routed, up)
            return routed
        monkeypatch.setattr(maxflow, "first_fit", run)

    def test_tampered_row_sum_raises(self, monkeypatch):
        def tamper(routed, up):
            pair = next(iter(routed))
            routed[pair] += 1
        self._tampered_first_fit(monkeypatch, tamper)
        with pytest.raises(InternalConsistencyError, match="sums differ"):
            st_leq_coupling(delta(0, 0), delta(1, 1))

    def test_incomparable_pair_raises(self, monkeypatch):
        def tamper(routed, up):
            (a, b), f = routed.popitem()
            routed[a, next(c for c in range(len(up)) if not up[a] >> c & 1)] = f
        self._tampered_first_fit(monkeypatch, tamper)
        # (0,1) and (1,0) each send their half to (1,1); one is moved down
        dX = make_pmf(2, [((0, 1), F(1, 2)), ((1, 0), F(1, 2))])
        with pytest.raises(InternalConsistencyError, match="is not upward"):
            st_leq_coupling(dX, delta(1, 1))


def test_upper_closure_consistency():
    # the min-cut witness is the upward closure of the cut senders in the
    # union support; here X sits on the sender, Y on (0, 0)
    def vecs(*tuples):
        return [tuple(F(v) for v in t) for t in tuples]

    ambient = vecs((0, 0), (0, 1), (1, 0), (1, 1))
    up = points_above(axis_ranks(zip(*ambient))[0])
    v = cut_violation(SupportUnion(ambient, [0, 1, 0, 0], [1, 0, 0, 0], 1, 1), up, [1])
    assert v.upper_set.points == ((F(0), F(1)), (F(1), F(1)))
    assert v.upper_set.minimal == ((F(0), F(1)),)
    # a closure that does not violate the order is an internal error
    ambient = vecs((0, 0), (0, 1), (1, 0), (1, 1), (2, 2))
    up = points_above(axis_ranks(zip(*ambient))[0])
    with pytest.raises(InternalConsistencyError, match="min cut"):
        cut_violation(SupportUnion(ambient, [0, 0, 3, 0, 0], [0, 0, 0, 0, 3], 3, 3), up, [2])
