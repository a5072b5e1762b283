from fractions import Fraction

import pytest
from hypothesis import given, settings

from negdep import (
    GridTooLarge,
    default_caps,
    independent_copy,
    make_pmf,
    product,
    supermodular_leq,
)
from negdep.errors import Caps
from negdep.supermodular import witness_expectations

from .strategies import finite_distributions

F = Fraction


def comonotone_pair():
    return make_pmf(2, [((0, 0), F(1, 2)), ((1, 1), F(1, 2))])


class TestSupermodularLeq:
    def test_self_comparison_optimum_zero(self, table1):
        verdict = supermodular_leq(table1, table1)
        assert verdict.holds
        assert verdict.gap == 0

    def test_comonotone_fails_against_independent_copy(self):
        com = comonotone_pair()
        verdict = supermodular_leq(com, independent_copy(com))
        assert not verdict.holds
        # P(X <= (0, 0)) = 1/2 under the law against 1/4 under its copy: the
        # lower orthant at the origin has sum -1/4, the most negative one (the
        # upper orthant at (1, 1) ties, and a lower orthant wins), so its
        # indicator is the witness, with gap 1/4, and no box LP runs. The box
        # LP's optimum, the corner function +-1, would give gap 1.
        assert verdict.gap == F(1, 4)
        assert [v for _, v in verdict.witness.values] == [1, 0, 0, 0]
        left, right = witness_expectations(verdict.witness, com, independent_copy(com))
        assert left - right == verdict.gap

    def test_product_law_passes(self):
        coin = make_pmf(1, [((0,), F(1, 2)), ((1,), F(1, 2))])
        d = product(coin, product(coin, coin))
        verdict = supermodular_leq(d, independent_copy(d))
        assert verdict.holds
        assert verdict.gap == 0

    def test_table1_below_independent_copy(self, table1):
        verdict = supermodular_leq(table1, independent_copy(table1))
        assert verdict.holds
        assert verdict.gap == 0

    def test_grid_cap(self, table1):
        with pytest.raises(GridTooLarge):
            supermodular_leq(table1, table1, caps=Caps(max_lp_vars=80))

    def test_dim_mismatch(self, table1):
        with pytest.raises(ValueError):
            supermodular_leq(table1, table1.marginal([1]))


class TestWitnessSoundness:
    @settings(max_examples=40, deadline=None)
    @given(finite_distributions(min_dim=2, max_dim=2, max_atoms=4))
    def test_against_independent_copy(self, d):
        verdict = supermodular_leq(d, independent_copy(d), caps=default_caps())
        if verdict.holds:
            assert verdict.gap == 0
            # equal margins are implied: additive functions are supermodular
            # both ways, so any margin gap would have produced a witness
            for j in range(1, d.dim + 1):
                assert d.marginal([j]) == independent_copy(d).marginal([j])
        else:
            witness_expectations(verdict.witness, d, independent_copy(d))

    def test_margin_mismatch_detected(self):
        a = make_pmf(1, [((0,), F(1, 2)), ((1,), F(1, 2))])
        b = make_pmf(1, [((0,), F(1, 3)), ((1,), F(2, 3))])
        verdict = supermodular_leq(a, b)
        assert not verdict.holds
        witness_expectations(verdict.witness, a, b)
