import itertools
import json
import math
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negdep import (
    DimMismatch,
    EmptyIndexSet,
    MassNotOne,
    NonpositiveProbability,
    UndefinedAtAtom,
    ZeroProbabilityEvent,
    eq_event,
    from_json_dict,
    independent_copy,
    lower_event,
    make_pmf,
    permutation_distribution,
    product,
    to_json_dict,
    upper_event,
)
from negdep.distributions import axis_ranks, integer_view, parse_law
from negdep.rationals import NEG_INF, as_rational, format_rational

from .strategies import finite_distributions

F = Fraction


class TestMakePmf:
    def test_bernoulli(self):
        d = make_pmf(1, [((0,), F(1, 2)), ((1,), F(1, 2))])
        assert d.dim == 1
        assert d.probability((F(0),)) == F(1, 2)

    def test_mass_not_one(self):
        with pytest.raises(MassNotOne):
            make_pmf(1, [((0,), F(9, 10))])

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            make_pmf(2, [((0,), F(1))])

    def test_nonpositive_probability(self):
        with pytest.raises(NonpositiveProbability):
            make_pmf(1, [((0,), F(0)), ((1,), F(1))])

    def test_duplicates_merge(self):
        d = make_pmf(1, [((0,), F(1, 4)), ((0,), F(1, 4)), ((1,), F(1, 2))])
        assert d.probability((F(0),)) == F(1, 2)
        assert len(d) == 2

    def test_atoms_sorted_lexicographically(self, table1):
        assert [x for x, _ in table1.atoms] == sorted(x for x, _ in table1.atoms)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            make_pmf(1, [((0.5,), F(1))])


class TestMarginal:
    def test_table1_third_coordinate(self, table1):
        m = table1.marginal([3])
        assert m.as_dict() == {(F(0),): F(1, 2), (F(1),): F(1, 4), (F(2),): F(1, 4)}

    def test_identity_projection(self, table1):
        assert table1.marginal([1, 2, 3, 4]) == table1

    def test_empty_index_set(self, table1):
        with pytest.raises(EmptyIndexSet):
            table1.marginal([])

    def test_round_robin_third_score(self, round_robin3):
        m = round_robin3.marginal([3])
        expected = {
            (F(0),): F(1, 9), (F(3),): F(2, 9), (F(5),): F(2, 9),
            (F(6),): F(1, 9), (F(8),): F(2, 9), (F(10),): F(1, 9),
        }
        assert m.as_dict() == expected


class TestCondition:
    def test_table1_eq(self, table1):
        c = table1.condition(eq_event([1], [0]), keep=[3])
        assert c.as_dict() == {(F(0),): F(1, 2), (F(1),): F(1, 4), (F(2),): F(1, 4)}

    def test_point_mass_conditional(self, random_draw_counterexample):
        c = random_draw_counterexample.condition(eq_event([1], [1]), keep=[3])
        assert c.as_dict() == {(F(2),): F(1)}

    def test_vacuous_conditioning(self, table1):
        ev = upper_event([1], [NEG_INF])
        c = table1.condition(ev, keep=[2, 3, 4])
        assert c == table1.marginal([2, 3, 4])

    def test_zero_probability_event(self, table1):
        with pytest.raises(ZeroProbabilityEvent):
            table1.condition(eq_event([1], [7]), keep=[2])

    def test_keep_must_be_disjoint(self, table1):
        with pytest.raises(ValueError):
            table1.condition(eq_event([1], [0]), keep=[1, 2])

    def test_default_keep_is_complement(self, table1):
        assert table1.condition(eq_event([1], [0])) == table1.condition(
            eq_event([1], [0]), keep=[2, 3, 4]
        )

    def test_lower_event_weak_vs_strict(self, table1):
        weak = table1.condition(lower_event([1], [1]), keep=[2])
        strict = table1.condition(lower_event([1], [1], strict=True), keep=[2])
        assert weak != strict
        assert strict == table1.condition(lower_event([1], [0]), keep=[2])


class TestExpectation:
    def test_constant(self, table1):
        assert table1.expectation(lambda x: F(7, 3)) == F(7, 3)

    def test_sum_of_coordinates(self, table1):
        assert table1.expectation(lambda x: sum(x)) == 3

    def test_undefined_at_atom(self, table1):
        lookup = {}
        with pytest.raises(UndefinedAtAtom):
            table1.expectation(lambda x: lookup[x])

    def test_float_result_rejected(self, table1):
        with pytest.raises(UndefinedAtAtom):
            table1.expectation(lambda x: 0.5)


class TestProduct:
    def test_two_coins(self):
        coin = make_pmf(1, [((0,), F(1, 2)), ((1,), F(1, 2))])
        d = product(coin, coin)
        assert len(d) == 4
        assert all(p == F(1, 4) for _, p in d.atoms)

    def test_uniform_grid(self):
        u = make_pmf(1, [((0,), F(1, 3)), ((2,), F(1, 3)), ((5,), F(1, 3))])
        d = product(u, u)
        assert len(d) == 9
        assert all(p == F(1, 9) for _, p in d.atoms)

    def test_point_mass_shifts_dimension(self, table1):
        point = make_pmf(1, [((3,), F(1))])
        d = product(point, table1)
        assert d.dim == 5
        assert d.marginal([2, 3, 4, 5]) == table1


class TestIndependentCopy:
    def test_product_law_is_fixed_point(self):
        coin = make_pmf(1, [((0,), F(1, 2)), ((1,), F(1, 2))])
        d = product(coin, coin)
        assert independent_copy(d) == d

    def test_table1_margins(self, table1):
        ic = independent_copy(table1)
        assert ic.dim == 4
        for j in range(1, 5):
            assert ic.marginal([j]) == table1.marginal([j])
        # margins are (1/2, 1/4, 1/4) on {0,1,2} in every coordinate
        assert len(ic) == 81

    def test_comonotone_pair(self):
        com = make_pmf(2, [((0, 0), F(1, 2)), ((1, 1), F(1, 2))])
        ic = independent_copy(com)
        assert len(ic) == 4
        assert all(p == F(1, 4) for _, p in ic.atoms)


class TestPermutationDistribution:
    def test_two_values(self):
        d = permutation_distribution([0, 1])
        assert d.as_dict() == {(F(0), F(1)): F(1, 2), (F(1), F(0)): F(1, 2)}

    def test_multiset_collapses(self):
        d = permutation_distribution([0, 0, 1, 2])
        assert len(d) == 12
        assert all(p == F(1, 12) for _, p in d.atoms)

    def test_exchangeable(self):
        d = permutation_distribution([0, 0, 1, 2])
        assert d.permute_coordinates([2, 3, 4, 1]) == d

    def test_tournament_multiset_at_two_rounds(self):
        # multiplicity 2**(rounds-k-1) of value k, plus the top value once
        d = permutation_distribution([0, 0, 1, 2])
        assert d == permutation_distribution([2, 1, 0, 0])

    @staticmethod
    def _all_permutations(values):
        """The law as the n! loop builds it: every permutation, counted."""
        vals = tuple(as_rational(v) for v in values)
        counts = {}
        for arrangement in itertools.permutations(vals):
            counts[arrangement] = counts.get(arrangement, 0) + 1
        factor = F(1, math.factorial(len(vals)))
        return tuple(sorted((x, c * factor) for x, c in counts.items()))

    def test_distinct_arrangements_match_every_permutation(self):
        pool = (F(-1), F(0), F(1, 2), F(2))
        for n in range(1, 7):
            for values in itertools.combinations_with_replacement(pool, n):
                for order in (values, values[::-1]):
                    d = permutation_distribution(order)
                    assert d.atoms == self._all_permutations(order)
                    assert repr(d.atoms) == repr(self._all_permutations(order))

    def test_many_repeated_values_build_fast(self):
        start = time.perf_counter()
        d = permutation_distribution([0] * 6 + [1] * 6)
        assert time.perf_counter() - start < 0.5  # the 12! loop takes minutes
        assert len(d) == 924
        assert all(p == F(1, 924) for _, p in d.atoms)
        assert sum(p for _, p in d.atoms) == 1


class TestSupportGrid:
    def test_table1(self, table1):
        grids = table1.support_grid()
        assert grids == tuple((F(0), F(1), F(2)) for _ in range(4))

    def test_point_mass(self):
        d = make_pmf(2, [((3, 5), F(1))])
        assert d.support_grid() == ((F(3),), (F(5),))


class TestJson:
    def test_round_trip(self, table1):
        blob = json.dumps(to_json_dict(table1))
        assert from_json_dict(json.loads(blob)) == table1

    def test_fraction_strings(self, round_robin3):
        obj = to_json_dict(round_robin3)
        assert obj["dim"] == 3
        assert all(isinstance(a["p"], str) for a in obj["atoms"])
        assert from_json_dict(obj) == round_robin3

    def test_rejects_floats(self):
        with pytest.raises(ValueError):
            from_json_dict({"dim": 1, "atoms": [{"x": [0.5], "p": "1"}]})

    def test_rejects_missing_fields(self):
        with pytest.raises(ValueError):
            from_json_dict({"dim": 1})

    @pytest.mark.parametrize("atoms", [5, None, "x", {"x": ["0"], "p": "1"}])
    def test_rejects_atoms_that_are_not_a_list(self, atoms):
        with pytest.raises(ValueError, match="'atoms' must be a list"):
            from_json_dict({"dim": 1, "atoms": atoms})

    @pytest.mark.parametrize("x", ["01", 0, None, {"0": "1"}])
    def test_rejects_a_vector_that_is_not_a_list(self, x):
        # a string would otherwise be read one character per coordinate
        with pytest.raises(ValueError, match="bad atom #0: 'x' must be a list"):
            from_json_dict({"dim": 2, "atoms": [{"x": x, "p": "1"}]})

    def test_rejects_a_zero_denominator(self):
        with pytest.raises(ValueError, match="bad atom #0: zero denominator"):
            from_json_dict({"dim": 1, "atoms": [{"x": ["0"], "p": "1/0"}]})

    def test_rejects_a_top_level_list(self):
        with pytest.raises(ValueError, match="must be an object with 'dim' and 'atoms', got list"):
            from_json_dict([{"dim": 1, "atoms": []}])

    @pytest.mark.parametrize("column,bad,kind", [
        ([1, True], 1, "bool"), ([True, 1], 0, "bool"), (["1", True], 1, "bool"),
        ([1, 1.0], 1, "float"), ([1.0, 1], 0, "float")])
    def test_rejects_a_bool_or_float_next_to_an_equal_int(self, column, bad, kind):
        # a set keeps one of True and 1 (or 1.0 and 1): each token is still checked
        atoms = [{"x": [v], "p": "1/2"} for v in column]
        with pytest.raises(ValueError, match=f"bad atom #{bad}: expected an exact rational, "
                                             f"got {kind}"):
            from_json_dict({"dim": 1, "atoms": atoms})

    def test_rejects_a_bool_probability_next_to_an_equal_int(self):
        atoms = [{"x": ["0"], "p": 1}, {"x": ["1"], "p": True}]
        with pytest.raises(ValueError, match="bad atom #1: expected an exact rational, got bool"):
            from_json_dict({"dim": 1, "atoms": atoms})

    @pytest.mark.parametrize("x", [["0"], ["0", "1", "2"]])
    def test_rejects_a_short_or_long_vector(self, x):
        atoms = [{"x": ["0", "0"], "p": "1/2"}, {"x": x, "p": "1/2"}]
        with pytest.raises(DimMismatch, match=rf"bad atom #1: vector .* has length {len(x)}, "
                                              "expected 2"):
            from_json_dict({"dim": 2, "atoms": atoms})

    def test_rejects_no_atoms(self):
        with pytest.raises(MassNotOne, match="no atoms given"):
            from_json_dict({"dim": 2, "atoms": []})

    def test_rejects_dim_below_one_before_the_atoms(self):
        with pytest.raises(DimMismatch, match="dim must be >= 1"):
            from_json_dict({"dim": 0, "atoms": [{"x": [], "p": "1"}]})

    @pytest.mark.parametrize("p", ["0", "-1/2", 0, "-0.5"])
    def test_rejects_a_probability_that_is_not_positive(self, p):
        atoms = [{"x": ["0"], "p": "1"}, {"x": ["1"], "p": p}]
        with pytest.raises(NonpositiveProbability, match="bad atom #1: probability"):
            from_json_dict({"dim": 1, "atoms": atoms})

    def test_rejects_a_mass_other_than_one(self):
        atoms = [{"x": ["0"], "p": "1/2"}, {"x": ["0.5"], "p": "1"}]
        with pytest.raises(MassNotOne, match="sum to 3/2"):
            from_json_dict({"dim": 1, "atoms": atoms})

    def test_names_the_first_bad_atom_in_file_order(self):
        atoms = [{"x": ["0", "0"], "p": "1/4"}, {"x": ["0", "1"], "p": "1/0"},
                 {"x": ["x", "1"], "p": "1/4"}, {"x": ["1", "1"], "p": 0.25}]
        with pytest.raises(ValueError, match="bad atom #1: zero denominator"):
            from_json_dict({"dim": 2, "atoms": atoms})

    def test_an_unreadable_token_comes_before_a_wrong_length(self):
        atoms = [{"x": ["0"], "p": "1/2"}, {"x": ["1", 0.5], "p": "1/2"}]
        with pytest.raises(ValueError, match="bad atom #1: expected an exact rational, got float"):
            from_json_dict({"dim": 2, "atoms": atoms})

    def test_a_wrong_length_and_a_nonpositive_probability_come_in_file_order(self):
        atoms = [{"x": ["0", "0"], "p": "-1/2"}, {"x": ["1"], "p": "3/2"}]
        with pytest.raises(NonpositiveProbability, match="bad atom #0"):
            from_json_dict({"dim": 2, "atoms": atoms})

    def test_aliases_and_duplicate_vectors_merge(self):
        atoms = [{"x": ["1/2", 1], "p": "1/4"}, {"x": ["0.5", "1"], "p": "0.25"},
                 {"x": ["2/4", "2/2"], "p": "1/2"}, {"x": ["-1", "0"], "p": "0"}]
        with pytest.raises(NonpositiveProbability):
            from_json_dict({"dim": 2, "atoms": atoms})
        assert from_json_dict({"dim": 2, "atoms": atoms[:3]}) == make_pmf(2, [((F(1, 2), 1), 1)])


# -- non-canonical wire input ---------------------------------------------

def _spellings(q: Fraction) -> list:
    """Wire tokens that read as q: "num/den", the same over twice the
    denominator, a decimal where one is exact, and a bare int for integers."""
    out = [format_rational(q), f"{2 * q.numerator}/{2 * q.denominator}"]
    if 10 ** 6 % q.denominator == 0:
        out.append(str(Decimal(q.numerator) / Decimal(q.denominator)))
    if q.denominator == 1:
        out += [q.numerator, f"{q.numerator}.0"]
    return out


@st.composite
def noncanonical_files(draw):
    """A law and a distribution file for it with shuffled atoms, one atom
    split into two entries, and each token spelled in any of its ways."""
    d = draw(finite_distributions(min_dim=1, max_dim=3, max_atoms=6,
                                  values=[F(0), F(1), F(2), F(1, 2), F(-1), F(-3, 4)]))
    entries = list(d.atoms)
    k = draw(st.integers(0, len(entries) - 1))
    x, p = entries[k]
    cut = draw(st.sampled_from([F(1, 2), F(1, 3), F(3, 4)]))
    entries[k:k + 1] = [(x, p * cut), (x, p * (1 - cut))]
    entries = draw(st.permutations(entries))
    spell = lambda q: draw(st.sampled_from(_spellings(q)))  # noqa: E731
    atoms = [{"x": [spell(v) for v in x], "p": spell(p)} for x, p in entries]
    return d, {"dim": d.dim, "atoms": atoms}


@settings(max_examples=200, deadline=None)
@given(noncanonical_files())
def test_parse_law_reads_noncanonical_files_as_make_pmf_does(case):
    d, obj = case
    expected = make_pmf(obj["dim"], [([as_rational(v) for v in a["x"]], as_rational(a["p"]))
                                      for a in obj["atoms"]])
    law, view = parse_law(json.loads(json.dumps(obj)))
    assert law == expected == d
    reference = integer_view(expected)
    assert view == reference and view.axes == reference.axes
    assert list(map(type, view)) == list(map(type, reference))


# -- exact-identity properties -------------------------------------------

@settings(max_examples=60, deadline=None)
@given(finite_distributions(min_dim=2, max_dim=3))
def test_conditioning_reconstructs_marginal(d):
    j = d.dim  # condition on the last coordinate, reconstruct the first block
    keep = list(range(1, d.dim))
    target = d.marginal(keep)
    pieces = {}
    for x, _ in d.marginal([j]).atoms:
        weight = d.marginal([j]).probability(x)
        c = d.condition(eq_event([j], list(x)), keep=keep)
        for v, p in c.atoms:
            pieces[v] = pieces.get(v, F(0)) + weight * p
    assert pieces == target.as_dict()


@settings(max_examples=60, deadline=None)
@given(finite_distributions(min_dim=3, max_dim=3))
def test_condition_commutes_with_marginal(d):
    ev = eq_event([3], list(d.marginal([3]).atoms[0][0]))
    via_condition = d.condition(ev, keep=[1, 2]).marginal([1])
    direct = d.condition(ev, keep=[1])
    assert via_condition == direct


@settings(max_examples=60, deadline=None)
@given(finite_distributions(min_dim=1, max_dim=3))
def test_independent_copy_preserves_margins(d):
    ic = independent_copy(d)
    for j in range(1, d.dim + 1):
        assert ic.marginal([j]) == d.marginal([j])


@settings(max_examples=30, deadline=None)
@given(finite_distributions(min_dim=2, max_dim=2, max_atoms=4))
def test_negation_is_involutive(d):
    assert d.negate().negate() == d


# ints next to the equal Fractions, so a value's first token must be kept
_TOKENS = [0, Fraction(0), 1, Fraction(1), Fraction(1, 2), Fraction(-3, 2), -1, Fraction(-1)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.sampled_from(_TOKENS), min_size=3, max_size=3), min_size=1,
                max_size=12))
def test_axis_ranks_rank_rationals_as_their_sorted_set_does(rows):
    columns = list(zip(*rows))
    ranks, axes = axis_ranks(columns)
    expected = []
    for column in columns:
        table = sorted(set(column))
        expected.append((table, [table.index(t) for t in column]))
    assert [(list(ax), list(col)) for ax, col in zip(axes, zip(*ranks))] == expected
    assert [list(map(type, ax)) for ax in axes] == [list(map(type, t)) for t, _ in expected]
