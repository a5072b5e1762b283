import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negdep import (
    FixedDraw,
    RandomDraw,
    SupportOutOfRange,
    equal_strength,
    knockout_fixed_draw,
    knockout_random_draw,
    knockout_spec,
    model_spec_from_json,
    model_spec_to_json,
    pair_score_law,
    permutation_distribution,
    round_robin_distribution,
    round_robin_spec,
)

from . import reference_tournaments as reference
from .conftest import dominance_knockout_spec, three_player_round_robin_spec

F = Fraction


class TestRoundRobin:
    def test_three_player_example_marginal(self, round_robin3):
        m = round_robin3.marginal([3]).as_dict()
        assert m[(F(0),)] == m[(F(6),)] == m[(F(10),)] == F(1, 9)
        assert m[(F(3),)] == m[(F(5),)] == m[(F(8),)] == F(2, 9)

    def test_three_player_example_atom_count(self, round_robin3):
        assert len(round_robin3) == 18

    def test_two_player_point_mass(self):
        spec = round_robin_spec(2, {(1, 2): pair_score_law(3, [(F(3, 2), F(1))])})
        d = round_robin_distribution(spec)
        assert d.as_dict() == {(F(3, 2), F(3, 2)): F(1)}

    def test_simple_round_robin_three_fair_coins(self):
        coin = [(0, F(1, 2)), (1, F(1, 2))]
        spec = round_robin_spec(3, {
            (1, 2): pair_score_law(1, coin),
            (1, 3): pair_score_law(1, coin),
            (2, 3): pair_score_law(1, coin),
        })
        d = round_robin_distribution(spec)
        # marginals are Binomial(2, 1/2)
        for j in (1, 2, 3):
            assert d.marginal([j]).as_dict() == {
                (F(0),): F(1, 4), (F(1),): F(1, 2), (F(2),): F(1, 4)
            }

    def test_constant_sum_on_every_atom(self, round_robin3):
        total = 1 + 5 + 5
        assert all(sum(x) == total for x, _ in round_robin3.atoms)

    def test_support_out_of_range(self):
        with pytest.raises(SupportOutOfRange):
            pair_score_law(1, [(0, F(1, 2)), (2, F(1, 2))])

    def test_missing_pair_rejected(self):
        with pytest.raises(ValueError):
            round_robin_spec(3, {(1, 2): pair_score_law(1, [(0, F(1))])})


class TestKnockoutFixed:
    def test_equal_strength_four_players(self, table1, table1_built):
        assert table1_built == table1

    def test_mixed_strength_example_atoms(self, fixed_draw_counterexample):
        expected = {
            (F(1), F(0), F(2), F(0)): F(1, 4),
            (F(0), F(2), F(1), F(0)): F(1, 4),
            (F(1), F(0), F(0), F(2)): F(1, 4),
            (F(0), F(2), F(0), F(1)): F(1, 4),
        }
        assert fixed_draw_counterexample.as_dict() == expected

    def test_two_players(self):
        d = knockout_fixed_draw(equal_strength(1, FixedDraw((1, 2))))
        assert d == permutation_distribution([0, 1])

    def test_atom_probabilities_are_dyadic(self, table1_built):
        # equal strength: every atom mass is an integer multiple of 2^-(n-1)
        n = table1_built.dim
        assert all((p * 2 ** (n - 1)).denominator == 1 for _, p in table1_built.atoms)

    def test_score_multiset_invariant(self):
        d = knockout_fixed_draw(equal_strength(3, FixedDraw(tuple(range(1, 9)))))
        expected = sorted([3, 2, 1, 1, 0, 0, 0, 0])
        for x, _ in d.atoms:
            assert sorted(int(v) for v in x) == expected
            assert sum(1 for v in x if v == 3) == 1

    def test_eight_player_law_size(self):
        d = knockout_fixed_draw(equal_strength(3, FixedDraw(tuple(range(1, 9)))))
        assert len(d) == 128
        assert all(p == F(1, 128) for _, p in d.atoms)

    def test_relabeling_players_permutes_coordinates(self):
        base = dominance_knockout_spec(F(1, 2), F(1, 3), FixedDraw((1, 2, 3, 4)))
        pi = (3, 1, 4, 2)  # player i becomes pi[i-1]
        pi_inv = tuple(pi.index(k) + 1 for k in range(1, 5))
        relabeled = knockout_spec(
            2,
            [[base.win_prob[pi_inv[i] - 1][pi_inv[j] - 1] for j in range(4)]
             for i in range(4)],
            FixedDraw(tuple(pi[s - 1] for s in base.draw.bracket)),
        )
        d_base = knockout_fixed_draw(base)
        d_rel = knockout_fixed_draw(relabeled)
        # new coordinate t carries the score of old player pi_inv(t)
        assert d_rel == d_base.permute_coordinates(pi_inv)

    def test_bracket_must_be_permutation(self):
        with pytest.raises(ValueError):
            equal_strength(2, FixedDraw((1, 2, 3, 3)))


class TestKnockoutRandom:
    def test_deterministic_relations_counterexample(self, random_draw_counterexample):
        expected = {
            (F(1), F(0), F(2), F(0)): F(1, 3),
            (F(0), F(2), F(1), F(0)): F(1, 3),
            (F(0), F(2), F(0), F(1)): F(1, 3),
        }
        assert random_draw_counterexample.as_dict() == expected

    def test_equal_strength_two_rounds_is_permutation_law(self):
        d = knockout_random_draw(equal_strength(2, RandomDraw()))
        assert d == permutation_distribution([0, 0, 1, 2])

    def test_one_round_is_coin(self):
        d = knockout_random_draw(equal_strength(1, RandomDraw()))
        assert d == permutation_distribution([0, 1])

    def test_near_deterministic_strengths_stay_close(self):
        # replacing probability 1 by 1 - eps keeps the same three heavy atoms
        eps = F(1, 1000)
        one = F(1)
        matrix = [
            [F(0), 1 - eps, eps, eps],
            [eps, F(0), 1 - eps, 1 - eps],
            [1 - eps, eps, F(0), 1 - eps],
            [1 - eps, eps, eps, F(0)],
        ]
        d = knockout_random_draw(knockout_spec(2, matrix, RandomDraw()))
        heavy = {x for x, p in d.atoms if p > F(1, 4)}
        assert heavy == {
            (F(1), F(0), F(2), F(0)),
            (F(0), F(2), F(1), F(0)),
            (F(0), F(2), F(0), F(1)),
        }
        assert sum(p for _, p in d.atoms) == one


class TestSpecValidation:
    def test_win_probs_must_pair_to_one(self):
        matrix = [[F(0), F(1, 2)], [F(1, 3), F(0)]]
        with pytest.raises(ValueError):
            knockout_spec(1, matrix, RandomDraw())

    def test_win_probs_in_range(self):
        matrix = [[F(0), F(3, 2)], [F(-1, 2), F(0)]]
        with pytest.raises(ValueError):
            knockout_spec(1, matrix, RandomDraw())


class TestModelSpecJson:
    def test_round_robin_round_trip(self):
        spec = three_player_round_robin_spec()
        blob = model_spec_to_json(spec)
        assert model_spec_from_json(blob) == spec

    def test_knockout_round_trip(self):
        spec = dominance_knockout_spec(F(1, 2), F(1, 2), FixedDraw((1, 2, 3, 4)))
        assert model_spec_from_json(model_spec_to_json(spec)) == spec

    def test_random_draw_round_trip(self):
        spec = equal_strength(2, RandomDraw())
        assert model_spec_from_json(model_spec_to_json(spec)) == spec

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            model_spec_from_json({"model": "swiss"})

    @pytest.mark.parametrize("field, value", [
        ("ell", True), ("ell", 1.0), ("ell", "1"),
        ("bracket", 5), ("bracket", [1, 2.0]), ("bracket", [True, 2]),
        ("win_prob", 5), ("win_prob", ["01", "10"]), ("win_prob", [[0, 0.5], [0.5, 0]]),
        ("win_prob", [["0", "1/0"], ["1/2", "0"]]),
    ])
    def test_malformed_knockout_field_rejected(self, field, value):
        spec = {"model": "knockout", "ell": 1, "win_prob": [["0", "1/2"], ["1/2", "0"]],
                "draw": {"kind": "fixed", "bracket": [1, 2]}}
        if field == "bracket":
            spec["draw"]["bracket"] = value
        else:
            spec[field] = value
        with pytest.raises(ValueError):
            model_spec_from_json(spec)

    @pytest.mark.parametrize("field, value", [
        ("n", 2.7), ("n", True), ("i", True), ("i", "1"), ("j", 2.0),
        ("law", 5), ("law", ["01", "11"]), ("law", [["0", "1/0"], ["1", "1/2"]]),
        ("r", 1.0),
    ])
    def test_malformed_round_robin_field_rejected(self, field, value):
        pair = {"i": 1, "j": 2, "r": "1", "law": [["0", "1/2"], ["1", "1/2"]]}
        spec = {"model": "round_robin", "n": 2, "pairs": [pair]}
        (spec if field == "n" else pair)[field] = value
        with pytest.raises(ValueError):
            model_spec_from_json(spec)

    def test_round_robin_pair_listed_twice_rejected(self):
        pair = {"i": 1, "j": 2, "r": "1", "law": [["0", "1/2"], ["1", "1/2"]]}
        with pytest.raises(ValueError, match="listed twice"):
            model_spec_from_json({"model": "round_robin", "n": 2, "pairs": [pair, pair]})


@settings(max_examples=20, deadline=None)
@given(st.permutations(list(range(1, 5))))
def test_equal_strength_bracket_is_a_relabeling(bracket):
    # seating player bracket[s] in slot s relabels the identity-bracket law
    d = knockout_fixed_draw(equal_strength(2, FixedDraw(tuple(bracket))))
    reference = knockout_fixed_draw(equal_strength(2, FixedDraw((1, 2, 3, 4))))
    slot_of_player = tuple(bracket.index(k) + 1 for k in range(1, 5))
    assert d == reference.permute_coordinates(slot_of_player)


# -- the score chain against the frozen enumerations ---------------------------

# win probabilities: rationals, with 0 and 1 drawn often
_WIN_PROB = st.one_of(st.sampled_from([F(0), F(1)]),
                      st.fractions(min_value=0, max_value=1, max_denominator=7))


@st.composite
def knockout_specs(draw, rounds, fixed):
    n = 2 ** draw(rounds)
    matrix = [[F(0)] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        matrix[i][j] = draw(_WIN_PROB)
        matrix[j][i] = 1 - matrix[i][j]
    bracket = FixedDraw(tuple(draw(st.permutations(range(1, n + 1))))) if fixed else RandomDraw()
    return knockout_spec(n.bit_length() - 1, matrix, bracket)


@st.composite
def round_robin_specs(draw):
    n = draw(st.integers(2, 4))
    games = {}
    for pair in itertools.combinations(range(1, n + 1), 2):
        total = draw(st.fractions(min_value=F(1, 6), max_value=3, max_denominator=6))
        values = draw(st.lists(st.fractions(min_value=0, max_value=total, max_denominator=6),
                               min_size=1, max_size=3, unique=True))
        weights = draw(st.lists(st.integers(1, 5), min_size=len(values), max_size=len(values)))
        games[pair] = pair_score_law(total, [(v, F(w, sum(weights)))
                                             for v, w in zip(values, weights)])
    return round_robin_spec(n, games)


def _assert_same_atoms(got, expected):
    # same atoms in the same order, every entry a Fraction of the same value
    assert got.dim == expected.dim
    assert repr(got.atoms) == repr(expected.atoms)


@settings(max_examples=60, deadline=None)
@given(knockout_specs(st.integers(1, 3), fixed=True))
def test_fixed_draw_chain_matches_the_reference(spec):
    _assert_same_atoms(knockout_fixed_draw(spec), reference.knockout_fixed_draw(spec))


@settings(max_examples=40, deadline=None)
@given(knockout_specs(st.integers(1, 2), fixed=False))
def test_random_draw_chain_matches_the_reference(spec):
    _assert_same_atoms(knockout_random_draw(spec), reference.knockout_random_draw(spec))


@settings(max_examples=4, deadline=None)
@given(knockout_specs(st.just(3), fixed=False))
def test_eight_player_random_draw_chain_matches_the_reference(spec):
    _assert_same_atoms(knockout_random_draw(spec), reference.knockout_random_draw(spec))


@settings(max_examples=40, deadline=None)
@given(round_robin_specs())
def test_round_robin_chain_matches_the_reference(spec):
    _assert_same_atoms(round_robin_distribution(spec), reference.round_robin_distribution(spec))


@pytest.mark.parametrize("build, other", [(knockout_fixed_draw, RandomDraw()),
                                          (knockout_random_draw, FixedDraw((1, 2)))])
def test_builder_rejects_the_other_draw(build, other):
    with pytest.raises(ValueError, match="does not carry"):
        build(equal_strength(1, other))
