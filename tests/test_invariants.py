"""Cross-module invariants pinned by the build contract."""

from fractions import Fraction

import pytest

from negdep import (
    EnumerationCapExceeded,
    RandomDraw,
    check_nltd,
    check_nltd1,
    check_nrd,
    check_nrd1,
    check_nrtd,
    check_nrtd1,
    equal_strength,
    knockout_random_draw,
    permutation_distribution,
)
from negdep.errors import CAPS_ENV_VAR, Caps, default_caps

F = Fraction


def test_permutation_law_of_five_values():
    # regression properties hold for permutation laws up to length five
    d = permutation_distribution([0, 1, 1, 2, 3])
    assert check_nrd(d).holds
    assert check_nltd(d).holds
    assert check_nrtd(d).holds


def test_random_draw_two_rounds_matches_permutation_law_per_property():
    draw = knockout_random_draw(equal_strength(2, RandomDraw()))
    reference = permutation_distribution([0, 0, 1, 2])
    assert draw == reference
    for check in (check_nrd, check_nltd, check_nrtd,
                  check_nrd1, check_nltd1, check_nrtd1):
        left = check(draw)
        right = check(reference)
        assert left.holds == right.holds
        assert left.witness == right.witness


def test_tournament_masses_are_exactly_one(round_robin3, table1_built,
                                            random_draw_counterexample):
    for d in (round_robin3, table1_built, random_draw_counterexample):
        assert sum(p for _, p in d.atoms) == 1


def test_caps_env_var(monkeypatch):
    monkeypatch.setenv(CAPS_ENV_VAR, "upper_sets=7,lp_vars=123")
    caps = default_caps()
    assert caps.max_upper_sets == 7
    assert caps.max_lp_vars == 123


def test_caps_override_parsing_rejects_unknown_keys():
    with pytest.raises(ValueError):
        Caps().with_overrides("widgets=3")


def test_caps_bite_in_checkers(table1):
    with pytest.raises(EnumerationCapExceeded):
        check_nrd(table1, caps=Caps(max_upper_sets=1), st_mode="verify")


def test_strictness_variants_agree_on_round_robin(round_robin3):
    assert check_nltd(round_robin3).holds == check_nltd(round_robin3, variant="strict").holds
    assert check_nrtd(round_robin3).holds == check_nrtd(round_robin3, variant="strict").holds
