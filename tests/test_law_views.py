"""The integer view a law carries: what the builders and the parser attach
must be what ranking the law's atoms gives, its per-axis tables must be what
the rank columns give, and no checker may change a view that every reader of
the law shares."""

import contextlib
import copy
import dataclasses
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negdep import (
    audit_implications,
    checks,
    cli,
    knockout_fixed_draw,
    knockout_random_draw,
    make_pmf,
    permutation_distribution,
    round_robin_distribution,
    to_json_dict,
)
from negdep.distributions import IntegerView, at_or_above, integer_view, parse_law

from .test_symmetry import _eight_player
from .test_tournaments import knockout_specs, round_robin_specs

F = Fraction

# repeated, negative and non-integer values
_PERMUTATION_VALUES = st.lists(
    st.sampled_from([F(-3), F(-1, 2), F(0), F(1, 3), F(1), F(7, 4)]), min_size=1, max_size=6)


def _assert_carries_its_ranking(d):
    """``d.view`` equals ``integer_view(d)`` part by part, in the same
    containers, and its tables equal those computed from the rank columns."""
    view, ranked = d.view, integer_view(d)
    assert type(view) is IntegerView
    (weights, ranks, sizes), (want_weights, want_ranks, want_sizes) = view, ranked
    assert weights == want_weights and type(weights) is tuple
    assert all(type(w) is int for w in weights)
    assert ranks == want_ranks and type(ranks) is list
    assert all(type(r) is tuple and all(type(k) is int for k in r) for r in ranks)
    assert sizes == want_sizes and type(sizes) is list
    assert view.axes == ranked.axes and type(view.axes) is tuple
    assert all(type(axis) is tuple and all(type(v) is Fraction for v in axis)
               for axis in view.axes)
    columns = list(zip(*want_ranks))
    assert view.above == [at_or_above(column, size)
                          for column, size in zip(columns, want_sizes)]
    assert view.margins == [[sum(w for k, w in zip(column, want_weights) if k == v)
                             for v in range(size)]
                            for column, size in zip(columns, want_sizes)]
    # the view is no part of the law's value
    plain = make_pmf(d.dim, d.atoms)
    assert "view" not in plain.__dict__
    assert d == plain and hash(d) == hash(plain) and repr(d) == repr(plain)
    assert to_json_dict(d) == to_json_dict(plain)
    assert [f.name for f in dataclasses.fields(d)] == ["dim", "atoms"]


@settings(max_examples=80, deadline=None)
@given(_PERMUTATION_VALUES)
def test_permutation_builder_carries_its_ranking(values):
    _assert_carries_its_ranking(permutation_distribution(values))


@settings(max_examples=60, deadline=None)
@given(knockout_specs(st.integers(1, 3), fixed=True))
def test_fixed_draw_builder_carries_its_ranking(spec):
    _assert_carries_its_ranking(knockout_fixed_draw(spec))


@settings(max_examples=40, deadline=None)
@given(knockout_specs(st.integers(1, 2), fixed=False))
def test_random_draw_builder_carries_its_ranking(spec):
    _assert_carries_its_ranking(knockout_random_draw(spec))


@settings(max_examples=4, deadline=None)
@given(knockout_specs(st.just(3), fixed=False))
def test_eight_player_random_draw_builder_carries_its_ranking(spec):
    _assert_carries_its_ranking(knockout_random_draw(spec))


@settings(max_examples=40, deadline=None)
@given(round_robin_specs())
def test_round_robin_builder_carries_its_ranking(spec):
    _assert_carries_its_ranking(round_robin_distribution(spec))


@pytest.mark.parametrize("draw", ["fixed", "random"])
def test_parsed_law_carries_the_view_it_read(draw):
    law, view = parse_law(json.loads(json.dumps(to_json_dict(_eight_player(draw)))))
    assert law.view is view
    _assert_carries_its_ranking(law)


# -- a shared view stays as it was ---------------------------------------------

def _snapshot(view) -> tuple:
    """Deep copies of every part of a view, its tables built first."""
    return copy.deepcopy((tuple(view), view.axes, view.above, view.margins))


def _assert_unchanged(view, before) -> None:
    assert (tuple(view), view.axes, view.above, view.margins) == before


_ALL_PROPS = ",".join(checks.PROPERTIES)

_CHECKERS = (
    checks.check_nlod, checks.check_nuod, checks.check_nod, checks.check_nsmd,
    lambda d: checks.check_na(d, max_block=2),
    lambda d: checks.check_nrd(d, max_j=2),
    lambda d: checks.check_nltd(d, max_j=2, variant="strict"),
    lambda d: checks.check_nrtd(d, max_j=2),
    checks.check_nrd1, checks.check_nltd1,
    lambda d: checks.check_nrtd1(d, variant="strict", st_mode="verify"),
)


@pytest.mark.parametrize("law", ["table1_built", "round_robin3", "random_draw_counterexample",
                                 "fixed_draw_counterexample"])
def test_checkers_leave_a_built_view_as_it_was(law, request, tmp_path, monkeypatch):
    d = request.getfixturevalue(law)  # one object, shared by every test that asks for it
    view = d.view
    before = _snapshot(view)
    audit_implications(d, max_j=2, jobs=1)
    for checker in _CHECKERS:
        checker(d)
    assert d.view is view
    _assert_unchanged(view, before)
    # negdep check reads its own law from the file: that view, too
    parsed = []

    def parse(obj):
        law, view = parse_law(obj)
        parsed.append((view, _snapshot(view)))
        return law, view

    monkeypatch.setattr(cli, "parse_law", parse)
    path = tmp_path / "law.json"
    path.write_text(json.dumps(to_json_dict(d)))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["check", str(path), "--props", _ALL_PROPS, "--max-j", "2",
                         "--jobs", "1"]) in (0, 1)
    (view, before), = parsed
    _assert_unchanged(view, before)


@pytest.mark.parametrize("draw", ["fixed", "random"])
def test_two_jobs_write_the_reports_of_one(draw, tmp_path):
    # with two jobs every cell's law, view and tables travel to the workers
    path = tmp_path / "law.json"
    path.write_text(json.dumps(to_json_dict(_eight_player(draw))))
    reports = []
    for jobs in ("1", "2"):
        report = tmp_path / f"report-{jobs}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["check", str(path), "--props", _ALL_PROPS, "--max-j", "2",
                             "--jobs", jobs, "-o", str(report)])
        reports.append((code, report.read_bytes()))
    assert reports[0] == reports[1]
    assert reports[0][0] == (1 if draw == "fixed" else 0)
