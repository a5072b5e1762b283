"""The integer orthant and association scans against the Fraction reference,
and against laws that are negatively associated by theorem."""

import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from negdep import (
    NEG_INF,
    FixedDraw,
    audit_implications,
    check_conjecture,
    check_na,
    check_nlod,
    check_nod,
    check_nuod,
    checks,
    cli,
    distributions,
    equal_strength,
    knockout_fixed_draw,
    make_pmf,
    permutation_distribution,
    product,
    to_json_dict,
    verify_witness,
)
from negdep.checks import LawCache

from . import reference_scans as ref
from .strategies import finite_distributions

F = Fraction

# negative and non-integer values, so ranks, not values, must drive the scans
_VALUES = [F(-2), F(-1, 2), F(0), F(1, 3), F(1), F(5, 2)]


@st.composite
def dependent_laws(draw):
    """Laws of dimension 2-4; half of them put every column in the same
    order, which makes the coordinates positively dependent, so FALSE
    verdicts and their witnesses are common."""
    dim = draw(st.integers(2, 4))
    size = draw(st.integers(1, 6))
    columns = [draw(st.lists(st.sampled_from(_VALUES), min_size=size, max_size=size))
               for _ in range(dim)]
    if draw(st.booleans()):
        columns = [sorted(column) for column in columns]
    weights = draw(st.lists(st.integers(1, 9), min_size=size, max_size=size))
    total = sum(weights)
    return make_pmf(dim, [(x, F(w, total)) for x, w in zip(zip(*columns), weights)])


@settings(max_examples=200, deadline=None)
@given(dependent_laws())
def test_integer_scans_match_fraction_reference(d):
    pairs = ((check_nlod, ref.check_nlod), (check_nuod, ref.check_nuod),
             (check_nod, ref.check_nod), (check_na, ref.check_na))
    for checker, reference in pairs:
        got, want = checker(d), reference(d)
        assert got == want
        assert repr(got) == repr(want)
        if not got.holds:
            verify_witness(d, got)


@settings(max_examples=60, deadline=None)
@given(dependent_laws(), st.integers(1, 2))
def test_block_capped_na_matches_fraction_reference(d, max_block):
    got, want = check_na(d, max_block=max_block), ref.check_na(d, max_block=max_block)
    assert repr(got) == repr(want)


@settings(max_examples=12, deadline=None)
@given(st.lists(st.sampled_from(_VALUES), min_size=2, max_size=4))
def test_permutation_laws_are_na_and_nod(values):
    # Joag-Dev & Proschan (1983): permutation laws are NA, and NA implies NOD
    d = permutation_distribution(values)
    na = check_na(d)
    assert na.holds and na.definitive
    assert check_nod(d).holds


_factors = st.one_of(
    finite_distributions(min_dim=1, max_dim=1, max_atoms=4, values=_VALUES),
    st.lists(st.sampled_from(_VALUES), min_size=2, max_size=2).map(permutation_distribution),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(_factors, min_size=2, max_size=3))
def test_product_laws_are_na_and_nod(factors):
    # independent blocks of NA laws form an NA law (Joag-Dev & Proschan 1983)
    d = factors[0]
    for factor in factors[1:]:
        d = product(d, factor)
    assume(d.dim <= 4)
    na = check_na(d)
    assert na.holds and na.definitive
    assert check_nod(d).holds


def test_nod_builds_the_integer_view_once(monkeypatch):
    calls = []
    view = checks.integer_view
    monkeypatch.setattr(checks, "integer_view", lambda d: calls.append(d) or view(d))
    d = permutation_distribution([0, 1, 2, 3])
    verdict = check_nod(d)
    assert len(calls) == 1
    assert repr(verdict) == repr(ref.check_nod(d))


def test_conjecture_builds_the_integer_view_once(monkeypatch):
    calls = []
    view = checks.integer_view
    monkeypatch.setattr(checks, "integer_view", lambda d: calls.append(d) or view(d))
    report = check_conjecture([0, 1, 1, 2], jobs=1)
    assert len(calls) == 1
    assert report.stats.cells > 1


def test_audit_builds_one_integer_view_per_law(monkeypatch):
    calls = []
    view = checks.integer_view
    monkeypatch.setattr(checks, "integer_view", lambda d: calls.append(d) or view(d))
    laws = [permutation_distribution([0, 1, 2]),
            make_pmf(3, [((0, 0, 1), F(1, 2)), ((1, 1, 1), F(1, 3)), ((1, 2, 0), F(1, 6))])]
    for d in laws:
        report = audit_implications(d, jobs=1)
        assert len(report.verdicts) == len(checks.PROPERTIES)
    assert calls == laws


def test_check_command_reads_the_view_with_the_law(monkeypatch, tmp_path, capsys):
    calls, caches = [], []
    view = checks.integer_view
    for module in (checks, distributions):
        monkeypatch.setattr(module, "integer_view", lambda d: calls.append(d) or view(d))
    monkeypatch.setattr(cli, "LawCache",
                        lambda d, v: caches.append(checks.LawCache(d, v)) or caches[-1])
    law = permutation_distribution([0, 1, 2])
    obj = to_json_dict(law)
    # the first atom split in two entries, one with its values spelled another way
    obj["atoms"][0]["p"] = "1/12"
    obj["atoms"].append({"x": [0, "2/2", "2.0"], "p": "2/24"})
    path = tmp_path / "law.json"
    path.write_text(json.dumps(obj))
    report = str(tmp_path / "report.json")
    # every one of these reads the view, which the parser built with the law
    assert cli.main(["check", str(path), "--props", "nsmd,nlod,nod,nrd1", "-o", report]) == 0
    assert calls == []
    assert caches[0].view == view(law) and caches[0].view.axes == view(law).axes


@pytest.mark.parametrize("orbits", [True, False], ids=["orbit-walk", "trivial-group"])
def test_orthant_scans_count_the_extended_grid(orbits, monkeypatch):
    # the upper side reads position 0 as the -inf corner and builds no
    # sentinel row, yet counts its corners as on the grid that has one.
    # Both laws have automorphisms; without them the walk visits every
    # corner the empty-event pruning leaves, and counts the same grid
    if not orbits:
        monkeypatch.setattr(checks, "generators", lambda view: [])
    laws = (knockout_fixed_draw(equal_strength(3, FixedDraw(tuple(range(1, 9))))),
            permutation_distribution(range(6)))
    for d in laws:
        sizes = [len(axis) for axis in d.support_grid()]
        for checker, counted in ((check_nlod, sizes), (check_nuod, [s + 1 for s in sizes])):
            verdict = checker(d)
            assert verdict.holds and verdict.stats.conditioning_pairs == math.prod(counted)


def _weighted_permutations(n, weight):
    """The permutations of 0..n-1, each with mass proportional to weight(x)."""
    perms = list(itertools.permutations(range(n)))
    weights = [weight(x) for x in perms]
    total = sum(weights)
    return make_pmf(n, [(x, F(w, total)) for x, w in zip(perms, weights)])


def _skewed(x):
    return 1 + sum(i * v for i, v in enumerate(x)) % 7


def test_orthant_scans_without_automorphisms_build_no_grid(monkeypatch):
    # 6**6 = 46,656 lower corners and no automorphism; a grid of one int
    # per corner would peak at about 2.8 MiB a side
    d = _weighted_permutations(6, _skewed)
    work = LawCache(d)
    assert work.generators == []
    monkeypatch.setattr(checks, "integer_view", lambda law: work.view)
    for checker, reference in ((check_nlod, ref.check_nlod), (check_nuod, ref.check_nuod)):
        tracemalloc.start()
        try:
            got = checker(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024
        assert got.holds and repr(got) == repr(reference(d))


def test_orthant_witnesses_without_automorphisms_match_the_reference():
    # the skewed weights plus a heavy event {X_1 < X_2 < X_3}: both sides fail
    d = _weighted_permutations(6, lambda x: _skewed(x) + 30 * (x[0] < x[1] < x[2]))
    assert LawCache(d).generators == []
    for checker, reference in ((check_nlod, ref.check_nlod), (check_nuod, ref.check_nuod)):
        got = checker(d)
        assert not got.holds and repr(got) == repr(reference(d))
        verify_witness(d, got)


def test_nuod_counts_the_sentinel_corners_before_its_witness():
    # X_2 is independent of (X_1, X_3), which are positively dependent: the
    # first failing upper corner is (X_1 > -1/2, X_3 > 1/3), at position 13
    # of the 3 x 3 x 4 sentinel grid, after the six corners with X_2 > 1 or
    # X_3 > 5/2, whose events are empty; it is position 7 of the support grid
    rows = [((x1, x2, x3), F(w, 8)) for x2 in (0, 1)
            for (x1, x3), w in (((F(-1, 2), F(1, 3)), 2), ((F(2), F(1)), 1),
                                ((F(2), F(5, 2)), 1))]
    d = make_pmf(3, rows)
    got, want = check_nuod(d), ref.check_nuod(d)
    assert repr(got) == repr(want)
    assert got.witness.corner == (F(-1, 2), NEG_INF, F(1, 3))
    assert got.stats.conditioning_pairs == 14
    assert repr(check_nod(d)) == repr(ref.check_nod(d))
