"""NSMD on the law's integer view against the Fraction path it replaced, the
orthant screen against the orthant checkers, and the grid cap."""

import itertools
import json
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from negdep import (
    checks,
    independent_copy,
    lower_event,
    make_pmf,
    permutation_distribution,
    supermodular,
    to_json_dict,
    upper_event,
)
from negdep.cli import main
from negdep.errors import Caps, GridTooLarge, InternalConsistencyError
from negdep.rationals import NEG_INF
from negdep.supermodular import GridFunction

from . import reference_supermodular as ref
from .conftest import TABLE1_ROWS
from .strategies import grid_laws as laws

F = Fraction

# 81-point grids, which the strategy seldom reaches: one FALSE, one TRUE
_DIAGONAL = make_pmf(4, [((i, i, i, j), F(1, 9)) for i in range(3) for j in range(3)])
_PERMUTATION = permutation_distribution([F(-1, 2), 0, 0, F(5, 2)])


def _nsmd_by_registry(d):
    return checks.PROPERTIES["nsmd"](checks.LawCache(d), None, "weak", Caps(), "fast", 1)


@settings(max_examples=200, deadline=None)
@given(laws())
@example(_DIAGONAL)
@example(_PERMUTATION)
def test_nsmd_matches_fraction_reference(d):
    want = ref.check_nsmd(d)
    for got in (checks.check_nsmd(d), _nsmd_by_registry(d)):
        assert got == want
        assert repr(got) == repr(want)
    perp = independent_copy(d)
    assert repr(supermodular.supermodular_leq(d, perp)) == repr(ref.supermodular_leq(d, perp))
    if not want.holds:
        checks.verify_witness(d, want)
        left, right = supermodular.witness_expectations(want.witness.function, d, perp)
        assert (left, right) == (want.witness.left, want.witness.right)
        assert left - right == want.witness.gap == ref.verify_supermodular_witness(
            want.witness.function, d, perp)


def _broken(witness: GridFunction, k: int, value) -> GridFunction:
    values = list(witness.values)
    values[k] = (values[k][0], value)
    return GridFunction(witness.axes, tuple(values))


@settings(max_examples=60, deadline=None)
@given(laws(), st.data())
def test_positional_recheck_rejects_what_the_reference_rejects(d, data):
    verdict = checks.check_nsmd(d)
    if verdict.holds:
        return
    perp = independent_copy(d)
    w = verdict.witness.function
    k = data.draw(st.integers(0, len(w.values) - 1))
    value = data.draw(st.sampled_from([F(-3, 2), F(-1), F(-1, 3), F(0), F(1, 2), F(1), F(2)]))
    bad = _broken(w, k, value)
    try:
        want = ref.verify_supermodular_witness(bad, d, perp)
    except InternalConsistencyError:
        with pytest.raises(InternalConsistencyError):
            supermodular.witness_expectations(bad, d, perp)
    else:
        left, right = supermodular.witness_expectations(bad, d, perp)
        assert left - right == want


def test_recheck_reads_the_witness_by_grid_position():
    d = make_pmf(2, [((0, 0), F(1, 2)), ((1, 1), F(1, 2))])
    verdict = checks.check_nsmd(d)
    w = verdict.witness.function
    swapped = GridFunction(w.axes, (w.values[1], w.values[0]) + w.values[2:])
    with pytest.raises(InternalConsistencyError, match="lex grid"):
        supermodular.witness_expectations(swapped, d, independent_copy(d))
    with pytest.raises(InternalConsistencyError, match="box"):
        supermodular.witness_expectations(_broken(w, 0, F(3, 2)), d, independent_copy(d))


def test_verify_witness_builds_one_independent_copy():
    d = make_pmf(2, [((0, 0), F(1, 2)), ((1, 1), F(1, 2))])
    verdict = checks.check_nsmd(d)
    with mock.patch.object(checks, "independent_copy", wraps=independent_copy) as copy:
        checks.verify_witness(d, verdict)
    assert copy.call_count == 1


# -- the orthant screen against the orthant checkers ---------------------------------

def _product(d, event, thresholds):
    out = F(1)
    for j, t in enumerate(thresholds, start=1):
        out *= d.marginal([j]).mass_of(event([1], [t]))
    return out


@settings(max_examples=150, deadline=None)
@given(laws())
def test_orthant_screen_fires_exactly_when_nod_fails(d):
    # r = p_perp - p_X, so its lower-orthant sum at corner x is
    # prod P(X_i <= x_i) - P(X <= x), the NLOD corner, and its upper-orthant
    # sum at grid position k is prod P(X_i >= .) - P(X >= .), the NUOD corner
    # whose threshold is -inf at position 0 and the axis value below
    # otherwise; NUOD's last corner on each axis bounds an empty event
    work = checks.LawCache(d)
    sizes = work.view[2]
    cells, products, mass = supermodular.independence_grid(work.view)
    n = d.dim
    r = [p - mass ** (n - 1) * c for p, c in zip(products, cells)]
    assert (supermodular.orthant_screen(r, sizes) is not None) == (not checks.check_nod(d).holds)

    everything = range(1, n + 1)
    lower = supermodular.orthant_sums(list(r), sizes, False)
    for k, corner in enumerate(itertools.product(*work.view.axes)):
        want = _product(d, lower_event, corner) - d.mass_of(lower_event(everything, corner))
        assert F(lower[k], mass ** n) == want
    upper = supermodular.orthant_sums(list(r), sizes, True)
    thresholds = [(NEG_INF,) + ax[:-1] for ax in work.view.axes]
    for k, corner in enumerate(itertools.product(*thresholds)):
        want = _product(d, upper_event, corner) - d.mass_of(upper_event(everything, corner))
        assert F(upper[k], mass ** n) == want


# -- the grid cap ---------------------------------------------------------------

def test_cap_is_checked_before_the_grid_is_built():
    d = make_pmf(10, [((i,) * 10, F(1, 3)) for i in range(3)])
    tracemalloc.start()
    try:
        with pytest.raises(GridTooLarge) as exc:
            checks.check_nsmd(d, Caps(max_lp_vars=100))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "product grid has 59049 points, over the cap of 100 LP variables"
    assert peak < 100_000  # a list of the 59,049 grid cells alone takes 472 KB


def test_audit_records_the_cap_as_before():
    report = checks.audit_implications(permutation_distribution([0, 1, 1, 2]),
                                       caps=Caps(max_lp_vars=80))
    assert report.skipped["nsmd"] == (
        "GridTooLarge: product grid has 81 points, over the cap of 80 LP variables")


@pytest.mark.parametrize("law", [_DIAGONAL, make_pmf(4, TABLE1_ROWS)], ids=["diagonal", "table1"])
@pytest.mark.parametrize("cap", [10, 80])
def test_check_exits_two_on_the_cap(law, cap, tmp_path, capsys):
    path = tmp_path / "law.json"
    path.write_text(json.dumps(to_json_dict(law)))
    assert main(["check", str(path), "--props", "nsmd", "--caps", f"lp_vars={cap}",
                 "--jobs", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"cap exceeded: product grid has 81 points, over the cap of {cap} LP variables\n"
