import time
from fractions import Fraction

import pytest

from negdep import EnumerationCapExceeded, check_conjecture, default_caps, make_pmf
from negdep.checks import LawCache, _reverify_conjecture_witness, _scan_conjecture_partition

F = Fraction


def test_three_distinct_values_hold():
    report = check_conjecture([1, 2, 3])
    assert report.holds_on_instance
    assert report.witness is None
    assert report.stats.cells > 0


def test_duplicate_values_hold():
    report = check_conjecture([0, 0, 1, 2])
    assert report.holds_on_instance


def test_two_values():
    assert check_conjecture([0, 1]).holds_on_instance


def test_guard_on_length():
    with pytest.raises(EnumerationCapExceeded):
        check_conjecture([1, 2, 3, 4, 5, 6])


def test_too_few_values():
    with pytest.raises(ValueError):
        check_conjecture([1])


def test_jobs_match_sequential():
    seq = check_conjecture([1, 2, 3], jobs=1)
    par = check_conjecture([1, 2, 3], jobs=2)
    assert seq == par


def test_four_distinct_values_hold_within_budget():
    start = time.monotonic()
    report = check_conjecture([1, 2, 3, 4])
    assert report.holds_on_instance
    assert time.monotonic() - start < 600


def test_partition_scanner_finds_violations_on_dependent_laws():
    # a comonotone pair is monotone the wrong way: raising the first
    # coordinate's lower bound pushes the second coordinate up
    com = make_pmf(2, [((0, 0), F(1, 2)), ((1, 1), F(1, 2))])
    witness, stats = _scan_conjecture_partition(
        (LawCache(com), (1,), (), (), (2,), default_caps(), "fast")
    )
    assert witness is not None
    assert witness.raised == (1,)
    assert witness.observed == (2,)
    assert witness.violation.p_left > witness.violation.p_right
    _reverify_conjecture_witness(com, witness)  # raises on any defect
    assert stats.conditioning_pairs >= 1


def test_a_failing_partition_counts_its_upper_sets():
    # none: the witness is the min-cut upper set, which enumerates no upper
    # set, and verify mode's sweep only checks the verdict; both modes name
    # the same witness
    com = make_pmf(2, [((0, 0), F(1, 2)), ((1, 1), F(1, 2))])
    counts, witnesses = {}, {}
    for mode in ("fast", "verify"):
        witness, stats = _scan_conjecture_partition(
            (LawCache(com), (1,), (), (), (2,), default_caps(), mode))
        assert witness is not None
        counts[mode] = (stats.st_checks, stats.upper_sets)
        witnesses[mode] = witness
    assert counts == {"fast": (1, 0), "verify": (1, 0)}
    assert witnesses["verify"] == witnesses["fast"]
