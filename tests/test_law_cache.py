"""The per-law cache shared by the audit and ``negdep check``: each regression
cell and each orthant scan is decided once per law, and every verdict, witness
and report byte is what the checker gives when run on its own."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings

from negdep import checks, permutation_distribution, to_json_dict
from negdep.checks import audit_implications
from negdep.cli import main
from negdep.errors import EnumerationCapExceeded, GridTooLarge
from negdep.report import canonical_json

from .strategies import finite_distributions

F = Fraction

# each property run on its own, as the audit runs it: max_j None, weak variant
_ALONE = {
    "nlod": lambda d, jobs: checks.check_nlod(d),
    "nuod": lambda d, jobs: checks.check_nuod(d),
    "nod": lambda d, jobs: checks.check_nod(d),
    "na": lambda d, jobs: checks.check_na(d, jobs=jobs),
    "nsmd": lambda d, jobs: checks.check_nsmd(d),
    "nrd": lambda d, jobs: checks.check_nrd(d, jobs=jobs),
    "nltd": lambda d, jobs: checks.check_nltd(d, jobs=jobs),
    "nrtd": lambda d, jobs: checks.check_nrtd(d, jobs=jobs),
    "nrd1": lambda d, jobs: checks.check_nrd1(d, jobs=jobs),
    "nltd1": lambda d, jobs: checks.check_nltd1(d, jobs=jobs),
    "nrtd1": lambda d, jobs: checks.check_nrtd1(d, jobs=jobs),
}


def _assert_audit_matches_checkers(d, jobs):
    report = audit_implications(d, jobs=jobs)
    assert list(_ALONE) == list(checks.PROPERTIES)
    for name in checks.PROPERTIES:
        if name in report.skipped:
            with pytest.raises((EnumerationCapExceeded, GridTooLarge)):
                _ALONE[name](d, jobs)
            continue
        assert repr(report.verdicts[name]) == repr(_ALONE[name](d, jobs)), name


_SMALL_VALUES = [F(0), F(1), F(2)]


@settings(max_examples=100, deadline=None)
@given(finite_distributions(min_dim=2, max_dim=4, max_atoms=6, values=_SMALL_VALUES))
def test_audit_matches_each_checker_alone(d):
    _assert_audit_matches_checkers(d, jobs=1)


@settings(max_examples=10, deadline=None)
@given(finite_distributions(min_dim=2, max_dim=4, max_atoms=6, values=_SMALL_VALUES))
def test_audit_matches_each_checker_alone_with_two_jobs(d):
    _assert_audit_matches_checkers(d, jobs=2)


def _counting_scan(monkeypatch):
    """Record (J, kind, variant) of every regression cell scanned."""
    scanned = []
    scan = checks._scan_regression_cell

    def counting(args):
        scanned.append(tuple(args[-5:-2]))  # (J, kind, variant), then caps and st mode
        return scan(args)

    monkeypatch.setattr(checks, "_scan_regression_cell", counting)
    return scanned


@pytest.mark.parametrize("law", ["table1", "random_draw_counterexample", "perm-0112"])
def test_audit_scans_each_regression_cell_once(monkeypatch, law, request):
    d = (permutation_distribution([0, 1, 1, 2]) if law == "perm-0112"
         else request.getfixturevalue(law))
    scanned = _counting_scan(monkeypatch)
    audit_implications(d, jobs=1)
    assert scanned
    assert len(scanned) == len(set(scanned))


@pytest.mark.parametrize("law", ["table1", "random_draw_counterexample", "perm-0112"])
def test_audit_packs_each_block_once(monkeypatch, law, request):
    # a block's packed rank keys depend on the law alone, so the cells of one
    # audit share them: one rank packing per distinct block
    d = (permutation_distribution([0, 1, 1, 2]) if law == "perm-0112"
         else request.getfixturevalue(law))
    packings, asked = [], []
    packing, packed_keys = checks.RankPacking, checks.LawCache.packed_keys
    monkeypatch.setattr(checks, "RankPacking", lambda sizes: packings.append(sizes) or packing(sizes))
    monkeypatch.setattr(checks.LawCache, "packed_keys",
                        lambda self, block: asked.append(block) or packed_keys(self, block))
    audit_implications(d, jobs=1)
    assert len(packings) == len(set(asked)) < len(asked)


def test_check_command_scans_each_size_one_cell_once(monkeypatch, tmp_path, table1):
    scanned = _counting_scan(monkeypatch)
    path = tmp_path / "law.json"
    path.write_text(canonical_json(to_json_dict(table1)))
    assert main(["check", str(path), "--props", "nrd1,nrd", "--jobs", "1"]) in (0, 1)
    assert scanned
    assert len(scanned) == len(set(scanned))
    # NRD1 fails on the first cell, where NRD's run stops too
    assert scanned == [((1,), "eq", "weak")]


def _checks_of(path, props, variant, jobs):
    report = path.parent / f"{props}-{variant}-{jobs}.json"
    code = main(["check", str(path), "--props", props, "--variant", variant,
                 "--jobs", jobs, "-o", str(report)])
    payload = json.loads(report.read_text())
    return code, [canonical_json(c) for c in payload.pop("checks")], payload


@pytest.mark.parametrize("props,variant", [
    ("nrd1,nrd", "weak"), ("nrd,nrd1", "weak"),
    ("nltd,nltd1", "strict"), ("nltd1,nltd", "strict"), ("nod,nlod,nuod", "weak"),
])
@pytest.mark.parametrize("law", ["table1", "random_draw_counterexample"])
def test_combined_props_report_what_separate_runs_report(props, variant, law, tmp_path,
                                                         request):
    path = tmp_path / "law.json"
    path.write_text(canonical_json(to_json_dict(request.getfixturevalue(law))))
    code, combined, rest = _checks_of(path, props, variant, "2")
    separate = [_checks_of(path, prop, variant, "1") for prop in props.split(",")]
    assert combined == [check for _, (check,), _ in separate]
    assert code == max(c for c, _, _ in separate)
    assert rest["input_digest"] == separate[0][2]["input_digest"]
