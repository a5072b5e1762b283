import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import negdep
from negdep import (
    audit_implications,
    check_na,
    check_nltd,
    check_nrd,
    check_nrtd,
    check_nsmd,
    check_stoch_increasing,
    make_pmf,
    to_json_dict,
)
from negdep import checks
from negdep.checks import PROPERTIES, ConjectureReport, LawCache, _scan_conjecture_partition
from negdep.cli import main
from negdep.distributions import integer_view, parse_law
from negdep.errors import CAPS_ENV_VAR, Caps
from negdep.fixtures import run_fixture
from negdep.report import (
    build_check_report,
    build_conjecture_report,
    canonical_json,
    distribution_digest,
    verdict_json,
    witness_json,
)

from .conftest import TABLE1_ROWS
from .strategies import finite_distributions
from .test_golden_reports import _noncanonical

F = Fraction


@pytest.fixture()
def table1_file(tmp_path, table1):
    path = tmp_path / "table1.json"
    path.write_text(canonical_json(to_json_dict(table1)))
    return str(path)


@pytest.fixture()
def knockout_spec_file(tmp_path):
    spec = {
        "model": "knockout",
        "ell": 2,
        "win_prob": [["0", "1/2", "1/2", "1/2"],
                     ["1/2", "0", "1/2", "1/2"],
                     ["1/2", "1/2", "0", "1/2"],
                     ["1/2", "1/2", "1/2", "0"]],
        "draw": {"kind": "fixed", "bracket": [1, 2, 3, 4]},
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


class TestBuild:
    def test_build_knockout(self, knockout_spec_file, tmp_path, table1, capsys):
        out = tmp_path / "dist.json"
        assert main(["build", knockout_spec_file, "-o", str(out)]) == 0
        blob = json.loads(out.read_text())
        assert blob == to_json_dict(table1)
        assert "8 atoms" in capsys.readouterr().out

    def test_build_rejects_bad_spec(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"model": "swiss"}))
        assert main(["build", str(bad), "-o", str(tmp_path / "x.json")]) == 2

    def test_build_rejects_invalid_matrix(self, tmp_path):
        spec = {
            "model": "knockout", "ell": 1,
            "win_prob": [["0", "1/2"], ["1/3", "0"]],
            "draw": {"kind": "random"},
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["build", str(path), "-o", str(path) + ".out"]) == 2

    def test_build_single_round(self, tmp_path):
        spec = {
            "model": "knockout", "ell": 1,
            "win_prob": [["0", "1/2"], ["1/2", "0"]],
            "draw": {"kind": "random"},
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "dist.json"
        assert main(["build", str(path), "-o", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["atoms"]) == 2
        assert all(atom["p"] == "1/2" for atom in payload["atoms"])

    def test_build_round_robin(self, tmp_path, round_robin3, capsys):
        from negdep import model_spec_to_json
        from tests.conftest import three_player_round_robin_spec

        spec_path = tmp_path / "rr.json"
        spec_path.write_text(json.dumps(model_spec_to_json(three_player_round_robin_spec())))
        out = tmp_path / "rr_dist.json"
        assert main(["build", str(spec_path), "-o", str(out)]) == 0
        assert json.loads(out.read_text()) == to_json_dict(round_robin3)
        assert "18 atoms" in capsys.readouterr().out

    def test_build_then_check_pipeline(self, knockout_spec_file, tmp_path):
        dist = tmp_path / "dist.json"
        report = tmp_path / "report.json"
        assert main(["build", knockout_spec_file, "-o", str(dist)]) == 0
        code = main(["check", str(dist), "--props", "na,nod,nrtd",
                     "--jobs", "1", "-o", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        assert [c["holds"] for c in payload["checks"]] == [True, True, True]


class TestCheck:
    def test_holding_properties_exit_zero(self, table1_file):
        assert main(["check", table1_file, "--props", "na,nrtd", "--jobs", "1"]) == 0

    def test_failing_property_exit_one(self, table1_file, tmp_path):
        report_path = tmp_path / "report.json"
        code = main(["check", table1_file, "--props", "nrd",
                     "--jobs", "1", "-o", str(report_path)])
        assert code == 1
        payload = json.loads(report_path.read_text())
        check = payload["checks"][0]
        assert check["property"] == "nrd"
        assert check["holds"] is False
        w = check["witness"]
        assert w["given"] == [1]
        assert w["observed"] == [3]
        assert w["mean_low"] == ["3/4"]
        assert w["mean_high"] == ["1"]

    def test_malformed_file_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["check", str(bad), "--props", "na"]) == 2

    def test_unknown_property_exit_two(self, table1_file):
        assert main(["check", table1_file, "--props", "banana"]) == 2

    def test_univariate_law_exit_two_without_traceback(self, tmp_path, capsys):
        path = tmp_path / "coin.json"
        path.write_text(canonical_json(to_json_dict(make_pmf(1, [((0,), F(1, 2)),
                                                                 ((1,), F(1, 2))]))))
        assert main(["check", str(path), "--props", "nrd", "--jobs", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err and err.count("\n") == 1

    def test_boolean_dim_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps({"dim": True, "atoms": [{"x": ["0"], "p": "1"}]}))
        assert main(["check", str(path), "--props", "nod", "--jobs", "1"]) == 2
        assert "'dim' must be an integer" in capsys.readouterr().err

    def test_top_level_list_exit_two(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([{"dim": 1, "atoms": [{"x": ["0"], "p": "1"}]}]))
        assert main(["check", str(path), "--props", "nod", "--jobs", "1"]) == 2
        assert capsys.readouterr().err == ("error: distribution JSON must be an object with "
                                           "'dim' and 'atoms', got list\n")

    def test_short_vector_exit_two(self, tmp_path, capsys):
        atoms = [{"x": ["0", "0"], "p": "1/4"}, {"x": ["0", "1"], "p": "1/4"},
                 {"x": ["1"], "p": "1/2"}]
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"dim": 2, "atoms": atoms}))
        assert main(["check", str(path), "--props", "nod", "--jobs", "1"]) == 2
        assert capsys.readouterr().err == ('error: bad atom #2: vector ["1"] has length 1, '
                                           "expected 2\n")

    def test_cap_exceeded_exit_two(self, table1_file):
        code = main(["check", table1_file, "--props", "nsmd",
                     "--caps", "lp_vars=10", "--jobs", "1"])
        assert code == 2

    def test_reports_byte_identical_across_runs_and_jobs(self, table1_file, tmp_path):
        blobs = []
        for run, jobs in ((1, "1"), (2, "1"), (3, "2")):
            path = tmp_path / f"report{run}.json"
            main(["check", table1_file, "--props", "nrd,nltd,nrtd",
                  "--jobs", jobs, "-o", str(path)])
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    def test_default_jobs_start_no_pool(self, table1_file, tmp_path, monkeypatch):
        pooled = tmp_path / "pooled.json"
        props = "na,nrd,nltd,nrtd"
        assert main(["check", table1_file, "--props", props, "--jobs", "2",
                     "-o", str(pooled)]) == 1

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(checks, "ProcessPoolExecutor", no_pool)
        default = tmp_path / "default.json"
        assert main(["check", table1_file, "--props", props, "-o", str(default)]) == 1
        assert default.read_bytes() == pooled.read_bytes()

    def test_timing_flag_embeds_timing(self, table1_file, tmp_path):
        path = tmp_path / "report.json"
        main(["check", table1_file, "--props", "nod", "--timing",
              "--jobs", "1", "-o", str(path)])
        assert "timing_ms" in json.loads(path.read_text())


class TestPropertyRegistry:
    def test_cli_accepts_exactly_the_registry_names(self, tmp_path, capsys):
        path = tmp_path / "law.json"
        path.write_text(canonical_json(to_json_dict(make_pmf(
            2, [((0, 1), F(1, 2)), ((1, 0), F(1, 2))]))))
        for name in PROPERTIES:
            assert main(["check", str(path), "--props", name, "--jobs", "1"]) in (0, 1)
        for name in ("nrd2", "nmd", "property", "conjecture"):
            assert main(["check", str(path), "--props", name, "--jobs", "1"]) == 2
            assert f"unknown property {name!r}" in capsys.readouterr().err

    def test_audit_verdicts_follow_registry_order(self, table1):
        report = audit_implications(table1)
        assert list(report.verdicts) == list(PROPERTIES) == [
            "nlod", "nuod", "nod", "na", "nsmd", "nrd", "nltd", "nrtd",
            "nrd1", "nltd1", "nrtd1"]
        assert all(v.prop == name for name, v in report.verdicts.items())


_BAD_CAPS = ("foo", "upper_sets=abc", "upper_sets=0", "lp_vars=-3", "upper_sets=")
_CAPS_COMMANDS = (["reproduce", "ex-3.2"], ["conjecture", "-n", "2"])


class TestBadInputExitCodes:
    @pytest.mark.parametrize("caps", _BAD_CAPS)
    def test_bad_caps_flag_exit_two(self, caps, table1_file, capsys):
        for command in (["check", table1_file, "--props", "nod"], *_CAPS_COMMANDS):
            assert main([*command, "--caps", caps, "--jobs", "1"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: bad caps item")
            assert "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.parametrize("caps", _BAD_CAPS)
    def test_bad_caps_env_var_exit_two(self, caps, table1_file, capsys, monkeypatch):
        monkeypatch.setenv(CAPS_ENV_VAR, caps)
        for command in (["check", table1_file, "--props", "nod"], *_CAPS_COMMANDS):
            assert main([*command, "--jobs", "1"]) == 2
            assert capsys.readouterr().err.startswith("error: bad caps item")

    def test_cap_values_below_one_rejected(self):
        for text in ("upper_sets=0", "lp_vars=-1", "upper_sets=1,lp_vars=0"):
            with pytest.raises(ValueError, match="positive integer"):
                Caps().with_overrides(text)
        assert Caps().with_overrides("upper_sets=1, lp_vars=2") == Caps(1, 2)

    @pytest.mark.parametrize("max_j", ["0", "-1"])
    def test_max_j_below_one_exit_two(self, max_j, table1_file, capsys):
        for prop in ("na", "nrd", "nltd", "nrtd"):
            assert main(["check", table1_file, "--props", prop, "--max-j", max_j,
                         "--jobs", "1"]) == 2
            assert "must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("props", ["", ",", " , "])
    def test_empty_props_exit_two(self, props, table1_file, capsys):
        assert main(["check", table1_file, "--props", props, "--jobs", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_two(self, jobs, table1_file, capsys):
        for command in (["check", table1_file, "--props", "nod"], *_CAPS_COMMANDS):
            assert main([*command, "--jobs", jobs]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: --jobs must be at least 1")
            assert "Traceback" not in err and err.count("\n") == 1

    def test_block_caps_below_one_raise(self, table1):
        for check in (check_nrd, check_nltd, check_nrtd):
            with pytest.raises(ValueError, match="max_j"):
                check(table1, max_j=0)
        with pytest.raises(ValueError, match="max_block"):
            check_na(table1, max_block=0)


_MISSING = object()  # stands for an output path inside a directory that does not exist
_LAW = {"dim": 2, "atoms": [{"x": ["0", "1"], "p": "1/2"}, {"x": ["1", "0"], "p": "1/2"}]}
_KNOCKOUT = {"model": "knockout", "ell": 1, "win_prob": [["0", "1/2"], ["1/2", "0"]],
             "draw": {"kind": "fixed", "bracket": [1, 2]}}
_PAIR = {"i": 1, "j": 2, "r": "1", "law": [["0", "1/2"], ["1", "1/2"]]}


def _atom(x, p):
    return {"dim": 2, "atoms": [{"x": x, "p": p}]}


def _knockout(**fields):
    return {**_KNOCKOUT, **fields}


def _round_robin(n=2, **fields):
    return {"model": "round_robin", "n": n, "pairs": [{**_PAIR, **fields}]}


# each JSON object is written to a file and replaced by its path
_BAD_INPUTS = {
    "check-atoms-number": ["check", {"dim": 2, "atoms": 5}],
    "check-atoms-null": ["check", {"dim": 2, "atoms": None}],
    "check-zero-denominator": ["check", _atom(["0", "1"], "1/0")],
    "check-exponent": ["check", _atom(["1e999999999", "1"], "1")],
    "check-vector-string": ["check", _atom("01", "1")],
    "check-bool-atom": ["check", _atom([True, False], True)],
    "check-output-dir-missing": ["check", _LAW, "-o", _MISSING],
    "build-zero-denominator-win-prob": [
        "build", _knockout(win_prob=[["0", "1/0"], ["1/2", "0"]])],
    "build-zero-denominator-pair-prob": [
        "build", _round_robin(law=[["0", "1/0"], ["1", "1/2"]])],
    "build-exponent-win-prob": ["build", _knockout(win_prob=[["0", "1e-999999999"],
                                                             ["1/2", "0"]])],
    "build-exponent-pair-score": ["build", _round_robin(law=[["1e999999999", "1/2"],
                                                             ["1", "1/2"]])],
    "build-float-win-prob": ["build", _knockout(win_prob=[[0, 0.5], [0.5, 0]])],
    "build-bool-win-prob": ["build", _knockout(win_prob=[[False, True], [False, False]])],
    "build-bool-pair-score": ["build", _round_robin(law=[[False, "1/2"], [True, "1/2"]])],
    "build-bool-r": ["build", _round_robin(r=True)],
    "build-win-prob-number": ["build", _knockout(win_prob=5)],
    "build-bracket-number": ["build", _knockout(draw={"kind": "fixed", "bracket": 5})],
    "build-bracket-float": ["build", _knockout(draw={"kind": "fixed", "bracket": [1, 2.0]})],
    "build-ell-bool": ["build", _knockout(ell=True)],
    "build-n-float": ["build", _round_robin(n=2.7)],
    "build-i-bool": ["build", _round_robin(i=True)],
    "build-j-string": ["build", _round_robin(j="2")],
    "build-output-dir-missing": ["build", _KNOCKOUT, "-o", _MISSING],
    "reproduce-output-dir-missing": ["reproduce", "ex-3.2", "-o", _MISSING],
    "conjecture-zero-denominator": ["conjecture", "--values", "1/0,1"],
    "conjecture-exponent": ["conjecture", "--values", "1e999999999,1"],
    "conjecture-output-dir-missing": ["conjecture", "-n", "2", "-o", _MISSING],
}


class TestOneErrorLine:
    @pytest.mark.parametrize("name", list(_BAD_INPUTS))
    def test_bad_input_exits_two_with_one_error_line(self, name, tmp_path, capsys):
        argv = []
        for k, arg in enumerate(_BAD_INPUTS[name]):
            if arg is _MISSING:
                arg = str(tmp_path / "missing" / "out.json")
            elif isinstance(arg, dict):
                path = tmp_path / f"input{k}.json"
                path.write_text(json.dumps(arg))
                arg = str(path)
            argv.append(arg)
        if argv[0] == "build":
            if "-o" not in argv:
                argv += ["-o", str(tmp_path / "dist.json")]
        else:
            argv += ["--jobs", "1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_exponent_notation_exits_two_at_once(self, tmp_path, capsys):
        # this 20-byte law once ran for more than a minute: Fraction built
        # 10**999999999 before any check could refuse it
        path = tmp_path / "exponent.json"
        path.write_text('{"dim":2,"atoms":[{"x":["1e999999999","1"],"p":"1"}]}')
        start = time.perf_counter()
        assert main(["check", str(path), "--jobs", "1"]) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == (
            "error: bad atom #0: exponent notation is not an exact rational token: "
            "'1e999999999'\n")

    def test_huge_ell_is_a_size_error(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(_knockout(ell=20000)))
        assert main(["build", str(spec), "-o", str(tmp_path / "dist.json")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "win-probability matrix has 2 rows" in err

    def test_cap_in_check_keeps_the_partial_report(self, table1_file, tmp_path, capsys):
        path = tmp_path / "partial.json"
        assert main(["check", table1_file, "--props", "nod,na", "--caps", "upper_sets=2",
                     "--jobs", "1", "-o", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cap exceeded: ") and err.count("\n") == 1
        assert [c["property"] for c in json.loads(path.read_text())["checks"]] == ["nod"]

    def test_cap_in_reproduce_exits_two(self, capsys):
        assert main(["reproduce", "ex-3.3", "--caps", "upper_sets=1", "--jobs", "1"]) == 2
        assert capsys.readouterr().err.startswith("cap exceeded: ")


class TestReproduceCli:
    def test_single_fixture(self, tmp_path):
        path = tmp_path / "rep.json"
        assert main(["reproduce", "ex-3.2", "--jobs", "1", "-o", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["fixture"] == "ex-3.2"
        assert payload["passed"] is True
        assert all(c["ok"] for c in payload["comparisons"])

    def test_unknown_fixture(self):
        assert main(["reproduce", "nope"]) == 2

    def test_python_dash_m_keeps_the_exit_codes(self, tmp_path):
        # ``python -m negdep`` is the ``negdep`` command: 0 on a passing
        # fixture, 2 with one error line on a law file that is not there
        env = {k: v for k, v in os.environ.items() if k != CAPS_ENV_VAR}
        src = str(Path(negdep.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

        def run(*args):
            return subprocess.run([sys.executable, "-m", "negdep", *args], env=env,
                                  capture_output=True, text=True, timeout=120)

        passed = run("reproduce", "ex-2.1")
        assert (passed.returncode, passed.stdout.split(":")[0]) == (0, "ex-2.1")
        missing = run("check", str(tmp_path / "missing.json"))
        assert missing.returncode == 2
        assert missing.stderr.startswith("error: ") and missing.stderr.count("\n") == 1

    @pytest.mark.parametrize("fixture", ["lemma-3.1", "conjecture"])
    def test_fixture_passes(self, fixture):
        result = run_fixture(fixture, jobs=1)
        assert result.passed
        assert result.comparisons and all(c["ok"] for c in result.comparisons)


class TestConjectureCli:
    def test_holds(self, capsys):
        assert main(["conjecture", "-n", "3", "--jobs", "1"]) == 0
        assert "HOLDS-ON-INSTANCE" in capsys.readouterr().out

    def test_values_flag(self):
        assert main(["conjecture", "--values", "0,0,1", "--jobs", "1"]) == 0

    @pytest.mark.parametrize("values", ["", ",", " ,, "])
    def test_empty_values_exit_two(self, values, capsys):
        assert main(["conjecture", "--values", values, "--jobs", "1"]) == 2
        err = capsys.readouterr().err
        assert err == "error: need at least two values\n"

    def test_guard(self):
        assert main(["conjecture", "-n", "6", "--jobs", "1"]) == 2


# negative, integer and fractional values
_DIGEST_VALUES = [F(0), F(1), F(-1), F(12), F(-7), F(1, 2), F(-3, 4), F(5, 3)]

digest_laws = st.one_of(
    finite_distributions(min_dim=1, max_dim=5, max_atoms=8, values=_DIGEST_VALUES),
    finite_distributions(min_dim=1, max_dim=5, max_atoms=1, values=_DIGEST_VALUES))


def _canonical_digest(d) -> str:
    return "sha256:" + hashlib.sha256(canonical_json(to_json_dict(d)).encode()).hexdigest()


@settings(max_examples=150, deadline=None)
@given(digest_laws)
def test_digest_from_the_view_is_the_digest_of_the_canonical_text(d):
    assert distribution_digest(d, integer_view(d)) == _canonical_digest(d)
    assert distribution_digest(*parse_law(_noncanonical(d))) == _canonical_digest(d)


@settings(max_examples=25, deadline=None)
@given(finite_distributions(min_dim=2, max_dim=5, max_atoms=8, values=_DIGEST_VALUES))
def test_check_digests_the_canonical_text_of_a_noncanonical_file(tmp_path_factory, d):
    # atoms shuffled, split and spelled anew: one law, one digest
    path = tmp_path_factory.mktemp("law") / "law.json"
    path.write_text(json.dumps(_noncanonical(d)))
    out = path.with_suffix(".report.json")
    assert main(["check", str(path), "--props", "nlod", "-o", str(out)]) in (0, 1)
    assert json.loads(out.read_text())["input_digest"] == _canonical_digest(d)


class TestReportFormat:
    def test_digest_stable(self, table1):
        view = integer_view(table1)
        assert distribution_digest(table1, view) == distribution_digest(table1, view)
        assert distribution_digest(table1, view).startswith("sha256:")

    def test_round_trip(self, table1):
        verdicts = [check_nrd(table1), check_na(table1)]
        report = build_check_report(table1, verdicts, Caps(), {"props": "nrd,na"}, {},
                                    integer_view(table1))
        text = report.to_json()
        again = json.loads(text)
        assert again == report.payload
        assert canonical_json(again) == text

    def test_fraction_strings_reparse(self, table1):
        verdict = check_nltd(table1)
        blob = verdict_json(verdict)
        w = blob["witness"]
        assert F(w["mean_low"][0]) == verdict.witness.mean_low[0]
        assert F(w["mean_high"][0]) == verdict.witness.mean_high[0]
        assert F(w["violation"]["p_left"]) == verdict.witness.violation.p_left

    def test_association_witness_serializes(self, tmp_path):
        path = tmp_path / "comonotone.json"
        path.write_text(canonical_json(to_json_dict(make_pmf(
            2, [((0, 0), F(1, 2)), ((1, 1), F(1, 2))]))))
        report = tmp_path / "report.json"
        assert main(["check", str(path), "--props", "na", "--jobs", "1",
                     "-o", str(report)]) == 1
        w = json.loads(report.read_text())["checks"][0]["witness"]
        assert w["type"] == "association"
        assert (w["block1"], w["block2"]) == ([1], [2])
        assert F(w["p_joint"]) > F(w["p1"]) * F(w["p2"])
        assert w["upper1"]["minimal"] and w["upper2"]["minimal"]

    def test_monotonicity_witness_serializes(self):
        family = {(F(0),): make_pmf(1, [((5,), F(1))]), (F(1),): make_pmf(1, [((0,), F(1))])}
        blob = witness_json(check_stoch_increasing(family).witness)
        assert blob["type"] == "monotonicity"
        assert (blob["theta_low"], blob["theta_high"]) == (["0"], ["1"])
        assert F(blob["violation"]["p_left"]) > F(blob["violation"]["p_right"])

    def test_conjecture_witness_serializes(self):
        com = make_pmf(2, [((0, 0), F(1, 2)), ((1, 1), F(1, 2))])
        witness, stats = _scan_conjecture_partition(
            (LawCache(com), (1,), (), (), (2,), Caps(), "fast"))
        result = ConjectureReport((F(0), F(1)), False, witness, stats)
        report = build_conjecture_report(result, Caps(), {}, {})
        blob = json.loads(report.to_json())["witness"]
        assert blob == witness_json(witness)
        assert blob["type"] == "conjecture"
        assert (blob["raised"], blob["lowered"], blob["pinned"], blob["observed"]) == (
            [1], [], [], [2])
        assert blob["triple_low"]["pinned"] == blob["triple_high"]["pinned"] == []
        assert F(blob["violation"]["p_left"]) > F(blob["violation"]["p_right"])

    def test_supermodular_witness_serializes(self):
        com = make_pmf(2, [((0, 0), F(1, 2)), ((1, 1), F(1, 2))])
        verdict = check_nsmd(com)
        blob = witness_json(verdict.witness)
        assert blob["type"] == "supermodular"
        assert F(blob["gap"]) == verdict.witness.gap
        assert F(blob["left"]) > F(blob["right"])
