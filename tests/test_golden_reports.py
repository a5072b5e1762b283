"""Pinned digests of canonical report bytes.

Each digest is the sha256 of the bytes a report or a serialized witness
has, with ``NEGDEP_CAPS`` cleared and no timings. Verdicts, witnesses,
stats and the JSON layout all feed into these bytes, so a refactor that is
meant to change none of them must leave every digest here as it is. A
change to a digest changes what users read and needs its reason recorded
in CHANGES.md.
"""

import hashlib
import json
from dataclasses import fields
from fractions import Fraction

import pytest

from negdep import (
    RandomDraw,
    check_na,
    check_nlod,
    check_nrd,
    check_nrtd,
    check_nsmd,
    check_stoch_increasing,
    equal_strength,
    knockout_random_draw,
    make_pmf,
)
from negdep.checks import PROPERTIES, LawCache, _scan_conjecture_partition
from negdep.cli import main
from negdep.distributions import to_json_dict
from negdep.errors import Caps
from negdep.report import canonical_json, witness_json

from .test_symmetry import EXCHANGEABLE

F = Fraction

ALL_PROPS = ",".join(PROPERTIES)


def _comonotone(dim):
    return make_pmf(dim, [((0,) * dim, F(1, 2)), ((1,) * dim, F(1, 2))])


LAWS = {
    "table1": lambda request: request.getfixturevalue("table1"),
    # the 4-player equal-strength random-draw law, 12 atoms
    "random_draw": lambda request: knockout_random_draw(equal_strength(2, RandomDraw())),
    # its 3-atom counterpart with deterministic match relations
    "counterexample": lambda request: request.getfixturevalue("random_draw_counterexample"),
    "comonotone": lambda request: _comonotone(2),
}

# (law, variant, st mode) -> (exit code, sha256 of the `check` report over
# every property)
CHECK_DIGESTS = {
    ("table1", "weak", "fast"):
        (1, "61fb2b1d7b65949be96c4e1bd38cb4db9551696ce07e4aff8ca612de7ce5bd7e"),
    ("table1", "weak", "verify"):
        (1, "63e08dfd48f3649af24c5e152a419e91bf25ad8abb2643515a3ad595a3f43ec7"),
    ("table1", "strict", "fast"):
        (1, "7bc4f057bde6af73c44c8b5d380e0bd05e61c89b777ce560a57b1dd842dceced"),
    ("table1", "strict", "verify"):
        (1, "4bcf96facdfa880c3e591fa456f0e70065a2ba762de86254b69e7dbd1247c965"),
    ("random_draw", "weak", "fast"):
        (0, "67c3937f39e7440227a73894ebaa8435fa1eb9be42123f722800084efa9e0040"),
    ("random_draw", "weak", "verify"):
        (0, "f676222d07f76d5a8eeb764d0c56ea686b0c3ec3ad03f05ea951f85c86b80fc6"),
    ("random_draw", "strict", "fast"):
        (0, "cb1fbd967e1873c0252fc971455f0c3eeeb4f6ee3d9cde2d2b4c5c3badbff651"),
    ("random_draw", "strict", "verify"):
        (0, "026b47577d0a684ba02a7d243cc5708c8514fbf219c9802506c18fd959a9b1cc"),
    ("counterexample", "weak", "fast"):
        (1, "46643aabf61bbf19a0697501ad76793878cdcd4122e8bcdb9406d09ea377cb06"),
    ("counterexample", "weak", "verify"):
        (1, "9b8a35e18fe145c4ac3bb7e0645e8ba96522f126f241efa360aaec62136a668d"),
    ("counterexample", "strict", "fast"):
        (1, "35732ec5c599a173bfcca6778cc7352095d9aa5fc2edc8b8a35e28ade8328ed8"),
    ("counterexample", "strict", "verify"):
        (1, "d100a1e198f80bdb5e852b33542b609510988872eb103395924949d2e4233ba7"),
    ("comonotone", "weak", "fast"):
        (1, "5709e8d21d6c1e9399e50c08160f80794015d0cf35d51417db5f584694f387e8"),
    ("comonotone", "weak", "verify"):
        (1, "96e81a5bd4a238ccf256581a0a0d35fca628c28deef889e3118a974e999a3e4d"),
    ("comonotone", "strict", "fast"):
        (1, "f3f64de79f59ebfe203425a23367486ff395e4d5736ba6aa5cc0ae79c797dffb"),
    ("comonotone", "strict", "verify"):
        (1, "71ccf6524846553277bc5c3518054e2b32e8404bd9f77b2073df3fc3a4072b88"),
}

# sha256 of canonical_json(witness_json(w)) for one witness of each type
WITNESS_DIGESTS = {
    "orthant": "6262d0d56994a1cc5e3a1de581d0a3aa548bc5e2f19862240cb68c1e092b5ef8",
    "association": "5d5079110d31b808b1b73d78b631e67caef25fd09e597076e15660fe1b9b6866",
    "supermodular": "8c588e510d6af1a258040e96c415d6739561a8e36f67abe95825f1159ea0b9a4",
    "supermodular-box": "b0a9ae759c10dff737957736503a50c16777f3c040dcd119fba7a004a06516fd",
    "regression-eq": "d546b15a083ae6f27aa00dfde867c24030aa194a6ed87678e63092724ade9bd1",
    "regression-upper": "81c5f3dfb1a56db62db9174312051289fe33282ea33df6755723966d41447796",
    "monotonicity": "ba69e4adfa005412f00c1badc2f692152b7c541dff814749076c8974c04e76bc",
    "conjecture-raised": "98301543df7c423090f0c8c7bd44d46de92f99b6420cd431f1aa73553a94f58d",
    "conjecture-mixed": "e0c0c7b71b7561ee0b3aa825a4203737bf30e8818e7043fb925c92eb5fd6c21a",
}

# st mode -> (exit code, sha256 of `conjecture --values 0,0,1,2`)
CONJECTURE_DIGESTS = {
    "fast": (0, "a2559827902d413085d98752e38344f4df0197ec0e5c4b8b7ca3678218ead7eb"),
    "verify": (0, "832bf6859422f2f332062284ee52d124feeeaacc2b37a625feb621d228837014"),
}

# (exit code, sha256) of the regression properties on the table-1 law with
# room for one upper set only, so each witness comes from the min cut
CUT_DIGEST = (1, "2dc7e4876d96cdccc740fed525426aa375463699501c68e654bae3c844ce899a")


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


@pytest.fixture
def no_env_caps(monkeypatch):
    monkeypatch.delenv("NEGDEP_CAPS", raising=False)


@pytest.mark.parametrize("law,variant,st_mode", sorted(CHECK_DIGESTS))
def test_check_report_bytes(law, variant, st_mode, request, tmp_path, no_env_caps):
    path = tmp_path / "law.json"
    path.write_text(canonical_json(to_json_dict(LAWS[law](request))))
    out = tmp_path / "report.json"
    code = main(["check", str(path), "--props", ALL_PROPS, "--variant", variant,
                 "--st-mode", st_mode, "-o", str(out)])
    assert (code, _sha(out.read_bytes())) == CHECK_DIGESTS[law, variant, st_mode]


def test_cut_fallback_report_bytes(request, tmp_path, no_env_caps):
    path = tmp_path / "law.json"
    path.write_text(canonical_json(to_json_dict(request.getfixturevalue("table1"))))
    out = tmp_path / "report.json"
    code = main(["check", str(path), "--props", "nrd,nltd,nrtd,nrd1,nltd1,nrtd1",
                 "--caps", "upper_sets=1", "-o", str(out)])
    assert (code, _sha(out.read_bytes())) == CUT_DIGEST


@pytest.mark.parametrize("st_mode", sorted(CONJECTURE_DIGESTS))
def test_conjecture_report_bytes(st_mode, tmp_path, no_env_caps):
    out = tmp_path / "report.json"
    code = main(["conjecture", "--values", "0,0,1,2", "--st-mode", st_mode, "-o", str(out)])
    assert (code, _sha(out.read_bytes())) == CONJECTURE_DIGESTS[st_mode]


def _witnesses(request):
    table1 = request.getfixturevalue("table1")
    counterexample = request.getfixturevalue("random_draw_counterexample")
    com2, com4 = _comonotone(2), _comonotone(4)
    # int parameter keys, which the report writes as strings
    family = {(0,): make_pmf(1, [((5,), F(1))]), (1,): make_pmf(1, [((0,), F(1))])}

    def partition(d, *blocks):
        return _scan_conjecture_partition((LawCache(d), *blocks, Caps(), "fast"))[0]

    return {
        "orthant": check_nlod(com2).witness,
        "association": check_na(com2).witness,
        "supermodular": check_nsmd(com2).witness,
        "supermodular-box": check_nsmd(EXCHANGEABLE).witness,
        "regression-eq": check_nrd(table1).witness,
        "regression-upper": check_nrtd(counterexample).witness,
        "monotonicity": check_stoch_increasing(family).witness,
        "conjecture-raised": partition(com2, (1,), (), (), (2,)),
        "conjecture-mixed": partition(com4, (1,), (2,), (3,), (4,)),
    }


def test_witness_bytes(request):
    got = {name: _sha(canonical_json(witness_json(w)).encode())
           for name, w in _witnesses(request).items()}
    assert got == WITNESS_DIGESTS


def test_witness_keys_are_field_names(request):
    # the report"s keys are the witness"s dataclass field names plus "type"
    from dataclasses import fields
    for w in _witnesses(request).values():
        blob = witness_json(w)
        assert set(blob) == {"type"} | {f.name for f in fields(w)}
        json.dumps(blob)
