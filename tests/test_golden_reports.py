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
from decimal import Decimal
from fractions import Fraction

import pytest

from negdep import (
    FixedDraw,
    RandomDraw,
    check_na,
    check_nlod,
    check_nrd,
    check_nrtd,
    check_nsmd,
    check_stoch_increasing,
    equal_strength,
    knockout_distribution,
    knockout_random_draw,
    make_pmf,
    pair_score_law,
    round_robin_distribution,
    round_robin_spec,
)
from negdep.checks import PROPERTIES, LawCache, _scan_conjecture_partition
from negdep.cli import main
from negdep.distributions import to_json_dict
from negdep.errors import Caps
from negdep.fixtures import dominance_spec, three_player_spec
from negdep.report import canonical_json, witness_json

from .test_nsmd_chain import EXCHANGEABLE
from .test_symmetry import _eight_player

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
        (1, "45859e22baf54fe28265b1ca27367844e480e8979e818c73fe93e8a446478021"),
    ("table1", "weak", "verify"):
        (1, "f58bff4f1c275f5b837b7ad3fb11b1d803802771defd5d6c232b23e1a655b2f9"),
    ("table1", "strict", "fast"):
        (1, "53391c4fd817e36c4e5270ef906efb47f02d013379e01125fefa4df357927345"),
    ("table1", "strict", "verify"):
        (1, "320dff2389c5ab670467ff97733e0f263a57408095629bc18f5323fa431e7978"),
    ("random_draw", "weak", "fast"):
        (0, "aeee3cde2f4bc1a6140b97c0d10bf36448a46435a487bf9cb8b8a23e97b28c58"),
    ("random_draw", "weak", "verify"):
        (0, "ded5f96f2f2c0193eb998e978d484309b199a7cd5c30b06d8a2b94e30b9906ca"),
    ("random_draw", "strict", "fast"):
        (0, "0c3e87c6fc18a01fd9b4b9ed93a6fc3ac9a6bcac206fbe129c2f4cc21a294a38"),
    ("random_draw", "strict", "verify"):
        (0, "a2a4eaffe04fbd187be5fade70e028c50e23bab7f616fc90e3b2f016b911e92c"),
    ("counterexample", "weak", "fast"):
        (1, "acab0c62906ab6b70a4546938c14a60ac1f55bde13b9c674299ca9f7f03d0f2a"),
    ("counterexample", "weak", "verify"):
        (1, "1acc4df5ca0df772923f5f0d9848c6375151a3c632cc652443b5a0435119a887"),
    ("counterexample", "strict", "fast"):
        (1, "a2b78fc39ea90807e5a35edec18beed594ff8220b06ca8acd10c4ae6ec6e3dce"),
    ("counterexample", "strict", "verify"):
        (1, "0544c4ff23a307827c83c5bf92859615b40a9b1e6bbbb48d0f0a4a1b43104a2e"),
    ("comonotone", "weak", "fast"):
        (1, "8d358e0b3d190aa0cd1604b6d3c2d1de84b5365ec7a8fd329f402b6f705cbf37"),
    ("comonotone", "weak", "verify"):
        (1, "71f00c1354d563897fd1be6e088601a9891cb2d47bd6137858709a47e9b5b00f"),
    ("comonotone", "strict", "fast"):
        (1, "01b0644f10d719bbe75d7c25c7dfc19aec9abb2adc874529fa24481fcfb3310a"),
    ("comonotone", "strict", "verify"):
        (1, "278f1d9d1ba88a2186f3b5c545c87aa1494736cbd0e6ddcd75537bb930b407f3"),
}

# draw -> (flags, exit code, sha256 of the `check` report): the 8-player
# laws and the commands of the benchmark's regression workload
EIGHT_PLAYER_DIGESTS = {
    "fixed": (["--props", "nrtd", "--max-j", "1"], 0,
              "c74b58c77c57801ed05c21eae3d4714b4c23d580765f209672ecfc0f5e22d513"),
    "random": (["--props", "nrd1"], 0,
               "9497e70ac257ec395f6aa7b9ed7d388e19a4f9f911714f4c4eb3d00f04907c0d"),
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
    "fast": (0, "da862f85d092e713d9102b6960d525c02861e89174d9048063f0c4e1d2d17d94"),
    "verify": (0, "83b3b0fef45f411574342a7380e4ae7ca666805d1878e6e04d508add9c6147f0"),
}

# (exit code, sha256) of the regression properties on the table-1 law with
# room for one upper set only; each witness is still the min cut's
CUT_DIGEST = (1, "d3a2e15ed9e86ae558daf7dff8c7b6b9c083670edb9b0f9ae02c3db46bb6db24")


def _five_player_round_robin():
    # every pair has total 2 and law {0: 1/4, 1: 1/2, 2: 1/4}; 3,081 atoms
    law = pair_score_law(2, [(0, F(1, 4)), (1, F(1, 2)), (2, F(1, 4))])
    return round_robin_spec(5, {(i, j): law for i in range(1, 6) for j in range(i + 1, 6)})


# law -> sha256 of canonical_json(to_json_dict(d)) for the law a builder
# makes: each fixture's law (thm-3.3 builds the law of thm-3.2), the
# 8-player random draw and a 5-player round robin
BUILT_LAWS = {
    "ex-2.1": (lambda: round_robin_distribution(three_player_spec()),
               "3c049cffb117293182632bd54da017d6e9519c9e98bb86854337dd534acac11b"),
    "ex-3.1": (lambda: knockout_distribution(dominance_spec(F(1), F(1), RandomDraw())),
               "5376c37de4cf0f9933d03028f2b7153e2f54f1db862bad8754d557ada9da537a"),
    "ex-3.2": (lambda: knockout_distribution(
                   dominance_spec(F(1, 2), F(1, 2), FixedDraw((1, 2, 3, 4)))),
               "b28122d76039d06ac99a0891df22dcd16480808744c603acbc6c1de1ba5a0eb9"),
    "ex-3.3": (lambda: knockout_distribution(equal_strength(2, FixedDraw((1, 2, 3, 4)))),
               "d1f7e614556d138813464ed69fab44a25123bd5d373ec2e606439b09ece1ace4"),
    "thm-3.1": (lambda: knockout_distribution(equal_strength(2, RandomDraw())),
                "c2581d81dc870f429528c4d676ace2ffc922c8afd80a2c4a577c3d4a53f19e9f"),
    "thm-3.2": (lambda: knockout_distribution(equal_strength(3, FixedDraw(tuple(range(1, 9))))),
                "72624d526f027e3f1478bc213c901f4f29bd1c3949a702a2bd941c61981e92e7"),
    "eight-player-random": (
        lambda: knockout_distribution(equal_strength(3, RandomDraw())),
        "4a15a9e942465e5cc4f6b8d476459b2066cf479b2389b8cc8eae976d960b84f9"),
    "five-player-round-robin": (
        lambda: round_robin_distribution(_five_player_round_robin()),
        "c5a77f194ad489da68f2135adf164f4249be384eed38456e3d13f80efd4d56d9"),
}


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


@pytest.mark.parametrize("law", sorted(BUILT_LAWS))
def test_built_law_bytes(law):
    build, digest = BUILT_LAWS[law]
    assert _sha(canonical_json(to_json_dict(build())).encode()) == digest


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


@pytest.mark.parametrize("draw", sorted(EIGHT_PLAYER_DIGESTS))
def test_eight_player_report_bytes(draw, tmp_path, no_env_caps):
    flags, code, digest = EIGHT_PLAYER_DIGESTS[draw]
    path = tmp_path / "law.json"
    path.write_text(json.dumps(to_json_dict(_eight_player(draw))))
    out = tmp_path / "report.json"
    assert main(["check", str(path), *flags, "--jobs", "1", "-o", str(out)]) == code
    assert _sha(out.read_bytes()) == digest


def _noncanonical(d) -> dict:
    """A file for d that no writer would produce: the first atom split in two
    entries at either end, the other atoms reversed, and each value over twice
    its denominator, as a decimal or, in a checkerboard, as a JSON int."""
    (x0, p0), *rest = d.atoms
    entries = [(x0, p0 / 4), *reversed(rest), (x0, 3 * p0 / 4)]

    def spell(q, bare=False):
        if q.denominator == 1 and bare:
            return q.numerator
        if 10 ** 6 % q.denominator == 0 and q.denominator > 1:
            return str(Decimal(q.numerator) / Decimal(q.denominator))
        return f"{2 * q.numerator}/{2 * q.denominator}"

    return {"dim": d.dim,
            "atoms": [{"x": [spell(v, (i + j) % 2) for j, v in enumerate(x)], "p": spell(p)}
                      for i, (x, p) in enumerate(entries)]}


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_noncanonical_file_report_bytes(jobs, request, tmp_path, no_env_caps):
    d = LAWS["table1"](request)
    got = []
    for name, obj in (("canonical", to_json_dict(d)), ("noncanonical", _noncanonical(d))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        out = tmp_path / f"{name}.report.json"
        code = main(["check", str(path), "--props", ALL_PROPS, "--jobs", jobs, "-o", str(out)])
        got.append((code, out.read_bytes()))
    assert got[1] == got[0]
    assert (got[1][0], _sha(got[1][1])) == CHECK_DIGESTS["table1", "weak", "fast"]


def test_cut_fallback_report_bytes(request, tmp_path, no_env_caps):
    path = tmp_path / "law.json"
    path.write_text(canonical_json(to_json_dict(request.getfixturevalue("table1"))))
    out = tmp_path / "report.json"
    code = main(["check", str(path), "--props", "nrd,nltd,nrtd,nrd1,nltd1,nrtd1",
                 "--caps", "upper_sets=1", "-o", str(out)])
    assert (code, _sha(out.read_bytes())) == CUT_DIGEST
    # the cap moves no witness: the report differs from the default-cap one
    # in its caps field only
    default = tmp_path / "default.json"
    assert main(["check", str(path), "--props", "nrd,nltd,nrtd,nrd1,nltd1,nrtd1",
                 "-o", str(default)]) == code
    got, want = json.loads(out.read_bytes()), json.loads(default.read_bytes())
    assert got.pop("caps")["upper_sets"] == 1
    want.pop("caps")
    assert got == want


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
