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

from .test_symmetry import EXCHANGEABLE, _eight_player

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
        (1, "db40d9c36e41275d7cab6b62276ac6043394a5dcbd5126dcfe81257a5da74ca8"),
    ("table1", "weak", "verify"):
        (1, "805776952e9fac31e253efbb597d97f136be5cd060363c38b91355939b00ea49"),
    ("table1", "strict", "fast"):
        (1, "99e9ac9943f699ad37af733b310e71fe0e10a4e3e6dae404d72b1327247f6696"),
    ("table1", "strict", "verify"):
        (1, "d98a2127946243c724ec8b7a64185878ce895d34a5a1a3897af6f79b0b12a704"),
    ("random_draw", "weak", "fast"):
        (0, "467f196910c97d2d12f0e7d9637f73fc1b25fb4d6c902824109d5919b978d356"),
    ("random_draw", "weak", "verify"):
        (0, "f3961c229eb1018751eb08160ae5be9f265da492fd4decdd75e94b646ac2e382"),
    ("random_draw", "strict", "fast"):
        (0, "9cc0902d51d2ceffbc943bb08f22b74b91d23de6193073ad686236f57811a8e4"),
    ("random_draw", "strict", "verify"):
        (0, "9f50a8bc486ed101d795dee4d5ee26826287ab87dc9d2e4d25b49cff946a4237"),
    ("counterexample", "weak", "fast"):
        (1, "93fc46d7c0ab432a27acaab1a7aacdff4599d81ae8f61c910d166a44ad7c85ab"),
    ("counterexample", "weak", "verify"):
        (1, "f019320f675a7d38f4971defbf5967f0414f67ba84f98f8e7face2bea3d78ea1"),
    ("counterexample", "strict", "fast"):
        (1, "4a6b8372117f4ce923f8233413650e01f30321d663dcda8f6a45e643e662cb20"),
    ("counterexample", "strict", "verify"):
        (1, "a609278a09231a709b63ffb62f69f6258bdac3237c3e8dc8410527b9309fac43"),
    ("comonotone", "weak", "fast"):
        (1, "4866f8ab57161c105b82218a8dede9090e6f2bd04a650da8f6723eaf2ab136a3"),
    ("comonotone", "weak", "verify"):
        (1, "5defcd5d58fa3fe5eb6a084a73e9a6fc019c0bd4607ffc32dd7e20e5320f1698"),
    ("comonotone", "strict", "fast"):
        (1, "f3c014badcc2034018fd31e884061cc6619592cfab260d4b6d8a420d831f9e48"),
    ("comonotone", "strict", "verify"):
        (1, "9c393c172297cbc60b2256a43f1ed18ee164a90990b93244e52acc4172d00964"),
}

# draw -> (flags, exit code, sha256 of the `check` report): the 8-player
# laws and the commands of the benchmark's regression workload
EIGHT_PLAYER_DIGESTS = {
    "fixed": (["--props", "nrtd", "--max-j", "1"], 0,
              "134b342a0fa153dcd7402d2d7a2e666f104fa0f299858fb465bc54d52ade975d"),
    "random": (["--props", "nrd1"], 0,
               "25b5c985958b2122a6ce0a92cd1b48288f304e18f390cbbcf7e3443940668621"),
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
    "fast": (0, "e593f13ac8d32915c7a22dbaa2a954817aa2a6c426a85e474685a2e3484b94ae"),
    "verify": (0, "06dfae75ca678198af1679c7540d3ab512facbf26202eb49140615fbcf6297b8"),
}

# (exit code, sha256) of the regression properties on the table-1 law with
# room for one upper set only, so each witness comes from the min cut
CUT_DIGEST = (1, "f48e65e7fe98878e0d07426a535430d0e253ec3e8a0cf26cc7d602d4b0df61e1")


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
