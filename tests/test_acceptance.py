"""Acceptance suite: one test per criterion, at its stated exact tolerance
and time budget, printing one pass line each. Run with `pytest -s
tests/test_acceptance.py` to see the lines as they complete."""

import itertools
import json
import random
import time
from fractions import Fraction

from negdep import (
    FixedDraw,
    RandomDraw,
    audit_implications,
    check_conjecture,
    check_nltd,
    check_nltd1,
    check_nod,
    check_nrd,
    check_nrd1,
    check_nrtd,
    check_nrtd1,
    check_nsmd,
    equal_strength,
    independent_copy,
    knockout_fixed_draw,
    knockout_random_draw,
    make_pmf,
    permutation_distribution,
    product,
    round_robin_distribution,
    st_leq_coupling,
    st_leq_uppersets,
    supermodular_leq,
    to_json_dict,
)
from negdep.checks import SAFE_IMPLICATIONS
from negdep.cli import main
from negdep.distributions import integer_view
from negdep.errors import Caps
from negdep.fixtures import dominance_spec, run_fixture, three_player_spec
from negdep.supermodular import closure_chain_holds, witness_expectations

F = Fraction


def _pass_line(number: int, label: str, start: float, budget_s: float) -> None:
    elapsed = time.monotonic() - start
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s, budget {budget_s}s"
    print(f"ACCEPTANCE {number} ({label}): PASS in {elapsed:.2f}s")


def _require(result):
    failed = [c for c in result.comparisons if not c["ok"]]
    assert not failed, f"{result.fixture}: {failed}"


def _random_distribution(rng, dim, max_atoms, values):
    pool = list(itertools.product(values, repeat=dim))
    count = rng.randint(1, min(max_atoms, len(pool)))
    support = rng.sample(pool, count)
    weights = [rng.randint(1, 9) for _ in support]
    total = sum(weights)
    return make_pmf(dim, [(v, F(w, total)) for v, w in zip(support, weights)])


def test_criterion_1_three_player_round_robin():
    start = time.monotonic()
    result = run_fixture("ex-2.1")
    _require(result)
    _pass_line(1, "three-player constant-sum values", start, 1.0)


def test_criterion_2_random_draw_counterexample():
    start = time.monotonic()
    result = run_fixture("ex-3.1")
    _require(result)
    _pass_line(2, "random-draw dominance example", start, 1.0)


def test_criterion_3_fixed_draw_counterexample():
    start = time.monotonic()
    result = run_fixture("ex-3.2")
    _require(result)
    _pass_line(3, "fixed-draw dominance example", start, 1.0)


def test_criterion_4_four_player_equal_strength_table():
    start = time.monotonic()
    result = run_fixture("ex-3.3")
    _require(result)
    _pass_line(4, "eight-row table and order chains", start, 5.0)


def test_criterion_5_random_draw_equal_strength():
    start = time.monotonic()
    result = run_fixture("thm-3.1")
    _require(result)

    d = knockout_random_draw(equal_strength(3, RandomDraw()))
    assert d == permutation_distribution([0, 0, 0, 0, 1, 1, 2, 3])
    assert check_nrd1(d).holds
    assert check_nltd1(d).holds
    assert check_nrtd1(d).holds
    _pass_line(5, "random-draw law at two and three rounds", start, 600.0)


def test_criterion_6_small_permutation_laws_exhaustive():
    start = time.monotonic()
    verdicts_by_multiset = {}
    checked = 0
    for length in (2, 3, 4):
        for values in itertools.product((0, 1, 2), repeat=length):
            key = tuple(sorted(values))
            if key not in verdicts_by_multiset:
                d = permutation_distribution(key)
                verdicts_by_multiset[key] = (
                    check_nrd(d).holds,
                    check_nltd(d).holds,
                    check_nrtd(d).holds,
                )
            assert verdicts_by_multiset[key] == (True, True, True), values
            checked += 1
    assert checked == 9 + 27 + 81
    _pass_line(6, "permutation laws pass all three, exhaustively", start, 120.0)


def test_criterion_7_eight_player_fixed_draw():
    start = time.monotonic()
    _require(run_fixture("thm-3.2"))
    _require(run_fixture("thm-3.3"))
    _pass_line(7, "eight-player association and right-tail checks", start, 600.0)


def test_criterion_8_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(20250810)
    values = [F(0), F(1), F(2), F(1, 2)]
    for trial in range(500):
        dim = rng.randint(1, 3)
        dX = _random_distribution(rng, dim, 6, values)
        dY = _random_distribution(rng, dim, 6, values)
        by_sets = st_leq_uppersets(dX, dY)
        by_flow = st_leq_coupling(dX, dY)
        assert by_sets.holds == by_flow.holds, (trial, dX, dY)
        if by_flow.holds:
            by_flow.coupling.validate(dX, dY)
        else:
            for verdict in (by_sets, by_flow):
                u = verdict.violation.upper_set
                p_left = sum((p for x, p in dX.atoms if u.contains(x)), F(0))
                p_right = sum((p for y, p in dY.atoms if u.contains(y)), F(0))
                assert p_left == verdict.violation.p_left
                assert p_right == verdict.violation.p_right
                assert p_left > p_right
    _pass_line(8, "stochastic-order oracles agree on 500 random pairs", start, 120.0)


def test_criterion_9_implication_audit():
    start = time.monotonic()
    rng = random.Random(97)
    checked = 0
    for _ in range(200):
        d = _random_distribution(rng, 3, 5, [F(0), F(1), F(2)])
        report = audit_implications(d)  # raises ImplicationViolation on any bug
        checked += report.implications_checked
    assert checked > 0

    fixture_laws = [
        ("round robin", round_robin_distribution(three_player_spec()), None, None),
        ("random dominance",
         knockout_random_draw(dominance_spec(F(1), F(1), RandomDraw())), None, None),
        ("table of eight", make_pmf(4, [
            ((0, 1, 0, 2), F(1, 8)), ((0, 1, 2, 0), F(1, 8)),
            ((0, 2, 1, 0), F(1, 8)), ((0, 2, 0, 1), F(1, 8)),
            ((1, 0, 0, 2), F(1, 8)), ((1, 0, 2, 0), F(1, 8)),
            ((2, 0, 1, 0), F(1, 8)), ((2, 0, 0, 1), F(1, 8)),
        ]), None, None),
        ("permutation of (0,0,1,2)", permutation_distribution([0, 0, 1, 2]), None, None),
        ("eight players, fixed draw",
         knockout_fixed_draw(equal_strength(3, FixedDraw(tuple(range(1, 9))))),
         1, Caps(max_lp_vars=10000)),
    ]
    for label, d, max_j, caps in fixture_laws:
        audit_implications(d, max_j=max_j, caps=caps)
    _pass_line(9, "safe implications never violated", start, 300.0)


def test_criterion_10_supermodular_kernel_sanity():
    start = time.monotonic()
    com = make_pmf(2, [((0, 0), F(1, 2)), ((1, 1), F(1, 2))])
    verdict = supermodular_leq(com, independent_copy(com))
    assert not verdict.holds
    left, right = witness_expectations(verdict.witness, com, independent_copy(com))
    assert left - right > 0

    coin = make_pmf(1, [((0,), F(1, 2)), ((1,), F(1, 2))])
    skew = make_pmf(1, [((0,), F(1, 3)), ((2,), F(2, 3))])
    three = make_pmf(1, [((0,), F(1, 4)), ((1,), F(1, 4)), ((5,), F(1, 2))])
    product_laws = [
        product(coin, coin),
        product(coin, skew),
        product(skew, three),
        product(coin, product(skew, three)),
    ]
    for d in product_laws:
        verdict = supermodular_leq(d, independent_copy(d))
        assert verdict.holds
        assert verdict.gap == 0
    _pass_line(10, "supermodular kernel sanity", start, 10.0)


def test_criterion_11_conjecture_exhaustive():
    start = time.monotonic()
    for values in ((1, 2, 3), (1, 2, 3, 4)):
        report = check_conjecture(values)
        assert report.holds_on_instance, report.witness
    _pass_line(11, "mixed-conditioning monotonicity instances", start, 600.0)


def test_criterion_12_random_draw_regression_is_definitive():
    # the paper's random-draw statement at 8 players with no block cap: the
    # law is exchangeable, so each block size is one orbit of cells
    start = time.monotonic()
    d = knockout_random_draw(equal_strength(3, RandomDraw()))
    nrd = check_nrd(d)
    assert nrd.holds and nrd.definitive and nrd.stats.cells == 254
    _pass_line(12, "random-draw NRD with no block cap", start, 5.0)
    start = time.monotonic()
    nrtd = check_nrtd(d)
    assert nrtd.holds and nrtd.definitive and nrtd.stats.cells == 254
    _pass_line(12, "random-draw NRTD with no block cap", start, 30.0)


def test_criterion_13_fixed_draw_right_tail_is_definitive():
    start = time.monotonic()
    d = knockout_fixed_draw(equal_strength(3, FixedDraw(tuple(range(1, 9)))))
    nrtd = check_nrtd(d)
    assert nrtd.holds and nrtd.definitive and nrtd.stats.cells == 254
    _pass_line(13, "fixed-draw NRTD with no block cap", start, 10.0)


def test_criterion_14_nsmd_on_exchangeable_grids():
    # each law is a permutation law, so NA, and the chain of one-coordinate
    # closures certifies NSMD with no LP
    for values, points, budget_s in [((0, 1, 2, 3), 256, 1.0),
                                     ((0, 0, 1, 1, 2, 2), 729, 2.0),
                                     ((0, 1, 2, 3, 4), 3125, 5.0)]:
        start = time.monotonic()
        verdict = check_nsmd(permutation_distribution(list(values)))
        assert verdict.holds and verdict.definitive
        assert verdict.stats.conditioning_pairs == points
        _pass_line(14, f"NSMD of the permutation law of {values}", start, budget_s)


def test_criterion_15_random_draw_left_tail_is_definitive():
    # with criterion 12, all three regression properties of the paper's
    # random-draw theorem are definitive at 8 players; each cell decides the
    # cover pairs of its labels on the orbits of its stabilizer
    start = time.monotonic()
    d = knockout_random_draw(equal_strength(3, RandomDraw()))
    nltd = check_nltd(d)
    assert nltd.holds and nltd.definitive and nltd.stats.cells == 254
    _pass_line(15, "random-draw NLTD with no block cap", start, 30.0)


def test_criterion_16_fixed_draw_strict_right_tail():
    # strict upper tails {X_J >= t} give many labels with equal events; the
    # comparable label pairs are still counted in full
    start = time.monotonic()
    d = knockout_fixed_draw(equal_strength(3, FixedDraw(tuple(range(1, 9)))))
    nrtd = check_nrtd(d, variant="strict")
    assert nrtd.holds and nrtd.definitive and nrtd.stats.cells == 254
    assert nrtd.stats.conditioning_pairs == 32_990_918
    _pass_line(16, "fixed-draw strict NRTD with no block cap", start, 5.0)


def test_criterion_17_five_player_round_robin_build(tmp_path):
    # 3^10 combinations of pair outcomes, but only 3,081 score vectors
    pair = {"r": "2", "law": [["0", "1/4"], ["1", "1/2"], ["2", "1/4"]]}
    spec = {"model": "round_robin", "n": 5,
            "pairs": [{"i": i, "j": j, **pair} for i, j in itertools.combinations(range(1, 6), 2)]}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    out = tmp_path / "law.json"
    start = time.monotonic()
    assert main(["build", str(tmp_path / "spec.json"), "-o", str(out)]) == 0
    law = json.loads(out.read_text())
    assert law["dim"] == 5 and len(law["atoms"]) == 3081
    _pass_line(17, "5-player round robin build", start, 3.0)


def test_criterion_18_nsmd_on_the_eight_player_laws(tmp_path, capsys):
    # both laws are NA, and the chain of one-coordinate closures certifies
    # NSMD on them with no grid and no LP
    laws = {
        "fixed draw": knockout_fixed_draw(equal_strength(3, FixedDraw(tuple(range(1, 9))))),
        "random draw": knockout_random_draw(equal_strength(3, RandomDraw())),
    }
    for label, d in laws.items():
        start = time.monotonic()
        verdict = check_nsmd(d)
        assert verdict.holds and verdict.definitive
        assert verdict.stats.conditioning_pairs == 65536
        report = audit_implications(d, max_j=1)
        nsmd = report.verdicts["nsmd"]
        assert nsmd.holds and nsmd.definitive and "nsmd" not in report.skipped
        assert report.verdicts["nod"].holds  # so the audit checked ("nsmd", "nod")
        assert report.implications_checked == sum(
            a in report.verdicts and b in report.verdicts
            and report.verdicts[a].holds and report.verdicts[a].definitive
            for a, b in SAFE_IMPLICATIONS)
        if label == "fixed draw":
            path = tmp_path / "law.json"
            path.write_text(json.dumps(to_json_dict(d)))
            assert main(["check", str(path), "--props", "nlod,nuod,nod,nsmd", "--jobs", "1",
                         "-o", str(tmp_path / "report.json")]) == 0
            capsys.readouterr()
        _pass_line(18, f"{label} NSMD, audit and check", start, 10.0)


def test_criterion_19_nod_on_one_corner_per_orbit():
    # the permutation law of 0..7 has 8! atoms and 8^8 corners on each side;
    # its group is S_8, so the walk visits at most the sorted corners, and it
    # builds no flat grid
    start = time.monotonic()
    verdict = check_nod(permutation_distribution(range(8)))
    assert verdict.holds and verdict.definitive
    assert verdict.stats.conditioning_pairs == 8 ** 8 + 9 ** 8
    _pass_line(19, "NOD of the permutation law of 0..7", start, 10.0)
    laws = {
        "fixed draw": lambda: knockout_fixed_draw(equal_strength(3, FixedDraw(tuple(range(1, 9))))),
        "random draw": lambda: knockout_random_draw(equal_strength(3, RandomDraw())),
    }
    for label, build in laws.items():
        start = time.monotonic()
        verdict = check_nod(build())
        assert verdict.holds and verdict.definitive
        _pass_line(19, f"{label} NOD", start, 1.0)


def test_criterion_20_nsmd_chain_on_the_sixteen_player_fixed_draw():
    # the paper's fixed draw at 16 players: 32,768 atoms. The closure chain
    # certifies NSMD on the integer view, where the support grid (5^16
    # points) is far past the grid cap. Budget: the chain took 1.6 s of
    # process time on 2 vCPU with CPython 3.11.7, so 6 s leaves room for a
    # loaded host; the build and the view are not timed
    view = integer_view(knockout_fixed_draw(equal_strength(4, FixedDraw(tuple(range(1, 17))))))
    assert len(view[0]) == 2 ** 15
    start = time.monotonic()
    assert closure_chain_holds(view)
    _pass_line(20, "NSMD chain of the 16-player fixed draw", start, 6.0)
