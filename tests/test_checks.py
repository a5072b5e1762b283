import os
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings

from negdep import (
    ImplicationViolation,
    audit_implications,
    check_na,
    check_nlod,
    check_nltd,
    check_nltd1,
    check_nod,
    check_nrd,
    check_nrd1,
    check_nrtd,
    check_nrtd1,
    check_nsmd,
    check_nuod,
    check_stoch_increasing,
    eq_event,
    equal_strength,
    knockout_fixed_draw,
    make_pmf,
    permutation_distribution,
    product,
    verify_witness,
)
from negdep import conditioning
from negdep.checks import CheckStats, _block_pairs, _run_cells, _subsets
from negdep.errors import Caps
from negdep.rationals import NEG_INF
from negdep.tournaments import FixedDraw

from .strategies import finite_distributions

F = Fraction


def comonotone():
    return make_pmf(2, [((0, 0), F(1, 2)), ((1, 1), F(1, 2))])


def coin():
    return make_pmf(1, [((0,), F(1, 2)), ((1,), F(1, 2))])


def _marking_scan(args):
    """A cell scan that leaves a marker file per cell it runs and finds a
    witness in cell ``hit`` only; the other cells take a while."""
    marker_dir, k, hit = args
    open(os.path.join(marker_dir, f"cell-{k}"), "w").close()
    if k == hit:
        return f"witness in cell {k}", CheckStats(cells=1, conditioning_pairs=3)
    time.sleep(0.05)
    return None, CheckStats(cells=1, conditioning_pairs=5)


class TestOrthant:
    def test_product_law_holds_with_equality(self):
        d = product(coin(), coin())
        assert check_nod(d).holds

    def test_table1_is_nod(self, table1):
        assert check_nod(table1).holds

    def test_comonotone_fails_lower_at_origin(self):
        verdict = check_nlod(comonotone())
        assert not verdict.holds
        assert verdict.witness.corner == (F(0), F(0))
        assert verdict.witness.joint == F(1, 2)
        assert verdict.witness.product == F(1, 4)
        verify_witness(comonotone(), verdict)

    def test_comonotone_fails_both_sides(self):
        assert not check_nuod(comonotone()).holds
        verdict = check_nod(comonotone())
        assert not verdict.holds
        verify_witness(comonotone(), verdict)

    def test_round_robin_is_nod(self, round_robin3):
        assert check_nod(round_robin3).holds

    def test_upper_witness_re_verifies(self):
        verdict = check_nuod(comonotone())
        assert not verdict.holds
        assert verdict.witness.side == "upper"
        verify_witness(comonotone(), verdict)

    @settings(max_examples=60, deadline=None)
    @given(finite_distributions(min_dim=2, max_dim=3, max_atoms=4,
                                values=[F(0), F(1), F(2)]))
    def test_orthant_scans_match_brute_force(self, d):
        from negdep import lower_event, upper_event
        from negdep.rationals import NEG_INF
        import itertools

        axes = d.support_grid()
        # brute-force lower side over every support corner
        expected_lower = True
        for corner in itertools.product(*axes):
            joint = d.mass_of(lower_event(range(1, d.dim + 1), corner))
            prod = F(1)
            for j in range(1, d.dim + 1):
                prod *= d.marginal([j]).mass_of(lower_event([1], [corner[j - 1]]))
            if joint > prod:
                expected_lower = False
        # brute-force upper side with the unconstrained sentinel
        expected_upper = True
        for corner in itertools.product(*(((NEG_INF,) + ax) for ax in axes)):
            joint = d.mass_of(upper_event(range(1, d.dim + 1), corner))
            prod = F(1)
            for j in range(1, d.dim + 1):
                prod *= d.marginal([j]).mass_of(upper_event([1], [corner[j - 1]]))
            if joint > prod:
                expected_upper = False

        lower = check_nlod(d)
        upper = check_nuod(d)
        assert lower.holds == expected_lower
        assert upper.holds == expected_upper
        for verdict in (lower, upper):
            if not verdict.holds:
                verify_witness(d, verdict)


class TestAssociation:
    def test_table1_is_na(self, table1):
        assert check_na(table1).holds

    def test_round_robin_is_na(self, round_robin3):
        assert check_na(round_robin3).holds

    def test_random_draw_counterexample_is_not_na(self, random_draw_counterexample):
        verdict = check_na(random_draw_counterexample)
        assert not verdict.holds
        verify_witness(random_draw_counterexample, verdict)

    def test_comonotone_is_not_na(self):
        verdict = check_na(comonotone())
        assert not verdict.holds
        verify_witness(comonotone(), verdict)

    def test_block_cap_marks_non_definitive(self, table1):
        verdict = check_na(table1, max_block=1)
        assert verdict.holds
        assert not verdict.definitive

    def test_jobs_reproduce_sequential_witness(self, random_draw_counterexample):
        seq = check_na(random_draw_counterexample, jobs=1)
        par = check_na(random_draw_counterexample, jobs=2)
        assert seq == par

    @pytest.mark.parametrize("n", range(2, 7))
    def test_block_pairs_are_built_once_in_size_lex_order(self, n):
        # A1 before A2 in (size, lex) order, disjoint, one tuple per (n, max_block)
        for max_block in (None, 1, 2, n - 1):
            subsets = _subsets(range(1, n + 1), max_block)
            expected = [(a1, a2) for k, a1 in enumerate(subsets) for a2 in subsets[k + 1:]
                        if not set(a1) & set(a2)]
            assert list(_block_pairs(n, max_block)) == expected
            assert _block_pairs(n, max_block) is _block_pairs(n, max_block)


class TestParallelCells:
    def test_pool_stops_after_first_witness(self, tmp_path):
        runs = {}
        for jobs in (1, 2):
            marker_dir = tmp_path / f"jobs-{jobs}"
            marker_dir.mkdir()
            cells = [(k, (str(marker_dir), k, 0)) for k in range(40)]
            runs[jobs] = (_run_cells(_marking_scan, cells, jobs), len(os.listdir(marker_dir)))
        (seq, seq_ran), (par, par_ran) = runs[1], runs[2]
        assert seq == par == ("witness in cell 0", CheckStats(cells=1, conditioning_pairs=3))
        assert seq_ran == 1
        assert par_ran < 40

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_kept_results_are_read_not_rescanned(self, tmp_path, jobs):
        def run(name, done):
            marker_dir = tmp_path / name
            marker_dir.mkdir()
            cells = [(k, (str(marker_dir), k, 5)) for k in range(12)]
            return _run_cells(_marking_scan, cells, jobs, done), sorted(os.listdir(marker_dir))

        uncached, _ = run("uncached", None)
        assert uncached == ("witness in cell 5", CheckStats(cells=6, conditioning_pairs=28))
        done = {1: (None, CheckStats(cells=1, conditioning_pairs=5)),
                5: ("witness in cell 5", CheckStats(cells=1, conditioning_pairs=3))}
        cached, ran = run("cached", done)
        # cells 1 and 5 are read, nothing after the kept witness runs, and
        # the sum is the uncached run's
        assert cached == uncached
        assert ran == ["cell-0", "cell-2", "cell-3", "cell-4"]
        assert sorted(done) == [0, 1, 2, 3, 4, 5]
        again, ran = run("again", done)
        assert again == uncached and ran == []


class TestSupermodularDependence:
    def test_table1(self, table1):
        assert check_nsmd(table1).holds

    def test_product_law(self):
        d = product(coin(), coin())
        assert check_nsmd(d).holds

    def test_comonotone_fails_with_sound_witness(self):
        verdict = check_nsmd(comonotone())
        assert not verdict.holds
        assert verdict.witness.left > verdict.witness.right
        verify_witness(comonotone(), verdict)


class TestRegressionFamily:
    def test_table1_nrd_false_with_pinned_witness(self, table1):
        verdict = check_nrd(table1)
        assert not verdict.holds
        w = verdict.witness
        assert w.given == (1,)
        assert w.observed == (3,)
        assert w.point_low == (F(0),)
        assert w.point_high == (F(1),)
        assert w.mean_low == (F(3, 4),)
        assert w.mean_high == (F(1),)
        verify_witness(table1, verdict)

    def test_table1_nltd_false_with_pinned_witness(self, table1):
        verdict = check_nltd(table1)
        assert not verdict.holds
        w = verdict.witness
        assert w.given == (1,)
        assert w.observed == (3,)
        assert (w.point_low, w.point_high) == ((F(0),), (F(1),))
        assert w.mean_low == (F(3, 4),)
        assert w.mean_high == (F(5, 6),)
        verify_witness(table1, verdict)

    def test_upper_set_cap_falls_back_to_the_min_cut_witness(self, table1, monkeypatch):
        # the witness is read off the coupling's min cut, so room for one
        # upper set only still names the default-cap witness
        cuts = []
        cut_violation = conditioning.cut_violation
        monkeypatch.setattr(conditioning, "cut_violation",
                            lambda *a: cuts.append(a) or cut_violation(*a))
        verdict = check_nrd(table1, caps=Caps(max_upper_sets=1))
        assert cuts
        assert not verdict.holds
        assert (verdict.witness.given, verdict.witness.observed) == ((1,), (3,))
        assert repr(verdict.witness) == repr(check_nrd(table1).witness)
        verify_witness(table1, verdict)

    def test_table1_nrtd_true(self, table1):
        assert check_nrtd(table1).holds

    def test_random_draw_counterexample(self, random_draw_counterexample):
        d = random_draw_counterexample
        nrd = check_nrd(d)
        assert not nrd.holds
        assert nrd.witness.given == (1,)
        assert nrd.witness.mean_low == (F(1, 2),)
        assert nrd.witness.mean_high == (F(2),)

        nltd = check_nltd(d)
        assert not nltd.holds
        assert nltd.witness.mean_low == (F(1, 2),)
        assert nltd.witness.mean_high == (F(1),)

        nrtd = check_nrtd(d)
        assert not nrtd.holds
        assert nrtd.witness.point_low == (NEG_INF,)
        assert nrtd.witness.mean_low == (F(1),)
        assert nrtd.witness.mean_high == (F(2),)
        for verdict in (nrd, nltd, nrtd):
            verify_witness(d, verdict)

    def test_fixed_draw_counterexample(self, fixed_draw_counterexample):
        d = fixed_draw_counterexample
        nrd = check_nrd(d)
        nltd = check_nltd(d)
        nrtd = check_nrtd(d)
        assert not nrd.holds and not nltd.holds and not nrtd.holds
        assert nrd.witness.mean_low == (F(1, 2),) and nrd.witness.mean_high == (F(1),)
        assert nltd.witness.mean_low == (F(1, 2),) and nltd.witness.mean_high == (F(3, 4),)
        assert nrtd.witness.mean_low == (F(3, 4),) and nrtd.witness.mean_high == (F(1),)
        # the single-coordinate variants already fail here
        assert not check_nrd1(d).holds
        assert not check_nltd1(d).holds
        assert not check_nrtd1(d).holds

    def test_round_robin_first_witnesses(self, round_robin3):
        # conditioning on the first score already breaks all three properties:
        # S1 = 1 forces the fair-coin pair to 1 and the 5-point pair to 0, so
        # [S2 | S1 = 1] is uniform on {0,2,5} while [S2 | S1 = 2] is uniform
        # on {1,3,6}, which strictly dominates
        nrd = check_nrd(round_robin3)
        assert not nrd.holds
        assert nrd.witness.given == (1,)
        assert nrd.witness.observed == (2,)
        assert (nrd.witness.point_low, nrd.witness.point_high) == ((F(1),), (F(2),))
        assert nrd.witness.mean_low == (F(7, 3),)
        assert nrd.witness.mean_high == (F(10, 3),)
        for verdict in (nrd, check_nltd(round_robin3), check_nrtd(round_robin3)):
            assert not verdict.holds
            verify_witness(round_robin3, verdict)

    def test_permutation_law_has_all_three(self):
        d = permutation_distribution([0, 0, 1, 2])
        assert check_nrd(d).holds
        assert check_nltd(d).holds
        assert check_nrtd(d).holds

    def test_product_law_single_coordinate_variants(self):
        d = product(coin(), product(coin(), coin()))
        assert check_nrd1(d).holds
        assert check_nltd1(d).holds
        assert check_nrtd1(d).holds

    def test_max_j_restriction_flags_definitive(self, table1):
        verdict = check_nrtd(table1, max_j=1)
        assert verdict.holds
        assert not verdict.definitive
        # a FALSE found under a cap is still definitive
        verdict = check_nrd(table1, max_j=1)
        assert not verdict.holds
        assert verdict.definitive

    def test_strictness_variants_agree_on_fixtures(self, table1, fixed_draw_counterexample):
        for d in (table1, fixed_draw_counterexample):
            assert check_nltd(d).holds == check_nltd(d, variant="strict").holds
            assert check_nrtd(d).holds == check_nrtd(d, variant="strict").holds

    def test_jobs_do_not_change_verdicts(self, table1):
        seq = check_nrd(table1, jobs=1)
        par = check_nrd(table1, jobs=2)
        assert seq == par

    def test_verify_mode_matches_fast_mode(self, table1):
        fast = check_nltd(table1, st_mode="fast")
        slow = check_nltd(table1, st_mode="verify")
        assert fast.holds == slow.holds
        assert fast.witness == slow.witness

    @settings(max_examples=40, deadline=None)
    @given(finite_distributions(min_dim=3, max_dim=3, max_atoms=6,
                                values=[F(0), F(1), F(2)]))
    def test_random_laws_same_verdict_in_both_st_modes(self, d):
        # upper_sets counts differ on purpose: only verify mode sweeps
        for check in (check_nrd, check_nltd, check_nrtd):
            fast = check(d, st_mode="fast")
            slow = check(d, st_mode="verify")
            assert (fast.holds, fast.witness) == (slow.holds, slow.witness)


class TestStochIncreasing:
    def test_constant_family(self, table1):
        family = {(F(0),): table1, (F(1),): table1}
        assert check_stoch_increasing(family).holds

    def test_point_mass_family(self):
        family = {
            (F(t),): make_pmf(1, [((t,), F(1))]) for t in (0, 1, 2)
        }
        assert check_stoch_increasing(family).holds

    def test_decreasing_family_fails(self):
        family = {
            (F(0),): make_pmf(1, [((5,), F(1))]),
            (F(1),): make_pmf(1, [((0,), F(1))]),
        }
        verdict = check_stoch_increasing(family)
        assert not verdict.holds
        assert verdict.witness.theta_low == (F(0),)

    def test_knockout_round_increments(self, table1_built):
        # for every block of players, the law of the second-round win
        # indicators on that block, conditioned on the block's first-round
        # scores, is stochastically increasing in those scores
        import itertools

        d = knockout_fixed_draw(equal_strength(2, FixedDraw((1, 2, 3, 4))))

        def round_indicators(x):
            first = tuple(1 if v >= 1 else 0 for v in x)
            second = tuple(1 if v == 2 else 0 for v in x)
            return first, second

        for size in (1, 2, 3, 4):
            for block in itertools.combinations((1, 2, 3, 4), size):
                laws: dict[tuple, dict] = {}
                for x, p in d.atoms:
                    first, second = round_indicators(x)
                    theta = tuple(F(first[j - 1]) for j in block)
                    obs = tuple(F(second[j - 1]) for j in block)
                    laws.setdefault(theta, {})
                    laws[theta][obs] = laws[theta].get(obs, F(0)) + p
                family = {}
                for theta, table in laws.items():
                    total = sum(table.values())
                    family[theta] = make_pmf(
                        len(block), [(v, p / total) for v, p in table.items()]
                    )
                assert check_stoch_increasing(family).holds, block


class TestAudit:
    def test_table1(self, table1):
        report = audit_implications(table1)
        holds = {name: v.holds for name, v in report.verdicts.items()}
        assert holds["na"] and holds["nsmd"] and holds["nrtd"] and holds["nod"]
        assert not holds["nrd"] and not holds["nltd"]
        assert report.implications_checked > 0
        assert not report.skipped

    def test_product_law_everything_holds(self):
        d = product(coin(), product(coin(), coin()))
        report = audit_implications(d)
        assert all(v.holds for v in report.verdicts.values())

    def test_counterexamples_audit_clean(self, random_draw_counterexample,
                                          fixed_draw_counterexample):
        for d in (random_draw_counterexample, fixed_draw_counterexample):
            audit_implications(d)  # raises ImplicationViolation on any bug

    @settings(max_examples=25, deadline=None)
    @given(finite_distributions(min_dim=3, max_dim=3, max_atoms=4,
                                values=[F(0), F(1), F(2)]))
    def test_random_laws_never_violate(self, d):
        audit_implications(d)


class TestNegationDualities:
    @settings(max_examples=25, deadline=None)
    @given(finite_distributions(min_dim=2, max_dim=2, max_atoms=4,
                                values=[F(0), F(1), F(2)]))
    def test_left_tail_is_right_tail_of_negation(self, d):
        assert check_nltd(d).holds == check_nrtd(d.negate()).holds

    @settings(max_examples=25, deadline=None)
    @given(finite_distributions(min_dim=2, max_dim=2, max_atoms=4,
                                values=[F(0), F(1), F(2)]))
    def test_regression_dependence_survives_negation(self, d):
        assert check_nrd(d).holds == check_nrd(d.negate()).holds


class TestDimGuard:
    def test_univariate_rejected(self):
        with pytest.raises(ValueError):
            check_nod(coin())
        with pytest.raises(ValueError):
            check_na(coin())
        with pytest.raises(ValueError):
            check_nrd(coin())
