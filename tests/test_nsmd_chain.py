"""The chain of one-coordinate maximum-weight closures that certifies NSMD
with no LP (docs/theory.md section 13): the closure kernel against brute
force, the chain against the LP decision, the verdicts against the
chain-free path, permutation laws as an oracle, the integer re-check of
every cut, the laws it certifies before any grid is built, and the one box
LP past the chain, whose duals certify an order that holds and which reads
none of the law's automorphisms."""

import dataclasses
import hashlib
import itertools
import json
import time
from itertools import combinations_with_replacement
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negdep import checks, make_pmf, permutation_distribution, supermodular
from negdep.cli import main
from negdep.distributions import integer_view, to_json_dict
from negdep.errors import InternalConsistencyError
from negdep.maxflow import first_fit, integer_max_flow
from negdep.simplex import OPTIMAL
from negdep.uppersets import enumerate_upper_index_sets, points_above, poset_covers

from .strategies import grid_laws
from .test_symmetry import XOR, _eight_player

F = Fraction


@st.composite
def weighted_posets(draw):
    """Distinct points of a small grid in lexicographic order, with integer
    weights of both signs."""
    dim = draw(st.integers(1, 3))
    points = sorted(draw(st.sets(st.tuples(*[st.integers(0, 2)] * dim), min_size=1,
                                 max_size=8)))
    weights = draw(st.lists(st.integers(-9, 9), min_size=len(points), max_size=len(points)))
    return points, weights


@settings(max_examples=200, deadline=None)
@given(weighted_posets())
def test_closure_excess_is_the_heaviest_upper_set(poset):
    points, weights = poset
    covers, _ = poset_covers(points)
    best = max(sum(weights[k] for k in idx) for idx in enumerate_upper_index_sets(points))
    assert supermodular.closure_excess(weights, covers) == best


def _signed_measure(d):
    view = integer_view(d)
    cells, products, mass = supermodular.independence_grid(view)
    lift = mass ** (d.dim - 1)
    return view, [p - lift * c for p, c in zip(products, cells)], lift * mass


@settings(max_examples=300, deadline=None)
@given(grid_laws())
def test_chain_is_sound_and_changes_no_verdict(d):
    view, r, scale = _signed_measure(d)
    if supermodular.closure_chain_holds(view):
        assert supermodular.decide_on_grid(view[2], r, scale) == (0, None, 1)
    with mock.patch.object(supermodular, "closure_chain_holds", return_value=False):
        want = checks.check_nsmd(d)
    assert repr(checks.check_nsmd(d)) == repr(want)


def _permutation_laws(max_points=81):
    """Permutation laws of 2 to 5 values, up to relabelling the values, whose
    support grids have at most ``max_points`` points."""
    for n in range(2, 6):
        for k in range(2, n + 1):
            if k ** n <= max_points:
                yield from (values for values in combinations_with_replacement(range(k), n)
                            if len(set(values)) == k)


@pytest.mark.parametrize("values", list(_permutation_laws()))
def test_permutation_laws_need_no_lp(values):
    # permutation laws are NA (Joag-Dev & Proschan 1983), and every NA law
    # passes each step of the chain
    d = permutation_distribution(list(values))
    with mock.patch.object(supermodular, "simplex_solve", side_effect=AssertionError("LP ran")):
        verdict = checks.check_nsmd(d)
    assert verdict.holds and verdict.definitive
    assert verdict.stats.conditioning_pairs == len(set(values)) ** len(values)


# the chain fails on both and the orthant screen passes, so the box LP decides:
# an exchangeable law on {0, 1, 2}^3, found by a seeded search, that is not
# NSMD though NOD holds (the box LP's maximizer is the witness), and one that
# is NSMD, though the chain's step at j = 4 fails (its duals certify it)
EXCHANGEABLE = make_pmf(3, [
    (x, F(w, 33))
    for cls, w in {(0, 0, 1): 1, (0, 0, 2): 1, (0, 2, 2): 5, (1, 1, 2): 2, (1, 2, 2): 2}.items()
    for x in sorted(set(itertools.permutations(cls)))])
_NSMD_PAST_THE_CHAIN = make_pmf(4, [((0, 1, 1, 0), F(1, 4)), ((0, 1, 1, 1), F(1, 20)),
                                    ((1, 0, 0, 1), F(1, 10)), ((1, 0, 1, 0), F(3, 10)),
                                    ((1, 1, 0, 0), F(3, 10))])


@pytest.mark.parametrize("d, holds", [(EXCHANGEABLE, False), (_NSMD_PAST_THE_CHAIN, True)],
                         ids=["not-nsmd", "nsmd"])
def test_a_failed_chain_falls_back_to_one_box_lp(d, holds):
    view, r, scale = _signed_measure(d)
    assert supermodular.orthant_screen(r, view[2]) is None
    assert not supermodular.closure_chain_holds(view)
    with mock.patch.object(supermodular, "simplex_solve",
                           wraps=supermodular.simplex_solve) as lp:
        verdict = checks.check_nsmd(d)
    assert verdict.holds == holds and lp.call_count == 1
    if not holds:
        checks.verify_witness(d, verdict)


def _recording(lps):
    solve = supermodular.simplex_solve

    def run(lp):
        result = solve(lp)
        lps.append((len(lp.constraints), lp.num_vars, result.status, result.objective))
        return result
    return run


def test_a_positive_box_lp_optimum_names_the_witness():
    lps = []
    with mock.patch.object(supermodular, "simplex_solve", _recording(lps)):
        verdict = checks.check_nsmd(EXCHANGEABLE)
    # the box LP on one variable per point of the 3^3 grid, with one row per
    # cell and one per point, and no other LP
    (rows, num_vars, status, optimum), = lps
    assert (rows, num_vars, status) == (36 + 27, 27, OPTIMAL) and optimum > 0
    assert not verdict.holds and verdict.witness.gap == F(6, 1331)
    checks.verify_witness(EXCHANGEABLE, verdict)


def test_an_order_past_the_chain_is_certified_by_one_lp():
    # the permutation law of 0..3 is NA, so with the chain bypassed the screen
    # passes and the box LP's duals must certify all 256 grid points
    lps = []
    start = time.perf_counter()
    with mock.patch.object(supermodular, "closure_chain_holds", return_value=False), \
            mock.patch.object(supermodular, "simplex_solve", _recording(lps)):
        verdict = checks.check_nsmd(permutation_distribution([0, 1, 2, 3]))
    assert time.perf_counter() - start < 5
    assert verdict.holds and verdict.definitive and verdict.stats.conditioning_pairs == 256
    assert [(num_vars, status, optimum) for _, num_vars, status, optimum in lps] == [
        (256, OPTIMAL, 0)]


@pytest.mark.parametrize("tamper, message", [
    (lambda duals: [0] * len(duals), "does not reproduce"),
    (lambda duals: [2 * v for v in duals], "does not reproduce"),
    (lambda duals: [-v for v in duals], "negative transfer coefficient"),
], ids=["zero", "doubled", "negated"])
def test_duals_that_do_not_certify_the_order_raise(tamper, message):
    solve = supermodular.simplex_solve

    def tampered(lp):
        result = solve(lp)
        return dataclasses.replace(result, duals=tuple(tamper(result.duals)))

    with mock.patch.object(supermodular, "simplex_solve", tampered):
        with pytest.raises(InternalConsistencyError, match=message):
            checks.check_nsmd(_NSMD_PAST_THE_CHAIN)


# the six laws of the `audit_small` benchmark workload (seeds 0-63 and
# 20261017) that reach the box LP, by seed: the atoms on {0, 1, 2}^3 with
# weights over one total, whether NSMD holds, and the sha256 of the
# `check_nsmd` verdict's repr as it was while the simplex still had a phase 1
_LP_AUDIT_LAWS = {
    "seed-0": (24, {(0, 0, 0): 1, (0, 1, 2): 8, (1, 0, 2): 6, (1, 1, 0): 9}, True,
               "27365e766ee1eb723b266f26d2be7331997e8d4aef6d505346a61f56e4769f86"),
    "seed-20": (38, {(0, 1, 1): 2, (0, 1, 2): 6, (0, 2, 0): 6, (0, 2, 2): 3, (1, 1, 1): 1,
                     (1, 2, 2): 2, (2, 1, 2): 9, (2, 2, 0): 9}, False,
                "b2a651d54509d4a2a8cfe4be9efcb493cde360fe4f00e19ca06328ed43d69e6c"),
    "seed-24": (34, {(0, 1, 0): 8, (0, 1, 2): 9, (1, 0, 1): 2, (1, 0, 2): 1, (1, 1, 1): 1,
                     (2, 0, 2): 5, (2, 1, 0): 8}, True,
                "1349b35bc72ac52ac86aa1e69768b9cb430ff7d35274a4554806580f11bf1cbf"),
    "seed-29": (40, {(0, 1, 1): 1, (0, 2, 2): 5, (1, 0, 2): 9, (1, 2, 1): 8, (1, 2, 2): 3,
                     (2, 0, 1): 5, (2, 1, 1): 4, (2, 2, 0): 5}, True,
                "63c43522b433497ab77acaba57f05ff3bb26bed2465da81d386acda55ff01b3c"),
    "seed-41": (51, {(0, 1, 2): 9, (0, 2, 1): 4, (1, 0, 2): 8, (1, 1, 0): 5, (1, 1, 2): 6,
                     (1, 2, 0): 5, (2, 0, 0): 4, (2, 0, 2): 7, (2, 1, 1): 3}, True,
                "63c43522b433497ab77acaba57f05ff3bb26bed2465da81d386acda55ff01b3c"),
    "seed-46": (19, {(0, 2, 2): 3, (1, 0, 2): 5, (1, 2, 0): 3, (2, 0, 0): 3, (2, 0, 2): 3,
                     (2, 2, 2): 2}, True,
                "c7e7f7670aa6d7a7798bfec12616f6c369ad268be617f9848639a24cbd46a200"),
}


@pytest.mark.parametrize("label", list(_LP_AUDIT_LAWS))
def test_audit_laws_that_reach_the_box_lp_keep_their_verdicts(label):
    total, weights, holds, digest = _LP_AUDIT_LAWS[label]
    d = make_pmf(3, [(x, F(w, total)) for x, w in weights.items()])
    with mock.patch.object(supermodular, "simplex_solve",
                           wraps=supermodular.simplex_solve) as lp:
        verdict = checks.check_nsmd(d)
    assert lp.call_count == 1 and verdict.holds == holds
    assert hashlib.sha256(repr(verdict).encode()).hexdigest() == digest


# -- NSMD reads none of the law's automorphisms ----------------------------------

# law -> (its builder, holds, gap, grid points, and the exit code and sha256
# of the report of `negdep check --props nsmd --jobs 1`)
NO_SYMMETRY_PINS = {
    "fixed-draw-128": (lambda: _eight_player("fixed"), True, 0, 65536, 0,
                       "39d90bcf66496c39e4ca622f2aa568d2b8080294fbcb1183cca4fd93264da8e5"),
    "random-draw-840": (lambda: _eight_player("random"), True, 0, 65536, 0,
                        "4661cef5aa9eba08a20c12cc8d01c9ae7105d8dff388482e4a3fa0a12a6f5828"),
    "xor": (lambda: XOR, False, F(1, 8), 16, 1,
            "f8524a76776dcf548a9d726269fd04c3ae46de6569089372c5a7deec5459da87"),
    "exchangeable": (lambda: EXCHANGEABLE, False, F(6, 1331), 27, 1,
                     "23768b1efaeb829ecc87401ce02120dd691deb6ea5ec39e3c53eaffa15534e68"),
    "diagonal-iiij": (lambda: make_pmf(4, [((i, i, i, j), F(1, 9))
                                           for i in range(3) for j in range(3)]),
                      False, F(10, 27), 81, 1,
                      "54a55cc34144a64e555ca82baf048cce19148a6ded500d48759c19e44b680116"),
}


@pytest.mark.parametrize("label", sorted(NO_SYMMETRY_PINS))
def test_nsmd_runs_no_generator_search(label, tmp_path, capsys, monkeypatch):
    build, holds, gap, points, code, digest = NO_SYMMETRY_PINS[label]
    d = build()
    path = tmp_path / "law.json"
    path.write_text(json.dumps(to_json_dict(d)))
    out = tmp_path / "report.json"
    monkeypatch.delenv("NEGDEP_CAPS", raising=False)
    with mock.patch.object(checks, "generators", side_effect=AssertionError("generators ran")):
        verdict = checks.check_nsmd(d)
        assert main(["check", str(path), "--props", "nsmd", "--jobs", "1", "-o", str(out)]) == code
    assert (verdict.holds, verdict.definitive, verdict.stats.conditioning_pairs) == (holds, True, points)
    assert (verdict.witness.gap if verdict.witness else 0) == gap
    if not holds:
        checks.verify_witness(d, verdict)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    capsys.readouterr()


# -- a chain-certified law builds no grid ---------------------------------------

# the TRUE laws: the two 8-player knockout laws and the four TRUE laws of the
# benchmark's NSMD ladder, with their grid-point counts
CHAIN_CERTIFIED = {
    "fixed-draw-128": (lambda: _eight_player("fixed"), 65536),
    "random-draw-840": (lambda: _eight_player("random"), 65536),
    "permutation-012": (lambda: permutation_distribution([0, 1, 2]), 27),
    "permutation-00011": (lambda: permutation_distribution([0, 0, 0, 1, 1]), 32),
    "permutation-0012": (lambda: permutation_distribution([0, 0, 1, 2]), 81),
    "permutation-0112": (lambda: permutation_distribution([0, 1, 1, 2]), 81),
}

# the sha256 of the verdict repr of each law the chain does not certify
PAST_THE_CHAIN = {
    "exchangeable": "b5fae335b0132c33bce15fb4f6984a5597f5750de53117e28c43c748c8f282ec",
    "diagonal-iiij": "6d748c5235f353dd9f04b6101945c9d9f19c39f042b2251ded50795925c81178",
}


def test_a_chain_certified_law_builds_no_grid():
    # the chain runs straight after the grid cap, so the laws it certifies
    # are TRUE before any grid is laid out; the rest go to ``decide_on_grid``
    with mock.patch.object(supermodular, "independence_grid",
                           side_effect=AssertionError("the grid was built")):
        for build, points in CHAIN_CERTIFIED.values():
            verdict = checks.check_nsmd(build())
            assert repr(verdict) == repr(checks.Verdict(
                "nsmd", True, None, checks.CheckStats(conditioning_pairs=points)))
    for label, digest in PAST_THE_CHAIN.items():
        with mock.patch.object(supermodular, "decide_on_grid",
                               wraps=supermodular.decide_on_grid) as grid:
            verdict = checks.check_nsmd(NO_SYMMETRY_PINS[label][0]())
        assert grid.call_count == 1
        assert hashlib.sha256(repr(verdict).encode()).hexdigest() == digest


# -- the integer re-check of each cut -------------------------------------------

def _tampered(how):
    def run(n, edges, src, dst):
        value, sent, side = integer_max_flow(n, edges, src, dst)
        sent = list(sent)
        if how == "over capacity":
            k = next(k for k, (u, _, _) in enumerate(edges) if u == src)
            sent[k] = edges[k][2] + 1
        elif how == "not conserved":
            k = next(k for k, (_, v, _) in enumerate(edges) if v == dst)
            sent[k] -= 1
        elif how == "wrong value":
            value += 1
        elif how == "cut not upward closed":
            side = [True] + [False] * (n - 1)
        elif how == "cut of the wrong weight":  # the source and the top point
            side = [k in (n - 3, n - 2) for k in range(n)]
        return value, sent, side
    return run


@pytest.mark.parametrize("how, message", [
    ("over capacity", "of capacity"),
    ("not conserved", "not conserved"),
    ("wrong value", "has value"),
    ("cut not upward closed", "not an upper set"),
    ("cut of the wrong weight", "does not weigh"),
])
def test_a_tampered_flow_raises(how, message):
    # (0, 1) cannot send upward to (1, 0), so first fit falls short and the
    # chain would run this cut; its top point (1, 0) is maximal
    points = [(0, 0), (0, 1), (1, 0)]
    weights = [1, 1, -2]
    up = points_above(points)
    assert not supermodular.upward_transport(weights, up, range(len(points)))
    covers, _ = poset_covers(points)
    assert supermodular.closure_excess(weights, covers) == 1
    with mock.patch.object(supermodular, "integer_max_flow", _tampered(how)):
        with pytest.raises(InternalConsistencyError, match=message):
            supermodular.closure_excess(weights, covers)


# -- the first-fit transport that certifies a step with no flow -------------------

def _chain_by_enumeration(view):
    """closure_chain_holds by brute force: every upper set of each prefix
    support, at every threshold, by direct summation."""
    weights, ranks, sizes = view
    total = sum(weights)
    for c in range(1, len(sizes)):
        points = sorted({rank[:c] for rank in ranks})
        for idx in enumerate_upper_index_sets(points):
            inside = {points[k] for k in idx}
            in_u = [rank[:c] in inside for rank in ranks]
            for t in range(sizes[c] - 1):
                above = sum(w for rank, w in zip(ranks, weights) if rank[c] > t)
                joint = sum(w for rank, w, u in zip(ranks, weights, in_u) if u and rank[c] > t)
                if joint * total > sum(w for w, u in zip(weights, in_u) if u) * above:
                    return False
    return True


@settings(max_examples=300, deadline=None)
@given(grid_laws())
def test_chain_matches_enumeration_of_every_upper_set(d):
    view = integer_view(d)
    assert supermodular.closure_chain_holds(view) == _chain_by_enumeration(view)


@pytest.mark.parametrize("law, holds", [
    (make_pmf(2, [((0, 2), F(1, 3)), ((1, 1), F(1, 3)), ((2, 0), F(1, 3))]), True),
    (make_pmf(2, [((0, 0), F(1, 2)), ((1, 1), F(1, 4)), ((1, 0), F(1, 4))]), False),
    (make_pmf(2, [((i, j), F(1, 4)) for i in range(2) for j in range(2)]), True),
], ids=["antitone", "comonotone", "independent"])
def test_the_first_step_is_decided_by_suffix_sums(law, holds):
    # in dimension 2 the chain has only the step over X_1, whose support is
    # a chain: no transport and no flow runs
    view = integer_view(law)
    with mock.patch.object(supermodular, "first_fit", side_effect=AssertionError("first fit")), \
            mock.patch.object(supermodular, "integer_max_flow", side_effect=AssertionError("flow")):
        assert supermodular.closure_chain_holds(view) == holds == _chain_by_enumeration(view)


@settings(max_examples=300, deadline=None)
@given(weighted_posets())
def test_a_complete_transport_leaves_no_upper_set_positive(poset):
    points, weights = poset
    weights[-1] -= sum(weights)
    up = points_above(points)
    order = sorted(range(len(points)), key=lambda a: up[a].bit_count())
    best = max(sum(weights[k] for k in idx) for idx in enumerate_upper_index_sets(points))
    if supermodular.upward_transport(weights, up, order):
        assert best == 0


def test_first_fit_certifies_the_ladder_and_the_fixed_draw_with_no_flow():
    with mock.patch.object(supermodular, "integer_max_flow",
                           side_effect=AssertionError("a max-flow ran")):
        for label in ("fixed-draw-128", "permutation-012", "permutation-00011",
                      "permutation-0012", "permutation-0112"):
            assert supermodular.closure_chain_holds(integer_view(CHAIN_CERTIFIED[label][0]())), label


def test_the_flow_fallback_certifies_where_first_fit_falls_short():
    with mock.patch.object(supermodular, "closure_excess",
                           wraps=supermodular.closure_excess) as cut:
        assert supermodular.closure_chain_holds(integer_view(_eight_player("random")))
    assert cut.call_count > 0


def _tampered_transport(how):
    def run(masks, supply, demand):
        routed = first_fit(masks, supply, demand)
        (k, b), f = next(iter(routed.items()))
        if how == "out of order":
            below = next(j for j in range(len(demand)) if not masks[k] >> j & 1)
            routed[k, below] = routed.pop((k, b))
        elif how == "row sum off":
            routed[k, b] = f + 1
        elif how == "not positive":
            routed[k, b] = 0
        return routed
    return run


@pytest.mark.parametrize("how, message", [
    ("out of order", "is not upward"),
    ("not positive", "is not upward"),
    ("row sum off", "sums differ"),
])
def test_a_tampered_transport_raises(how, message):
    with mock.patch.object(supermodular, "first_fit", _tampered_transport(how)):
        with pytest.raises(InternalConsistencyError, match=message):
            checks.check_nsmd(permutation_distribution([0, 1, 2]))
