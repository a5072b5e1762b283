"""Coordinate automorphisms and orbit skipping: every verdict, witness, stat
and report byte is what the checkers give when every cell is scanned."""

import functools
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negdep import (
    FixedDraw,
    RandomDraw,
    audit_implications,
    check_conjecture,
    check_na,
    check_nltd,
    check_nrd,
    check_nrtd,
    equal_strength,
    knockout_fixed_draw,
    knockout_random_draw,
    knockout_spec,
    make_pmf,
    permutation_distribution,
    to_json_dict,
)
from negdep import checks, symmetry
from negdep.checks import LawCache, _subsets
from negdep.cli import main
from negdep.symmetry import generators, is_automorphism, orbit_leaders, stabilizer

from . import reference_symmetry
from .strategies import finite_distributions

F = Fraction


def _on_and_off(run):
    """``run`` as it is, then with a generator finder that finds nothing, so
    that every cell is scanned."""
    on = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checks, "generators", lambda view: [])
        off = run()
    return on, off


def _gens(d):
    work = LawCache(d)
    return generators(work.view)


def _law(view):
    """The view's ``rank tuple -> weight`` dict, as ``is_automorphism`` takes it."""
    weights, ranks, _ = view
    return dict(zip(ranks, weights))


def _inverse_positions(perm):
    """1-based coordinates for ``permute_coordinates``: the law of Y with
    Y[perm[a]] = X[a]."""
    inverse = [0] * len(perm)
    for a, b in enumerate(perm):
        inverse[b] = a + 1
    return inverse


def _group(gens, n):
    """Every element of the group the generators span."""
    identity = tuple(range(n))
    group = {identity}
    frontier = [identity]
    while frontier:
        g = frontier.pop()
        for s in gens:
            h = tuple(s[g[a]] for a in range(n))
            if h not in group:
                group.add(h)
                frontier.append(h)
    return group


# -- laws with planted symmetry ------------------------------------------------

_POOL = [F(0), F(1), F(2)]


@st.composite
def permutation_laws(draw):
    values = draw(st.lists(st.sampled_from([0, 1, 2]), min_size=2, max_size=4))
    return permutation_distribution(values)


@st.composite
def repeated_coordinate_laws(draw):
    """A 2-d law with some coordinates repeated: (Y1, Y2, Y1) and so on."""
    base = draw(finite_distributions(min_dim=2, max_dim=2, max_atoms=5, values=_POOL))
    pattern = draw(st.sampled_from([(1, 2, 1), (1, 1, 2), (2, 1, 2, 1), (1, 2, 2, 1)]))
    return make_pmf(len(pattern), [(tuple(x[p - 1] for p in pattern), w)
                                   for x, w in base.atoms])


@st.composite
def four_player_knockouts(draw):
    """Bradley-Terry strengths from a small pool, so that tied players make
    sibling swaps (fixed draw) or transpositions (random draw) automorphisms."""
    strengths = draw(st.lists(st.sampled_from([1, 2, 3]), min_size=4, max_size=4))
    matrix = [[F(0) if i == j else F(si, si + sj) for j, sj in enumerate(strengths)]
              for i, si in enumerate(strengths)]
    if draw(st.booleans()):
        return knockout_random_draw(knockout_spec(2, matrix, RandomDraw()))
    bracket = draw(st.permutations([1, 2, 3, 4]))
    return knockout_fixed_draw(knockout_spec(2, matrix, FixedDraw(tuple(bracket))))


symmetric_laws = st.one_of(permutation_laws(), repeated_coordinate_laws(),
                           four_player_knockouts())


# -- the generators ------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(symmetric_laws)
def test_every_generator_preserves_the_law(d):
    for perm in _gens(d):
        assert d.permute_coordinates(_inverse_positions(perm)) == d


@settings(max_examples=40, deadline=None)
@given(st.one_of(symmetric_laws,
                 finite_distributions(min_dim=2, max_dim=4, max_atoms=6, values=_POOL)))
def test_generators_span_the_whole_group(d):
    n = d.dim
    brute = {perm for perm in itertools.permutations(range(n))
             if d.permute_coordinates(_inverse_positions(perm)) == d}
    assert _group(_gens(d), n) == brute


@settings(max_examples=40, deadline=None)
@given(symmetric_laws)
def test_deeper_levels_span_the_stabilizer_of_each_prefix(d):
    # the generators that fix 0..k-1 are those found at levels k and deeper,
    # and they span the whole pointwise stabilizer of the prefix
    n = d.dim
    group = _group(_gens(d), n)
    for k in range(n + 1):
        fixing = {g for g in group if g[:k] == tuple(range(k))}
        assert _group(stabilizer(_gens(d), range(k)), n) == fixing


@settings(max_examples=20, deadline=None)
@given(st.one_of(permutation_laws(), repeated_coordinate_laws()))
def test_planted_symmetry_is_found(d):
    assert _gens(d)


# X4 = X1 xor X2 with X1, X2, X3 independent fair bits: every pair of
# coordinates is a pair of independent fair bits, so swapping X3 and X4 keeps
# every 1-D and 2-D marginal, but (X1, X2, X4) is not independent
XOR = make_pmf(4, [((a, b, c, a ^ b), F(1, 8)) for a in (0, 1) for b in (0, 1) for c in (0, 1)])


def test_exact_check_rejects_what_two_dimensional_pruning_passes():
    d = XOR
    swap = (0, 1, 3, 2)
    for a, c in itertools.permutations(range(4), 2):
        assert (d.marginal([a + 1, c + 1])
                == d.marginal([swap[a] + 1, swap[c] + 1]))
    work = LawCache(d)
    assert not is_automorphism(_law(work.view), work.view.axes, swap)
    # any two of X1, X2, X4 determine the third: the group is S_3 on them
    group = _group(generators(work.view), 4)
    assert len(group) == 6
    assert all(g[2] == 2 for g in group)


def test_exact_check_reads_the_value_tables():
    d = make_pmf(2, [((0, 5), F(1, 2)), ((1, 6), F(1, 2))])
    work = LawCache(d)
    assert not is_automorphism(_law(work.view), work.view.axes, (1, 0))
    assert generators(work.view) == []


def test_node_budget_keeps_the_generators_found_so_far():
    d = permutation_distribution([0, 1, 2, 3, 4])
    work = LawCache(d)
    full = generators(work.view)
    assert len(_group(full, 5)) == 120
    assert generators(work.view, budget=0) == []
    sizes = []
    for budget in range(1, 40):
        partial = generators(work.view, budget=budget)
        assert partial == full[:len(partial)]  # a prefix, so a subgroup
        assert all(is_automorphism(_law(work.view), work.view.axes, p) for p in partial)
        sizes.append(len(partial))
    assert sizes == sorted(sizes) and sizes[-1] == len(full)
    assert any(0 < size < len(full) for size in sizes)  # a proper subgroup


def test_a_generic_random_law_has_no_generators():
    rng = random.Random(20251019)
    support = list(itertools.product(range(3), repeat=3))
    weights = [rng.randint(1, 1000) for _ in support]
    d = make_pmf(3, [(x, F(w, sum(weights))) for x, w in zip(support, weights)])
    assert _gens(d) == []


def test_a_symmetric_group_yields_one_transposition_per_level():
    # transpositions of neighbours, found deepest level first
    d = permutation_distribution([0, 0, 1, 2, 3])
    assert _gens(d) == [(0, 1, 2, 4, 3), (0, 1, 3, 2, 4), (0, 2, 1, 3, 4), (1, 0, 2, 3, 4)]


# -- the search against the reference search -------------------------------------

@functools.cache
def _eight_player(draw):
    if draw == "fixed":
        return knockout_fixed_draw(equal_strength(3, FixedDraw(tuple(range(1, 9)))))
    return knockout_random_draw(equal_strength(3, RandomDraw()))


def _assert_reference_generators(d):
    view = LawCache(d).view
    assert generators(view) == reference_symmetry.generators(view, view.axes)
    for budget in range(41):
        assert (generators(view, budget)
                == reference_symmetry.generators(view, view.axes, budget)), budget


@settings(max_examples=60, deadline=None)
@given(st.one_of(symmetric_laws,
                 finite_distributions(min_dim=2, max_dim=4, max_atoms=6, values=_POOL)))
def test_generators_match_the_reference_at_every_budget(d):
    _assert_reference_generators(d)


@pytest.mark.parametrize("law", [
    lambda: XOR,
    lambda: permutation_distribution([0, 1, 2, 3, 4]),
    lambda: permutation_distribution([0, 0, 1, 2, 3]),
    lambda: permutation_distribution([0, 1, 1, 2]),
    lambda: _eight_player("fixed"),
    lambda: _eight_player("random"),
], ids=["xor", "perm-01234", "perm-00123", "perm-0112", "fixed-draw-8", "random-draw-8"])
def test_generators_match_the_reference_on_named_laws(law):
    _assert_reference_generators(law())


def _counted_search(monkeypatch, d):
    """The generators of d, how many 2-D tables and exact checks the search
    made to find them, and the maps it checked, in order."""
    counts = {"tables": 0, "checks": 0}
    checked = []

    def count_tables(*args, _call=symmetry._marginal_table):
        counts["tables"] += 1
        return _call(*args)

    def count_checks(law, axes, perm, _call=symmetry.is_automorphism):
        counts["checks"] += 1
        checked.append(tuple(perm))
        return _call(law, axes, perm)

    monkeypatch.setattr(symmetry, "_marginal_table", count_tables)
    monkeypatch.setattr(symmetry, "is_automorphism", count_checks)
    view = LawCache(d).view
    return generators(view), counts, checked


def test_the_random_draw_law_needs_no_table_search(monkeypatch):
    # the law is exchangeable: level i's first target, i + 1, is a
    # transposition, so each of the 7 levels makes one exact check and the
    # 2-D tables are never read
    gens, counts, _ = _counted_search(monkeypatch, _eight_player("random"))
    assert len(gens) == 7
    assert counts == {"tables": 0, "checks": 7}


def test_a_block_swap_still_walks_the_tables(monkeypatch):
    # the fixed draw's swaps of whole sub-brackets are not transpositions
    gens, counts, _ = _counted_search(monkeypatch, _eight_player("fixed"))
    assert len(_group(gens, 8)) == 128
    assert counts["tables"] > 0


def test_a_failed_probe_is_not_checked_again_at_its_leaf(monkeypatch):
    # on the XOR law the swap (2 3) passes every 2-D table, so the table
    # search reaches it as a leaf after the probe has rejected it
    _, _, checked = _counted_search(monkeypatch, XOR)
    assert (0, 1, 3, 2) in checked
    assert len(set(checked)) == len(checked)


# -- orbits ---------------------------------------------------------------------

def test_orbits_of_the_eight_player_fixed_draw():
    d = knockout_fixed_draw(equal_strength(3, FixedDraw(tuple(range(1, 9)))))
    gens = _gens(d)
    assert len(_group(gens, 8)) == 128
    counts = [len(set(orbit_leaders(gens, [(J,) for J in _subsets(range(1, 9), m)])))
              for m in (1, 2, 7)]
    assert counts == [1, 4, 19]


def test_leaders_are_the_earliest_members():
    gens = [(1, 0, 2), (0, 2, 1)]  # S_3
    cells = [(J,) for J in _subsets(range(1, 4))]
    assert orbit_leaders(gens, cells) == [0, 0, 0, 3, 3, 3, 6]
    assert orbit_leaders([], cells) is None


def test_an_unordered_pair_may_map_to_its_reverse():
    # the swap maps the pair ((1,), (2,)) to ((2,), (1,)), listed as ((1,), (2,))
    cells = [((1,), (2,)), ((1,), (3,)), ((2,), (3,))]
    assert orbit_leaders([(1, 0, 2)], cells) == [0, 1, 1]


def test_only_leaders_are_scanned(monkeypatch):
    scanned = []
    scan = checks._scan_regression_cell
    monkeypatch.setattr(checks, "_scan_regression_cell",
                        lambda args: scanned.append(args[1]) or scan(args))
    verdict = check_nrd(permutation_distribution([0, 1, 2, 3]))
    assert verdict.holds and verdict.stats.cells == 14
    assert scanned == [(1,), (1, 2), (1, 2, 3)]


# -- symmetry on against symmetry off -------------------------------------------

def _regression_runs(d, jobs):
    runs = [lambda: check_nrd(d, jobs=jobs)]
    for check in (check_nltd, check_nrtd):
        for variant in ("weak", "strict"):
            runs.append(lambda check=check, variant=variant: check(d, variant=variant,
                                                                   jobs=jobs))
            runs.append(lambda check=check, variant=variant: check(d, max_j=1,
                                                                   variant=variant,
                                                                   jobs=jobs))
    return runs


def _assert_same(d, jobs):
    runs = _regression_runs(d, jobs) + [
        lambda: check_na(d, jobs=jobs),
        lambda: check_na(d, max_block=1, jobs=jobs),
        lambda: audit_implications(d, jobs=jobs),
    ]
    for run in runs:
        on, off = _on_and_off(run)
        assert repr(on) == repr(off)


@settings(max_examples=60, deadline=None)
@given(symmetric_laws)
def test_symmetry_changes_no_verdict_witness_or_stat(d):
    _assert_same(d, jobs=1)


@settings(max_examples=4, deadline=None)
@given(symmetric_laws)
def test_symmetry_changes_nothing_with_two_jobs(d):
    _assert_same(d, jobs=2)


def test_symmetry_changes_nothing_on_the_xor_law():
    # merging the cells of X3 and X4 would hide NA's failure on (X4, (X1, X2))
    assert not check_na(XOR).holds
    _assert_same(XOR, jobs=1)


# X1 and X3 are copies, so every regression property fails; swapping them is
# the one symmetry
COPIES = make_pmf(3, [((0, 0, 0), F(1, 3)), ((1, 0, 1), F(1, 3)), ((1, 1, 1), F(1, 3))])


def test_first_witness_is_at_an_orbit_leader():
    d = COPIES
    assert _gens(d) == [(2, 1, 0)]
    for run in _regression_runs(d, 1):
        on, off = _on_and_off(run)
        assert repr(on) == repr(off)
        assert not on.holds
        checks.verify_witness(d, on)


@pytest.mark.parametrize("values", [(0, 1), (1, 2, 3), (0, 1, 1, 2)])
@pytest.mark.parametrize("jobs, st_mode", [(1, "fast"), (2, "fast"), (1, "verify")])
def test_conjecture_is_unchanged(values, jobs, st_mode):
    on, off = _on_and_off(lambda: check_conjecture(values, jobs=jobs, st_mode=st_mode))
    assert on == off


_REPORT_LAWS = {
    "fixed-draw-4": knockout_fixed_draw(equal_strength(2, FixedDraw((1, 2, 3, 4)))),
    "random-draw-4": knockout_random_draw(equal_strength(2, RandomDraw())),
    "permutation-0112": permutation_distribution([0, 1, 1, 2]),
    "xor": XOR,
    "copies": COPIES,
}


@pytest.mark.parametrize("label", sorted(_REPORT_LAWS))
@pytest.mark.parametrize("flags", [["--jobs", "1"], ["--jobs", "2", "--variant", "strict"],
                                   ["--jobs", "1", "--st-mode", "verify"]])
def test_check_reports_are_byte_identical(tmp_path, capsys, label, flags):
    path = tmp_path / "law.json"
    path.write_text(json.dumps(to_json_dict(_REPORT_LAWS[label])))
    props = "nlod,nuod,nod,na,nsmd,nrd,nltd,nrtd,nrd1,nltd1,nrtd1"

    def run():
        out = tmp_path / "report.json"
        code = main(["check", str(path), "--props", props, *flags, "-o", str(out)])
        return code, out.read_bytes()

    on, off = _on_and_off(run)
    assert on == off
    capsys.readouterr()
