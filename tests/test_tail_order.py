"""The one-coordinate tail-sum kernel against the coupling network, and the
marginal refutation of multi-coordinate orders (docs/theory.md section 14):
equal verdicts and equal deficient sets, the witness a refuted order names,
and no max-flow run for an order a marginal decides."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from negdep import check_nrd, conditioning, make_pmf, stochorder
from negdep.checks import LawCache, _scan_conjecture_partition, _subsets
from negdep.conditioning import CellContext, label_masks
from negdep.errors import default_caps
from negdep.stochorder import (
    IntegerLaw,
    RankPacking,
    SupportUnion,
    integer_coupling,
    tail_order,
)

from . import reference_conditioning as ref
from .strategies import finite_distributions

F = Fraction
RANKS = 5


@st.composite
def one_axis_laws(draw):
    """An integer law on a few of the ranks 0..RANKS-1, weights 1-4."""
    keys = draw(st.lists(st.integers(0, RANKS - 1), min_size=1, max_size=RANKS,
                         unique=True))
    weights = draw(st.lists(st.integers(1, 4), min_size=len(keys), max_size=len(keys)))
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return IntegerLaw(tuple(keys[k] for k in order), tuple(weights[k] for k in order),
                      sum(weights))


def _law(atoms: dict[int, int]) -> IntegerLaw:
    keys = sorted(atoms)
    return IntegerLaw(tuple(keys), tuple(atoms[k] for k in keys), sum(atoms.values()))


@settings(max_examples=400, deadline=None)
@given(one_axis_laws(), one_axis_laws())
@example(_law({1: 1, 3: 1}), _law({0: 1, 2: 1}))  # disjoint, excess 2 at ranks 1 and 3
@example(_law({4: 1}), _law({0: 2}))              # X wholly above Y
@example(_law({0: 1, 4: 1}), _law({2: 1}))        # excess 0 at rank 0 ties the empty cut
@example(_law({2: 3}), _law({2: 1}))              # one point each, equal
def test_tail_sums_name_the_coupling_networks_minimal_cut(lx, ly):
    flows, deficient = integer_coupling(lx, ly, RankPacking([RANKS]).guards)
    got = tail_order(lx, ly)
    assert (got is None) == (flows is not None)
    assert got == deficient


def test_a_tied_excess_takes_the_largest_threshold():
    # X = {1, 3} and Y = {0, 2}, uniform: the tails at 1 and at 3 both
    # exceed Y's by 1/2, and the minimal cut is the smaller one
    assert tail_order(_law({1: 1, 3: 1}), _law({0: 1, 2: 1})) == [1]
    assert tail_order(_law({0: 1, 2: 1}), _law({1: 1, 3: 1})) is None


@settings(max_examples=60, deadline=None)
@given(finite_distributions(min_dim=3, max_dim=3, max_atoms=6), st.sampled_from(["fast", "verify"]))
def test_a_block_is_decided_as_its_coupling_decides_it(d, st_mode):
    # every ordered pair of NRD labels at J = (1,), on every observed block:
    # the verdict is the coupling's, and a failing order names the cut of
    # the coupling network, whether a marginal refuted it or not
    ctx = CellContext(LawCache(d), (1,), default_caps(), st_mode)
    masks = [m for _, m in label_masks(ctx.work.view, (), [0], sentinel=False)]
    for mask_lo in masks:
        for mask_hi in masks:
            for block in _subsets(ctx.i_max):
                hi, lo = ctx.int_law(mask_hi, block), ctx.int_law(mask_lo, block)
                flows, deficient = integer_coupling(hi, lo, ctx.block(block)[0])
                assert ctx.decide(mask_lo, mask_hi, block) == (flows is not None)
                if deficient is not None:
                    u, violation = ctx.witness(mask_lo, mask_hi, block)
                    keys = ctx.union(mask_hi, mask_lo, block)[1]
                    assert violation == stochorder.cut_violation(
                        u, keys, ctx.block(block)[0], [hi.keys[i] for i in deficient])


# the sorted columns of test_conditioning's dependent law: raising X1 pushes
# X2 up, so the partition's first pair fails on the marginal of X2
_DEPENDENT = make_pmf(3, [((F(-1), F(0), F(1, 3)), F(1, 4)), ((F(0), F(0), F(1)), F(1, 4)),
                          ((F(1), F(5, 2), F(1)), F(1, 2))])


def test_a_conjecture_witness_refuted_on_a_marginal_is_the_coupling_cut(monkeypatch):
    kept = []
    witness = CellContext.witness

    def spy(self, mask_lo, mask_hi, block):
        kept.append((block, mask_lo, mask_hi) in self.cuts)
        return witness(self, mask_lo, mask_hi, block)

    monkeypatch.setattr(CellContext, "witness", spy)
    args = (_DEPENDENT, (1,), (), (), (2, 3), default_caps(), "fast")
    got, stats = _scan_conjecture_partition((LawCache(_DEPENDENT),) + args[1:])
    assert kept == [False]  # no cut kept: the witness ran the coupling
    assert repr((got, stats)) == repr(ref._scan_conjecture_partition(args))
    assert (got.triple_low, got.triple_high) == (((F(-1),), (), ()), ((F(0),), (), ()))
    assert got.violation.upper_set.points == ((F(0), F(1)), (F(5, 2), F(1)))
    assert got.violation.upper_set.minimal == ((F(0), F(1)),)
    assert (got.violation.p_left, got.violation.p_right) == (F(1), F(3, 4))


def test_an_order_a_marginal_refutes_runs_no_max_flow(monkeypatch):
    # comonotone on three axes with distinct values, so the law has no
    # automorphism and every order is decided on the full laws; NRD fails at
    # J = (1,) on the marginal of X2, before any coupling network is built
    d = make_pmf(3, [((F(0), F(0), F(0)), F(1, 2)), ((F(1), F(2), F(5)), F(1, 2))])
    assert not LawCache(d).generators
    runs = {"flow": 0, "coupling": 0}
    flow, coupling = stochorder.integer_max_flow, conditioning.integer_coupling

    def count(name, f):
        def counted(*args):
            runs[name] += 1
            return f(*args)
        return counted

    monkeypatch.setattr(stochorder, "integer_max_flow", count("flow", flow))
    monkeypatch.setattr(conditioning, "integer_coupling", count("coupling", coupling))
    verdict = check_nrd(d)
    assert not verdict.holds and verdict.witness.given == (1,)
    assert verdict.witness.observed == (2,)
    assert runs == {"flow": 0, "coupling": 0}


def test_means_are_the_fraction_sums():
    points = [(F(-1, 2), 3), (F(1, 3), 0), (F(5, 6), -2)]
    u = SupportUnion(points, [1, 0, 2], [0, 3, 4], 3, 7)
    expected = [tuple(Fraction(sum(w * p[a] for p, w in zip(points, ws)), t) for a in (0, 1))
                for ws, t in ((u.wx, u.tx), (u.wy, u.ty))]
    assert repr(u.means()) == repr(expected)

