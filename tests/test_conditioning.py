"""The rank-bitset conditioning engine against the Fraction reference, for the
regression cells and the conjecture partitions alike."""

import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from negdep import checks, make_pmf, verify_witness
from negdep.checks import LawCache, _scan_conjecture_partition, _tail_masks
from negdep.errors import default_caps

from . import reference_conditioning as ref

F = Fraction

# negative and non-integer values, so ranks, not values, must drive the masks
_VALUES = [F(-2), F(-1, 2), F(0), F(1, 3), F(1), F(5, 2)]


@st.composite
def tied_laws(draw, min_dim=2, max_dim=4):
    """Laws of dimension 2-4 whose columns repeat values; half of them put
    every column in the same order, so FALSE verdicts are common."""
    dim = draw(st.integers(min_dim, max_dim))
    size = draw(st.integers(1, 6))
    pool = draw(st.lists(st.sampled_from(_VALUES), min_size=2, max_size=4, unique=True))
    columns = [draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
               for _ in range(dim)]
    if draw(st.booleans()):
        columns = [sorted(column) for column in columns]
    weights = draw(st.lists(st.integers(1, 9), min_size=size, max_size=size))
    total = sum(weights)
    return make_pmf(dim, [(x, F(w, total)) for x, w in zip(zip(*columns), weights)])


def test_tail_masks_follow_the_variant_mapping():
    # ranks 0, 1, 2 hold atoms {0}, {1, 2}, {3}
    eq = [0b0001, 0b0110, 0b1000]
    assert _tail_masks(eq, "<=", sentinel=True) == [0b0001, 0b0111, 0b1111, 0b1111]
    assert _tail_masks(eq, "<", sentinel=True) == [0b0000, 0b0001, 0b0111, 0b1111]
    assert _tail_masks(eq, ">", sentinel=True) == [0b1111, 0b1110, 0b1000, 0b0000]
    assert _tail_masks(eq, ">=", sentinel=True) == [0b1111, 0b1111, 0b1110, 0b1000]
    assert _tail_masks(eq, ">=", sentinel=False) == [0b1111, 0b1110, 0b1000]
    assert _tail_masks(eq, "<=", sentinel=False) == [0b0001, 0b0111, 0b1111]
    # weak upper tails are the strict events {X > t}, strict ones {X >= t}
    assert checks._TAIL_OPS == {("lower", "weak"): "<=", ("lower", "strict"): "<",
                                ("upper", "weak"): ">", ("upper", "strict"): ">="}


@settings(max_examples=150, deadline=None)
@given(tied_laws(), st.sampled_from(["fast", "verify"]))
def test_regression_family_matches_fraction_reference(d, st_mode):
    for prop, kind in ref.REGRESSION_KINDS:
        for variant in ("weak", "strict"):
            got = checks._check_regression_family(LawCache(d), kind, prop, None, variant,
                                                  None, st_mode, 1)
            want = ref.check_regression(d, kind, prop, variant=variant, st_mode=st_mode)
            assert repr(got) == repr(want)
            if not got.holds:
                verify_witness(d, got)


@settings(max_examples=40, deadline=None)
@given(tied_laws(min_dim=3), st.integers(1, 2))
def test_block_capped_regression_matches_fraction_reference(d, max_j):
    for prop, kind in ref.REGRESSION_KINDS:
        got = checks._check_regression_family(LawCache(d), kind, prop, max_j, "weak", None,
                                              "fast", 1)
        want = ref.check_regression(d, kind, prop, max_j=max_j)
        assert repr(got) == repr(want)


@settings(max_examples=60, deadline=None)
@given(tied_laws(max_dim=3), st.sampled_from(["fast", "verify"]))
def test_conjecture_partitions_match_fraction_reference(d, st_mode):
    caps = default_caps()
    for assignment in itertools.product(range(4), repeat=d.dim):
        raised, lowered, pinned, observed = (
            tuple(k + 1 for k, a in enumerate(assignment) if a == block) for block in range(4))
        if not observed or not (raised or lowered or pinned):
            continue
        args = (d, raised, lowered, pinned, observed, caps, st_mode)
        got = _scan_conjecture_partition((LawCache(d),) + args[1:])
        assert repr(got) == repr(ref._scan_conjecture_partition(args))
        if got[0] is not None:
            checks._reverify_conjecture_witness(d, got[0])


def test_conjecture_partitions_fail_on_dependent_laws():
    # sorted columns make every coordinate comonotone, so raising a threshold
    # pushes the observed block up and FALSE witnesses must appear
    d = make_pmf(3, [((F(-1), F(0), F(1, 3)), F(1, 4)), ((F(0), F(0), F(1)), F(1, 4)),
                     ((F(1), F(5, 2), F(1)), F(1, 2))])
    caps = default_caps()
    failures = 0
    for args in ((d, (1,), (), (), (2, 3), caps, "fast"),
                 (d, (), (2,), (3,), (1,), caps, "verify"),
                 (d, (), (), (1, 2), (3,), caps, "fast")):
        got = _scan_conjecture_partition((LawCache(d),) + args[1:])
        assert repr(got) == repr(ref._scan_conjecture_partition(args))
        if got[0] is not None:
            failures += 1
            checks._reverify_conjecture_witness(d, got[0])
    assert failures >= 2
