"""The integer upper-set sweep against the Fraction sweep it replaced."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negdep import EnumerationCapExceeded, make_pmf, st_leq, st_leq_uppersets
from negdep.errors import Caps

from . import reference_conditioning as ref
from .strategies import finite_distributions

F = Fraction

_VALUES = [F(-2), F(-1, 2), F(0), F(1, 3), F(1), F(5, 2)]


def _shifted(d):
    """d moved up by 1 on every coordinate, so d <=st the result."""
    return make_pmf(d.dim, [(tuple(v + 1 for v in x), p) for x, p in d.atoms])


@st.composite
def ordered_pairs(draw):
    """Two laws of one dimension: independent draws (mostly FALSE either way),
    a law against itself or against its shift upwards (TRUE), or the reverse
    of the shift (FALSE)."""
    dim = draw(st.integers(1, 3))
    dX = draw(finite_distributions(min_dim=dim, max_dim=dim, max_atoms=6, values=_VALUES))
    kind = draw(st.sampled_from(["random", "self", "up", "down"]))
    if kind == "self":
        return dX, dX
    if kind == "up":
        return dX, _shifted(dX)
    if kind == "down":
        return _shifted(dX), dX
    return dX, draw(finite_distributions(min_dim=dim, max_dim=dim, max_atoms=6,
                                         values=_VALUES))


@settings(max_examples=300, deadline=None)
@given(ordered_pairs())
def test_sweep_matches_fraction_reference(pair):
    dX, dY = pair
    got, want = st_leq_uppersets(dX, dY), ref.st_leq_uppersets(dX, dY)
    assert got == want
    assert repr(got) == repr(want)
    for mode in ("fast", "verify"):
        assert repr(st_leq(dX, dY, mode=mode)) == repr(ref.st_leq(dX, dY, mode=mode))


@settings(max_examples=60, deadline=None)
@given(ordered_pairs(), st.integers(1, 4))
def test_sweep_cap_matches_fraction_reference(pair, cap):
    dX, dY = pair
    caps = Caps(max_upper_sets=cap)
    try:
        want = ref.st_leq_uppersets(dX, dY, caps=caps)
    except EnumerationCapExceeded:
        with pytest.raises(EnumerationCapExceeded):
            st_leq_uppersets(dX, dY, caps=caps)
        return
    assert repr(st_leq_uppersets(dX, dY, caps=caps)) == repr(want)
