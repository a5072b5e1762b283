"""Hypothesis strategies for exact finite distributions."""

from fractions import Fraction

from hypothesis import strategies as st

from negdep import independent_copy, make_pmf

_VALUES = [Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-1)]


@st.composite
def finite_distributions(draw, min_dim=1, max_dim=3, max_atoms=5, values=None):
    """Distributions with small supports and exact random weights."""
    pool = values if values is not None else _VALUES
    dim = draw(st.integers(min_dim, max_dim))
    vectors = draw(
        st.lists(
            st.tuples(*[st.sampled_from(pool) for _ in range(dim)]),
            min_size=1,
            max_size=max_atoms,
            unique=True,
        )
    )
    weights = draw(
        st.lists(st.integers(1, 9), min_size=len(vectors), max_size=len(vectors))
    )
    total = sum(weights)
    return make_pmf(dim, [(v, Fraction(w, total)) for v, w in zip(vectors, weights)])


@st.composite
def distribution_pairs(draw, dim=2, max_atoms=4, values=None):
    """Two distributions of the same dimension (for order comparisons)."""
    d1 = draw(finite_distributions(min_dim=dim, max_dim=dim, max_atoms=max_atoms, values=values))
    d2 = draw(finite_distributions(min_dim=dim, max_dim=dim, max_atoms=max_atoms, values=values))
    return d1, d2


# negative and non-integer values, so grid positions, not values, matter
_GRID_VALUES = [Fraction(-2), Fraction(-1, 2), Fraction(0), Fraction(1, 3), Fraction(1),
                Fraction(5, 2)]


@st.composite
def grid_laws(draw):
    """Laws of dimension 2-4 with 1-3 values per axis and 1-10 atoms. The
    columns are left as drawn, put in one order (positive dependence), put
    in opposite orders (negative dependence in dimension 2), or replaced by
    the independent copy (the order holds with equality)."""
    dim = draw(st.integers(2, 4))
    axes = [draw(st.lists(st.sampled_from(_GRID_VALUES), min_size=1, max_size=3, unique=True))
            for _ in range(dim)]
    size = draw(st.integers(1, 10))
    columns = [draw(st.lists(st.sampled_from(ax), min_size=size, max_size=size))
               for ax in axes]
    kind = draw(st.sampled_from(["random", "same-order", "opposite-order", "copy"]))
    if kind == "same-order":
        columns = [sorted(column) for column in columns]
    elif kind == "opposite-order":
        columns = [sorted(column, reverse=a > 0) for a, column in enumerate(columns)]
    weights = draw(st.lists(st.integers(1, 9), min_size=size, max_size=size))
    total = sum(weights)
    d = make_pmf(dim, [(x, Fraction(w, total)) for x, w in zip(zip(*columns), weights)])
    return independent_copy(d) if kind == "copy" else d
