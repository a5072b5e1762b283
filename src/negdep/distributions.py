"""Finite discrete joint distributions with exact rational probabilities.

The one distribution type every checker in this package consumes. Atoms are
kept in lexicographic order of their support vectors, which makes equality,
iteration and every downstream enumeration deterministic.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import attrgetter
from typing import Callable, Iterable, Sequence

from .errors import (
    DimMismatch,
    EmptyIndexSet,
    MassNotOne,
    NonpositiveProbability,
    UndefinedAtAtom,
    ZeroProbabilityEvent,
)
from .rationals import Extended, as_rational, format_rational

Vector = tuple[Fraction, ...]

ONE = Fraction(1)
ZERO = Fraction(0)

EQ = "eq"
LOWER = "lower"
UPPER = "upper"


def validate_index_set(indices: Iterable[int], dim: int) -> tuple[int, ...]:
    """Normalize to a strictly increasing tuple of 1-based coordinate indices."""
    idx = tuple(sorted(indices))
    if not idx:
        raise EmptyIndexSet("index set must be nonempty")
    if len(set(idx)) != len(idx):
        raise ValueError(f"duplicate indices in {idx}")
    if idx[0] < 1 or idx[-1] > dim:
        raise ValueError(f"indices {idx} out of range [1, {dim}]")
    return idx


@dataclass(frozen=True)
class ConditioningEvent:
    """An event of the form {X_J = x_J}, {X_J <= x_J} or {X_J > x_J}.

    ``strict`` carries one flag per index for the tail kinds (the default
    tail events are weak lower / strict upper; the opposite combinations
    are representable by flipping flags). Thresholds of tail events may be
    the -inf / +inf sentinels.
    """

    kind: str
    indices: tuple[int, ...]
    thresholds: tuple[Extended, ...]
    strict: tuple[bool, ...] = ()

    def __post_init__(self):
        if self.kind not in (EQ, LOWER, UPPER):
            raise ValueError(f"unknown event kind {self.kind!r}")
        if len(self.indices) != len(self.thresholds):
            raise ValueError("one threshold per index required")
        if self.kind == EQ:
            if self.strict:
                raise ValueError("equality events carry no strictness flags")
            if any(isinstance(t, float) for t in self.thresholds):
                raise ValueError("equality events need exact values, not sentinels")
        elif len(self.strict) != len(self.indices):
            raise ValueError("one strictness flag per index required")

    def matches(self, x: Vector) -> bool:
        if self.kind == EQ:
            return all(x[j - 1] == t for j, t in zip(self.indices, self.thresholds))
        if self.kind == LOWER:
            return all(
                (x[j - 1] < t) if s else (x[j - 1] <= t)
                for j, t, s in zip(self.indices, self.thresholds, self.strict)
            )
        return all(
            (x[j - 1] > t) if s else (x[j - 1] >= t)
            for j, t, s in zip(self.indices, self.thresholds, self.strict)
        )


def eq_event(indices: Iterable[int], values: Sequence) -> ConditioningEvent:
    idx = tuple(indices)
    return ConditioningEvent(EQ, idx, tuple(as_rational(v) for v in values))


def lower_event(indices: Iterable[int], thresholds: Sequence[Extended],
                strict: bool | Sequence[bool] = False) -> ConditioningEvent:
    """{X_J <= x_J} by default; per-coordinate strict flags give {X_j < x_j}."""
    idx = tuple(indices)
    flags = tuple(strict) if not isinstance(strict, bool) else (strict,) * len(idx)
    return ConditioningEvent(LOWER, idx, tuple(thresholds), flags)


def upper_event(indices: Iterable[int], thresholds: Sequence[Extended],
                strict: bool | Sequence[bool] = True) -> ConditioningEvent:
    """{X_J > x_J} by default; per-coordinate weak flags give {X_j >= x_j}."""
    idx = tuple(indices)
    flags = tuple(strict) if not isinstance(strict, bool) else (strict,) * len(idx)
    return ConditioningEvent(UPPER, idx, tuple(thresholds), flags)


@dataclass(frozen=True)
class FiniteJointDistribution:
    """A pmf over finitely many rational vectors, probabilities summing to 1.

    Construct through :func:`make_pmf` (or the other builders below), which
    canonicalize and validate; the raw constructor trusts its input.
    """

    dim: int
    atoms: tuple[tuple[Vector, Fraction], ...]

    # -- basic queries ---------------------------------------------------

    def probability(self, x: Vector) -> Fraction:
        for v, p in self.atoms:
            if v == x:
                return p
        return ZERO

    def mass_of(self, event: ConditioningEvent) -> Fraction:
        return sum((p for x, p in self.atoms if event.matches(x)), ZERO)

    def as_dict(self) -> dict[Vector, Fraction]:
        return dict(self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)

    # -- operations ------------------------------------------------------

    def marginal(self, indices: Iterable[int]) -> "FiniteJointDistribution":
        """Law of the projection onto the given coordinates."""
        idx = validate_index_set(indices, self.dim)
        cols = [j - 1 for j in idx]
        merged: dict[Vector, Fraction] = {}
        for x, p in self.atoms:
            key = tuple(x[c] for c in cols)
            merged[key] = merged.get(key, ZERO) + p
        return FiniteJointDistribution(len(cols), _sorted_atoms(merged))

    def condition(self, event: ConditioningEvent,
                  keep: Iterable[int] | None = None) -> "FiniteJointDistribution":
        """Exact law of the ``keep`` coordinates given the event.

        ``keep`` defaults to every coordinate outside the event; it must be
        disjoint from the event's indices. Raises ZeroProbabilityEvent when
        the event has no mass (callers enumerate and skip).
        """
        if keep is None:
            keep = [j for j in range(1, self.dim + 1) if j not in event.indices]
        idx = validate_index_set(keep, self.dim)
        if set(idx) & set(event.indices):
            raise ValueError(f"keep {idx} overlaps conditioning indices {event.indices}")
        cols = [j - 1 for j in idx]
        merged: dict[Vector, Fraction] = {}
        mass = ZERO
        for x, p in self.atoms:
            if event.matches(x):
                mass += p
                key = tuple(x[c] for c in cols)
                merged[key] = merged.get(key, ZERO) + p
        if mass == 0:
            raise ZeroProbabilityEvent(f"event {event} has probability 0")
        scaled = {x: p / mass for x, p in merged.items()}
        return FiniteJointDistribution(len(cols), _sorted_atoms(scaled))

    def expectation(self, f: Callable[[Vector], Fraction]) -> Fraction:
        """Exact sum of f(x) * p(x) over the support."""
        total = ZERO
        for x, p in self.atoms:
            try:
                value = f(x)
            except (KeyError, LookupError) as exc:
                raise UndefinedAtAtom(f"integrand undefined at {x}") from exc
            if isinstance(value, float):
                raise UndefinedAtAtom(f"integrand returned a float at {x}; exact values only")
            total += as_rational(value) * p
        return total

    def support_grid(self) -> tuple[tuple[Fraction, ...], ...]:
        """Per coordinate, the sorted distinct values appearing in any atom."""
        grids = [set() for _ in range(self.dim)]
        for x, _ in self.atoms:
            for g, v in zip(grids, x):
                g.add(v)
        return tuple(tuple(sorted(g)) for g in grids)

    def negate(self) -> "FiniteJointDistribution":
        """Law of -X (all coordinates negated)."""
        flipped = {tuple(-v for v in x): p for x, p in self.atoms}
        return FiniteJointDistribution(self.dim, _sorted_atoms(flipped))

    def permute_coordinates(self, perm: Sequence[int]) -> "FiniteJointDistribution":
        """Law of (X_{perm[0]}, ..., X_{perm[n-1]}), perm a 1-based permutation."""
        if sorted(perm) != list(range(1, self.dim + 1)):
            raise ValueError(f"{perm} is not a permutation of 1..{self.dim}")
        moved = {tuple(x[j - 1] for j in perm): p for x, p in self.atoms}
        return FiniteJointDistribution(self.dim, _sorted_atoms(moved))


def _sorted_atoms(mapping: dict[Vector, Fraction]) -> tuple[tuple[Vector, Fraction], ...]:
    return tuple(sorted(mapping.items()))


def make_pmf(dim: int, entries: Iterable[tuple[Sequence, object]]) -> FiniteJointDistribution:
    """Build a canonical pmf, merging duplicate support vectors.

    Raises DimMismatch / NonpositiveProbability / MassNotOne as appropriate.
    """
    if dim < 1:
        raise DimMismatch(f"dim must be >= 1, got {dim}")
    merged: dict[Vector, Fraction] = {}
    for k, (vector, prob) in enumerate(entries):
        x = tuple(as_rational(v) for v in vector)
        if len(x) != dim:
            raise DimMismatch(f"bad atom #{k}: vector {json.dumps(list(map(format_rational, x)))} "
                              f"has length {len(x)}, expected {dim}")
        p = as_rational(prob)
        if p <= 0:
            raise NonpositiveProbability(
                f"bad atom #{k}: probability {format_rational(p)} is not > 0")
        merged[x] = merged.get(x, ZERO) + p
    if not merged:
        raise MassNotOne("no atoms given")
    total = sum(merged.values())
    if total != 1:
        raise MassNotOne(f"probabilities sum to {format_rational(total)}, not 1")
    return FiniteJointDistribution(dim, _sorted_atoms(merged))


def product(d1: FiniteJointDistribution,
            d2: FiniteJointDistribution) -> FiniteJointDistribution:
    """Independent concatenation; dim is the sum of the operand dims."""
    merged = {
        x1 + x2: p1 * p2
        for x1, p1 in d1.atoms
        for x2, p2 in d2.atoms
    }
    return FiniteJointDistribution(d1.dim + d2.dim, _sorted_atoms(merged))


def independent_copy(d: FiniteJointDistribution) -> FiniteJointDistribution:
    """Product of the univariate marginals of d (same margins, independent)."""
    out = d.marginal([1])
    for j in range(2, d.dim + 1):
        out = product(out, d.marginal([j]))
    return out


def permutation_distribution(values: Sequence) -> FiniteJointDistribution:
    """Uniform law over all arrangements of the given values.

    Equal values collapse: each distinct arrangement of a multiset is
    enumerated once and carries probability (product of multiplicity
    factorials) / n!, so the work is the number of atoms, not n!.
    """
    vals = sorted(as_rational(v) for v in values)
    if not vals:
        raise EmptyIndexSet("values must be nonempty")
    n = len(vals)
    p = Fraction(math.prod(math.factorial(m) for m in Counter(vals).values()),
                 math.factorial(n))
    return FiniteJointDistribution(n, tuple((x, p) for x in _arrangements(vals)))


def _arrangements(vals: list[Fraction]):
    """Each distinct arrangement of the sorted values once, in lexicographic
    order: the next one swaps the last ascent's left end with the smallest
    larger value to its right and reverses the tail (Narayana Pandita)."""
    while True:
        yield tuple(vals)
        i = len(vals) - 2
        while i >= 0 and vals[i] >= vals[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(vals) - 1
        while vals[j] <= vals[i]:
            j -= 1
        vals[i], vals[j] = vals[j], vals[i]
        vals[i + 1:] = vals[:i:-1]


# -- integer view -----------------------------------------------------------
#
# The checkers read a law through its integer view: integer weights over one
# common denominator and the per-axis ranks of the atoms' values.

class IntegerView(tuple):
    """``(weights, ranks, sizes)`` as :func:`integer_view` returns them, with
    the sorted support values of each axis, the law's support grid, kept as
    ``axes``."""

    axes: tuple = ()


def _rank_column(tokens: Sequence, read: Callable | None = None) -> tuple[tuple, list[int]]:
    """The sorted distinct values of one column, and each token's rank among
    them. ``read`` gives a token's value (by default the token is its value);
    each distinct token is read once, and tokens that read the same value
    share its rank. Without ``read`` the tokens are rationals, keyed by
    ``(numerator, denominator)`` so that no Fraction is hashed; each value
    keeps its first token, as a set would."""
    if read is None:
        keys = list(zip(map(attrgetter("numerator"), tokens),
                        map(attrgetter("denominator"), tokens)))
        first = dict(zip(reversed(keys), reversed(tokens)))
        table = sorted(first.values())
        at = {(q.numerator, q.denominator): r for r, q in enumerate(table)}
        return tuple(table), list(map(at.__getitem__, keys))
    values = {t: read(t) for t in set(tokens)}
    table = sorted(set(values.values()))
    at = {q: r for r, q in enumerate(table)}
    rank = {t: at[q] for t, q in values.items()}
    return tuple(table), list(map(rank.__getitem__, tokens))


def axis_ranks(columns: Iterable[Sequence],
               read: Callable | None = None) -> tuple[list[tuple[int, ...]], tuple]:
    """Each row's per-axis ranks among the sorted values its column takes,
    and those values per axis; ``columns`` holds one sequence per axis."""
    axes, ranks = zip(*(_rank_column(col, read) for col in columns))
    return list(zip(*ranks)), axes


def over_common_denominator(values: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """The rationals times the lcm of their denominators, and that lcm."""
    scale = math.lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (scale // v.denominator) for v in values), scale


def integer_weights(d: FiniteJointDistribution) -> tuple[int, ...]:
    """The atoms' probabilities times their common denominator."""
    return over_common_denominator([p for _, p in d.atoms])[0]


def _view(weights: tuple[int, ...], ranks: list[tuple[int, ...]], axes: tuple) -> IntegerView:
    view = IntegerView((weights, ranks, [len(ax) for ax in axes]))
    view.axes = axes
    return view


def integer_view(d: FiniteJointDistribution) -> IntegerView:
    """The atoms' integer weights over the law's common denominator, each
    atom's per-axis ranks among the support values, and the axis sizes."""
    ranks, axes = axis_ranks(zip(*(x for x, _ in d.atoms)))
    return _view(integer_weights(d), ranks, axes)


# -- wire format ----------------------------------------------------------
#
# {"dim": n, "atoms": [{"x": ["0", "1/2", ...], "p": "1/8"}, ...]}
# Rationals travel as "num/den" strings (bare integers and exact decimals
# allowed); floats are rejected. Writing emits atoms in lexicographic order.

def to_json_dict(d: FiniteJointDistribution) -> dict:
    return {
        "dim": d.dim,
        "atoms": [
            {"x": [format_rational(v) for v in x], "p": format_rational(p)}
            for x, p in d.atoms
        ],
    }


def from_json_dict(obj: dict) -> FiniteJointDistribution:
    """The law of a distribution file's JSON object."""
    return parse_law(obj)[0]


def parse_law(obj: dict) -> tuple[FiniteJointDistribution, IntegerView]:
    """Read a distribution file's JSON object into the law and its integer view.

    The atoms are read column by column (see :func:`_read_columns`). Input
    that reading does not expect, valid or not, is read row by row instead,
    which raises the error of the first bad atom in file order.
    """
    if not isinstance(obj, dict):
        raise ValueError("distribution JSON must be an object with 'dim' and 'atoms', "
                         f"got {type(obj).__name__}")
    try:
        dim = obj["dim"]
        raw_atoms = obj["atoms"]
    except KeyError as exc:
        raise ValueError(f"distribution JSON needs 'dim' and 'atoms': missing {exc}") from exc
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise ValueError(f"'dim' must be an integer, got {dim!r}")
    if not isinstance(raw_atoms, list):
        raise ValueError(f"'atoms' must be a list, got {raw_atoms!r}")
    read = _read_columns(dim, raw_atoms)
    if read is not None:
        return read
    law = _read_rows(dim, raw_atoms)
    return law, integer_view(law)


#: Token types the column-wise reading takes. Checked on every token, since a
#: set keeps one of True and 1 (or 1.0 and 1), which are equal.
_TOKEN_TYPES = {str, int}


def _read_columns(dim: int, raw_atoms: list) -> tuple[FiniteJointDistribution, IntegerView] | None:
    """The law and its view, or None where the row-wise reading must decide.

    Each axis's distinct tokens are read once and ranked, so "1/2", "2/4" and
    "0.5" share one rank; atoms merge on their rank tuples and sort by them,
    which is lexicographic order of their vectors.
    """
    try:
        xs = [atom["x"] for atom in raw_atoms]
        ps = [atom["p"] for atom in raw_atoms]
    except (TypeError, KeyError):
        return None
    if not (xs and dim >= 1 and all(isinstance(x, list) and len(x) == dim for x in xs)
            and set(map(type, chain(ps, *xs))) <= _TOKEN_TYPES):
        return None
    try:
        ranks, axes = axis_ranks(zip(*xs), as_rational)
        probs, p_ranks = _rank_column(ps, as_rational)
    except ValueError:  # a malformed string or a zero denominator
        return None
    if probs[0] <= 0:
        return None
    merged: dict[tuple[int, ...], Fraction] = {}
    for r, k in zip(ranks, p_ranks):
        merged[r] = merged[r] + probs[k] if r in merged else probs[k]
    keys = sorted(merged)
    atom_probs = [merged[r] for r in keys]
    weights, scale = over_common_denominator(atom_probs)
    if sum(weights) != scale:
        return None
    columns = [map(ax.__getitem__, col) for ax, col in zip(axes, zip(*keys))]
    law = FiniteJointDistribution(dim, tuple(zip(zip(*columns), atom_probs)))
    return law, _view(weights, keys, axes)


def _exact(value) -> Fraction:
    if isinstance(value, bool):
        raise TypeError(f"expected an exact rational, got bool: {value!r}")
    return as_rational(value)


def _read_rows(dim: int, raw_atoms: list) -> FiniteJointDistribution:
    """The law, read one atom at a time: a token or atom that cannot be read
    names the first such atom in file order, and then ``make_pmf`` checks the
    rest in its own order."""
    entries = []
    for k, atom in enumerate(raw_atoms):
        try:
            x = atom["x"]
            if not isinstance(x, list):
                raise ValueError(f"'x' must be a list, got {x!r}")
            entries.append(([_exact(v) for v in x], _exact(atom["p"])))
        except (TypeError, KeyError, ValueError) as exc:
            raise ValueError(f"bad atom #{k}: {exc}") from exc
    return make_pmf(dim, entries)
