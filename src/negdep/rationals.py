"""Exact rational values and their wire format.

All probability arithmetic in this package runs on ``fractions.Fraction``;
floats are rejected everywhere except the two infinities, which serve as
threshold sentinels (comparison against a Fraction is exact for them).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

NEG_INF = -math.inf
POS_INF = math.inf

#: A threshold: an exact rational or one of the two infinite sentinels.
Extended = Union[Fraction, float]


def as_rational(value) -> Fraction:
    """Coerce ints, Fractions and "num/den" or decimal strings to Fraction
    ("0.5" is exactly 1/2); reject floats.

    A malformed string, zero denominators included, raises ``ValueError``.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"expected an exact rational, got {type(value).__name__}: {value!r}")


def format_rational(q: Fraction) -> str:
    """Render as "num/den", or plain "num" for integers."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def format_extended(t: Extended) -> str:
    if t == NEG_INF:
        return "-inf"
    if t == POS_INF:
        return "inf"
    return format_rational(t)

