"""Exact rational values and their wire format.

All probability arithmetic in this package runs on ``fractions.Fraction``;
floats are rejected everywhere except the two infinities, which serve as
threshold sentinels (comparison against a Fraction is exact for them).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Union

NEG_INF = -math.inf
POS_INF = math.inf

#: A threshold: an exact rational or one of the two infinite sentinels.
Extended = Union[Fraction, float]

#: The wire format of a rational: an optional sign, ASCII digits, then
#: ``/digits`` or ``.digits``.
_TOKEN = re.compile(r"[+-]?[0-9]+(/[0-9]+|\.[0-9]+)?")


def as_rational(value) -> Fraction:
    """Coerce ints, Fractions and "num/den" or decimal strings to Fraction
    ("0.5" is exactly 1/2); reject floats.

    A string outside ``_TOKEN``, or with a zero denominator, raises
    ``ValueError``. ``Fraction`` alone would also read exponents (and build
    ``10**999999999`` for "1e999999999"), digit separators, surrounding
    whitespace, ".5" and non-ASCII digits, so a token is matched first.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _TOKEN.fullmatch(value):
            raise ValueError(f"not an exact rational token: {value!r}")
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

