"""Exception hierarchy and enumeration caps."""

from __future__ import annotations

import os
from dataclasses import dataclass, replace


class NegdepError(Exception):
    """Base class for all library errors."""


# --- distribution construction / manipulation ---------------------------

class MassNotOne(NegdepError):
    """Probabilities do not sum to exactly 1."""


class DimMismatch(NegdepError):
    """A support vector has the wrong length."""


class NonpositiveProbability(NegdepError):
    """An atom carries probability <= 0."""


class EmptyIndexSet(NegdepError):
    """An operation got an empty index set where one is required."""


class ZeroProbabilityEvent(NegdepError):
    """Conditioning event has probability 0; enumerating callers skip it."""


class UndefinedAtAtom(NegdepError):
    """The integrand is undefined at a support vector."""


# --- tournament specs ----------------------------------------------------

class SupportOutOfRange(NegdepError):
    """A pair-score law puts mass outside [0, total]."""


# --- guards --------------------------------------------------------------

class EnumerationCapExceeded(NegdepError):
    """An enumeration (upper sets, conditioning cells) passed its cap."""


class GridTooLarge(NegdepError):
    """A supermodular-order grid exceeds the LP-variable cap."""


# --- internal consistency ------------------------------------------------

class InternalConsistencyError(NegdepError):
    """Two independent algorithms for the same question disagreed (a bug)."""


class ImplicationViolation(NegdepError):
    """A known-safe implication between properties failed (a bug certificate)."""


CAPS_ENV_VAR = "NEGDEP_CAPS"


@dataclass(frozen=True)
class Caps:
    """Guards against exponential enumerations; exceeding raises, never truncates."""

    max_upper_sets: int = 10**6
    max_lp_vars: int = 10**5

    def with_overrides(self, text: str) -> "Caps":
        """Apply "upper_sets=N,lp_vars=M" style overrides; each N must be a
        positive integer."""
        fields = {"upper_sets": "max_upper_sets", "lp_vars": "max_lp_vars"}
        updates = {}
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            key, sep, value = item.partition("=")
            if not sep or key.strip() not in fields:
                raise ValueError(f"bad caps item {item!r}; known keys: {', '.join(fields)}")
            try:
                cap = int(value)
            except ValueError:
                cap = 0
            if cap < 1:
                raise ValueError(f"bad caps item {item!r}; the cap must be a positive integer")
            updates[fields[key.strip()]] = cap
        return replace(self, **updates)


def default_caps() -> Caps:
    """Library defaults, adjusted by the NEGDEP_CAPS environment variable."""
    caps = Caps()
    text = os.environ.get(CAPS_ENV_VAR)
    if text:
        caps = caps.with_overrides(text)
    return caps
