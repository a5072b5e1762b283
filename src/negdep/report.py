"""Machine-readable reports with exact values.

A report is a plain JSON-able payload: every probability and threshold is a
fraction string (or "-inf"/"inf"), so serialization is lossless and the
canonical rendering is byte-identical across runs with the same inputs and
flags. Wall-clock timings are printed for humans and embedded only on
request, since they would break that reproducibility.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields, is_dataclass
from fractions import Fraction

from .checks import (
    AssociationWitness,
    ConjectureReport,
    ConjectureWitness,
    MonotonicityWitness,
    OrthantWitness,
    RegressionWitness,
    SupermodularWitness,
    Verdict,
)
from .distributions import FiniteJointDistribution, IntegerView
from .errors import Caps
from .rationals import format_extended, format_rational

ARTIFACT_VERSION = "0.3.0"


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def distribution_digest(d: FiniteJointDistribution, view: IntegerView) -> str:
    """The sha256 of the law's canonical text, ``canonical_json(to_json_dict(d))``,
    joined from its integer view.

    Every value-table entry and every distinct weight w, as w / sum(weights),
    is formatted once. The view's rows are in atom order, and the strings
    hold only digits, "-" and "/", which JSON writes as they are.
    """
    weights, ranks, _ = view
    total = sum(weights)
    heads = {w: f'{{"p":"{format_rational(Fraction(w, total))}","x":['
             for w in set(weights)}
    tables = [[f'"{format_rational(v)}"' for v in axis] for axis in view.axes]
    atoms = ",".join(heads[w] + ",".join(map(list.__getitem__, tables, r)) + "]}"
                     for w, r in zip(weights, ranks))
    text = f'{{"atoms":[{atoms}],"dim":{d.dim}}}\n'
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


_WITNESS_TYPES = {
    OrthantWitness: "orthant",
    AssociationWitness: "association",
    SupermodularWitness: "supermodular",
    RegressionWitness: "regression",
    MonotonicityWitness: "monotonicity",
    ConjectureWitness: "conjecture",
}
#: Fields holding coordinate indices, written as JSON ints.
_BLOCKS = frozenset({"block1", "block2", "given", "observed", "raised", "lowered", "pinned"})
_TRIPLE = ("raised", "lowered", "pinned")


def _encode(value, name: str | None = None):
    """A witness part as JSON: a dataclass as an object keyed by its field
    names, a tuple as a list, a string as itself and an exact value or
    threshold as its ``format_extended`` string, ints included. Coordinate
    indices, grid-function values and conjecture triples are the exceptions,
    picked out by field name."""
    if is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name), f.name) for f in fields(value)}
    if name in _BLOCKS:
        return list(value)
    if name == "values":                    # GridFunction: grid point -> value
        return [{"x": _encode(x), "value": _encode(v)} for x, v in value]
    if name in ("triple_low", "triple_high"):
        return dict(zip(_TRIPLE, map(_encode, value)))
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value if isinstance(value, str) else format_extended(value)


def witness_json(w) -> dict:
    tag = _WITNESS_TYPES.get(type(w))
    if tag is None:
        raise TypeError(f"cannot serialize witness {type(w).__name__}")
    return {"type": tag, **_encode(w)}


def verdict_json(v: Verdict) -> dict:
    return {
        "property": v.prop,
        "holds": v.holds,
        "definitive": v.definitive,
        "witness": None if v.witness is None else witness_json(v.witness),
        "stats": asdict(v.stats),
    }


def caps_json(caps: Caps) -> dict:
    return {"upper_sets": caps.max_upper_sets, "lp_vars": caps.max_lp_vars}


@dataclass(frozen=True)
class Report:
    """A finished run: canonical JSON payload plus human-facing timings."""

    payload: dict
    timings_ms: dict

    def to_json(self, include_timing: bool = False) -> str:
        payload = self.payload
        if include_timing:
            payload = dict(payload)
            payload["timing_ms"] = {k: round(v, 3) for k, v in self.timings_ms.items()}
        return canonical_json(payload)


def build_check_report(d: FiniteJointDistribution, verdicts: list[Verdict],
                       caps: Caps, settings: dict, timings_ms: dict,
                       view: IntegerView) -> Report:
    payload = {
        "artifact_version": ARTIFACT_VERSION,
        "kind": "check",
        "input_digest": distribution_digest(d, view),
        "caps": caps_json(caps),
        "settings": settings,
        "checks": [verdict_json(v) for v in verdicts],
    }
    return Report(payload=payload, timings_ms=timings_ms)


def build_conjecture_report(result: ConjectureReport, caps: Caps,
                            settings: dict, timings_ms: dict) -> Report:
    payload = {
        "artifact_version": ARTIFACT_VERSION,
        "kind": "conjecture",
        "values": _encode(result.values),
        "caps": caps_json(caps),
        "settings": settings,
        "holds_on_instance": result.holds_on_instance,
        "witness": None if result.witness is None else witness_json(result.witness),
        "stats": asdict(result.stats),
    }
    return Report(payload=payload, timings_ms=timings_ms)


def build_fixture_report(fixture: str, passed: bool, comparisons: list[dict],
                         verdicts: dict, caps: Caps, timings_ms: dict) -> Report:
    payload = {
        "artifact_version": ARTIFACT_VERSION,
        "kind": "reproduce",
        "fixture": fixture,
        "passed": passed,
        "caps": caps_json(caps),
        "comparisons": comparisons,
        "checks": [verdict_json(v) for v in verdicts.values()],
    }
    return Report(payload=payload, timings_ms=timings_ms)
