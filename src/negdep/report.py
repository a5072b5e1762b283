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
from dataclasses import dataclass

from .checks import (
    AssociationWitness,
    CheckStats,
    ConjectureReport,
    ConjectureWitness,
    MonotonicityWitness,
    OrthantWitness,
    RegressionWitness,
    SupermodularWitness,
    Verdict,
)
from .distributions import FiniteJointDistribution, to_json_dict
from .errors import Caps
from .rationals import format_extended, format_rational
from .stochorder import UpperSetViolation
from .supermodular import GridFunction
from .uppersets import UpperSet

ARTIFACT_VERSION = "0.1.0"


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def distribution_digest(d: FiniteJointDistribution) -> str:
    blob = canonical_json(to_json_dict(d)).encode()
    return "sha256:" + hashlib.sha256(blob).hexdigest()


def _vector(vec) -> list[str]:
    return [format_rational(v) for v in vec]


def _extended_vector(vec) -> list[str]:
    return [format_extended(v) for v in vec]


def _upper_set(u: UpperSet) -> dict:
    return {"minimal": [_vector(m) for m in u.minimal],
            "points": [_vector(p) for p in u.points]}


def _st_violation(v: UpperSetViolation) -> dict:
    return {
        "upper_set": _upper_set(v.upper_set),
        "p_left": format_rational(v.p_left),
        "p_right": format_rational(v.p_right),
    }


def _grid_function(f: GridFunction) -> dict:
    return {
        "axes": [_vector(ax) for ax in f.axes],
        "values": [{"x": _vector(x), "value": format_rational(v)} for x, v in f.values],
    }


def witness_json(w) -> dict:
    if isinstance(w, OrthantWitness):
        return {
            "type": "orthant",
            "side": w.side,
            "corner": _extended_vector(w.corner),
            "joint": format_rational(w.joint),
            "product": format_rational(w.product),
        }
    if isinstance(w, AssociationWitness):
        return {
            "type": "association",
            "block1": list(w.block1),
            "block2": list(w.block2),
            "upper1": _upper_set(w.upper1),
            "upper2": _upper_set(w.upper2),
            "p_joint": format_rational(w.p_joint),
            "p1": format_rational(w.p1),
            "p2": format_rational(w.p2),
        }
    if isinstance(w, SupermodularWitness):
        return {
            "type": "supermodular",
            "function": _grid_function(w.function),
            "gap": format_rational(w.gap),
            "left": format_rational(w.left),
            "right": format_rational(w.right),
        }
    if isinstance(w, RegressionWitness):
        return {
            "type": "regression",
            "kind": w.kind,
            "variant": w.variant,
            "given": list(w.given),
            "observed": list(w.observed),
            "point_low": _extended_vector(w.point_low),
            "point_high": _extended_vector(w.point_high),
            "violation": _st_violation(w.violation),
            "mean_low": _vector(w.mean_low),
            "mean_high": _vector(w.mean_high),
        }
    if isinstance(w, MonotonicityWitness):
        return {
            "type": "monotonicity",
            "theta_low": _extended_vector(w.theta_low),
            "theta_high": _extended_vector(w.theta_high),
            "violation": _st_violation(w.violation),
        }
    if isinstance(w, ConjectureWitness):
        return {
            "type": "conjecture",
            "raised": list(w.raised),
            "lowered": list(w.lowered),
            "pinned": list(w.pinned),
            "observed": list(w.observed),
            "triple_low": {
                "raised": _extended_vector(w.triple_low[0]),
                "lowered": _extended_vector(w.triple_low[1]),
                "pinned": _vector(w.triple_low[2]),
            },
            "triple_high": {
                "raised": _extended_vector(w.triple_high[0]),
                "lowered": _extended_vector(w.triple_high[1]),
                "pinned": _vector(w.triple_high[2]),
            },
            "violation": _st_violation(w.violation),
        }
    raise TypeError(f"cannot serialize witness {type(w).__name__}")


def stats_json(s: CheckStats) -> dict:
    return {
        "cells": s.cells,
        "conditioning_pairs": s.conditioning_pairs,
        "st_checks": s.st_checks,
        "upper_sets": s.upper_sets,
    }


def verdict_json(v: Verdict) -> dict:
    return {
        "property": v.prop,
        "holds": v.holds,
        "definitive": v.definitive,
        "witness": None if v.witness is None else witness_json(v.witness),
        "stats": stats_json(v.stats),
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
                       caps: Caps, settings: dict, timings_ms: dict) -> Report:
    payload = {
        "artifact_version": ARTIFACT_VERSION,
        "kind": "check",
        "input_digest": distribution_digest(d),
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
        "values": _vector(result.values),
        "caps": caps_json(caps),
        "settings": settings,
        "holds_on_instance": result.holds_on_instance,
        "witness": None if result.witness is None else witness_json(result.witness),
        "stats": stats_json(result.stats),
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
