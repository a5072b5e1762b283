"""The benchmark's four workloads.

Each workload's set-up builds its laws from the freshly imported ``negdep``
package and returns one :class:`Item` per law: ``run`` is the timed call into
the program and ``decisions`` turns its result into the verdicts the
benchmark gates on, outside the timed region. Callables look the program's
functions up at call time, so the tracer's wrappers are seen when installed.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# every property audit_implications decides, in its report order
AUDIT_PROPS = ("nlod", "nuod", "nod", "na", "nsmd", "nrd", "nltd", "nrtd",
               "nrd1", "nltd1", "nrtd1")
AUDIT_ATOM_COUNTS = range(1, 11)
AUDIT_LAWS_PER_COUNT = 40
NSMD_LADDER = ((0, 1, 2), (0, 0, 0, 1, 1), (0, 0, 1, 2), (0, 1, 1, 2))


@dataclass(frozen=True)
class Decision:
    prop: str
    holds: bool | None      # None: the program skipped the property
    definitive: bool
    law: object             # the law a FALSE witness is re-verified on
    verdict: object         # the Verdict to re-verify; None when not available
    key: object             # must be identical on every pass of a run
    stats: tuple            # CheckStats counters, reported, never gated


@dataclass(frozen=True)
class Item:
    label: str
    props: tuple[str, ...]
    run: Callable[[], object]
    decisions: Callable[[object], dict]
    pins: dict | None       # prop -> (holds, definitive); None: pinned by digest


def _stats(s) -> tuple:
    return (s.cells, s.conditioning_pairs, s.st_checks, s.upper_sets)


def _from_verdicts(law, verdicts) -> dict:
    return {
        v.prop: Decision(v.prop, v.holds, v.definitive, law, v,
                         (v.holds, v.definitive, repr(v.witness)), _stats(v.stats))
        for v in verdicts
    }


def _checker_item(label, law, prop, call, pin) -> Item:
    return Item(label, (prop,), call, lambda v: _from_verdicts(law, [v]), {prop: pin})


def _eight_player_fixed_draw(nd):
    t = nd.tournaments
    return t.knockout_fixed_draw(t.equal_strength(3, t.FixedDraw(tuple(range(1, 9)))))


# -- regression_knockout ------------------------------------------------------

def _cli_check(nd, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return nd.cli.main(argv)


def _cli_decisions(report_path, code) -> dict:
    if code not in (0, 1):
        raise RuntimeError(f"negdep check exited {code}")
    with open(report_path) as fh:
        text = fh.read()
    out = {}
    for check in json.loads(text)["checks"]:
        stats = check["stats"]
        out[check["property"]] = Decision(
            check["property"], check["holds"], check["definitive"], None, None, text,
            (stats["cells"], stats["conditioning_pairs"], stats["st_checks"],
             stats["upper_sets"]))
    return out


def regression_knockout(nd, seed, workdir) -> list[Item]:
    t = nd.tournaments
    laws = (
        ("fixed-draw-128", _eight_player_fixed_draw(nd),
         ["--props", "nrtd", "--max-j", "1"], {"nrtd": (True, False)}),
        ("random-draw-840", t.knockout_random_draw(t.equal_strength(3, t.RandomDraw())),
         ["--props", "nrd1"], {"nrd1": (True, True)}),
    )
    items = []
    for label, law, flags, pins in laws:
        law_path = os.path.join(workdir, f"{label}.json")
        report_path = os.path.join(workdir, f"{label}.report.json")
        with open(law_path, "w") as fh:
            json.dump(nd.to_json_dict(law), fh)
        argv = ["check", law_path, *flags, "--jobs", "1", "-o", report_path]
        items.append(Item(label, tuple(pins), functools.partial(_cli_check, nd, argv),
                          functools.partial(_cli_decisions, report_path), pins))
    return items


# -- association_orthant -------------------------------------------------------

def association_orthant(nd, seed, workdir) -> list[Item]:
    checks = nd.checks
    laws = (
        ("permutation-0123", nd.permutation_distribution([0, 1, 2, 3]), "na",
         lambda d: checks.check_na(d, max_block=2, jobs=1), (True, False)),
        ("permutation-0112", nd.permutation_distribution([0, 1, 1, 2]), "na",
         lambda d: checks.check_na(d, jobs=1), (True, True)),
        ("fixed-draw-128", _eight_player_fixed_draw(nd), "nlod",
         lambda d: checks.check_nlod(d), (True, True)),
        ("permutation-012345", nd.permutation_distribution(range(6)), "nod",
         lambda d: checks.check_nod(d), (True, True)),
    )
    return [_checker_item(label, law, prop, functools.partial(call, law), pin)
            for label, law, prop, call, pin in laws]


# -- nsmd_ladder ----------------------------------------------------------------

def nsmd_ladder(nd, seed, workdir) -> list[Item]:
    laws = [("permutation-" + "".join(map(str, values)),
             nd.permutation_distribution(list(values)), (True, True))
            for values in NSMD_LADDER]
    # uniform on {(i,i,i,j)}: not NSMD, so the box LP runs and yields a witness
    laws.append(("diagonal-iiij",
                 nd.make_pmf(4, [((i, i, i, j), Fraction(1, 9))
                                 for i in range(3) for j in range(3)]),
                 (False, True)))
    return [_checker_item(label, law, "nsmd",
                          functools.partial(lambda d: nd.checks.check_nsmd(d), law), pin)
            for label, law, pin in laws]


# -- audit_small ------------------------------------------------------------------

def random_laws(nd, seed) -> list:
    """Random 3-dimensional laws on {0,1,2}: the same number of laws for each
    atom count, so the work per batch varies little between seeds."""
    rng = random.Random(seed)
    pool = list(itertools.product(range(3), repeat=3))
    counts = [k for k in AUDIT_ATOM_COUNTS for _ in range(AUDIT_LAWS_PER_COUNT)]
    rng.shuffle(counts)
    laws = []
    for k in counts:
        support = rng.sample(pool, k)
        weights = [rng.randint(1, 9) for _ in support]
        total = sum(weights)
        laws.append(nd.make_pmf(3, [(v, Fraction(w, total))
                                    for v, w in zip(support, weights)]))
    return laws


def audit_small(nd, seed, workdir) -> list[Item]:
    items = []
    for k, law in enumerate(random_laws(nd, seed)):
        items.append(Item(
            f"law-{k}", AUDIT_PROPS,
            functools.partial(lambda d: nd.checks.audit_implications(d, jobs=1), law),
            functools.partial(lambda d, report: _from_verdicts(d, report.verdicts.values()),
                              law),
            None))
    return items


WORKLOADS = {
    "regression_knockout": regression_knockout,
    "association_orthant": association_orthant,
    "nsmd_ladder": nsmd_ladder,
    "audit_small": audit_small,
}
