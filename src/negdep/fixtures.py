"""Built-in reference scenarios with their expected exact outcomes.

Each fixture builds a distribution from its model spec, evaluates a list of
exact quantities (probabilities, conditional expectations, stochastic-order
chains) against embedded expected constants, runs the property checkers
whose verdicts are pinned, and reports every comparison as expected-vs-actual
fraction strings. Exit semantics: the fixture passes only if every
comparison matches exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .checks import (
    Verdict,
    check_conjecture,
    check_na,
    check_nltd,
    check_nod,
    check_nrd,
    check_nrtd,
    check_nsmd,
)
from .distributions import (
    eq_event,
    lower_event,
    make_pmf,
    permutation_distribution,
    upper_event,
)
from .errors import Caps, default_caps
from .rationals import format_rational
from .stochorder import st_leq
from .tournaments import (
    FixedDraw,
    KnockoutSpec,
    RandomDraw,
    RoundRobinSpec,
    equal_strength,
    knockout_distribution,
    knockout_spec,
    pair_score_law,
    round_robin_distribution,
    round_robin_spec,
)

F = Fraction

@dataclass
class FixtureResult:
    fixture: str
    comparisons: list[dict] = field(default_factory=list)
    verdicts: dict[str, Verdict] = field(default_factory=dict)
    timings_ms: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c["ok"] for c in self.comparisons)

    def expect(self, name: str, expected, actual) -> None:
        exp_s = expected if isinstance(expected, str) else format_rational(expected)
        act_s = actual if isinstance(actual, str) else format_rational(actual)
        self.comparisons.append(
            {"name": name, "expected": exp_s, "actual": act_s, "ok": exp_s == act_s}
        )

    def expect_verdict(self, verdict: Verdict, expected_holds: bool) -> None:
        self.verdicts[verdict.prop] = verdict
        self.expect(f"property {verdict.prop}", str(expected_holds), str(verdict.holds))

    def expect_strictly_less(self, name: str, left: Fraction, right: Fraction) -> None:
        self.expect(name, "True", str(left < right))


# -- three-player constant-sum round robin -------------------------------------

def three_player_spec() -> RoundRobinSpec:
    """One fair 0/1 pair; two pairs uniform on {0, 2, 5} with total 5."""
    u = [(0, F(1, 3)), (2, F(1, 3)), (5, F(1, 3))]
    return round_robin_spec(3, {
        (1, 2): pair_score_law(1, [(0, F(1, 2)), (1, F(1, 2))]),
        (1, 3): pair_score_law(5, u),
        (2, 3): pair_score_law(5, u),
    })


#: increasing symmetric test function on the first two scores
_PAYOFF = {
    (0, 1): 1, (0, 3): 1, (0, 6): 1, (1, 2): 1, (1, 5): 1,
    (2, 3): 2, (2, 6): 2, (3, 5): 2, (5, 6): 2,
}


def _payoff(pair) -> Fraction:
    a, b = sorted(pair)
    return F(_PAYOFF[(int(a), int(b))])


def _run_ex_2_1(caps: Caps, jobs: int, st_mode: str) -> FixtureResult:
    out = FixtureResult("ex-2.1")
    d = round_robin_distribution(three_player_spec())
    out.expect("atom count", "18", str(len(d)))

    s3 = d.marginal([3]).as_dict()
    for v, expected in ((0, F(1, 9)), (6, F(1, 9)), (10, F(1, 9)),
                        (3, F(2, 9)), (5, F(2, 9)), (8, F(2, 9))):
        out.expect(f"P(S3={v})", expected, s3[(F(v),)])

    means = {}
    for v, expected in ((0, 2), (3, 2), (5, 1), (6, 2), (8, 1), (10, 1)):
        law = d.condition(eq_event([3], [v]), keep=[1, 2])
        means[v] = law.expectation(_payoff)
        out.expect(f"E[f(S1,S2)|S3={v}]", F(expected), means[v])
    out.expect_strictly_less("E[f|S3=5] < E[f|S3=6]", means[5], means[6])

    low5 = d.condition(lower_event([3], [5]), keep=[1, 2]).expectation(_payoff)
    low6 = d.condition(lower_event([3], [6]), keep=[1, 2]).expectation(_payoff)
    out.expect("E[f|S3<=5]", F(8, 5), low5)
    out.expect("E[f|S3<=6]", F(5, 3), low6)
    out.expect_strictly_less("E[f|S3<=5] < E[f|S3<=6]", low5, low6)

    up5 = d.condition(upper_event([3], [5], strict=False), keep=[1, 2]).expectation(_payoff)
    up6 = d.condition(upper_event([3], [6], strict=False), keep=[1, 2]).expectation(_payoff)
    out.expect("E[f|S3>=5]", F(7, 6), up5)
    out.expect("E[f|S3>=6]", F(5, 4), up6)
    out.expect_strictly_less("E[f|S3>=5] < E[f|S3>=6]", up5, up6)

    out.expect_verdict(check_na(d, caps=caps, jobs=jobs), True)
    out.expect_verdict(check_nrd(d, caps=caps, st_mode=st_mode, jobs=jobs), False)
    out.expect_verdict(check_nltd(d, caps=caps, st_mode=st_mode, jobs=jobs), False)
    out.expect_verdict(check_nrtd(d, caps=caps, st_mode=st_mode, jobs=jobs), False)
    return out


# -- four-player knockouts ------------------------------------------------------

def dominance_spec(p12: Fraction, p34: Fraction, draw) -> KnockoutSpec:
    """Players 3, 4 always beat 1; player 2 always beats 3, 4."""
    one, zero = F(1), F(0)
    matrix = [
        [zero, p12, zero, zero],
        [1 - p12, zero, one, one],
        [one, zero, zero, p34],
        [one, zero, 1 - p34, zero],
    ]
    return knockout_spec(2, matrix, draw)


def _expect_regression_means(out: FixtureResult, name: str, verdict: Verdict,
                             mean_low: Fraction, mean_high: Fraction) -> None:
    out.expect(f"{name} witness mean at low point", mean_low,
               verdict.witness.mean_low[0] if verdict.witness else "missing")
    out.expect(f"{name} witness mean at high point", mean_high,
               verdict.witness.mean_high[0] if verdict.witness else "missing")


def _run_ex_3_1(caps: Caps, jobs: int, st_mode: str) -> FixtureResult:
    out = FixtureResult("ex-3.1")
    d = knockout_distribution(dominance_spec(F(1), F(1), RandomDraw()))
    expected_atoms = {
        (F(1), F(0), F(2), F(0)): F(1, 3),
        (F(0), F(2), F(1), F(0)): F(1, 3),
        (F(0), F(2), F(0), F(1)): F(1, 3),
    }
    out.expect("atom count", "3", str(len(d)))
    for x, p in expected_atoms.items():
        out.expect(f"P(S={tuple(int(v) for v in x)})", p, d.probability(x))

    out.expect("P(S3=2|S1=1)", F(1),
               d.condition(eq_event([1], [1]), keep=[3]).probability((F(2),)))
    at0 = d.condition(eq_event([1], [0]), keep=[3])
    out.expect("P(S3=0|S1=0)", F(1, 2), at0.probability((F(0),)))
    out.expect("P(S3=1|S1=0)", F(1, 2), at0.probability((F(1),)))

    nrd = check_nrd(d, caps=caps, st_mode=st_mode, jobs=jobs)
    nltd = check_nltd(d, caps=caps, st_mode=st_mode, jobs=jobs)
    nrtd = check_nrtd(d, caps=caps, st_mode=st_mode, jobs=jobs)
    out.expect_verdict(nrd, False)
    out.expect_verdict(nltd, False)
    out.expect_verdict(nrtd, False)
    _expect_regression_means(out, "nrd", nrd, F(1, 2), F(2))
    _expect_regression_means(out, "nltd", nltd, F(1, 2), F(1))
    _expect_regression_means(out, "nrtd", nrtd, F(1), F(2))
    return out


def _run_ex_3_2(caps: Caps, jobs: int, st_mode: str) -> FixtureResult:
    out = FixtureResult("ex-3.2")
    d = knockout_distribution(dominance_spec(F(1, 2), F(1, 2), FixedDraw((1, 2, 3, 4))))
    expected_atoms = {
        (F(1), F(0), F(2), F(0)): F(1, 4),
        (F(0), F(2), F(1), F(0)): F(1, 4),
        (F(1), F(0), F(0), F(2)): F(1, 4),
        (F(0), F(2), F(0), F(1)): F(1, 4),
    }
    out.expect("atom count", "4", str(len(d)))
    for x, p in expected_atoms.items():
        out.expect(f"P(S={tuple(int(v) for v in x)})", p, d.probability(x))

    nrd = check_nrd(d, caps=caps, st_mode=st_mode, jobs=jobs)
    nltd = check_nltd(d, caps=caps, st_mode=st_mode, jobs=jobs)
    nrtd = check_nrtd(d, caps=caps, st_mode=st_mode, jobs=jobs)
    out.expect_verdict(nrd, False)
    out.expect_verdict(nltd, False)
    out.expect_verdict(nrtd, False)
    _expect_regression_means(out, "nrd", nrd, F(1, 2), F(1))
    _expect_regression_means(out, "nltd", nltd, F(1, 2), F(3, 4))
    _expect_regression_means(out, "nrtd", nrtd, F(3, 4), F(1))
    return out


TABLE_OF_EIGHT = (
    ((0, 1, 0, 2), F(1, 8)),
    ((0, 1, 2, 0), F(1, 8)),
    ((0, 2, 1, 0), F(1, 8)),
    ((0, 2, 0, 1), F(1, 8)),
    ((1, 0, 0, 2), F(1, 8)),
    ((1, 0, 2, 0), F(1, 8)),
    ((2, 0, 1, 0), F(1, 8)),
    ((2, 0, 0, 1), F(1, 8)),
)


def _run_ex_3_3(caps: Caps, jobs: int, st_mode: str) -> FixtureResult:
    out = FixtureResult("ex-3.3")
    d = knockout_distribution(equal_strength(2, FixedDraw((1, 2, 3, 4))))
    expected = make_pmf(4, TABLE_OF_EIGHT)
    out.expect("equals the eight-row table", "True", str(d == expected))

    conditionals = {
        (0, 0): F(1, 2), (1, 0): F(1, 4), (2, 0): F(1, 4),
        (0, 1): F(1, 2), (2, 1): F(1, 2),
        (0, 2): F(1, 2), (1, 2): F(1, 2),
    }
    for (s3, s1), p in conditionals.items():
        law = d.condition(eq_event([1], [s1]), keep=[3])
        out.expect(f"P(S3={s3}|S1={s1})", p, law.probability((F(s3),)))

    nrd = check_nrd(d, caps=caps, st_mode=st_mode, jobs=jobs)
    nltd = check_nltd(d, caps=caps, st_mode=st_mode, jobs=jobs)
    out.expect_verdict(check_na(d, caps=caps, jobs=jobs), True)
    out.expect_verdict(check_nsmd(d, caps=caps), True)
    out.expect_verdict(check_nrtd(d, caps=caps, st_mode=st_mode, jobs=jobs), True)
    out.expect_verdict(check_nod(d), True)
    out.expect_verdict(nrd, False)
    out.expect_verdict(nltd, False)
    _expect_regression_means(out, "nrd", nrd, F(3, 4), F(1))
    _expect_regression_means(out, "nltd", nltd, F(3, 4), F(5, 6))

    # the four displayed decreasing chains of conditional laws, each link
    # checked by both stochastic-order algorithms
    def tail_law(keep, indices, bounds):
        ev = upper_event(indices, bounds, strict=False)
        return d.condition(ev, keep=keep)

    chains = [
        ("chain [S2,S3,S4 | S1>=h]",
         [tail_law([2, 3, 4], [1], [h]) for h in (0, 1, 2)]),
        ("chain [S3,S4 | S1>=h, S2>=0]",
         [tail_law([3, 4], [1, 2], [h, 0]) for h in (0, 1)]),
        ("chain [S2,S4 | S1>=h, S3>=g]",
         [tail_law([2, 4], [1, 3], [0, 0]),
          tail_law([2, 4], [1, 3], [1, 0]),
          tail_law([2, 4], [1, 3], [1, 1])]),
        ("chain [S2,S4 | S1>=h, S3>=g] second",
         [tail_law([2, 4], [1, 3], [1, 0]),
          tail_law([2, 4], [1, 3], [2, 0]),
          tail_law([2, 4], [1, 3], [2, 1])]),
    ]
    for name, laws in chains:
        links = [
            st_leq(laws[k + 1], laws[k], mode="verify", caps=caps).holds
            for k in range(len(laws) - 1)
        ]
        out.expect(name, "True", str(all(links)))
    return out


def _run_thm_3_1(caps: Caps, jobs: int, st_mode: str) -> FixtureResult:
    out = FixtureResult("thm-3.1")
    d = knockout_distribution(equal_strength(2, RandomDraw()))
    reference = permutation_distribution([0, 0, 1, 2])
    out.expect("equals the permutation law of (0,0,1,2)", "True", str(d == reference))
    out.expect_verdict(check_nrd(d, caps=caps, st_mode=st_mode, jobs=jobs), True)
    out.expect_verdict(check_nltd(d, caps=caps, st_mode=st_mode, jobs=jobs), True)
    out.expect_verdict(check_nrtd(d, caps=caps, st_mode=st_mode, jobs=jobs), True)
    return out


def _run_thm_3_2(caps: Caps, jobs: int, st_mode: str) -> FixtureResult:
    out = FixtureResult("thm-3.2")
    d = knockout_distribution(equal_strength(3, FixedDraw(tuple(range(1, 9)))))
    out.expect("atom count", "128", str(len(d)))
    verdict = check_na(d, max_block=2, caps=caps, jobs=jobs)
    out.expect_verdict(verdict, True)
    out.expect_verdict(check_nod(d), True)
    return out


def _run_thm_3_3(caps: Caps, jobs: int, st_mode: str) -> FixtureResult:
    out = FixtureResult("thm-3.3")
    d = knockout_distribution(equal_strength(3, FixedDraw(tuple(range(1, 9)))))
    verdict = check_nrtd(d, max_j=2, caps=caps, st_mode=st_mode, jobs=jobs)
    out.expect_verdict(verdict, True)
    return out


def _run_lemma_3_1(caps: Caps, jobs: int, st_mode: str) -> FixtureResult:
    out = FixtureResult("lemma-3.1")
    for values in ((1, 2, 3), (0, 0, 1, 2)):
        d = permutation_distribution(values)
        for check, name in ((check_nrd, "nrd"), (check_nltd, "nltd"), (check_nrtd, "nrtd")):
            verdict = check(d, caps=caps, st_mode=st_mode, jobs=jobs)
            out.expect(f"{name} on permutation law of {values}", "True", str(verdict.holds))
    return out


def _run_conjecture(caps: Caps, jobs: int, st_mode: str) -> FixtureResult:
    out = FixtureResult("conjecture")
    report = check_conjecture([1, 2, 3], caps=caps, st_mode=st_mode, jobs=jobs)
    out.expect("holds on (1,2,3)", "True", str(report.holds_on_instance))
    return out


_RUNNERS: dict[str, Callable[[Caps, int, str], FixtureResult]] = {
    "ex-2.1": _run_ex_2_1,
    "ex-3.1": _run_ex_3_1,
    "ex-3.2": _run_ex_3_2,
    "ex-3.3": _run_ex_3_3,
    "thm-3.1": _run_thm_3_1,
    "thm-3.2": _run_thm_3_2,
    "thm-3.3": _run_thm_3_3,
    "lemma-3.1": _run_lemma_3_1,
    "conjecture": _run_conjecture,
}

FIXTURE_IDS = tuple(_RUNNERS)


def run_fixture(fixture: str, caps: Caps | None = None, jobs: int = 1,
                st_mode: str = "fast") -> FixtureResult:
    if fixture not in _RUNNERS:
        raise ValueError(f"unknown fixture {fixture!r}; known: {', '.join(FIXTURE_IDS)}")
    caps = caps or default_caps()
    start = time.monotonic()
    result = _RUNNERS[fixture](caps, jobs, st_mode)
    result.timings_ms["total"] = (time.monotonic() - start) * 1000.0
    return result
