"""Frozen reference builders for the tournament laws.

These are the three enumerations ``negdep.tournaments`` used before its
builders became one score-vector chain on integer weights: the round robin
walks the product of every pair law, the fixed draw recurses over
sub-brackets, and the random draw steps round by round on Fraction
weights. They are kept only as the oracle the differential tests compare
the chain against.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from negdep.distributions import FiniteJointDistribution
from negdep.tournaments import FixedDraw, KnockoutSpec, RandomDraw, RoundRobinSpec

ZERO = Fraction(0)
ONE = Fraction(1)


def _sorted_atoms(mapping):
    return tuple(sorted(mapping.items()))


def round_robin_distribution(spec: RoundRobinSpec) -> FiniteJointDistribution:
    pairs = [pair for pair, _ in spec.games]
    laws = [law for _, law in spec.games]
    merged = {}
    for combo in itertools.product(*(law.law for law in laws)):
        scores = [ZERO] * spec.n
        prob = ONE
        for (i, j), law, (value, p) in zip(pairs, laws, combo):
            scores[i - 1] += value
            scores[j - 1] += law.total - value
            prob *= p
        key = tuple(scores)
        merged[key] = merged.get(key, ZERO) + prob
    return FiniteJointDistribution(spec.n, _sorted_atoms(merged))


def knockout_fixed_draw(spec: KnockoutSpec) -> FiniteJointDistribution:
    assert isinstance(spec.draw, FixedDraw)

    def run(slots):
        if len(slots) == 1:
            player = slots[0]
            return {(player, ((player, 0),)): ONE}
        half = len(slots) // 2
        left = run(slots[:half])
        right = run(slots[half:])
        out = {}
        for (wl, sl), pl in left.items():
            for (wr, sr), pr in right.items():
                base = pl * pr
                for winner, loser in ((wl, wr), (wr, wl)):
                    p = spec.win_prob[winner - 1][loser - 1]
                    if p == 0:
                        continue
                    scores = tuple(sorted(
                        (player, score + (1 if player == winner else 0))
                        for player, score in sl + sr
                    ))
                    key = (winner, scores)
                    out[key] = out.get(key, ZERO) + base * p
        return out

    merged = {}
    for (_, scores), prob in run(spec.draw.bracket).items():
        vector = tuple(Fraction(score) for _, score in scores)
        merged[vector] = merged.get(vector, ZERO) + prob
    return FiniteJointDistribution(spec.n, _sorted_atoms(merged))


def _perfect_matchings(players):
    if not players:
        yield ()
        return
    first = players[0]
    for k in range(1, len(players)):
        rest = players[1:k] + players[k + 1:]
        for sub in _perfect_matchings(rest):
            yield ((first, players[k]),) + sub


def knockout_random_draw(spec: KnockoutSpec) -> FiniteJointDistribution:
    assert isinstance(spec.draw, RandomDraw)
    n = spec.n
    state = {(0,) * n: ONE}
    for rnd in range(1, spec.rounds + 1):
        target = rnd - 1
        next_state = {}
        for scores, prob in sorted(state.items()):
            survivors = tuple(i for i in range(1, n + 1) if scores[i - 1] == target)
            matchings = list(_perfect_matchings(survivors))
            matching_prob = Fraction(1, len(matchings))
            for matching in matchings:
                base = prob * matching_prob
                for winners in itertools.product(*(((a, b), (b, a)) for a, b in matching)):
                    p = base
                    for winner, loser in winners:
                        p *= spec.win_prob[winner - 1][loser - 1]
                        if p == 0:
                            break
                    if p == 0:
                        continue
                    new_scores = list(scores)
                    for winner, _ in winners:
                        new_scores[winner - 1] += 1
                    key = tuple(new_scores)
                    next_state[key] = next_state.get(key, ZERO) + p
        state = next_state
    merged = {tuple(Fraction(s) for s in scores): p for scores, p in state.items()}
    return FiniteJointDistribution(n, _sorted_atoms(merged))
