"""Exact score-vector laws for two tournament formats.

* Constant-sum round robin: every pair (i, j) plays once; player i draws a
  score from the pair's law, player j receives the complement to the pair
  total; pairs are independent. The output is the joint law of the n total
  scores.

* Single-elimination knockout with 2**rounds players: each duel (i, j) is won
  by i with a fixed probability, independently of everything else; the score
  of a player is the number of rounds won. The first-round pairing is either
  a fixed bracket (slots 2k-1 and 2k meet, winners of adjacent slot pairs
  meet next) or re-randomized uniformly over perfect matchings each round.

All three laws are one chain on score vectors with int weights: a round robin
steps once per game, a knockout once per round, and the two draws differ only
in the matchings a round allows (docs/theory.md section 12). Everything is
exact; zero-probability branches are dropped.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .distributions import FiniteJointDistribution, IntegerView, axis_ranks, with_view
from .errors import SupportOutOfRange
from .rationals import as_rational, format_rational


# -- the score chain ---------------------------------------------------------

def _score_law(n: int, steps: Iterable[Callable], scale: int = 1) -> FiniteJointDistribution:
    """Law of the score vector that a chain of steps reaches from all zeros.

    A step maps a state to its (successor, int weight) pairs; states hold the
    scores times ``scale`` (docs/theory.md section 12). The law carries the
    integer view of its final states and weights (docs/theory.md section 9).
    """
    state = {(0,) * n: 1}
    for step in steps:
        merged: dict[tuple[int, ...], int] = {}
        for scores, weight in state.items():
            for successor, w in step(scores):
                merged[successor] = merged.get(successor, 0) + weight * w
        state = merged
    keys, weights = zip(*sorted(state.items()))
    total = sum(weights)
    # one Fraction per distinct score and weight, shared by the atoms
    value = {s: Fraction(s, scale) for s in set().union(*keys)}
    prob = {w: Fraction(w, total) for w in set(weights)}
    law = FiniteJointDistribution(n, tuple((tuple(map(value.get, scores)), prob[w])
                                           for scores, w in zip(keys, weights)))
    # the int scores order like their values, and the lcm of the reduced
    # probabilities' denominators is total / gcd(weights)
    ranks, tables = axis_ranks(zip(*keys), int)
    axes = tuple(tuple(map(value.get, table)) for table in tables)
    g = math.gcd(*weights)
    return with_view(law, IntegerView.of(tuple(w // g for w in weights), ranks, axes))


# -- round robin -----------------------------------------------------------

@dataclass(frozen=True)
class PairScoreLaw:
    """Law of the first player's score in one pairing; the pair sums to total."""

    total: Fraction
    law: tuple[tuple[Fraction, Fraction], ...]  # (score value, probability)

    def __post_init__(self):
        if self.total <= 0:
            raise SupportOutOfRange(f"pair total {self.total} must be positive")
        mass = 0
        for value, prob in self.law:
            if not (0 <= value <= self.total):
                raise SupportOutOfRange(
                    f"score {format_rational(value)} outside [0, {format_rational(self.total)}]"
                )
            if prob <= 0:
                raise SupportOutOfRange(f"probability {prob} must be positive")
            mass += prob
        if mass != 1:
            raise SupportOutOfRange(f"pair law mass is {format_rational(mass)}, not 1")
        if len({v for v, _ in self.law}) != len(self.law):
            raise SupportOutOfRange("duplicate score values in pair law")


def pair_score_law(total, entries) -> PairScoreLaw:
    return PairScoreLaw(
        as_rational(total),
        tuple(sorted((as_rational(v), as_rational(p)) for v, p in entries)),
    )


@dataclass(frozen=True)
class RoundRobinSpec:
    """n players; games[(i, j)] with i < j is the pair's score law."""

    n: int
    games: tuple[tuple[tuple[int, int], PairScoreLaw], ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("round robin needs at least two players")
        expected = {(i, j) for i in range(1, self.n + 1) for j in range(i + 1, self.n + 1)}
        got = {pair for pair, _ in self.games}
        if got != expected:
            raise ValueError(f"need exactly one law per pair; missing {sorted(expected - got)}, "
                             f"extra {sorted(got - expected)}")


def round_robin_spec(n: int, games: dict[tuple[int, int], PairScoreLaw]) -> RoundRobinSpec:
    return RoundRobinSpec(n, tuple(sorted(games.items())))


def round_robin_distribution(spec: RoundRobinSpec) -> FiniteJointDistribution:
    """Joint law of the total scores; every atom sums to the sum of pair totals.

    One chain step per game, on scores times the lcm of their denominators."""
    scale = math.lcm(*(q.denominator for _, law in spec.games
                       for q in (law.total, *(v for v, _ in law.law))))
    return _score_law(spec.n, (_game_step(i - 1, j - 1, law, scale)
                               for (i, j), law in spec.games), scale)


def _game_step(i: int, j: int, law: PairScoreLaw, scale: int) -> Callable:
    """Player i scores v and j total - v, with weight p times the law's lcm."""
    lcm = math.lcm(*(p.denominator for _, p in law.law))
    total = int(law.total * scale)
    moves = [(int(v * scale), int(p * lcm)) for v, p in law.law]

    def step(scores):
        for v, w in moves:
            successor = list(scores)
            successor[i] += v
            successor[j] += total - v
            yield tuple(successor), w
    return step


# -- knockout ---------------------------------------------------------------

@dataclass(frozen=True)
class FixedDraw:
    """Players listed by leaf slot; slots 2k-1 and 2k meet in round one."""

    bracket: tuple[int, ...]


@dataclass(frozen=True)
class RandomDraw:
    """Survivors are re-paired by a uniform perfect matching every round."""


@dataclass(frozen=True)
class KnockoutSpec:
    rounds: int
    win_prob: tuple[tuple[Fraction, ...], ...]  # win_prob[i-1][j-1] = P(i beats j)
    draw: FixedDraw | RandomDraw

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("need at least one round")
        size = len(self.win_prob)
        # compare exponents first: 2 ** rounds may be too large to build
        if self.rounds != size.bit_length() - 1:
            raise ValueError(f"{self.rounds} rounds need 2^{self.rounds} players, "
                             f"but the win-probability matrix has {size} rows")
        n = self.n
        if size != n or any(len(row) != n for row in self.win_prob):
            raise ValueError(f"win-probability matrix must be {n}x{n}")
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                p = self.win_prob[i][j]
                if not (0 <= p <= 1):
                    raise ValueError(f"win probability {p} for ({i + 1},{j + 1}) outside [0,1]")
                if p + self.win_prob[j][i] != 1:
                    raise ValueError(
                        f"win probabilities for ({i + 1},{j + 1}) do not sum to 1")
        if isinstance(self.draw, FixedDraw) and sorted(self.draw.bracket) != list(range(1, n + 1)):
            raise ValueError(f"bracket {self.draw.bracket} is not a permutation of 1..{n}")

    @property
    def n(self) -> int:
        return 2 ** self.rounds


def knockout_spec(rounds: int, win_prob: Sequence[Sequence], draw) -> KnockoutSpec:
    matrix = tuple(tuple(as_rational(p) for p in row) for row in win_prob)
    return KnockoutSpec(rounds, matrix, draw)


def equal_strength(rounds: int, draw) -> KnockoutSpec:
    """All duels are fair coins."""
    n = 2 ** rounds
    half = Fraction(1, 2)
    matrix = tuple(
        tuple(Fraction(0) if i == j else half for j in range(n)) for i in range(n)
    )
    return KnockoutSpec(rounds, matrix, draw)


def knockout_fixed_draw(spec: KnockoutSpec) -> FiniteJointDistribution:
    """Exact law of rounds-won under the fixed bracket."""
    if not isinstance(spec.draw, FixedDraw):
        raise ValueError("spec does not carry a fixed draw")
    # in bracket order, adjacent players with r wins won sibling sub-brackets
    return _knockout_law(spec, [slot - 1 for slot in spec.draw.bracket],
                         lambda players: (tuple(zip(players[::2], players[1::2])),))


def knockout_random_draw(spec: KnockoutSpec) -> FiniteJointDistribution:
    """Exact law of rounds-won when every round's pairing is uniformly random."""
    if not isinstance(spec.draw, RandomDraw):
        raise ValueError("spec does not carry a random draw")
    return _knockout_law(spec, range(spec.n), _perfect_matchings)


def _perfect_matchings(players: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
    """All ways to pair up an even-sized set; (m-1)!! of them, each once."""
    if not players:
        yield ()
        return
    first = players[0]
    for k in range(1, len(players)):
        rest = players[1:k] + players[k + 1:]
        for sub in _perfect_matchings(rest):
            yield ((first, players[k]),) + sub


def _knockout_law(spec: KnockoutSpec, order: Sequence[int],
                  pairings: Callable) -> FiniteJointDistribution:
    """One chain step per round: the players with r wins, listed in ``order``
    (0-based), meet as each matching ``pairings`` gives, and each choice of
    winners weighs the product of its win probabilities, each times the lcm
    of the matrix's denominators."""
    n = spec.n
    lcm = math.lcm(*(p.denominator for row in spec.win_prob for p in row))
    beats = [[int(p * lcm) for p in row] for row in spec.win_prob]

    def round_step(r: int) -> Callable:
        def step(scores):
            survivors = tuple(i for i in order if scores[i] == r)
            for matching in pairings(survivors):
                duels = [[(w, beats[w][l]) for w, l in ((a, b), (b, a)) if beats[w][l]]
                         for a, b in matching]
                for winners in itertools.product(*duels):
                    successor = list(scores)
                    weight = 1
                    for w, q in winners:
                        successor[w] += 1
                        weight *= q
                    yield tuple(successor), weight
        return step

    return _score_law(n, map(round_step, range(spec.rounds)))


def knockout_distribution(spec: KnockoutSpec) -> FiniteJointDistribution:
    if isinstance(spec.draw, FixedDraw):
        return knockout_fixed_draw(spec)
    return knockout_random_draw(spec)


# -- model-spec wire format --------------------------------------------------

def model_spec_to_json(spec) -> dict:
    if isinstance(spec, RoundRobinSpec):
        return {
            "model": "round_robin",
            "n": spec.n,
            "pairs": [
                {
                    "i": i,
                    "j": j,
                    "r": format_rational(law.total),
                    "law": [[format_rational(v), format_rational(p)] for v, p in law.law],
                }
                for (i, j), law in spec.games
            ],
        }
    if isinstance(spec, KnockoutSpec):
        draw = ({"kind": "fixed", "bracket": list(spec.draw.bracket)}
                if isinstance(spec.draw, FixedDraw) else {"kind": "random"})
        return {
            "model": "knockout",
            "ell": spec.rounds,
            "win_prob": [[format_rational(p) for p in row] for row in spec.win_prob],
            "draw": draw,
        }
    raise TypeError(f"not a model spec: {spec!r}")


def _json_int(value, name: str) -> int:
    """A JSON integer; bools and floats are rejected rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _json_rational(value, name: str):
    """A JSON rational for ``as_rational``; bools are rejected, not read as 0 or 1."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an exact rational, got {value!r}")
    return value


def _json_list(value, name: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list, got {value!r}")
    return value


def model_spec_from_json(obj: dict):
    """Parse a model spec; every malformed field raises ``ValueError``."""
    if not isinstance(obj, dict) or "model" not in obj:
        raise ValueError("model spec JSON needs a 'model' field")
    model = obj["model"]
    if model not in ("round_robin", "knockout"):
        raise ValueError(f"unknown model {model!r}")
    try:
        if model == "round_robin":
            games = {}
            for entry in _json_list(obj["pairs"], "'pairs'"):
                pair = (_json_int(entry["i"], "'i'"), _json_int(entry["j"], "'j'"))
                if pair in games:
                    raise ValueError(f"pair {pair} is listed twice")
                law = [[_json_rational(v, "a 'law' entry")
                        for v in _json_list(item, "a 'law' entry")]
                       for item in _json_list(entry["law"], "'law'")]
                games[pair] = pair_score_law(_json_rational(entry["r"], "'r'"), law)
            return round_robin_spec(_json_int(obj["n"], "'n'"), games)
        draw_obj = obj["draw"]
        kind = draw_obj["kind"]
        if kind == "fixed":
            draw = FixedDraw(tuple(_json_int(s, "a bracket entry")
                                   for s in _json_list(draw_obj["bracket"], "'bracket'")))
        elif kind == "random":
            draw = RandomDraw()
        else:
            raise ValueError(f"unknown draw kind {kind!r}")
        matrix = [[_json_rational(p, "a 'win_prob' entry")
                   for p in _json_list(row, "a 'win_prob' row")]
                  for row in _json_list(obj["win_prob"], "'win_prob'")]
        return knockout_spec(_json_int(obj["ell"], "'ell'"), matrix, draw)
    except KeyError as exc:
        raise ValueError(f"bad {model} spec: missing field {exc}") from exc
    except TypeError as exc:  # e.g. a float where an exact rational belongs
        raise ValueError(f"bad {model} spec: {exc}") from exc
