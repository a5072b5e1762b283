"""Exact maximum flow, and the one kernel that asks whether some upper set
of a poset has positive weight.

The engine is :func:`integer_max_flow`, an Edmonds-Karp search (each
augmenting path a shortest one, found by breadth-first search) on integer
nodes and integer capacities, so it terminates and every intermediate
quantity stays exact. :func:`max_flow` takes a :class:`FlowNetwork` with
rational capacities, scales them by their common denominator to integers,
runs the engine, and scales flows back to Fractions.
:func:`positive_upper_set` decides every usual stochastic order on two or
more axes and every NSMD chain step past the first: a first-fit upward
transport, and a max-flow warm-started from it only where first fit falls
short (docs/theory.md section 2).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Hashable, Sequence

from .errors import InternalConsistencyError
from .rationals import as_rational


@dataclass
class FlowNetwork:
    """Directed capacitated network with designated source and sink, which
    must be two nodes."""

    source: Hashable
    sink: Hashable
    _ids: dict = field(default_factory=dict)
    _edges: list = field(default_factory=list)   # (u_id, v_id, capacity)

    def __post_init__(self):
        if self.source == self.sink:
            raise ValueError(f"source and sink are the same node {self.source!r}")
        self._node_id(self.source)
        self._node_id(self.sink)

    def _node_id(self, node) -> int:
        if node not in self._ids:
            self._ids[node] = len(self._ids)
        return self._ids[node]

    def add_edge(self, u, v, capacity) -> None:
        cap = as_rational(capacity)
        if cap < 0:
            raise ValueError(f"capacity {cap} on edge {u!r}->{v!r} is negative")
        self._edges.append((self._node_id(u), self._node_id(v), cap))

    @property
    def nodes(self):
        return tuple(self._ids)


@dataclass(frozen=True)
class MaxFlowResult:
    value: Fraction
    flows: dict             # (u, v) -> Fraction, summed over parallel edges
    source_side: frozenset  # nodes reachable from the source in the residual


def integer_max_flow(n: int, edges: Sequence[tuple[int, int, int]], src: int,
                     dst: int) -> tuple[int, list[int], list[bool]]:
    """Maximum flow on nodes 0..n-1 with nonnegative integer capacities.

    Returns the flow value, the flow on each edge in input order, and for
    each node whether the residual network reaches it from ``src`` (the
    source side of a minimum cut). Adjacency lists keep the input edge order,
    so the flow found depends only on that order and the capacities, and
    multiplying every capacity by one positive constant multiplies every
    flow by it.
    """
    # paired residual slots: edge 2k forward, 2k^1 its reverse
    to: list[int] = []
    residual: list[int] = []
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v, cap in edges:
        adj[u].append(len(to))
        to.append(v)
        residual.append(cap)
        adj[v].append(len(to))
        to.append(u)
        residual.append(0)

    total = 0
    while True:
        # one BFS from src; entry[v] is the slot it first reached v by
        seen = [False] * n
        seen[src] = True
        entry = [0] * n
        queue = deque([src])
        while queue and not seen[dst]:
            u = queue.popleft()
            for e in adj[u]:
                v = to[e]
                if residual[e] > 0 and not seen[v]:
                    seen[v] = True
                    entry[v] = e
                    queue.append(v)
        if not seen[dst]:
            break   # seen is the residual reach of src: the min cut's source side
        path = []
        v = dst
        while v != src:
            path.append(entry[v])
            v = to[entry[v] ^ 1]
        bottleneck = min(residual[e] for e in path)
        for e in path:
            residual[e] -= bottleneck
            residual[e ^ 1] += bottleneck
        total += bottleneck

    sent = [cap - residual[2 * k] for k, (_, _, cap) in enumerate(edges)]
    return total, sent, seen


def first_fit(senders: Sequence[int], up: Sequence[int], supply: list[int],
              demand: list[int]) -> dict[tuple[int, int], int]:
    """Route each ``supply[a]``, for a in ``senders`` in that order, to the b
    with bit b set in ``up[a]`` that still have demand, lowest b first.
    Returns the routed mass by (a, b) pair, each positive; ``supply`` and
    ``demand`` are left holding what was not routed. A shortfall does not
    mean that no complete routing exists; a maximum flow decides that."""
    routed: dict[tuple[int, int], int] = {}
    # the b with demand left, as one bitset built from a string in linear time
    open_b = int("".join("1" if d else "0" for d in reversed(demand)) or "0", 2)
    for a in senders:
        s = supply[a]
        m = up[a] & open_b
        while m and s:
            low = m & -m
            m ^= low
            b = low.bit_length() - 1
            d = demand[b]
            f = s if s < d else d
            routed[a, b] = f
            demand[b] = d - f
            s -= f
            if f == d:
                open_b ^= low
        supply[a] = s
    return routed


def bits(m: int) -> list[int]:
    """The positions of the set bits of m, ascending."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


def positive_upper_set(weights: Sequence[int], up: Sequence[int]
                       ) -> tuple[dict[tuple[int, int], int] | None, list[int] | None]:
    """Does some upper set of the points 0..m-1 have positive weight?

    ``weights`` are ints that sum to 0, and bit b of ``up[a]`` is set iff
    point b is at or above point a in a partial order. Each point of
    positive weight sends it to the points of negative weight above it, by
    first fit (:func:`first_fit`), the senders with the fewest points above
    them first. Only on a shortfall does a max-flow run, on the netted
    network (source -> sender at its weight, sender -> each receiver above
    it at the sender's weight, receiver -> sink at its weight's size), warm
    from the first-fit flow: residual forward capacities, plus a back edge
    per routed pair (docs/theory.md section 2).

    Returns ``(transport, None)`` when no upper set has positive weight,
    ``transport[a, b] > 0`` being the weight a sends up to b, each point
    sending exactly its positive weight and receiving exactly its negative
    one; or ``(None, senders)`` when one does, the senders on the source
    side of the minimal minimum cut, ascending, whose upward closure is the
    least upper set of greatest weight. Both answers are re-checked in
    integers.
    """
    if sum(weights) != 0:
        raise InternalConsistencyError("point weights do not sum to 0")
    senders = sorted((a for a, w in enumerate(weights) if w > 0), key=lambda a: up[a].bit_count())
    supply = [w if w > 0 else 0 for w in weights]
    demand = [-w if w < 0 else 0 for w in weights]
    routed = first_fit(senders, up, supply, demand)
    short = sum(supply)
    if short:
        # point a is node 2 + a; source 0 and sink 1 take what is left
        receivers = sum(1 << b for b, w in enumerate(weights) if w < 0)
        middle = [(a, b) for a in senders for b in bits(up[a] & receivers)]
        back = list(routed)
        edges = [(0, 2 + a, supply[a]) for a in senders if supply[a]]
        edges += [(2 + b, 1, d) for b, d in enumerate(demand) if d]
        start = len(edges)
        edges += [(2 + a, 2 + b, weights[a] - routed.get((a, b), 0)) for a, b in middle]
        edges += [(2 + b, 2 + a, routed[a, b]) for a, b in back]
        value, sent, seen = integer_max_flow(2 + len(weights), edges, 0, 1)
        if value != short:
            cut = sorted(a for a in senders if seen[2 + a])
            closure = 0
            for a in cut:
                closure |= up[a]
            if sum(weights[b] for b in bits(closure)) <= 0:
                raise InternalConsistencyError("the cut's upper set does not weigh more than 0")
            return None, cut
        for pair, f in zip(middle, sent[start:]):
            routed[pair] = routed.get(pair, 0) + f
        for pair, f in zip(back, sent[start + len(middle):]):
            routed[pair] -= f
        routed = {pair: f for pair, f in routed.items() if f}
    rows = [0] * len(weights)
    cols = [0] * len(weights)
    for (a, b), f in routed.items():
        if f <= 0 or not up[a] >> b & 1:
            raise InternalConsistencyError(f"transport of {f} from point {a} to {b} is not upward")
        rows[a] += f
        cols[b] += f
    if rows != [max(w, 0) for w in weights] or cols != [max(-w, 0) for w in weights]:
        raise InternalConsistencyError("transport sums differ from the point weights")
    return routed, None


def max_flow(net: FlowNetwork) -> MaxFlowResult:
    """Exact maximum flow value, a maximizing flow, and the min-cut side."""
    scale = lcm(*(c.denominator for _, _, c in net._edges)) if net._edges else 1
    edges = [(u, v, int(cap * scale)) for u, v, cap in net._edges]
    total, sent, seen = integer_max_flow(len(net._ids), edges,
                                         net._ids[net.source], net._ids[net.sink])
    names = list(net._ids)
    flows: dict = {}
    for (u, v, _), f in zip(edges, sent):
        if f:
            key = (names[u], names[v])
            flows[key] = flows.get(key, Fraction(0)) + Fraction(f, scale)
    return MaxFlowResult(
        value=Fraction(total, scale),
        flows=flows,
        source_side=frozenset(name for name, i in net._ids.items() if seen[i]),
    )
