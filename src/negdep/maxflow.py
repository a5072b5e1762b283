"""Exact maximum flow.

The engine is :func:`integer_max_flow`, a Dinic search (BFS level graph plus
blocking flow) on integer nodes and integer capacities, so it terminates and
every intermediate quantity stays exact. :func:`max_flow` takes a
:class:`FlowNetwork` with rational capacities, scales them by their common
denominator to integers, runs the engine, and scales flows back to Fractions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Hashable, Sequence

from .rationals import as_rational


@dataclass
class FlowNetwork:
    """Directed capacitated network with designated source and sink."""

    source: Hashable
    sink: Hashable
    _ids: dict = field(default_factory=dict)
    _edges: list = field(default_factory=list)   # (u_id, v_id, capacity)

    def __post_init__(self):
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

    level = [-1] * n
    it = [0] * n

    def bfs() -> bool:
        for i in range(n):
            level[i] = -1
        level[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for e in adj[u]:
                v = to[e]
                if residual[e] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level[dst] >= 0

    def augment_once() -> int:
        """One admissible path in the level graph, with current-arc pruning."""
        path: list[int] = []
        u = src
        while True:
            if u == dst:
                bottleneck = min(residual[e] for e in path)
                for e in path:
                    residual[e] -= bottleneck
                    residual[e ^ 1] += bottleneck
                return bottleneck
            advanced = False
            while it[u] < len(adj[u]):
                e = adj[u][it[u]]
                v = to[e]
                if residual[e] > 0 and level[v] == level[u] + 1:
                    path.append(e)
                    u = v
                    advanced = True
                    break
                it[u] += 1
            if not advanced:
                if not path:
                    return 0
                level[u] = -1       # dead end in this phase
                e = path.pop()
                u = to[e ^ 1]
                it[u] += 1

    total = 0
    while bfs():
        it = [0] * n
        while True:
            pushed = augment_once()
            if pushed == 0:
                break
            total += pushed

    # residual reachability gives the min cut
    seen = [False] * n
    seen[src] = True
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for e in adj[u]:
            if residual[e] > 0 and not seen[to[e]]:
                seen[to[e]] = True
                queue.append(to[e])

    sent = [cap - residual[2 * k] for k, (_, _, cap) in enumerate(edges)]
    return total, sent, seen


def first_fit(masks: Sequence[int], supply: list[int],
              demand: list[int]) -> dict[tuple[int, int], int]:
    """Route each ``supply[i]``, i ascending, to the j with bit j set in
    ``masks[i]`` that still have demand, lowest j first. Returns the routed
    mass by (i, j) pair, each positive; ``supply`` and ``demand`` are left
    holding what was not routed. A shortfall does not mean that no complete
    routing exists; a maximum flow decides that."""
    routed: dict[tuple[int, int], int] = {}
    # the j with demand left, as one bitset built from a string in linear time
    open_j = int("".join("1" if d else "0" for d in reversed(demand)) or "0", 2)
    for i, m in enumerate(masks):
        s = supply[i]
        m &= open_j
        while m and s:
            low = m & -m
            m ^= low
            j = low.bit_length() - 1
            d = demand[j]
            f = s if s < d else d
            routed[i, j] = f
            demand[j] = d - f
            s -= f
            if f == d:
                open_j ^= low
        supply[i] = s
    return routed


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
