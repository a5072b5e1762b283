"""The Dinic max-flow engine, kept verbatim as a differential oracle.

This is ``negdep.maxflow.integer_max_flow`` as it was before the live engine
became a shortest-augmenting-path search: a BFS level graph, a blocking flow
with current-arc pointers and dead-end pruning, and a separate residual
reachability pass for the cut. ``tests/reference_conditioning.py`` runs its
cold bipartite coupling on it, and ``tests/test_kernel_oracles.py`` checks
that both engines give the same value and the same source side.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence


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
