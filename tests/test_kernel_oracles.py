"""Cross-checks of the exact kernels against independent implementations."""

import itertools
import random
from fractions import Fraction
from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings
from scipy.optimize import linprog

from negdep import FlowNetwork, LinearProgram, max_flow, maxflow, simplex_solve
from negdep.maxflow import integer_max_flow, positive_upper_set
from negdep.simplex import OPTIMAL, UNBOUNDED
from negdep.uppersets import points_above

from . import reference_maxflow
from .test_nsmd_chain import weighted_posets

F = Fraction


def _random_network(rng):
    n_mid = rng.randint(2, 6)
    nodes = [f"v{k}" for k in range(n_mid)]
    net = FlowNetwork("s", "t")
    g = nx.DiGraph()
    edges = []
    for node in nodes:
        if rng.random() < 0.8:
            edges.append(("s", node, rng.randint(0, 8)))
        if rng.random() < 0.8:
            edges.append((node, "t", rng.randint(0, 8)))
    for _ in range(rng.randint(1, 8)):
        u, v = rng.sample(nodes, 2)
        edges.append((u, v, rng.randint(0, 8)))
    for u, v, c in edges:
        net.add_edge(u, v, F(c))
        if g.has_edge(u, v):
            g[u][v]["capacity"] += c
        else:
            g.add_edge(u, v, capacity=c)
    g.add_node("s")
    g.add_node("t")
    return net, g


def test_max_flow_matches_networkx_on_random_integer_networks():
    rng = random.Random(4711)
    for _ in range(120):
        net, g = _random_network(rng)
        ours = max_flow(net).value
        reference = nx.maximum_flow_value(g, "s", "t")
        assert ours == reference


def test_max_flow_rational_capacities_scale_consistently():
    rng = random.Random(97)
    for _ in range(40):
        net, g = _random_network(rng)
        scaled = FlowNetwork("s", "t")
        for u, v, c in net._edges:
            names = list(net._ids)
            scaled.add_edge(names[u], names[v], c / 7)
        assert max_flow(scaled).value == max_flow(net).value / 7


def _integer_network(net):
    """The node count, integer edges, source and sink of a network whose
    capacities are integers."""
    edges = [(u, v, int(c)) for u, v, c in net._edges]
    return len(net._ids), edges, net._ids[net.source], net._ids[net.sink]


def _assert_engines_agree(n, edges, src, dst):
    value, sent, seen = integer_max_flow(n, edges, src, dst)
    ref_value, _, ref_seen = reference_maxflow.integer_max_flow(n, edges, src, dst)
    assert (value, seen) == (ref_value, ref_seen)
    assert all(0 <= f <= cap for f, (_, _, cap) in zip(sent, edges))
    net_out = [0] * n
    for (u, v, _), f in zip(edges, sent):
        net_out[u] += f
        net_out[v] -= f
    assert net_out[src] == value == -net_out[dst]
    assert not any(x for k, x in enumerate(net_out) if k not in (src, dst))


def test_the_engine_matches_the_reference_dinic_on_random_networks():
    # same value and same source side; the flows themselves may differ
    rng = random.Random(4711)
    for _ in range(300):
        net, _ = _random_network(rng)
        _assert_engines_agree(*_integer_network(net))


@settings(max_examples=300, deadline=None)
@given(weighted_posets())
def test_the_engine_matches_the_reference_dinic_on_warm_netted_networks(poset):
    # every network the kernel hands to the engine, after a first-fit
    # shortfall, is run on both engines
    points, weights = poset
    weights[-1] -= sum(weights)

    def both(n, edges, src, dst):
        _assert_engines_agree(n, edges, src, dst)
        return integer_max_flow(n, edges, src, dst)

    with mock.patch.object(maxflow, "integer_max_flow", side_effect=both):
        positive_upper_set(weights, points_above(points))


def test_the_source_side_is_the_least_minimum_cut():
    # by brute force over every set of middle nodes: the nodes the residual
    # network reaches from the source are the intersection of the source
    # sides of all minimum s-t cuts (docs/theory.md section 2)
    rng = random.Random(2718)
    for _ in range(300):
        net, _ = _random_network(rng)
        middle = [node for node in net.nodes if node not in ("s", "t")]
        names = list(net._ids)
        sides = {}
        for k in range(len(middle) + 1):
            for chosen in itertools.combinations(middle, k):
                side = frozenset(("s", *chosen))
                sides[side] = sum(c for u, v, c in net._edges
                                  if names[u] in side and names[v] not in side)
        least = min(sides.values())
        result = max_flow(net)
        assert result.value == least
        assert result.source_side == frozenset.intersection(
            *(side for side, c in sides.items() if c == least))


def _random_lp(rng):
    # the simplex takes rhs >= 0 only; a draw below 0 becomes a zero rhs, so
    # about a third of the rows are degenerate
    n = rng.randint(1, 4)
    m = rng.randint(1, 5)
    objective = {j: F(rng.randint(-4, 4)) for j in range(n)}
    rows = []
    for _ in range(m):
        coeffs = {j: F(rng.randint(-3, 3)) for j in range(n)}
        rows.append((coeffs, F(max(0, rng.randint(-2, 6)))))
    return LinearProgram(num_vars=n, objective=objective, constraints=rows)


def test_simplex_matches_scipy_on_random_lps():
    rng = random.Random(20240229)
    agreements = 0
    for _ in range(150):
        lp = _random_lp(rng)
        ours = simplex_solve(lp)
        a_ub = [[float(row.get(j, 0)) for j in range(lp.num_vars)]
                for row, _ in lp.constraints]
        b_ub = [float(rhs) for _, rhs in lp.constraints]
        c = [-float(lp.objective.get(j, 0)) for j in range(lp.num_vars)]
        ref = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(0, None)] * lp.num_vars,
                      method="highs")
        if ours.status == OPTIMAL:
            assert ref.status == 0, (ours, ref)
            assert abs(float(ours.objective) + ref.fun) < 1e-7
            agreements += 1
        else:
            assert ours.status == UNBOUNDED
            assert ref.status == 3
    assert agreements > 30  # the generator must exercise the optimal path


def test_simplex_solution_is_feasible_and_attains_objective():
    rng = random.Random(5)
    for _ in range(80):
        lp = _random_lp(rng)
        result = simplex_solve(lp)
        if result.status != OPTIMAL:
            continue
        x = result.solution
        assert all(v >= 0 for v in x)
        for coeffs, rhs in lp.constraints:
            assert sum((a * x[j] for j, a in coeffs.items()), F(0)) <= rhs
        value = sum((c * x[j] for j, c in lp.objective.items()), F(0))
        assert value == result.objective


def _assert_duals_are_optimal(lp, result):
    """y >= 0, b . y equal to the primal optimum, and A^T y >= c, exactly:
    by weak duality y is then optimal for min b . y s.t. A^T y >= c, y >= 0."""
    y = result.duals
    assert len(y) == len(lp.constraints) and all(v >= 0 for v in y)
    assert sum((rhs * v for (_, rhs), v in zip(lp.constraints, y)), F(0)) == result.objective
    for j in range(lp.num_vars):
        column = sum((coeffs.get(j, 0) * v for (coeffs, _), v in zip(lp.constraints, y)), F(0))
        assert column >= lp.objective.get(j, 0)


def test_simplex_duals_solve_the_dual_lp():
    # each random LP as drawn, with every row divided by its own positive
    # factor (which scales its dual by that factor), and in plain ints
    rng = random.Random(20240229)
    optimal = 0
    for _ in range(150):
        lp = _random_lp(rng)
        factors = [F(rng.randint(1, 5), rng.randint(1, 3)) for _ in lp.constraints]
        variants = [lp, LinearProgram(lp.num_vars, lp.objective, [
            ({j: a / k for j, a in coeffs.items()}, rhs / k)
            for (coeffs, rhs), k in zip(lp.constraints, factors)])]
        variants.append(LinearProgram(lp.num_vars, {j: int(c) for j, c in lp.objective.items()}, [
            ({j: int(a) for j, a in coeffs.items()}, int(rhs)) for coeffs, rhs in lp.constraints]))
        for variant in variants:
            result = simplex_solve(variant)
            if result.status == OPTIMAL:
                _assert_duals_are_optimal(variant, result)
                optimal += 1
            else:
                assert result.duals is None
    assert optimal > 90
