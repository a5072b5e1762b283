from fractions import Fraction

import pytest

from negdep import FlowNetwork, max_flow

F = Fraction


def test_single_edge():
    net = FlowNetwork("s", "t")
    net.add_edge("s", "t", F(1))
    result = max_flow(net)
    assert result.value == 1
    assert result.flows == {("s", "t"): F(1)}


def test_parallel_paths_add():
    net = FlowNetwork("s", "t")
    net.add_edge("s", "a", F(1, 3))
    net.add_edge("a", "t", F(1, 3))
    net.add_edge("s", "b", F(1, 6))
    net.add_edge("b", "t", F(1, 6))
    assert max_flow(net).value == F(1, 2)


def test_bottleneck():
    net = FlowNetwork("s", "t")
    net.add_edge("s", "a", F(5))
    net.add_edge("a", "t", F(2, 7))
    assert max_flow(net).value == F(2, 7)


def test_bipartite_feasible_pattern():
    # two sources and two sinks of mass 1/2; the full pattern routes everything
    net = FlowNetwork("s", "t")
    for x in ("x1", "x2"):
        net.add_edge("s", x, F(1, 2))
    for y in ("y1", "y2"):
        net.add_edge(y, "t", F(1, 2))
    net.add_edge("x1", "y1", F(1, 2))
    net.add_edge("x1", "y2", F(1, 2))
    net.add_edge("x2", "y2", F(1, 2))
    assert max_flow(net).value == 1


def test_bipartite_infeasible_pattern_and_cut():
    # both sources may only use y1, which absorbs 1/2: max flow 1/2 < 1
    net = FlowNetwork("s", "t")
    for x in ("x1", "x2"):
        net.add_edge("s", x, F(1, 2))
        net.add_edge(x, "y1", F(1, 2))
    net.add_edge("y1", "t", F(1, 2))
    net.add_edge("y2", "t", F(1, 2))
    result = max_flow(net)
    assert result.value == F(1, 2)
    assert "s" in result.source_side
    assert "t" not in result.source_side
    # the deficient sources sit on the source side of the cut
    assert {"x1", "x2"} & result.source_side


def test_conservation_at_interior_nodes():
    net = FlowNetwork("s", "t")
    net.add_edge("s", "a", F(3, 4))
    net.add_edge("s", "b", F(1, 4))
    net.add_edge("a", "b", F(1, 2))
    net.add_edge("a", "t", F(1, 2))
    net.add_edge("b", "t", F(2, 3))
    result = max_flow(net)
    for node in ("a", "b"):
        inflow = sum(f for (u, v), f in result.flows.items() if v == node)
        outflow = sum(f for (u, v), f in result.flows.items() if u == node)
        assert inflow == outflow
    assert result.value == sum(f for (u, v), f in result.flows.items() if u == "s")


def test_source_equal_to_sink_is_refused():
    # a network whose source is its sink has no s-t cut; the engine's first
    # search would reach the sink at once with an empty path
    with pytest.raises(ValueError, match="source and sink are the same node 's'"):
        FlowNetwork("s", "s")
    with pytest.raises(ValueError, match=r"same node \(0, 1\)"):
        FlowNetwork((0, 1), (0, 1))
    assert max_flow(FlowNetwork("s", "t")).value == 0
