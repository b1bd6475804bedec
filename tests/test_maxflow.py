"""Unit + property tests for the from-scratch max-flow solvers."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from tests.reference.maxflow import (
    FlowNetwork,
    bisect_min_time,
    dinic,
    edmonds_karp,
    feasible_time,
    max_flow,
    min_cut,
)


def diamond() -> FlowNetwork:
    """Classic 4-node diamond: max flow s->t is 18."""
    net = FlowNetwork()
    net.add_edge("s", "a", 10)
    net.add_edge("s", "b", 10)
    net.add_edge("a", "b", 2)
    net.add_edge("a", "t", 8)
    net.add_edge("b", "t", 10)
    return net


class TestBasics:
    def test_dinic_diamond(self):
        assert dinic(diamond(), "s", "t") == pytest.approx(18.0)

    def test_edmonds_karp_diamond(self):
        assert edmonds_karp(diamond(), "s", "t") == pytest.approx(18.0)

    def test_single_edge(self):
        net = FlowNetwork()
        net.add_edge("s", "t", 7.5)
        assert dinic(net, "s", "t") == pytest.approx(7.5)

    def test_disconnected(self):
        net = FlowNetwork()
        net.add_edge("s", "a", 5)
        net.add_edge("b", "t", 5)
        assert dinic(net, "s", "t") == 0.0

    def test_infinite_capacity_path(self):
        net = FlowNetwork()
        net.add_edge("s", "a", float("inf"))
        net.add_edge("a", "t", 3)
        assert dinic(net, "s", "t") == pytest.approx(3.0)

    def test_parallel_edges(self):
        net = FlowNetwork()
        net.add_edge("s", "t", 3)
        net.add_edge("s", "t", 4)
        assert dinic(net, "s", "t") == pytest.approx(7.0)

    def test_negative_capacity_rejected(self):
        net = FlowNetwork()
        with pytest.raises(ValueError):
            net.add_edge("s", "t", -1)

    def test_method_dispatch(self):
        assert max_flow(diamond(), "s", "t", "dinic") == pytest.approx(18.0)
        assert max_flow(diamond(), "s", "t", "edmonds_karp") == pytest.approx(18.0)
        with pytest.raises(ValueError):
            max_flow(diamond(), "s", "t", "nope")

    def test_reset_restores_capacity(self):
        net = diamond()
        assert dinic(net, "s", "t") == pytest.approx(18.0)
        assert dinic(net, "s", "t") == pytest.approx(0.0)  # saturated
        net.reset()
        assert dinic(net, "s", "t") == pytest.approx(18.0)

    def test_flow_on_reports_routed_flow(self):
        net = FlowNetwork()
        e = net.add_edge("s", "t", 5)
        dinic(net, "s", "t")
        assert net.flow_on(e) == pytest.approx(5.0)
        assert net.residual(e) == pytest.approx(0.0)
        assert net.capacity_of(e) == pytest.approx(5.0)

    def test_edge_endpoints(self):
        net = FlowNetwork()
        e = net.add_edge("u", "v", 1)
        assert net.edge_endpoints(e) == ("u", "v")


class TestMinCut:
    def test_cut_value_equals_flow(self):
        net = diamond()
        flow = dinic(net, "s", "t")
        cut = min_cut(net, "s")
        cut_cap = sum(net.capacity_of(e) for e in cut)
        assert cut_cap == pytest.approx(flow)

    def test_cut_identifies_bottleneck(self):
        net = FlowNetwork()
        net.add_edge("s", "m", 100)
        e = net.add_edge("m", "n", 5)
        net.add_edge("n", "t", 100)
        dinic(net, "s", "t")
        assert min_cut(net, "s") == [e]


class TestTimeBisection:
    @staticmethod
    def _builder(cap_per_s):
        def build(t):
            net = FlowNetwork()
            net.add_edge("__source__", "x", 100.0)  # 100 bytes demanded
            net.add_edge("x", "g", cap_per_s * t)
            net.add_edge("g", "__sink__", 100.0)
            return net

        return build

    def test_min_time_is_demand_over_bandwidth(self):
        t = bisect_min_time(self._builder(10.0), {"g": 100.0})
        assert t == pytest.approx(10.0, rel=1e-3)

    def test_zero_demand(self):
        assert bisect_min_time(self._builder(10.0), {}) == 0.0

    def test_feasibility_monotone(self):
        build = self._builder(10.0)
        assert not feasible_time(build, {"g": 100.0}, 5.0)
        assert feasible_time(build, {"g": 100.0}, 20.0)

    def test_infeasible_raises(self):
        def build(t):
            net = FlowNetwork()
            net.add_edge("__source__", "x", 100.0)
            net.add_edge("g", "__sink__", 100.0)  # x disconnected from g
            return net

        with pytest.raises(RuntimeError):
            bisect_min_time(build, {"g": 100.0})


@st.composite
def random_networks(draw):
    """Random small DAG-ish networks with integer capacities."""
    n = draw(st.integers(min_value=2, max_value=8))
    edges = []
    for u in range(n):
        for v in range(n):
            if u != v and draw(st.booleans()):
                cap = draw(st.integers(min_value=0, max_value=20))
                edges.append((u, v, cap))
    return n, edges


class TestProperties:
    @given(random_networks())
    @settings(max_examples=60, deadline=None)
    def test_dinic_matches_edmonds_karp(self, net_spec):
        n, edges = net_spec
        a, b = FlowNetwork(), FlowNetwork()
        for u, v, cap in edges:
            if cap > 0:
                a.add_edge(u, v, cap)
                b.add_edge(u, v, cap)
        a.node_id(0), a.node_id(n - 1)
        b.node_id(0), b.node_id(n - 1)
        assert dinic(a, 0, n - 1) == pytest.approx(edmonds_karp(b, 0, n - 1))

    @given(random_networks())
    @settings(max_examples=60, deadline=None)
    def test_maxflow_mincut_duality(self, net_spec):
        n, edges = net_spec
        net = FlowNetwork()
        for u, v, cap in edges:
            if cap > 0:
                net.add_edge(u, v, cap)
        net.node_id(0), net.node_id(n - 1)
        flow = dinic(net, 0, n - 1)
        cut_cap = sum(net.capacity_of(e) for e in min_cut(net, 0))
        assert cut_cap == pytest.approx(flow, abs=1e-6)

    @given(random_networks())
    @settings(max_examples=40, deadline=None)
    def test_flow_conservation(self, net_spec):
        n, edges = net_spec
        net = FlowNetwork()
        for u, v, cap in edges:
            if cap > 0:
                net.add_edge(u, v, cap)
        s_id, t_id = net.node_id(0), net.node_id(n - 1)
        total = dinic(net, 0, n - 1)
        # net flow out of every internal node must be zero
        balance = [0.0] * net.num_nodes
        for eid in range(0, net.num_edges * 2, 2):
            u, v = net.edge_endpoints(eid)
            f = net.flow_on(eid)
            balance[net.node_id(u)] -= f
            balance[net.node_id(v)] += f
        for node in range(net.num_nodes):
            if node == s_id:
                assert balance[node] == pytest.approx(-total, abs=1e-6)
            elif node == t_id:
                assert balance[node] == pytest.approx(total, abs=1e-6)
            else:
                assert balance[node] == pytest.approx(0.0, abs=1e-6)
