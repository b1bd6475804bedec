"""Reference maximum-flow solvers (paper Section 3.2, "Problem Solving").

Test oracle for the vectorized kernel in :mod:`repro.core.flowbatch`:
the classic algorithms, written from scratch on a compact adjacency
representation:

* :class:`FlowNetwork` — residual-graph container with parallel-edge
  support and float capacities;
* :func:`edmonds_karp` — BFS Ford–Fulkerson, the method the paper names;
* :func:`dinic` — the default solver (same answers, faster);
* :func:`min_cut` — saturated-edge cut extraction for bottleneck reports;
* :func:`feasible_time` / :func:`bisect_min_time` — the paper's
  "time-bisection Ford–Fulkerson procedure": find the minimum time T such
  that all per-sink demands can be routed when every edge can carry
  ``capacity * T`` bytes.

Capacities are floats (bytes or bytes/second); a relative tolerance is
used when checking saturation.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Set, Tuple

from repro.core.flowbatch import _EPS, _MIN_DEMAND

INF = float("inf")


class FlowNetwork:
    """Directed flow network with residual bookkeeping.

    Nodes are arbitrary hashable labels, added implicitly by
    :meth:`add_edge`.  Parallel edges are kept distinct so per-edge flow
    can be reported (needed to read off per-storage-node traffic for
    DDAK).
    """

    def __init__(self) -> None:
        self._index: Dict[object, int] = {}
        self._labels: List[object] = []
        # Edge arrays: to[i], cap[i] (residual), paired edge i^1 is the
        # reverse.  adj[u] lists edge ids leaving u.
        self._to: List[int] = []
        self._cap: List[float] = []
        self._init_cap: List[float] = []
        self.adj: List[List[int]] = []

    # -- construction ---------------------------------------------------
    def node_id(self, label: object) -> int:
        """Intern a node label, creating it on first use."""
        if label not in self._index:
            self._index[label] = len(self._labels)
            self._labels.append(label)
            self.adj.append([])
        return self._index[label]

    def label(self, node_id: int) -> object:
        """The label of an interned node id."""
        return self._labels[node_id]

    @property
    def num_nodes(self) -> int:
        """Number of interned nodes."""
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        """Number of forward (capacity-bearing) edges."""
        return len(self._to) // 2

    def add_edge(self, u: object, v: object, capacity: float) -> int:
        """Add directed edge ``u -> v``; returns its edge id.

        ``capacity`` may be ``float('inf')`` for virtual edges.
        """
        if capacity < 0:
            raise ValueError(f"negative capacity {capacity!r}")
        ui, vi = self.node_id(u), self.node_id(v)
        eid = len(self._to)
        self._to.append(vi)
        self._cap.append(capacity)
        self._init_cap.append(capacity)
        self.adj[ui].append(eid)
        # reverse (residual) edge
        self._to.append(ui)
        self._cap.append(0.0)
        self._init_cap.append(0.0)
        self.adj[vi].append(eid + 1)
        return eid

    def set_capacity(self, eid: int, capacity: float) -> None:
        """Reset one edge's capacity (clears any routed flow on it)."""
        if capacity < 0:
            raise ValueError(f"negative capacity {capacity!r}")
        self._cap[eid] = capacity
        self._init_cap[eid] = capacity
        self._cap[eid ^ 1] = 0.0
        self._init_cap[eid ^ 1] = 0.0

    def reset(self) -> None:
        """Erase all routed flow, restoring initial capacities."""
        self._cap = list(self._init_cap)

    # -- inspection -----------------------------------------------------
    def flow_on(self, eid: int) -> float:
        """Flow currently routed on forward edge ``eid``."""
        return self._cap[eid ^ 1]

    def residual(self, eid: int) -> float:
        """Remaining capacity on edge ``eid``."""
        return self._cap[eid]

    def capacity_of(self, eid: int) -> float:
        """Original capacity of edge ``eid``."""
        return self._init_cap[eid]

    def edge_endpoints(self, eid: int) -> Tuple[object, object]:
        return self._labels[self._to[eid ^ 1]], self._labels[self._to[eid]]


# ----------------------------------------------------------------------
# Edmonds–Karp (BFS Ford–Fulkerson)
# ----------------------------------------------------------------------
def edmonds_karp(net: FlowNetwork, source: object, sink: object) -> float:
    """Max flow via shortest augmenting paths.  O(V E^2)."""
    s, t = net.node_id(source), net.node_id(sink)
    total = 0.0
    while True:
        parent_edge = [-1] * net.num_nodes
        parent_edge[s] = -2
        q = deque([s])
        while q and parent_edge[t] == -1:
            u = q.popleft()
            for eid in net.adj[u]:
                v = net._to[eid]
                if parent_edge[v] == -1 and net._cap[eid] > _EPS:
                    parent_edge[v] = eid
                    q.append(v)
        if parent_edge[t] == -1:
            return total
        # find bottleneck
        push = INF
        v = t
        while v != s:
            eid = parent_edge[v]
            push = min(push, net._cap[eid])
            v = net._to[eid ^ 1]
        # apply
        v = t
        while v != s:
            eid = parent_edge[v]
            net._cap[eid] -= push
            net._cap[eid ^ 1] += push
            v = net._to[eid ^ 1]
        total += push


# ----------------------------------------------------------------------
# Dinic
# ----------------------------------------------------------------------
def dinic(net: FlowNetwork, source: object, sink: object) -> float:
    """Max flow via blocking flows on level graphs.  O(V^2 E)."""
    s, t = net.node_id(source), net.node_id(sink)
    total = 0.0
    n = net.num_nodes
    while True:
        # BFS level graph
        level = [-1] * n
        level[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for eid in net.adj[u]:
                v = net._to[eid]
                if level[v] < 0 and net._cap[eid] > _EPS:
                    level[v] = level[u] + 1
                    q.append(v)
        if level[t] < 0:
            return total
        # DFS blocking flow with iteration pointers
        it = [0] * n

        def dfs(u: int, pushed: float) -> float:
            if u == t:
                return pushed
            while it[u] < len(net.adj[u]):
                eid = net.adj[u][it[u]]
                v = net._to[eid]
                if net._cap[eid] > _EPS and level[v] == level[u] + 1:
                    got = dfs(v, min(pushed, net._cap[eid]))
                    if got > _EPS:
                        net._cap[eid] -= got
                        net._cap[eid ^ 1] += got
                        return got
                it[u] += 1
            return 0.0

        while True:
            pushed = dfs(s, INF)
            if pushed <= _EPS:
                break
            total += pushed


def max_flow(
    net: FlowNetwork,
    source: object,
    sink: object,
    method: str = "dinic",
) -> float:
    """Dispatch to a solver by name (``"dinic"`` or ``"edmonds_karp"``)."""
    if method == "dinic":
        return dinic(net, source, sink)
    if method == "edmonds_karp":
        return edmonds_karp(net, source, sink)
    raise ValueError(f"unknown max-flow method {method!r}")


def min_cut(net: FlowNetwork, source: object) -> List[int]:
    """Edge ids of a minimum s-t cut.

    Must be called after a max-flow run; returns the forward edges from
    the source-reachable side (in the residual graph) to the rest —
    i.e. the saturated bottleneck links.
    """
    s = net.node_id(source)
    reach: Set[int] = {s}
    q = deque([s])
    while q:
        u = q.popleft()
        for eid in net.adj[u]:
            v = net._to[eid]
            if v not in reach and net._cap[eid] > _EPS:
                reach.add(v)
                q.append(v)
    cut = []
    for eid in range(0, len(net._to), 2):
        u = net._to[eid ^ 1]
        v = net._to[eid]
        if u in reach and v not in reach and net._init_cap[eid] > _EPS:
            cut.append(eid)
    return cut


# ----------------------------------------------------------------------
# Time-bisection Ford–Fulkerson (paper's demand-feasibility procedure)
# ----------------------------------------------------------------------
def feasible_time(
    build_network,
    demands: Dict[object, float],
    time: float,
    source: object = "__source__",
    sink: object = "__sink__",
    rel_tol: float = 1e-6,
) -> bool:
    """Can all ``demands`` (bytes per sink node) complete within ``time``?

    ``build_network(time)`` must return a fresh :class:`FlowNetwork`
    where every physical edge carries ``capacity_bytes_per_s * time``
    and every demand node has an edge to ``sink`` with capacity equal to
    its demand in bytes.  Feasible iff max flow saturates total demand.
    """
    total = sum(demands.values())
    if total <= _MIN_DEMAND:
        return True
    net = build_network(time)
    got = dinic(net, source, sink)
    return got >= total * (1.0 - rel_tol)


def bisect_min_time(
    build_network,
    demands: Dict[object, float],
    t_hi: float = 1e6,
    source: object = "__source__",
    sink: object = "__sink__",
    rel_tol: float = 1e-4,
    max_iter: int = 80,
) -> float:
    """Minimum time T such that all demands are routable (bisection).

    Raises ``RuntimeError`` if even ``t_hi`` seconds is infeasible
    (disconnected demand).  Because feasibility is monotone in T the
    bisection converges geometrically; ``rel_tol`` is relative to the
    final T.
    """
    total = sum(demands.values())
    if total <= _MIN_DEMAND:
        return 0.0
    if not feasible_time(build_network, demands, t_hi, source, sink):
        raise RuntimeError(
            f"demands infeasible even in {t_hi} s — disconnected topology?"
        )
    lo, hi = 0.0, t_hi
    # exponential shrink of the initial bracket for speed
    probe = t_hi
    while probe > 1e-9:
        probe /= 16.0
        if feasible_time(build_network, demands, probe, source, sink):
            hi = probe
        else:
            lo = probe
            break
    for _ in range(max_iter):
        if hi - lo <= rel_tol * hi:
            break
        mid = 0.5 * (lo + hi)
        if feasible_time(build_network, demands, mid, source, sink):
            hi = mid
        else:
            lo = mid
    return hi
