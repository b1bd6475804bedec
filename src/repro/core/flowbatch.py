"""The package's max-flow kernel: cut-parametric min-time search over
template networks (behind ``FlexibleMaxFlowScorer`` and replanning).

The bisection reference (``min_completion_time`` in
``tests/reference/flowmodel.py``, kept as the differential-test oracle)
rebuilds the augmented network for every time probe and bisects ~20
times per candidate.  This module keeps the exact same network — same
nodes, same edges, same insertion order as the reference's
``build_time_network`` — but splits every
edge budget into ``base + rate * t`` (constant bytes + bytes/s scaled
by the probed time), so

* the network is built **once** per candidate (a :class:`FlowTemplate`)
  and each probe only refreshes a capacity vector with NumPy;
* a batch of candidates stacks its ``rate``/``base`` vectors into
  ``(B, E)`` matrices and refreshes every active candidate's
  capacities in one vectorized operation per round
  (:func:`fast_score_batch`);
* the time search is **cut-parametric** instead of bisection:
  ``maxflow(t)`` is a concave piecewise-linear function — the minimum
  over cuts C of ``base(C) + rate(C) * t`` — so from any infeasible
  probe the min cut's root ``(total - base(C)) / rate(C)`` is the next
  candidate time.  Iterating terminates at the **exact** breakpoint
  where the demand first fits (typically 3–5 max-flow solves instead
  of ~20), and the final min cut doubles as an optimality certificate:
  its source-side node set is returned as
  :attr:`~repro.core.flowmodel.FlowPrediction.cut_partition`.

Warm starts: any node partition with the source inside and the sink
outside is a valid cut in *any* network over the same node labels, so a
parent's binding partition (a scored neighbor placement, or the healthy
fabric before a :class:`~repro.core.topology.TopologyMask` degraded it)
gives a sound lower-bound line — the search starts at that line's root
instead of zero and usually converges in one or two solves.  The final
answer is the root of the binding cut either way, so warm and cold
solves agree exactly (see the warm-start regression tests).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.flowmodel import (
    _SINK,
    _SOURCE,
    CPU_CLASS,
    SSD_CLASS,
    FlowPrediction,
    TrafficDemand,
    _storage_members,
)
from repro.core.topology import LinkKind, NodeKind, Topology

#: Residual capacities at or below this are treated as saturated.
_EPS = 1e-9
#: Demands below this many bytes are treated as zero: sub-microbyte
#: quantities are residues of float arithmetic, and the residual-graph
#: epsilon would otherwise misclassify them as unroutable.
_MIN_DEMAND = 1e-6
#: Feasibility slack.  Much stricter than the bisection reference's 1e-6:
#: bisection probes land anywhere in a segment, but cut-root probes
#: land exactly on breakpoints, where the max flow matches the binding
#: cut's value to float accumulation error (~1e-14 relative).  A loose
#: slack would let a probe *below* the true breakpoint pass, making the
#: answer depend on the probe path (warm vs cold) — with 1e-12 both
#: paths terminate at the binding cut's root.
_FEAS_TOL = 1e-12
#: Ceiling on the completion time, matching the bisection reference's
#: ``t_hi`` — a root beyond this means the demand is disconnected.
_T_HI = 1e6
#: Cut-root iterations before giving up (each one strictly advances the
#: probe to a later breakpoint of a piecewise-linear function whose
#: breakpoint count is bounded by the number of distinct cuts met —
#: in practice 3–5; 64 is a float-safety backstop).
_MAX_ITERS = 64


class FlowTemplate:
    """One candidate's time-parametric augmented network.

    Mirrors the reference ``build_time_network`` exactly —
    node splitting, GPU-cache fabric-egress caps, the QPI P2P ceiling,
    class super-nodes, virtual source/sink edges — but stores each edge
    as ``(base_bytes, rate_bytes_per_s)`` so the capacity vector at any
    probed time is ``base + rate * t``.
    """

    def __init__(self, topo: Topology, demand: TrafficDemand) -> None:
        from repro.hardware.specs import QPI_P2P_BW

        self._index: Dict[str, int] = {}
        self.labels: List[str] = []
        self.adj: List[List[int]] = []
        self._to: List[int] = []
        base: List[float] = []
        rate: List[float] = []

        def node_id(label: str) -> int:
            nid = self._index.get(label)
            if nid is None:
                nid = len(self.labels)
                self._index[label] = nid
                self.labels.append(label)
                self.adj.append([])
            return nid

        def add_edge(u: str, v: str, b: float, r: float) -> None:
            ui, vi = node_id(u), node_id(v)
            eid = len(self._to)
            self._to.append(vi)
            self.adj[ui].append(eid)
            self._to.append(ui)
            self.adj[vi].append(eid + 1)
            base.append(b)
            rate.append(r)

        storage_names = {n.name for n in topo.storage_nodes}

        def out_name(node: str) -> str:
            return f"{node}/out" if node in storage_names else node

        gpu_fabric_egress: Dict[str, float] = {}
        for gpu in topo.gpus():
            total = 0.0
            for succ in topo.successors(gpu):
                if topo.node(succ).kind is not NodeKind.GPU_MEM:
                    total += topo.link(gpu, succ).capacity
            gpu_fabric_egress[gpu] = total

        # storage egress ceilings (node splitting); an unbounded egress
        # is a constant-infinity edge, never a scaled one (inf * t is
        # undefined at t = 0)
        self.storage_edge: Dict[str, int] = {}
        for node in topo.storage_nodes:
            egress = (
                node.egress_bw if node.egress_bw is not None else float("inf")
            )
            if node.kind is NodeKind.GPU_MEM:
                owner = node.name[: -len(":mem")]
                egress = min(egress, gpu_fabric_egress.get(owner, egress))
            self.storage_edge[node.name] = len(base)
            if np.isfinite(egress):
                add_edge(f"{node.name}/in", f"{node.name}/out", 0.0, egress)
            else:
                add_edge(
                    f"{node.name}/in", f"{node.name}/out", float("inf"), 0.0
                )

        for link in topo.links:
            src = out_name(link.src)
            dst = f"{link.dst}/in" if link.dst in storage_names else link.dst
            cap = link.capacity
            if link.kind is LinkKind.QPI:
                cap = min(cap, QPI_P2P_BW)
            add_edge(src, dst, 0.0, cap)

        per_bin = demand.per_bin()
        for bin_name, nbytes in sorted(per_bin.items()):
            if bin_name in (SSD_CLASS, CPU_CLASS):
                class_node = f"{bin_name}/class"
                add_edge(_SOURCE, class_node, nbytes, 0.0)
                for member in _storage_members(topo, bin_name):
                    add_edge(class_node, f"{member}/in", float("inf"), 0.0)
            else:
                if bin_name not in topo:
                    raise KeyError(
                        f"demand references unknown bin {bin_name!r}"
                    )
                add_edge(_SOURCE, f"{bin_name}/in", nbytes, 0.0)

        self.demands_by_sink = demand.per_gpu()
        for gpu, nbytes in sorted(self.demands_by_sink.items()):
            if gpu not in topo:
                raise KeyError(f"demand references unknown GPU {gpu!r}")
            add_edge(gpu, _SINK, nbytes, 0.0)

        self.base = np.asarray(base)
        self.rate = np.asarray(rate)
        self.total = demand.total
        self.source = self._index.get(_SOURCE, -1)
        self.sink = self._index.get(_SINK, -1)

    @property
    def num_edges(self) -> int:
        return len(self.base)

    # -- per-probe machinery -------------------------------------------
    def residual_caps(self, t: float) -> List[float]:
        """Fresh residual capacities at probe time ``t`` (forward edges
        interleaved with zeroed reverse edges, FlowNetwork layout)."""
        caps = np.zeros(2 * len(self.base))
        caps[0::2] = self.base + self.rate * t
        return caps.tolist()

    def max_flow(self, caps: List[float]) -> float:
        """Dinic on the template adjacency; mutates ``caps`` residuals."""
        adj, to = self.adj, self._to
        s, t = self.source, self.sink
        n = len(adj)
        inf = float("inf")
        total = 0.0
        while True:
            level = [-1] * n
            level[s] = 0
            q = deque([s])
            while q:
                u = q.popleft()
                lu = level[u] + 1
                for eid in adj[u]:
                    v = to[eid]
                    if level[v] < 0 and caps[eid] > _EPS:
                        level[v] = lu
                        q.append(v)
            if level[t] < 0:
                return total
            it = [0] * n

            def dfs(u: int, pushed: float) -> float:
                if u == t:
                    return pushed
                adj_u = adj[u]
                while it[u] < len(adj_u):
                    eid = adj_u[it[u]]
                    v = to[eid]
                    if caps[eid] > _EPS and level[v] == level[u] + 1:
                        got = dfs(v, min(pushed, caps[eid]))
                        if got > _EPS:
                            caps[eid] -= got
                            caps[eid ^ 1] += got
                            return got
                    it[u] += 1
                return 0.0

            while True:
                pushed = dfs(s, inf)
                if pushed <= _EPS:
                    break
                total += pushed

    def reachable(self, caps: List[float]) -> bytearray:
        """Source-reachable node mask in the residual graph."""
        adj, to = self.adj, self._to
        reach = bytearray(len(adj))
        reach[self.source] = 1
        stack = [self.source]
        while stack:
            u = stack.pop()
            for eid in adj[u]:
                v = to[eid]
                if not reach[v] and caps[eid] > _EPS:
                    reach[v] = 1
                    stack.append(v)
        return reach

    def cut_line(self, reach: Sequence[int]) -> Tuple[float, float]:
        """``(base_bytes, rate)`` of the cut induced by a node mask.

        Edge terms are accumulated in edge-id order, so the same cut
        always sums to bit-identical coefficients — warm and cold
        searches ending on the same binding cut return the same float.
        """
        to = self._to
        b = r = 0.0
        for e in range(len(self.base)):
            if reach[to[2 * e + 1]] and not reach[to[2 * e]]:
                b += self.base[e]
                r += self.rate[e]
        return b, r

    def partition_mask(
        self, partition: Iterable[str]
    ) -> Optional[bytearray]:
        """A warm-start label set as a node mask, or ``None`` if it is
        not a valid s-t partition here (labels from a different fabric
        are simply ignored; dropped nodes vanish from the mask)."""
        reach = bytearray(len(self.labels))
        for label in partition:
            nid = self._index.get(label)
            if nid is not None:
                reach[nid] = 1
        if not reach[self.source] or reach[self.sink]:
            return None
        return reach

    def warm_root(self, partition: Optional[Iterable[str]]) -> float:
        """The hint cut's root: a sound lower bound on the completion
        time (``0.0`` when the hint does not transfer)."""
        if not partition:
            return 0.0
        reach = self.partition_mask(partition)
        if reach is None:
            return 0.0
        b, r = self.cut_line(reach)
        if not np.isfinite(b) or r <= _EPS or b >= self.total:
            return 0.0
        return max(0.0, (self.total - b) / r)

    # -- result assembly ------------------------------------------------
    def prediction(
        self,
        t_star: float,
        caps: List[float],
        cut_mask: Optional[Sequence[int]],
    ) -> FlowPrediction:
        """Build the :class:`FlowPrediction` from the final feasible
        solve's residuals and the binding cut's node mask."""
        storage_rate: Dict[str, float] = {}
        for node, eid in self.storage_edge.items():
            flow = caps[2 * eid + 1]
            if flow > 0:
                storage_rate[node] = flow / t_star
        bottlenecks: List[str] = []
        partition: Tuple[str, ...] = ()
        if cut_mask is not None:
            to = self._to
            for e in range(len(self.base)):
                ui, vi = to[2 * e + 1], to[2 * e]
                if not (cut_mask[ui] and not cut_mask[vi]):
                    continue
                if ui == self.source or vi == self.sink:
                    continue  # demand-limited, not a physical bottleneck
                u_s, v_s = self.labels[ui], self.labels[vi]
                if u_s.endswith("/out"):
                    u_s = u_s[: -len("/out")]
                if v_s.endswith("/in"):
                    v_s = v_s[: -len("/in")]
                bottlenecks.append(
                    f"{u_s}->{v_s} ({self.rate[e] / 1e9:.1f} GB/s)"
                )
            partition = tuple(
                sorted(
                    self.labels[i]
                    for i in range(len(self.labels))
                    if cut_mask[i]
                )
            )
        per_gpu_rate = {
            g: d / t_star for g, d in self.demands_by_sink.items()
        }
        return FlowPrediction(
            time=t_star,
            throughput=self.total / t_star,
            per_gpu_rate=per_gpu_rate,
            storage_rate=storage_rate,
            bottlenecks=bottlenecks,
            cut_partition=partition,
        )


def _solve_template(
    tpl: FlowTemplate, t0: float, hint_mask: Optional[bytearray]
) -> FlowPrediction:
    """Cut-parametric search from probe ``t0`` (with ``hint_mask`` as
    the provisional binding cut when ``t0`` came from a warm hint)."""
    total = tpl.total
    threshold = total * (1.0 - _FEAS_TOL)
    t = t0
    cut_mask: Optional[bytearray] = hint_mask
    for _ in range(_MAX_ITERS):
        caps = tpl.residual_caps(t)
        got = tpl.max_flow(caps)
        if got >= threshold:
            return tpl.prediction(t, caps, cut_mask)
        reach = tpl.reachable(caps)
        b, r = tpl.cut_line(reach)
        if r <= _EPS:
            raise RuntimeError(
                f"demands infeasible even in {_T_HI} s — "
                "disconnected topology?"
            )
        t_next = (total - b) / r
        if t_next > _T_HI:
            raise RuntimeError(
                f"demands infeasible even in {_T_HI} s — "
                "disconnected topology?"
            )
        if t_next <= t:  # float backstop: the root must strictly advance
            t_next = np.nextafter(t, np.inf)
        t = t_next
        cut_mask = reach
    raise RuntimeError(
        f"cut-parametric time search did not converge in {_MAX_ITERS} "
        "iterations"
    )


def fast_min_completion_time(
    topo: Topology,
    demand: TrafficDemand,
    warm_partition: Optional[Iterable[str]] = None,
) -> FlowPrediction:
    """Minimum time to route ``demand`` on ``topo``; the placement score.

    Also extracts per-storage-node flows at the optimum (the DDAK
    ``Bin_traffic`` targets) and the saturated links (bottlenecks).

    Returns the exact minimum completion time (no bisection slack); a
    ``warm_partition`` from a previously scored neighbor/healthy fabric
    only changes how fast the search converges, not its answer.
    """
    if demand.total <= _MIN_DEMAND:
        return FlowPrediction(0.0, 0.0, {}, {})
    tpl = FlowTemplate(topo, demand)
    t0 = tpl.warm_root(warm_partition)
    hint = tpl.partition_mask(warm_partition) if t0 > 0.0 else None
    return _solve_template(tpl, t0, hint)


def fast_score_batch(
    jobs: Sequence[Tuple[Topology, TrafficDemand]],
    warm_partition: Optional[Iterable[str]] = None,
    chain: bool = True,
) -> Tuple[List[Optional[FlowPrediction]], int]:
    """Score a batch of (topology, demand) candidates in lockstep.

    The first candidate is solved alone (seeded by ``warm_partition``
    when given); with ``chain`` on, its binding cut becomes the warm
    hint for every other candidate in the batch — enumeration-adjacent
    placements share most of their fabric, so the hint's root usually
    lands in the binding segment and the rest of the batch converges in
    one or two rounds.  Each lockstep round refreshes every still-active
    candidate's capacity vector from the stacked ``(B, E)`` rate/base
    matrices in a single NumPy operation, then advances each active
    candidate's max flow one probe.

    Returns ``(predictions, warm_starts)`` where ``warm_starts`` counts
    candidates whose search actually started from a warm (non-zero)
    root.  Zero-demand jobs yield the empty prediction.
    """
    predictions: List[Optional[FlowPrediction]] = [None] * len(jobs)
    warm_starts = 0
    templates: List[Optional[FlowTemplate]] = []
    for i, (topo, demand) in enumerate(jobs):
        if demand.total <= _MIN_DEMAND:
            predictions[i] = FlowPrediction(0.0, 0.0, {}, {})
            templates.append(None)
        else:
            templates.append(FlowTemplate(topo, demand))

    live = [i for i, tpl in enumerate(templates) if tpl is not None]
    if not live:
        return predictions, warm_starts

    # head of the batch: solo solve, seeded by the caller's hint
    head = live[0]
    tpl = templates[head]
    t0 = tpl.warm_root(warm_partition)
    hint = tpl.partition_mask(warm_partition) if t0 > 0.0 else None
    if t0 > 0.0:
        warm_starts += 1
    predictions[head] = _solve_template(tpl, t0, hint)

    rest = live[1:]
    if not rest:
        return predictions, warm_starts
    hint_partition = (
        predictions[head].cut_partition if chain else warm_partition
    ) or warm_partition

    # stacked capacity matrices for the rest of the batch (ragged edge
    # counts are padded; padding columns never enter a solve)
    width = max(templates[i].num_edges for i in rest)
    base_mat = np.zeros((len(rest), width))
    rate_mat = np.zeros((len(rest), width))
    for row, i in enumerate(rest):
        tpl_i = templates[i]
        base_mat[row, : tpl_i.num_edges] = tpl_i.base
        rate_mat[row, : tpl_i.num_edges] = tpl_i.rate

    t_vec = np.zeros(len(rest))
    masks: List[Optional[bytearray]] = [None] * len(rest)
    for row, i in enumerate(rest):
        tpl_i = templates[i]
        root = tpl_i.warm_root(hint_partition)
        if root > 0.0:
            t_vec[row] = root
            masks[row] = tpl_i.partition_mask(hint_partition)
            warm_starts += 1

    active = list(range(len(rest)))
    for _ in range(_MAX_ITERS):
        if not active:
            break
        # one vectorized capacity refresh for every active candidate
        caps_mat = base_mat[active] + rate_mat[active] * t_vec[active, None]
        still_active: List[int] = []
        for k, row in enumerate(active):
            i = rest[row]
            tpl_i = templates[i]
            ne = tpl_i.num_edges
            caps = np.zeros(2 * ne)
            caps[0::2] = caps_mat[k, :ne]
            caps_list = caps.tolist()
            got = tpl_i.max_flow(caps_list)
            if got >= tpl_i.total * (1.0 - _FEAS_TOL):
                predictions[i] = tpl_i.prediction(
                    float(t_vec[row]), caps_list, masks[row]
                )
                continue
            reach = tpl_i.reachable(caps_list)
            b, r = tpl_i.cut_line(reach)
            if r <= _EPS:
                raise RuntimeError(
                    f"demands infeasible even in {_T_HI} s — "
                    "disconnected topology?"
                )
            t_next = (tpl_i.total - b) / r
            if t_next > _T_HI:
                raise RuntimeError(
                    f"demands infeasible even in {_T_HI} s — "
                    "disconnected topology?"
                )
            if t_next <= t_vec[row]:
                t_next = float(np.nextafter(t_vec[row], np.inf))
            t_vec[row] = t_next
            masks[row] = reach
            still_active.append(row)
        active = still_active
    if active:
        raise RuntimeError(
            f"cut-parametric time search did not converge in {_MAX_ITERS} "
            "iterations"
        )
    return predictions, warm_starts
