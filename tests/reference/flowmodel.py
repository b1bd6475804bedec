"""Reference bisection predictor: the test oracle for
:func:`repro.core.flowbatch.fast_min_completion_time`.

Builds the paper's augmented single-source single-sink network
(Figure 9) afresh for every probed time and bisects on it with the
reference max-flow solvers in :mod:`tests.reference.maxflow` — the
original "time-bisection Ford–Fulkerson procedure" of Section 3.2.
The package's kernel must agree with it on every candidate
(``tests/test_search.py``).
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.flowbatch import _MIN_DEMAND
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
from repro.hardware.specs import QPI_P2P_BW
from tests.reference.maxflow import FlowNetwork, bisect_min_time, dinic, min_cut


def build_time_network(
    topo: Topology,
    demand: TrafficDemand,
    time: float,
) -> FlowNetwork:
    """The augmented network of Figure 9 with edge budgets ``cap * time``.

    Physical edges keep their direction structure; each storage node is
    split (``name/in -> name/out``) to enforce its device egress ceiling.
    Virtual edges: source -> bins (capacity = demanded bytes), GPUs ->
    sink (capacity = per-GPU demanded bytes).  Class demands route
    through a class super-node feeding every member.
    """
    net = FlowNetwork()
    storage_names = {n.name for n in topo.storage_nodes}

    def out_name(node: str) -> str:
        return f"{node}/out" if node in storage_names else node

    # A GPU cache serving a *peer* physically leaves through the owner
    # GPU's fabric ports, not at HBM speed.  The single-commodity
    # relaxation would otherwise let peer-cache demand be absorbed by
    # the owner's own sink at 1.2 TB/s; capping the HBM edge at the
    # owner's aggregate fabric egress restores the binding constraint
    # (local cache hits are excluded from demands by convention).
    gpu_fabric_egress: Dict[str, float] = {}
    for gpu in topo.gpus():
        total = 0.0
        for succ in topo.successors(gpu):
            if topo.node(succ).kind is not NodeKind.GPU_MEM:
                total += topo.link(gpu, succ).capacity
        gpu_fabric_egress[gpu] = total

    # node splitting for storage egress ceilings
    for node in topo.storage_nodes:
        egress = node.egress_bw if node.egress_bw is not None else float("inf")
        if node.kind is NodeKind.GPU_MEM:
            owner = node.name[: -len(":mem")]
            egress = min(egress, gpu_fabric_egress.get(owner, egress))
        net.add_edge(f"{node.name}/in", f"{node.name}/out", egress * time)

    # physical links (QPI carries device-to-device DMA at the reduced
    # cross-socket P2P forwarding rate; CPU-memory flows are a small
    # minority of what the predictor routes, so the cap applies globally)
    for link in topo.links:
        src = out_name(link.src)
        dst = f"{link.dst}/in" if link.dst in storage_names else link.dst
        cap = link.capacity
        if link.kind is LinkKind.QPI:
            cap = min(cap, QPI_P2P_BW)
        net.add_edge(src, dst, cap * time)

    # virtual source edges per demanded bin
    per_bin = demand.per_bin()
    for bin_name, nbytes in sorted(per_bin.items()):
        if bin_name in (SSD_CLASS, CPU_CLASS):
            class_node = f"{bin_name}/class"
            net.add_edge(_SOURCE, class_node, nbytes)
            for member in _storage_members(topo, bin_name):
                net.add_edge(class_node, f"{member}/in", float("inf"))
        else:
            if bin_name not in topo:
                raise KeyError(f"demand references unknown bin {bin_name!r}")
            net.add_edge(_SOURCE, f"{bin_name}/in", nbytes)

    # virtual sink edges per GPU
    for gpu, nbytes in sorted(demand.per_gpu().items()):
        if gpu not in topo:
            raise KeyError(f"demand references unknown GPU {gpu!r}")
        net.add_edge(gpu, _SINK, nbytes)
    return net


def min_completion_time(
    topo: Topology,
    demand: TrafficDemand,
    rel_tol: float = 1e-4,
) -> FlowPrediction:
    """Minimum time to route all demands; the paper's placement score.

    Also extracts per-storage-node flows at the optimum (DDAK traffic
    targets) and the saturated links (bottleneck report).
    """
    if demand.total <= _MIN_DEMAND:
        return FlowPrediction(0.0, 0.0, {}, {})

    demands_by_sink = demand.per_gpu()

    def build(t: float) -> FlowNetwork:
        return build_time_network(topo, demand, t)

    t_star = bisect_min_time(
        build, demands_by_sink, source=_SOURCE, sink=_SINK, rel_tol=rel_tol
    )

    # Re-solve at the optimum to read off per-storage flows.
    net = build(t_star)
    dinic(net, _SOURCE, _SINK)
    storage_rate: Dict[str, float] = {}
    for eid in range(0, net.num_edges * 2, 2):
        u, v = net.edge_endpoints(eid)
        flow = net.flow_on(eid)
        if isinstance(u, str) and u.endswith("/in") and isinstance(v, str):
            node = u[: -len("/in")]
            if v == f"{node}/out" and flow > 0:
                storage_rate[node] = flow / t_star

    # Bottlenecks: the min cut *just below* the feasible time is made of
    # the physical links that prevent finishing any faster.
    bottlenecks: List[str] = []
    t_tight = t_star * (1.0 - 16.0 * rel_tol)
    if t_tight > 0:
        tight = build(t_tight)
        dinic(tight, _SOURCE, _SINK)
        for eid in min_cut(tight, _SOURCE):
            u, v = tight.edge_endpoints(eid)
            cap = tight.capacity_of(eid)
            if u == _SOURCE or v == _SINK:
                continue  # demand-limited, not a physical bottleneck
            u_s, v_s = str(u), str(v)
            if u_s.endswith("/out"):
                u_s = u_s[: -len("/out")]
            if v_s.endswith("/in"):
                v_s = v_s[: -len("/in")]
            bottlenecks.append(f"{u_s}->{v_s} ({cap / t_tight / 1e9:.1f} GB/s)")

    per_gpu_rate = {g: d / t_star for g, d in demands_by_sink.items()}
    return FlowPrediction(
        time=t_star,
        throughput=demand.total / t_star,
        per_gpu_rate=per_gpu_rate,
        storage_rate=storage_rate,
        bottlenecks=bottlenecks,
    )


def predict_throughput(topo: Topology, demand: TrafficDemand) -> float:
    """Aggregate GPU inlet bytes/s for the demand (convenience)."""
    return min_completion_time(topo, demand).throughput


def plain_max_flow(topo: Topology) -> float:
    """The unconstrained max flow of the augmented graph (bytes/s):
    source feeds every *external* storage node (CPU memory, SSDs) at its
    egress ceiling, every GPU drains to the sink unboundedly.  GPU HBM
    caches are excluded from the supply side — a GPU reading its own
    cache is not communication.  Matches the paper's base formulation;
    mostly useful for sanity checks and reports, since it ignores what
    data each tier actually holds."""
    net = FlowNetwork()
    storage_names = {n.name for n in topo.storage_nodes}

    for node in topo.storage_nodes:
        egress = node.egress_bw if node.egress_bw is not None else float("inf")
        net.add_edge(f"{node.name}/in", f"{node.name}/out", egress)
        if node.kind is not NodeKind.GPU_MEM:
            net.add_edge(_SOURCE, f"{node.name}/in", egress)
    for link in topo.links:
        src = f"{link.src}/out" if link.src in storage_names else link.src
        dst = f"{link.dst}/in" if link.dst in storage_names else link.dst
        net.add_edge(src, dst, link.capacity)
    for gpu in topo.gpus():
        net.add_edge(gpu, _SINK, float("inf"))
    return dinic(net, _SOURCE, _SINK)
