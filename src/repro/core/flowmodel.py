"""Inputs and outputs of max-flow throughput prediction (paper Section 3.2).

A *traffic demand* (:class:`TrafficDemand`: bytes each GPU must receive
from each storage bin) on a runtime
:class:`~repro.core.topology.Topology` goes into the paper's augmented
single-source single-sink network; the solver
(:func:`repro.core.flowbatch.fast_min_completion_time`) answers with a
:class:`FlowPrediction`:

* the minimum time T in which every demand can be routed when each
  physical edge carries ``capacity * T`` bytes;
* the aggregate GPU inlet bytes/s at that T;
* per-storage-node optimal flows — the ``Bin_traffic`` input of the
  DDAK data-placement algorithm (Section 3.3).

Demands may name a concrete storage node (``"ssd3"``) or the flexible
class ``SSD_CLASS`` ("any SSD"), which the flow solver splits across
drives optimally — this is how hardware placements are scored *before*
a per-vertex data placement exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.topology import NodeKind, Topology

#: Flexible demand keys: "serve this from whichever member is best".
SSD_CLASS = "__ssd_class__"
CPU_CLASS = "__cpu_class__"

_SOURCE = "__source__"
_SINK = "__sink__"


@dataclass
class TrafficDemand:
    """Bytes each GPU must pull from each storage bin.

    ``entries[(bin, gpu)] = bytes`` where ``bin`` is a storage node name
    or one of the class keys.  Local GPU-cache hits should be *excluded*
    by the caller (HBM reads are effectively free); peer-GPU cache
    reads are included with the owner's ``gpuN:mem`` node as the bin.
    """

    entries: Dict[Tuple[str, str], float] = field(default_factory=dict)

    def add(self, bin_name: str, gpu: str, nbytes: float) -> None:
        """Accumulate ``nbytes`` of demand for ``(bin, gpu)``."""
        if nbytes < 0:
            raise ValueError("demand bytes must be >= 0")
        if nbytes == 0:
            return
        key = (bin_name, gpu)
        self.entries[key] = self.entries.get(key, 0.0) + nbytes

    @property
    def total(self) -> float:
        """Sum of all demanded bytes."""
        return sum(self.entries.values())

    def per_gpu(self) -> Dict[str, float]:
        """Demanded bytes aggregated per GPU."""
        out: Dict[str, float] = {}
        for (_, gpu), v in self.entries.items():
            out[gpu] = out.get(gpu, 0.0) + v
        return out

    def per_bin(self) -> Dict[str, float]:
        """Demanded bytes aggregated per storage bin."""
        out: Dict[str, float] = {}
        for (bin_name, _), v in self.entries.items():
            out[bin_name] = out.get(bin_name, 0.0) + v
        return out

    def scaled(self, factor: float) -> "TrafficDemand":
        """A copy with every entry multiplied by ``factor``."""
        return TrafficDemand(
            {k: v * factor for k, v in self.entries.items()}
        )


@dataclass
class FlowPrediction:
    """Result of the time-bisection procedure."""

    #: Minimum completion time for the demand (seconds).
    time: float
    #: Aggregate GPU inlet rate at that time (bytes/s).
    throughput: float
    #: Per-GPU inlet rate (bytes/s), demand/time per GPU.
    per_gpu_rate: Dict[str, float]
    #: Optimal bytes served by each concrete storage node (the DDAK
    #: ``Bin_traffic`` targets), normalised to bytes/s.
    storage_rate: Dict[str, float]
    #: Human-readable saturated links at the optimum (bottlenecks).
    bottlenecks: List[str] = field(default_factory=list)
    #: Source-side node labels of the binding min cut (the certificate
    #: that ``time`` is optimal).  Filled by the vectorized kernel
    #: (:mod:`repro.core.flowbatch`); reusable as a warm-start hint when
    #: re-scoring a similar placement or a degraded fabric.
    cut_partition: Tuple[str, ...] = ()


def _storage_members(topo: Topology, class_key: str) -> List[str]:
    if class_key == SSD_CLASS:
        return topo.ssds()
    if class_key == CPU_CLASS:
        return sorted(
            n.name for n in topo.nodes_of_kind(NodeKind.CPU_MEM)
        )
    raise KeyError(class_key)
