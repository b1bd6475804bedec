"""DistDGL baseline: distributed CPU-sampling training on Cluster C.

DistDGL partitions the graph across machines (METIS-style), samples on
CPUs, ships remote features over the network, and trains on each
machine's GPU.  The paper configures 4 machines x 1 GPU, 48 sampling
threads each, and observes at most 20 Gb/s network utilisation
(CPU-bound, not network-bound).  Failure mode: "allocates about 5x
memory of the original dataset size" per the paper -- the IG/UK/CL
partitions exceed the 256 GB nodes (Section 4.2).

The model is analytic (no PCIe fabric to simulate): per-step time is
the max of CPU sampling, network feature shipping, and GPU compute,
with DDP gradient sync on top.  Sampled-subgraph sizes come from the
*real* sampler on the scaled dataset, rescaled to paper magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.gnn.costmodel import BatchShape, ComputeCostModel, allreduce_seconds
from repro.graphs.datasets import ScaledDataset
from repro.hardware.machines import ClusterSpec, cluster_c
from repro.sampling.neighbor import sample_batch
from repro.simulator.memory import (
    MemoryLedger,
    OutOfMemoryError,
    distdgl_partition_bytes,
)
from repro.utils.rng import SeedLike, ensure_rng


@dataclass
class DistDglResult:
    """Outcome of a DistDGL run (paper-scale seconds)."""

    system: str
    dataset: str
    model: str
    num_machines: int
    epoch_seconds: float = float("nan")
    oom: Optional[str] = None
    sample_seconds: float = 0.0
    network_seconds: float = 0.0
    compute_seconds: float = 0.0
    seeds_per_s: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether the run fit in cluster memory."""
        return self.oom is None

    @property
    def paper_epoch_seconds(self) -> float:
        """Epoch seconds (paper frame; NaN when OOMed)."""
        return self.epoch_seconds


class DistDglSystem:
    """Analytic DistDGL model on Cluster C.

    ``remote_feature_fraction`` is the share of feature bytes fetched
    from remote partitions (METIS partitioning keeps most neighbour
    accesses local; the paper's observed 20 Gb/s peak implies a modest
    remote share).
    """

    name = "distdgl"

    def __init__(
        self,
        cluster: Optional[ClusterSpec] = None,
        remote_feature_fraction: float = 0.12,
        memory_expansion: float = 5.0,
        sample_edges_per_s_per_machine: float = 2.5e6,
        seed: SeedLike = 0,
    ) -> None:
        self.cluster = cluster or cluster_c()
        self.remote_feature_fraction = remote_feature_fraction
        self.memory_expansion = memory_expansion
        #: Effective distributed neighbour-sampling rate of one machine,
        #: including remote-partition RPC round-trips — the reason
        #: "CPU-based sampling falls short of keeping up with GPU-based
        #: model training" (paper Section 2.2).  Single-digit millions
        #: of edges/s/machine matches published DistDGL measurements.
        self.sample_edges_per_s_per_machine = sample_edges_per_s_per_machine
        self.seed = seed

    def check_memory(self, dataset: ScaledDataset) -> None:
        """Per-machine CPU ledger with the 5x expansion (paper 4.2)."""
        need = distdgl_partition_bytes(
            dataset.spec.total_bytes,
            self.cluster.num_machines,
            self.memory_expansion,
        )
        ledger = MemoryLedger(
            f"{self.cluster.name} node DRAM", self.cluster.cpu_mem_per_machine
        )
        ledger.reserve("os+runtime", 16e9)
        ledger.reserve("graph_partition_5x", need)

    def run(self, spec) -> DistDglResult:
        """Run one epoch of a :class:`~repro.RunSpec` (DistDGL ignores
        the spec's placement and GPU-count fields — the cluster shape
        is fixed)."""
        from repro.runtime.spec import require_spec

        require_spec(spec, "DistDglSystem.run")
        dataset = spec.dataset
        model = spec.model
        fanouts = spec.fanouts
        sample_batches = spec.sample_batches
        result = DistDglResult(
            system=self.name,
            dataset=dataset.spec.key,
            model=model,
            num_machines=self.cluster.num_machines,
        )
        try:
            self.check_memory(dataset)
        except OutOfMemoryError as err:
            result.oom = str(err)
            return result

        rng = ensure_rng(self.seed)
        cm = ComputeCostModel(
            self.cluster.gpu, model, in_dim=dataset.graph.feature_dim
        )
        # Measure per-batch shapes with the real sampler (scaled),
        # then rescale byte/edge counts back to paper magnitude.
        ratio = dataset.batch_ratio
        sample_rate = self.sample_edges_per_s_per_machine
        steps_scaled = max(
            1,
            int(
                np.ceil(
                    dataset.train_ids.size
                    / (dataset.batch_size * self.cluster.num_machines)
                )
            ),
        )
        steps = max(
            1, int(round(steps_scaled * dataset.scale / dataset.batch_ratio))
        )
        t_sample = t_net = t_comp = 0.0
        n_sim = min(sample_batches, steps)
        for _ in range(n_sim):
            seeds = rng.choice(
                dataset.train_ids, size=dataset.batch_size, replace=False
            )
            s = sample_batch(dataset.graph, seeds, fanouts, seed=rng)
            paper_edges = s.num_edges * ratio
            paper_nodes = s.num_unique * ratio
            # CPU sampling with remote-vertex RPC overhead
            t_sample += paper_edges / sample_rate
            remote_bytes = (
                paper_nodes
                * dataset.feature_bytes
                * self.remote_feature_fraction
            )
            t_net += remote_bytes / self.cluster.nic_bw
            t_comp += cm.batch_seconds(
                BatchShape(int(paper_nodes), int(paper_edges))
            )
        t_sample /= n_sim
        t_net /= n_sim
        t_comp /= n_sim
        sync = allreduce_seconds(
            4e6, self.cluster.num_machines, self.cluster.nic_bw, latency=20e-6
        )
        # pipeline: sampling/shipping overlap compute; DDP sync barriers
        step_time = max(t_sample, t_net, t_comp) + sync
        result.sample_seconds = t_sample
        result.network_seconds = t_net
        result.compute_seconds = t_comp
        result.epoch_seconds = step_time * steps
        paper_train = dataset.spec.num_vertices * dataset.spec.train_fraction
        result.seeds_per_s = paper_train / result.epoch_seconds
        return result
