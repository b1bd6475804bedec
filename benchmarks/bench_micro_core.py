"""Micro-benchmarks of the core algorithms.

Unlike the per-figure benches (single-shot simulations), these measure
the hot kernels the automatic module runs many times: the min-time
max-flow search, the multicommodity LP, progressive filling, DDAK
placement, and neighbour sampling.
"""

import numpy as np
import pytest

from repro.core.ddak import ddak_place, hash_place, make_bins
from repro.core.flowbatch import fast_min_completion_time
from repro.core.flowmodel import SSD_CLASS, TrafficDemand
from repro.core.mcmf import multicommodity_min_time
from repro.core.optimizer import concrete_demand
from repro.graphs.generators import power_law_graph
from repro.hardware.machines import classic_layouts, machine_a
from repro.sampling.neighbor import sample_batch
from repro.simulator.bandwidth import Flow, progressive_fill


@pytest.fixture(scope="module")
def topo():
    m = machine_a()
    return m.build(classic_layouts(m)["c"])


@pytest.fixture(scope="module")
def demand(topo):
    d = TrafficDemand()
    for g in topo.gpus():
        d.add(SSD_CLASS, g, 10e9)
    return d


def test_time_bisection_on_machine(benchmark, topo, demand):
    result = benchmark(fast_min_completion_time, topo, demand)
    assert result.time > 0


def test_multicommodity_lp_on_machine(benchmark, topo):
    d = concrete_demand(topo, (0.0, 0.1, 0.9), {})
    result = benchmark(multicommodity_min_time, topo, d)
    assert result.time > 0


def test_progressive_fill_many_flows(benchmark):
    rng = np.random.default_rng(0)
    resources = {f"r{i}": 10.0 for i in range(16)}
    flows = [
        Flow(
            tuple(rng.choice(16, size=3, replace=False)),
            float(rng.uniform(1, 100)),
        )
        for _ in range(200)
    ]
    flows = [Flow(tuple(f"r{i}" for i in f.path), f.demand) for f in flows]
    result = benchmark(progressive_fill, flows, resources)
    assert result.makespan > 0


def test_ddak_place_100k_vertices(benchmark, topo):
    hot = (np.arange(1, 100_001) ** -0.8).astype(float)
    bins = make_bins(topo, 40e6, 80e6, 1e12)
    placement = benchmark(ddak_place, bins, hot, 4096, 100)
    placement.validate(4096)


def test_hash_place_100k_vertices(benchmark, topo):
    hot = (np.arange(1, 100_001) ** -0.8).astype(float)
    bins = make_bins(topo, 40e6, 80e6, 1e12)
    placement = benchmark(hash_place, bins, hot, 4096)
    placement.validate(4096)


def test_neighbor_sampling(benchmark):
    graph = power_law_graph(100_000, 15, seed=0)
    seeds = np.arange(1000, dtype=np.int64)
    sample = benchmark(sample_batch, graph, seeds, [25, 10], 0)
    assert sample.num_unique > 1000
