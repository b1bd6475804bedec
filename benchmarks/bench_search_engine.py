"""Placement-search engine benchmarks (repro.core.search).

Measures the staged engine on the machine-B reference searches: the
serial path (workers=1, bit-identical to the pre-engine optimizer)
against the same search on ``REPRO_SEARCH_WORKERS`` processes.  Machine
B has no chassis symmetries, so its searches are the largest (every
enumerated candidate is scored) and the ones the ≥2× parallel-speedup
target is defined on.

Quick profile searches 2 GPUs / 4 SSDs (280 candidates); ``REPRO_FULL=1``
runs the full 4 GPUs / 8 SSDs search (1936 candidates).

``test_search_scaling_a`` adds the candidates/sec scaling curve on
machine A (mirrored chassis, symmetry pruning active) over growing
GPU/SSD pools; its 4-GPU/8-SSD point is the acceptance benchmark for
the vectorized-search speedup and is tracked by the warehouse gate as
``bench:candidates_per_s`` (baseline tables under
``benchmarks/baselines/``).
"""

import dataclasses

import pytest

from repro.core.search import default_workers, run_search
from repro.core.optimizer import MomentOptimizer
from repro.experiments.figures import _dataset
from repro.hardware.machines import machine_a, machine_b

from conftest import run_once

#: (GPUs, SSDs) points of the machine-A scaling curve, smallest first.
SCALING_POOLS = ((1, 2), (2, 4), (3, 6), (4, 8))


@pytest.fixture(scope="module")
def machine():
    return machine_b()


def _request(machine, quick, pool=None):
    gpus, ssds = pool if pool is not None else ((2, 4) if quick else (4, 8))
    opt = MomentOptimizer(machine, num_gpus=gpus, num_ssds=ssds)
    ds = _dataset("IG", quick)
    hotness = opt.estimate_hotness(ds)
    fractions, _ = opt.plan_fractions(ds, hotness)
    return opt.search_request(fractions)


def test_search_serial_reference(benchmark, machine, quick):
    """The serial path: every unique candidate through pass 1 and the
    ``lp_top_k`` best through pass 2 (the speedup baseline)."""
    request = dataclasses.replace(_request(machine, quick), workers=1)
    result = run_once(benchmark, run_search, request)
    print(
        f"\nserial: {result.num_unique} unique, {result.num_lp_scored} "
        f"LP-scored, {result.seconds:.2f}s"
    )
    assert result.num_lp_scored > 0


def test_search_parallel(benchmark, machine, quick):
    """The same search at the env-configured worker count.

    The ranking must equal the serial one exactly: the worker count
    changes how a search runs, never its answer.
    """
    request = _request(machine, quick)
    serial = run_search(dataclasses.replace(request, workers=1))
    parallel = dataclasses.replace(request, workers=default_workers())
    result = run_once(benchmark, run_search, parallel)
    print(
        f"\nparallel ({result.workers} workers): {result.num_lp_scored} "
        f"LP-scored, {result.cache_hits} topo-cache hits, "
        f"{result.seconds:.2f}s (serial {serial.seconds:.2f}s)"
    )
    ranking = [(r.placement.as_tuple(), r.throughput) for r in result.scored]
    assert ranking == [
        (r.placement.as_tuple(), r.throughput) for r in serial.scored
    ]
    assert result.cache_hits > 0


@pytest.mark.parametrize("gpus,ssds", SCALING_POOLS)
def test_search_scaling_a(benchmark, quick, gpus, ssds):
    """Candidates/sec scaling curve on machine A (serial).

    One point per (GPUs, SSDs) pool; the ``[4-8]`` point is the
    acceptance benchmark for the vectorized-search speedup.  Runs the
    full pool at every profile — the curve is the deliverable, so the
    quick profile must produce the same points as the full one.
    """
    request = dataclasses.replace(
        _request(machine_a(), quick, pool=(gpus, ssds)), workers=1
    )
    result = run_once(benchmark, run_search, request)
    rate = result.num_unique / result.seconds if result.seconds else 0.0
    print(
        f"\nscaling A {gpus}g/{ssds}s: {result.num_candidates} candidates, "
        f"{result.num_unique} unique, {result.seconds:.2f}s, "
        f"{rate:.1f} cand/s"
    )
    assert result.num_unique > 0
