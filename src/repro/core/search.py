"""repro.core.search — the staged placement-search engine.

Moment's automatic module scores every feasible hardware placement and
keeps the best.  This module runs that search as one fixed pipeline so
callers (the single-machine optimizer, the multi-node driver, baselines
and experiments) all speak the same :class:`SearchRequest` /
:class:`SearchResult` types:

1. **Direct canonical enumeration** — :class:`EnumeratedSource` streams
   :func:`repro.core.symmetry.iter_canonical_placements`, which
   produces exactly one representative per symmetry orbit *directly*
   (no rejected duplicates are ever constructed); the raw pre-dedupe
   candidate count is computed analytically by
   :func:`repro.core.placement.count_placements`.
2. **Pass 1** — :class:`FlexibleMaxFlowScorer`, the paper's time-search
   max flow on *flexible* class demands, solved by the vectorized
   cut-parametric kernel (:mod:`repro.core.flowbatch`): candidates are
   scored in batches of :data:`PASS1_BATCH_SIZE` whose capacity
   matrices are stacked into NumPy arrays, and each batch's first
   solution warm-starts the rest.  Its throughput is an optimistic
   bound on the exact score and the key of the top-``lp_top_k`` funnel.
3. **Pass 2** — :class:`MulticommodityScorer`, the multicommodity
   concurrent-flow LP on the concretised demand, run on every funnel
   finalist; the highest pass-2 throughput wins.

Scoring runs on a :class:`ParallelExecutor`: ``workers=1`` executes
inline, ``workers>1`` fans chunks out to a ``concurrent.futures``
process pool.  The worker count is the engine's only setting and never
changes the answer: results are reassembled by enumeration index and
the final ranking breaks throughput ties on funnel order (pass-1 score
descending, enumeration index ascending — the pre-engine stable sort).

Topology construction is cached per ``Placement.as_tuple()`` (each
candidate's topology is built once and reused across stages).  Every
stage reports through :mod:`repro.obs`: ``search.candidates``,
``search.unique``, ``search.pass1_scored``, ``search.lp_scored`` and
``search.topo_cache.{hits,misses}``.
"""

from __future__ import annotations

import heapq
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.flowbatch import fast_score_batch
from repro.core.flowmodel import (
    CPU_CLASS,
    SSD_CLASS,
    FlowPrediction,
    TrafficDemand,
)
from repro.core.mcmf import McfPrediction, multicommodity_min_time
from repro.core.placement import Chassis, Placement, count_placements
from repro.core.symmetry import iter_canonical_placements
from repro.core.topology import NodeKind, Topology, TopologyMask

if TYPE_CHECKING:  # pragma: no cover - type hints only, avoids import cycle
    from repro.hardware.machines import MachineSpec


#: Candidates per pass-1 scoring batch.  Warm-start chaining operates
#: within a batch and serial and parallel runs cut the candidate stream
#: into the same batches, so every worker count solves identical
#: batches — a determinism requirement, not a tuning knob.
PASS1_BATCH_SIZE = 32


# ----------------------------------------------------------------------
# Worker count: the engine's one setting (env-overridable, CLI-settable)
# ----------------------------------------------------------------------
_DEFAULT_WORKERS: Optional[int] = None


def default_workers() -> int:
    """Default scoring parallelism: ``REPRO_SEARCH_WORKERS`` or 1."""
    if _DEFAULT_WORKERS is not None:
        return _DEFAULT_WORKERS
    try:
        return max(1, int(os.environ.get("REPRO_SEARCH_WORKERS", "1")))
    except ValueError:
        return 1


def set_default_workers(workers: Optional[int]) -> None:
    """Override the process-wide worker default (None = env/1)."""
    global _DEFAULT_WORKERS
    _DEFAULT_WORKERS = None if workers is None else max(1, int(workers))


# ----------------------------------------------------------------------
# Demand construction (shared by both scoring stages)
# ----------------------------------------------------------------------
def scoring_demand(
    topo: Topology,
    fractions: Tuple[float, float, float],
    bytes_per_gpu: float = 1e9,
    gpu_cache_policy: str = "replicated",
) -> TrafficDemand:
    """Unit traffic demand used to score a candidate topology.

    Every GPU demands ``bytes_per_gpu`` split across tiers per the
    fractions.  Replicated GPU caches serve their share locally (free);
    the partitioned ablation turns the non-own share into peer reads.
    CPU and SSD shares use the flexible class demands so the max-flow
    solver distributes them optimally across banks/drives.
    """
    f_gpu, f_cpu, f_ssd = fractions
    gpus = topo.gpus()
    n = len(gpus)
    demand = TrafficDemand()
    for gpu in gpus:
        if gpu_cache_policy == "partitioned" and f_gpu > 0 and n > 1:
            peers = [g for g in gpus if g != gpu]
            peer_share = bytes_per_gpu * f_gpu * (len(peers) / n) / len(peers)
            for peer in peers:
                demand.add(f"{peer}:mem", gpu, peer_share)
        if f_cpu > 0:
            demand.add(CPU_CLASS, gpu, bytes_per_gpu * f_cpu)
        if f_ssd > 0:
            demand.add(SSD_CLASS, gpu, bytes_per_gpu * f_ssd)
    return demand


def concrete_demand(
    topo: Topology,
    fractions: Tuple[float, float, float],
    storage_rate: Dict[str, float],
    bytes_per_gpu: float = 1e9,
    gpu_cache_policy: str = "replicated",
) -> TrafficDemand:
    """Concretise a scoring demand: each tier's share is split across
    that tier's bins by the pass-1 max-flow weights, and every bin's
    share fans out evenly over all GPUs (shared dataset)."""
    f_gpu, f_cpu, f_ssd = fractions
    gpus = topo.gpus()
    n = len(gpus)
    demand = TrafficDemand()

    def spread(names, tier_fraction):
        if not names or tier_fraction <= 0:
            return
        weights = np.array([max(storage_rate.get(b, 0.0), 0.0) for b in names])
        if weights.sum() <= 0:
            weights = np.ones(len(names))
        weights = weights / weights.sum()
        for name, w in zip(names, weights):
            share = bytes_per_gpu * tier_fraction * w
            for gpu in gpus:
                demand.add(name, gpu, share)

    spread(topo.ssds(), f_ssd)
    spread(
        sorted(m.name for m in topo.nodes_of_kind(NodeKind.CPU_MEM)), f_cpu
    )
    # partitioned-cache ablation: peer reads, even caches, even origins
    if gpu_cache_policy == "partitioned":
        for gpu in gpus:
            peers = [g for g in gpus if g != gpu]
            if peers and f_gpu > 0:
                peer_share = (
                    bytes_per_gpu * f_gpu * (len(peers) / n) / len(peers)
                )
                for peer in peers:
                    demand.add(f"{peer}:mem", gpu, peer_share)
    return demand


# ----------------------------------------------------------------------
# Result rows
# ----------------------------------------------------------------------
@dataclass
class ScoredPlacement:
    """One scored hardware-placement candidate."""

    placement: Placement
    #: Pass-2 multicommodity throughput (bytes/s) — the ranking score.
    throughput: float
    #: Pass-1 flexible max-flow prediction (per-bin traffic targets).
    prediction: FlowPrediction
    #: Pass-2 multicommodity LP prediction (utilisation, bottlenecks).
    mcf: Optional[McfPrediction] = None


# ----------------------------------------------------------------------
# Candidate sources
# ----------------------------------------------------------------------
class EnumeratedSource:
    """Direct canonical enumeration of the slot-feasible space.

    Streams :func:`repro.core.symmetry.iter_canonical_placements`: one
    representative per symmetry orbit, produced directly (the rejected
    orbit members are never constructed, unlike the historical
    enumerate-then-filter pipeline this replaces, kept as a test oracle
    in ``tests/reference/symmetry.py``).

    ``num_seen`` is the raw pre-dedupe count, computed analytically by
    :func:`repro.core.placement.count_placements` (and cached), so it is
    valid before, during and after :meth:`stream`.  ``num_direct``
    counts the canonical placements actually yielded so far.
    """

    def __init__(self, chassis: Chassis, num_gpus: int, num_ssds: int) -> None:
        self.chassis = chassis
        self.num_gpus = num_gpus
        self.num_ssds = num_ssds
        self._raw_count: Optional[int] = None
        self.num_direct = 0

    @property
    def num_seen(self) -> int:
        if self._raw_count is None:
            self._raw_count = count_placements(
                self.chassis, self.num_gpus, self.num_ssds
            )
        return self._raw_count

    def stream(self) -> Iterator[Placement]:
        self.num_direct = 0
        for placement in iter_canonical_placements(
            self.chassis, self.num_gpus, self.num_ssds
        ):
            self.num_direct += 1
            yield placement


class ExplicitSource:
    """A fixed candidate list (e.g. data-placement-only runs, §4.5).

    Matches the historical restricted-search semantics: the list is
    taken as-is, without symmetry dedupe.
    """

    def __init__(self, placements: Sequence[Placement]) -> None:
        self.placements = list(placements)

    @property
    def num_seen(self) -> int:
        return len(self.placements)

    def stream(self) -> Iterator[Placement]:
        return iter(self.placements)


def sample_placements(
    chassis: Chassis,
    num_gpus: int,
    num_ssds: int,
    cap: int = 16,
) -> List[Placement]:
    """A deterministic, symmetry-deduped sample of the search space.

    Arbitrary compiled fabrics (generated heterogeneous chassis) can
    enumerate thousands of canonical placements; sweeps that only need
    a representative candidate set stride-sample ``cap`` of them so a
    restricted search stays bounded on any fabric.  ``cap <= 0``, or a
    space no larger than ``cap``, returns every canonical placement.
    """
    canon = list(iter_canonical_placements(chassis, num_gpus, num_ssds))
    if cap <= 0 or len(canon) <= cap:
        return canon
    stride = len(canon) / cap
    return [canon[int(i * stride)] for i in range(cap)]


# ----------------------------------------------------------------------
# Scorers (pipeline stages)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FlexibleMaxFlowScorer:
    """Pass 1: time-search max flow on flexible class demands.

    The solver decides how much traffic each drive/bank should ideally
    serve — these weights are what DDAK will realise via data placement,
    and the resulting throughput is an optimistic bound on the exact
    pass-2 score.

    Solved by the vectorized cut-parametric kernel
    (:mod:`repro.core.flowbatch`), which returns the *exact* breakpoint
    time — no bisection, no tolerance.
    """

    fractions: Tuple[float, float, float]
    gpu_cache_policy: str = "replicated"

    def score_batch(
        self,
        topos: Sequence[Topology],
        warm_partition: Optional[Tuple[str, ...]] = None,
    ) -> Tuple[List[Optional[FlowPrediction]], int]:
        """Score a batch of candidate topologies in NumPy lockstep.

        Returns ``(predictions, warm_starts)``; see
        :func:`repro.core.flowbatch.fast_score_batch`.
        """
        jobs = [
            (
                topo,
                scoring_demand(
                    topo, self.fractions, gpu_cache_policy=self.gpu_cache_policy
                ),
            )
            for topo in topos
        ]
        return fast_score_batch(jobs, warm_partition=warm_partition)


@dataclass(frozen=True)
class MulticommodityScorer:
    """Pass 2: exact multicommodity LP on the concretised demand.

    Each bin's pass-1 share is fanned out *evenly across GPUs* — the
    dataset is shared, so every GPU reads from every bin; a placement
    only scores well if that all-to-all pattern fits its fabric.
    """

    fractions: Tuple[float, float, float]
    gpu_cache_policy: str = "replicated"

    def score(
        self, topo: Topology, placement: Placement, prior: FlowPrediction = None
    ) -> McfPrediction:
        demand = concrete_demand(
            topo,
            self.fractions,
            prior.storage_rate if prior is not None else {},
            gpu_cache_policy=self.gpu_cache_policy,
        )
        return multicommodity_min_time(topo, demand)


# ----------------------------------------------------------------------
# Scoring runtime: topology cache + stage dispatch (shared by the
# inline path and every pool worker)
# ----------------------------------------------------------------------
class _ScoreRuntime:
    """Builds (and caches) topologies and applies the stages to chunks.

    A ``"coarse"`` (pass-1) chunk is solved as one NumPy-lockstep batch:
    its first candidate is solved alone (seeded by ``warm_cut``) and its
    binding cut warm-starts the rest.  Chaining never crosses a chunk
    boundary, so identical chunking (:data:`PASS1_BATCH_SIZE`) makes
    serial and parallel runs solve identical batches.  An ``"exact"``
    (pass-2) chunk LP-scores each candidate on its own.
    """

    def __init__(
        self,
        machine: "MachineSpec",
        nvlink_pairs: Optional[Tuple[Tuple[int, int], ...]],
        coarse: FlexibleMaxFlowScorer,
        exact: MulticommodityScorer,
        mask: Optional[TopologyMask] = None,
        warm_cut: Optional[Tuple[str, ...]] = None,
    ) -> None:
        self.machine = machine
        self.nvlink_pairs = nvlink_pairs
        self.coarse = coarse
        self.exact = exact
        self.mask = mask
        self.warm_cut = warm_cut
        self._topologies: Dict[Tuple, Topology] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.warm_starts = 0
        self.batch_sizes: List[int] = []

    def topology(self, placement: Placement) -> Topology:
        key = placement.as_tuple()
        topo = self._topologies.get(key)
        if topo is not None:
            self.cache_hits += 1
            return topo
        self.cache_misses += 1
        # candidates come from the validated enumeration, so the chassis
        # and topology invariant sweeps are skipped in the hot path
        topo = self.machine.build(
            placement, nvlink_pairs=self.nvlink_pairs, validate=False
        )
        if self.mask:
            # degraded-fabric search (replanning): every candidate is
            # scored on the surviving topology
            topo = self.mask.apply(topo)
        self._topologies[key] = topo
        return topo

    def run_chunk(
        self, stage: str, items: Sequence[Tuple[int, Placement, object]]
    ) -> List[Tuple[int, object]]:
        if stage == "coarse":
            topos = [self.topology(placement) for _, placement, _ in items]
            predictions, warm_starts = self.coarse.score_batch(
                topos, warm_partition=self.warm_cut
            )
            self.warm_starts += warm_starts
            self.batch_sizes.append(len(items))
            return [
                (idx, prediction)
                for (idx, _, _), prediction in zip(items, predictions)
            ]
        return [
            (idx, self.exact.score(self.topology(placement), placement, prior))
            for idx, placement, prior in items
        ]

    def take_stats(self) -> Tuple[int, int, int, Tuple[int, ...]]:
        """Drain (cache_hits, cache_misses, warm_starts, batch_sizes)."""
        stats = (
            self.cache_hits,
            self.cache_misses,
            self.warm_starts,
            tuple(self.batch_sizes),
        )
        self.cache_hits = self.cache_misses = self.warm_starts = 0
        self.batch_sizes = []
        return stats


_WORKER_RUNTIME: Optional[_ScoreRuntime] = None


def _pool_init(*runtime_args) -> None:
    global _WORKER_RUNTIME
    _WORKER_RUNTIME = _ScoreRuntime(*runtime_args)


def _pool_chunk(stage, items):
    results = _WORKER_RUNTIME.run_chunk(stage, items)
    return results, _WORKER_RUNTIME.take_stats()


class ParallelExecutor:
    """Chunked stage execution, inline or over a process pool.

    ``workers=1`` runs every chunk in-process through the exact same
    :class:`_ScoreRuntime` code path the pool workers use, so the serial
    engine is bit-identical to the parallel one; results are always
    reassembled in submission (enumeration-index) order.
    """

    def __init__(
        self,
        machine: "MachineSpec",
        nvlink_pairs: Optional[Tuple[Tuple[int, int], ...]],
        coarse: FlexibleMaxFlowScorer,
        exact: MulticommodityScorer,
        workers: int = 1,
        mask: Optional[TopologyMask] = None,
        warm_cut: Optional[Tuple[str, ...]] = None,
    ) -> None:
        self.workers = max(1, int(workers))
        self._init_args = (machine, nvlink_pairs, coarse, exact, mask, warm_cut)
        self._local = _ScoreRuntime(*self._init_args)
        self._pool: Optional[ProcessPoolExecutor] = None
        self.cache_hits = 0
        self.cache_misses = 0
        self.warm_starts = 0
        self.batch_sizes: List[int] = []

    # -- lifecycle -------------------------------------------------------
    def __enter__(self) -> "ParallelExecutor":
        if self.workers > 1:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_pool_init,
                initargs=self._init_args,
            )
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # -- execution -------------------------------------------------------
    def _absorb(
        self,
        hits: int,
        misses: int,
        warm_starts: int = 0,
        batch_sizes: Tuple[int, ...] = (),
    ) -> None:
        self.cache_hits += hits
        self.cache_misses += misses
        self.warm_starts += warm_starts
        self.batch_sizes.extend(batch_sizes)

    def run_stage(
        self,
        stage: str,
        items: Sequence[Tuple[int, Placement, object]],
        chunk_size: Optional[int] = None,
    ) -> List[Tuple[int, object]]:
        """Score ``items`` with the named stage, in index order."""
        items = list(items)
        if not items:
            return []
        if self._pool is None:
            out = self._local.run_chunk(stage, items)
            self._absorb(*self._local.take_stats())
            return out
        if chunk_size is None:
            chunk_size = max(1, -(-len(items) // (self.workers * 4)))
        chunks = [
            items[i : i + chunk_size]
            for i in range(0, len(items), chunk_size)
        ]
        futures = [
            self._pool.submit(_pool_chunk, stage, chunk) for chunk in chunks
        ]
        results: List[Tuple[int, object]] = []
        for future in futures:
            chunk_results, stats = future.result()
            results.extend(chunk_results)
            self._absorb(*stats)
        results.sort(key=lambda pair: pair[0])
        return results


# ----------------------------------------------------------------------
# Request / result types
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SearchRequest:
    """One placement-search problem, fully specified."""

    machine: "MachineSpec"
    num_gpus: int
    num_ssds: int
    #: (GPU, CPU, SSD) traffic fractions the demand is built from.
    fractions: Tuple[float, float, float]
    gpu_cache_policy: str = "replicated"
    nvlink_pairs: Optional[Tuple[Tuple[int, int], ...]] = None
    #: Pass-1 → pass-2 funnel width (pass 1 is optimistic, so generous).
    lp_top_k: int = 48
    #: Candidates kept in the ranked result.
    top_k: int = 10
    #: Scoring processes; None = :func:`default_workers` (env/CLI).
    workers: Optional[int] = None
    #: Restrict the search to these placements (skips enumeration and
    #: symmetry dedupe, e.g. data-placement-only runs à la §4.5).
    candidates: Optional[Tuple[Placement, ...]] = None
    #: Score every candidate on the degraded (surviving) topology —
    #: used by fault replanning.  ``None`` searches the healthy fabric.
    mask: Optional[TopologyMask] = None
    #: Warm-start hint: the binding-cut node labels
    #: (``FlowPrediction.cut_partition``) of a previous, related solve —
    #: e.g. the healthy-fabric prediction when re-searching under a
    #: ``mask``, or the current placement when scoring a single-slot
    #: swap.  Seeds the first candidate of every pass-1 batch; warm and
    #: cold solves reach the same exact answer.
    warm_cut: Optional[Tuple[str, ...]] = None

    def resolved_workers(self) -> int:
        """The effective worker count for this request."""
        if self.workers is None:
            return default_workers()
        return max(1, int(self.workers))


@dataclass
class SearchResult:
    """Outcome of one placement search, best candidate first."""

    #: The winner (highest pass-2 throughput).
    best: ScoredPlacement
    #: Top-``top_k`` candidates, ranked by throughput (ties keep funnel
    #: order, matching the pre-engine stable sort).
    scored: List[ScoredPlacement] = field(default_factory=list)
    #: Raw enumeration size (before symmetry pruning).
    num_candidates: int = 0
    #: Candidates scored by pass 1 (after symmetry pruning).
    num_unique: int = 0
    #: Funnel finalists the pass-2 LP evaluated.
    num_lp_scored: int = 0
    #: Topology-build cache hits/misses across all stages and workers.
    cache_hits: int = 0
    cache_misses: int = 0
    #: Effective parallelism the search ran with.
    workers: int = 1
    #: Wall-clock duration of the engine run (``search.run`` span).
    seconds: float = 0.0
    #: Pass-1 solves that started from a warm (non-zero) cut root.
    warm_starts: int = 0
    #: Pass-1 scoring batches dispatched (serial and parallel alike).
    num_batches: int = 0
    #: Canonical placements yielded directly by the source (equals
    #: ``num_unique`` for :class:`EnumeratedSource`; 0 for an
    #: :class:`ExplicitSource`).
    canonical_direct: int = 0


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class SearchEngine:
    """Streaming enumeration → pass 1 → top-k funnel → pass 2.

    Determinism contract: for a fixed source, the winner and the ranked
    top-k are identical for every ``workers`` count; throughput ties
    break on funnel order (pass-1 score descending, enumeration index
    ascending), matching the pre-engine serial path bit-for-bit.
    """

    def __init__(
        self,
        source: "EnumeratedSource | ExplicitSource",
        executor: ParallelExecutor,
        lp_top_k: int = 48,
        top_k: int = 10,
    ) -> None:
        self.source = source
        self.executor = executor
        self.lp_top_k = max(1, lp_top_k)
        self.top_k = max(1, top_k)

    # -- pass 1: stream candidates through the max-flow kernel -----------
    def _stream_pass1(self):
        """Enumerate and pass-1 score, overlapped.

        Candidates are chunked into :data:`PASS1_BATCH_SIZE` scoring
        batches and dispatched to the executor *while enumeration is
        still running*, so the process pool starts scoring before the
        stream is exhausted.  Returns ``entries`` with ``entries[i] =
        (index, placement, pass1_prediction)`` in enumeration order.
        """
        chunk: List[Tuple[int, Placement, object]] = []
        placements: List[Placement] = []
        results: List[Tuple[int, object]] = []
        for placement in self.source.stream():
            placements.append(placement)
            chunk.append((len(placements) - 1, placement, None))
            if len(chunk) >= PASS1_BATCH_SIZE:
                results.extend(
                    self.executor.run_stage(
                        "coarse", chunk, chunk_size=PASS1_BATCH_SIZE
                    )
                )
                chunk = []
        if chunk:
            results.extend(
                self.executor.run_stage("coarse", chunk, chunk_size=len(chunk))
            )
        results.sort(key=lambda pair: pair[0])
        return [
            (idx, placements[idx], prediction) for idx, prediction in results
        ]

    # -- pass 2: top-k funnel + exact scoring ----------------------------
    def _select_finalists(self, entries):
        """The ``lp_top_k`` best pass-1 candidates, best first.

        Selection matches a stable descending sort on pass-1 throughput
        (ties keep enumeration order), maintained incrementally with a
        bounded heap — the funnel never holds more than ``lp_top_k``
        candidates.
        """
        heap: List[Tuple[float, int]] = []  # (throughput, -index) min-heap
        by_index: Dict[int, Tuple[Placement, object]] = {}
        for idx, placement, prediction in entries:
            item = (prediction.throughput, -idx)
            if len(heap) < self.lp_top_k:
                heapq.heappush(heap, item)
                by_index[idx] = (placement, prediction)
            elif item > heap[0]:
                evicted = heapq.heappushpop(heap, item)
                del by_index[-evicted[1]]
                by_index[idx] = (placement, prediction)
        order = sorted(heap, key=lambda item: (-item[0], -item[1]))
        return [by_index[-neg_idx] for _, neg_idx in order]

    def _score_exact(self, finalists):
        """LP-score every finalist and rank by exact throughput.

        ``finalists`` arrive in funnel order and come back from the
        executor in that order, so the stable sort keeps throughput ties
        ranked exactly as the serial reference path.
        """
        results = self.executor.run_stage(
            "exact",
            [(pos, placement, p1) for pos, (placement, p1) in enumerate(finalists)],
        )
        rows = []
        for pos, mcf in results:
            placement, p1 = finalists[pos]
            rows.append(ScoredPlacement(placement, mcf.throughput, p1, mcf))
        return sorted(rows, key=lambda row: -row.throughput)

    # -- entry point ------------------------------------------------------
    def run(self) -> SearchResult:
        """Execute the full pipeline and return the ranked result."""
        with obs.span(
            "search.run",
            workers=self.executor.workers,
            lp_top_k=self.lp_top_k,
        ) as root:
            with self.executor:
                with obs.span("search.pass1") as sp:
                    entries = self._stream_pass1()
                    sp.set(
                        candidates=self.source.num_seen, unique=len(entries)
                    )
                if not entries:
                    raise ValueError("candidate source produced no placements")
                finalists = self._select_finalists(entries)
                with obs.span("search.pass2", finalists=len(finalists)):
                    ranked = self._score_exact(finalists)
            result = SearchResult(
                best=ranked[0],
                scored=ranked[: self.top_k],
                num_candidates=self.source.num_seen,
                num_unique=len(entries),
                num_lp_scored=len(ranked),
                cache_hits=self.executor.cache_hits,
                cache_misses=self.executor.cache_misses,
                workers=self.executor.workers,
                warm_starts=self.executor.warm_starts,
                num_batches=len(self.executor.batch_sizes),
                canonical_direct=getattr(self.source, "num_direct", 0),
            )
            root.set(unique=result.num_unique, throughput=result.best.throughput)
        result.seconds = root.duration
        obs.add("search.candidates", result.num_candidates)
        obs.add("search.unique", result.num_unique)
        obs.add("search.canonical_direct", result.canonical_direct)
        obs.add("search.pass1_scored", result.num_unique)
        obs.add("search.lp_scored", result.num_lp_scored)
        obs.add("search.warm_starts", result.warm_starts)
        for size in self.executor.batch_sizes:
            obs.observe("search.batch_size", size)
        obs.add("search.topo_cache.hits", result.cache_hits)
        obs.add("search.topo_cache.misses", result.cache_misses)
        return result


def run_search(request: SearchRequest) -> SearchResult:
    """Solve one :class:`SearchRequest` with the default pipeline.

    Raises ``ValueError`` when no placement fits the requested pool.
    """
    machine = request.machine
    if request.candidates is not None:
        source = ExplicitSource(request.candidates)
    else:
        source = EnumeratedSource(
            machine.chassis, request.num_gpus, request.num_ssds
        )
    executor = ParallelExecutor(
        machine,
        request.nvlink_pairs,
        FlexibleMaxFlowScorer(request.fractions, request.gpu_cache_policy),
        MulticommodityScorer(request.fractions, request.gpu_cache_policy),
        workers=request.resolved_workers(),
        mask=request.mask,
        warm_cut=request.warm_cut,
    )
    engine = SearchEngine(
        source, executor, lp_top_k=request.lp_top_k, top_k=request.top_k
    )
    try:
        return engine.run()
    except ValueError as err:
        if "no placements" in str(err):
            raise ValueError(
                f"no feasible placement of {request.num_gpus} GPUs / "
                f"{request.num_ssds} SSDs on {machine.name}"
            ) from None
        raise
