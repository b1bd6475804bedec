"""Per-layer timing from outside the program.

:class:`LayerProbe` wraps each layer's public entry point where its
callers look it up, for the duration of a ``with`` block, and adds up
host time and calls per layer.  Nothing inside ``src/`` changes: the
wrappers are installed on module and class attributes and removed on
exit.  Search pass times come from the ``search.pass1`` /
``search.pass2`` spans the engine already emits under
:func:`repro.obs.capture`.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from momentbench.common import Outcome, median, op_loop

#: (module, attribute path, layer) for every wrapped entry point.  A
#: function imported by name into a caller's module is wrapped there,
#: where the call resolves it.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.graphs.datasets", "DatasetSpec.build", "graphs"),
    ("repro.graphs.datasets", "tiny_dataset", "graphs"),
    ("repro.core.optimizer", "MomentOptimizer.estimate_hotness", "sampling"),
    ("repro.core.optimizer", "run_search", "search"),
    ("repro.core.optimizer", "ddak_place", "ddak"),
    ("repro.runtime.system", "ddak_place", "ddak"),
    ("repro.simulator.pipeline", "EpochSimulator.run_epoch", "sim.epoch"),
    ("repro.simulator.pipeline", "progressive_fill", "sim.alloc"),
    ("repro.simulator.bandwidth", "max_min_rates", "sim.maxmin"),
    ("repro.api", "run", "runtime"),
)


class LayerProbe:
    """Accumulates host seconds and calls per layer while active.

    ``results[layer]`` keeps what the wrapped calls returned for the
    layers whose answers the benchmark reads (search results, epochs,
    run results).
    """

    KEEP = ("search", "sim.epoch", "runtime")

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.results: Dict[str, List[object]] = defaultdict(list)
        #: Edges of every graph built while active.
        self.edges = 0
        self._saved: List[Tuple[object, str, object]] = []

    def _wrap(self, fn, layer: str):
        probe = self

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                probe.seconds[layer] += time.perf_counter() - t0
                probe.calls[layer] += 1
            if layer == "graphs":
                probe.edges += out.graph.num_edges
            elif layer in probe.KEEP:
                probe.results[layer].append(out)
            return out

        timed.__wrapped__ = fn
        return timed

    def __enter__(self) -> "LayerProbe":
        for module_name, path, layer in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for name in parents:
                owner = getattr(owner, name)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def search_spans(telemetry) -> Dict[str, float]:
    """Summed seconds of the engine's ``search.pass1``/``search.pass2``
    spans in one :func:`repro.obs.capture` session."""
    out = {"search.pass1": 0.0, "search.pass2": 0.0}
    for span in telemetry.tracer.spans:
        if span.name in out:
            out[span.name] += span.duration
    return out


def offline_layers(probe: LayerProbe, passes: Dict[str, float], ops: int) -> Dict[str, float]:
    """Per-operation layer figures of ``ops`` operations run under
    ``probe`` (``passes`` from :func:`search_spans`).  A layer the
    operations never entered reads 0."""
    sec, calls = probe.seconds, probe.calls
    searches = probe.results["search"]
    epochs = probe.results["sim.epoch"]
    candidates = sum(r.num_candidates for r in searches)
    unique = sum(r.num_unique for r in searches)
    inner = sec["sampling"] + sec["search"] + sec["ddak"] + sec["sim.epoch"]
    return {
        "graphs.build_s": sec["graphs"] / ops,
        "graphs.edges_per_s": probe.edges / sec["graphs"] if sec["graphs"] else 0.0,
        "sampling.hotness_s": sec["sampling"] / ops,
        "search.run_s": sec["search"] / ops,
        "search.pass1_s": passes["search.pass1"] / ops,
        "search.pass2_s": passes["search.pass2"] / ops,
        "search.candidates": candidates / ops,
        "search.unique": unique / ops,
        "search.lp_scored": sum(r.num_lp_scored for r in searches) / ops,
        "search.pass1_per_cand_ms": (
            1e3 * passes["search.pass1"] / unique if unique else 0.0
        ),
        "ddak.calls": calls["ddak"] / ops,
        "ddak.place_s": sec["ddak"] / ops,
        "sim.epoch_s": sec["sim.epoch"] / ops,
        "sim.steps": sum(len(e.step_seconds) for e in epochs) / ops,
        "sim.alloc_s": sec["sim.alloc"] / ops,
        "sim.alloc_calls": calls["sim.alloc"] / ops,
        "sim.maxmin_calls": calls["sim.maxmin"] / ops,
        "runtime.run_s": sec["runtime"] / ops,
        "runtime.self_s": (
            max(0.0, sec["runtime"] - inner) / ops if calls["runtime"] else 0.0
        ),
    }


@dataclass
class Ops:
    """Host seconds and results of one run's operations."""

    plain: List[float] = field(default_factory=list)
    traced: List[float] = field(default_factory=list)
    results: List[object] = field(default_factory=list)
    probe: LayerProbe = field(default_factory=LayerProbe)
    passes: Dict[str, float] = field(
        default_factory=lambda: {"search.pass1": 0.0, "search.pass2": 0.0}
    )


def run_ops(seconds: float, trace: bool, operation: Callable[[], object]) -> Ops:
    """Run ``operation()`` back to back for about ``seconds`` (see
    :func:`~momentbench.common.op_loop`).

    A traced run alternates an untraced and a traced operation, the
    latter under a :class:`LayerProbe` and :func:`repro.obs.capture`,
    so the two compare for the tracing overhead.
    """
    from repro import obs

    ops = Ops()

    def op(i: int) -> None:
        t0 = time.perf_counter()
        if trace and i % 2 == 1:
            with ops.probe, obs.capture() as tel:
                result = operation()
            ops.traced.append(time.perf_counter() - t0)
            for name, value in search_spans(tel).items():
                ops.passes[name] += value
        else:
            result = operation()
            ops.plain.append(time.perf_counter() - t0)
        ops.results.append(result)

    op_loop(seconds, op, min_ops=2)
    return ops


def put_op_metrics(out: Outcome, ops: Ops, trace: bool, layers: Sequence[str]) -> None:
    """The operation-time metrics of an offline run: the host time of
    the untraced operations (``bench.*``), and when traced, per layer,
    tracing overhead and the time ``layers`` (the probe layers that
    make up an operation) leave unaccounted."""
    out.put("bench.op_s", median(ops.plain))
    out.put("bench.tail_s", max(ops.plain))
    out.put("bench.ops_per_s", len(ops.plain) / sum(ops.plain))
    if not trace:
        return
    n = len(ops.traced)
    for name, value in offline_layers(ops.probe, ops.passes, n).items():
        out.put(name, value)
    out.put("trace.overhead_ratio", median(ops.traced) / median(ops.plain))
    layered = sum(ops.probe.seconds[layer] for layer in layers)
    out.put("trace.unaccounted_s", (sum(ops.traced) - layered) / n)
