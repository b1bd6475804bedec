"""Shared plumbing: paths, environment, operation loops, statistics."""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Sequence

from momentbench.names import UNITS

#: The benchmark directory (``perfbench/``) and the checkout root above it.
BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
FABRICS = BENCH_DIR / "fabrics"
#: Scratch space for run artefacts (plan stores, records); git-ignored.
WORK = ROOT / ".perfbench"

#: Environment knobs that would change what the program does or
#: records; the benchmark measures the program's defaults.
STRIPPED_ENV_PREFIXES = ("REPRO_SEARCH_",)
STRIPPED_ENV_NAMES = ("REPRO_OBS_HIST_MAX", "REPRO_JSONL")

#: Seed for routine runs (README.md also names a held-out seed).
DEFAULT_SEED = 1


class MissingProgram(RuntimeError):
    """The checkout holds no program source to benchmark."""


def prepare_environment() -> None:
    """Strip knobs from the environment and put ``src/`` on the path.

    Raises :class:`MissingProgram` when ``src/repro`` is absent, so a
    directory holding only the benchmark fails before any measurement.
    """
    for name in list(os.environ):
        if name in STRIPPED_ENV_NAMES or name.startswith(STRIPPED_ENV_PREFIXES):
            del os.environ[name]
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no program source at {SRC}/repro")
    src = str(SRC)
    if src not in sys.path:
        sys.path.insert(0, src)
    parts = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
    os.environ["TMPDIR"] = str(WORK / "tmp")
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    #: Answer-check failures (a wrong answer fails the run).
    problems: List[str] = field(default_factory=list)
    #: name -> value; units come from :data:`momentbench.names.UNITS`.
    metrics: Dict[str, float] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems

    def put(self, name: str, value: float) -> None:
        if name not in UNITS:
            raise KeyError(f"unknown metric {name!r}")
        self.metrics[name] = float(value)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else float("nan")


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q``
    percent of the samples at or below it."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[min(len(ordered), int(rank)) - 1])


def op_loop(
    seconds: float, op: Callable[[int], None], min_ops: int = 2
) -> None:
    """Run ``op(i)`` back to back for about ``seconds``.

    Runs at least ``min_ops`` operations, then starts another only
    while the median operation so far still fits in ``seconds``, so a
    run measures about ``seconds`` without cutting an operation short.
    """
    times: List[float] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(times) >= min_ops and elapsed + median(times) > seconds:
            return
        t0 = time.perf_counter()
        op(len(times))
        times.append(time.perf_counter() - t0)


def peak_rss_mb() -> float:
    """Peak resident set of this process, MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live child process, MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def setup_samples(workload: str, seed: int, n: int, smoke: bool) -> List[float]:
    """Wall seconds of ``n`` fresh processes that each do only the
    workload's set-up (interpreter start, imports, compiles, builds)."""
    cmd = [
        sys.executable,
        str(BENCH_DIR / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--setup-only",
    ]
    if smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(n):
        t0 = time.perf_counter()
        subprocess.run(
            cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120
        )
        samples.append(time.perf_counter() - t0)
    return samples


def fig13_error(result, machine) -> float:
    """Predictor-vs-simulator error of one run, as in Fig. 13: the
    multicommodity LP's predicted I/O throughput for the epoch's demand
    against the simulated one.  The model is checked against itself,
    not against hardware."""
    from repro.core.mcmf import multicommodity_min_time

    epoch = result.epoch
    measured = epoch.external_bytes / max(epoch.io_seconds * epoch.num_steps, 1e-9)
    pred = multicommodity_min_time(machine.build(result.placement), epoch.demand)
    predicted = epoch.demand.total / max(pred.time, 1e-9)
    return abs(predicted - measured) / measured


def disagreements(answers: Sequence[object], what: str) -> List[str]:
    """One problem per operation whose answer differs from operation 0's."""
    return [
        f"{what}: operation {i} answered {a!r}, operation 0 answered {answers[0]!r}"
        for i, a in enumerate(answers)
        if a != answers[0]
    ]
