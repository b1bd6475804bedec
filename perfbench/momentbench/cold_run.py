"""``cold-run``: one cold offline run per operation.

Each operation builds IGB-HOM at its default scale from the run's seed,
then plans and simulates one epoch on machine A with 4 GPUs and 8 SSDs
through ``repro.api.run``.  ``sample_batches=85`` simulates every step
of the epoch, so the epoch simulator (and its max-min allocator) carries
its full weight next to dataset generation; with the default 10 steps
it would be ~5% of the run and a faster allocator would not show.
"""

from __future__ import annotations

from momentbench.common import Outcome, disagreements, fig13_error, peak_rss_mb
from momentbench.layers import put_op_metrics, run_ops

GPUS, SSDS, SAMPLE_BATCHES = 4, 8, 85
#: Smoke runs build a graph this many times smaller than the default.
SMOKE_SHRINK = 64


def setup(seed: int, smoke: bool):
    """Imports and machine compile; returns the compiled machine."""
    import repro.api  # noqa: F401  (the import bill is part of set-up)
    from repro import machine_a

    return machine_a()


def cold_run(machine, seed: int, smoke: bool):
    """One operation: dataset build plus ``repro.api.run``."""
    from repro import MomentSystem, RunSpec
    from repro.api import run
    from repro.graphs.datasets import IGB_HOM

    scale = IGB_HOM.default_scale * (SMOKE_SHRINK if smoke else 1)
    dataset = IGB_HOM.build(scale=scale, seed=seed)
    spec = RunSpec(
        dataset=dataset,
        num_gpus=GPUS,
        num_ssds=SSDS,
        sample_batches=SAMPLE_BATCHES,
    )
    return run(MomentSystem(machine), spec)


def answer(result):
    """What must repeat exactly across operations on one seed."""
    if not result.ok:
        return ("oom", result.oom)
    return (
        tuple(result.placement.as_tuple()),
        result.paper_epoch_seconds,
        result.plan.predicted_throughput,
    )


def check(answers) -> list:
    """Problems with a run's answers (empty when all is well)."""
    problems = [
        f"operation {i} ran out of memory: {a[1]}"
        for i, a in enumerate(answers)
        if a[0] == "oom"
    ]
    return problems + disagreements(answers, "cold run")


def measure(seed: int, seconds: float, trace: bool, smoke: bool, out: Outcome) -> None:
    machine = setup(seed, smoke)
    ops = run_ops(seconds, trace, lambda: cold_run(machine, seed, smoke))
    answers = [answer(r) for r in ops.results]
    out.attempted = len(answers)
    out.problems = check(answers)
    out.failed = sum(1 for a in answers if a[0] == "oom" or a != answers[0])
    out.put("ok_ratio", (out.attempted - out.failed) / out.attempted)
    out.put("peak_rss_mb", peak_rss_mb())
    result = ops.results[0]
    if result.ok:
        out.put("quality.plan_gbs", result.plan.predicted_throughput / 1e9)
        out.put("sim_epoch_s", result.paper_epoch_seconds)
        out.put("quality.pred_err", fig13_error(result, machine))
    put_op_metrics(out, ops, trace, ("graphs", "runtime"))
