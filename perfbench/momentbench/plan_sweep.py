"""``plan-sweep``: plan a fixed list of fabrics once per operation.

One operation runs ``MomentOptimizer.optimize`` (placement search plus
DDAK, no epoch simulation) on six fabric points whose search spaces run
from 40 to 1936 candidates.  The dataset is IGB-HOM at 1/6400 scale and
its hotness is estimated once in set-up, so search (pass-1 max-flow and
pass-2 LPs) does almost all the timed work and dataset generation and
the simulator are not timed at all.

The ``gen:<seed>`` fabrics are read from ``perfbench/fabrics/`` (frozen
``repro.fabric/v1`` JSON), so a change to the fabric generator cannot
move the workload.
"""

from __future__ import annotations

from momentbench.common import FABRICS, Outcome, disagreements, fig13_error, peak_rss_mb
from momentbench.layers import put_op_metrics, run_ops

#: (fabric, GPUs, SSDs); ``gen_<n>`` names a frozen fabric file.
POINTS = (
    ("machine_a", 4, 8),
    ("machine_b", 4, 8),
    ("gen_1", 4, 8),
    ("gen_2", 2, 4),
    ("gen_3", 4, 8),
    ("gen_4", 2, 4),
)
SMOKE_POINTS = (("machine_a", 2, 2), ("gen_3", 2, 2))
SCALE = 6400
SMOKE_SCALE = 64000
#: Steps simulated per chosen plan for the (untimed) quality metrics.
SAMPLE_BATCHES = 85


def _machine(name: str):
    if name.startswith("gen_"):
        from repro.hardware.fabric import compile_fabric, load_fabric

        return compile_fabric(load_fabric(str(FABRICS / f"{name}.json")))
    from repro.hardware.registry import get_machine

    return get_machine(name)


def setup(seed: int, smoke: bool):
    """Imports, fabric compiles, the dataset build and its hotness."""
    from repro.core.optimizer import MomentOptimizer
    from repro.graphs.datasets import IGB_HOM

    points = SMOKE_POINTS if smoke else POINTS
    machines = {name: _machine(name) for name, _, _ in points}
    dataset = IGB_HOM.build(scale=SMOKE_SCALE if smoke else SCALE, seed=seed)
    hotness = MomentOptimizer(machines["machine_a"]).estimate_hotness(dataset)
    return points, machines, dataset, hotness


def sweep(points, machines, dataset, hotness):
    """One operation: the chosen plan of every fabric point."""
    from repro.core.optimizer import MomentOptimizer

    return [
        MomentOptimizer(machines[name], gpus, ssds).optimize(dataset, hotness=hotness)
        for name, gpus, ssds in points
    ]


def answer(plans):
    """What must repeat exactly across operations: each point's choice."""
    return tuple(
        (tuple(p.placement.as_tuple()), p.predicted_throughput) for p in plans
    )


def check(answers) -> list:
    return disagreements(answers, "plan sweep")


def simulate_plans(points, machines, dataset, hotness, plans):
    """Simulate each chosen plan (untimed) for the quality metrics."""
    from repro import MomentSystem, RunSpec
    from repro.api import run

    results = []
    for (name, gpus, ssds), plan in zip(points, plans):
        spec = RunSpec(
            dataset=dataset,
            placement=plan.placement,
            num_gpus=gpus,
            num_ssds=ssds,
            hotness=hotness,
            sample_batches=SAMPLE_BATCHES,
        )
        results.append((machines[name], run(MomentSystem(machines[name]), spec)))
    return results


def measure(seed: int, seconds: float, trace: bool, smoke: bool, out: Outcome) -> None:
    points, machines, dataset, hotness = setup(seed, smoke)
    ops = run_ops(seconds, trace, lambda: sweep(points, machines, dataset, hotness))
    answers = [answer(plans) for plans in ops.results]
    out.attempted = len(answers)
    out.problems = check(answers)
    out.failed = sum(1 for a in answers if a != answers[0])
    out.put("ok_ratio", (out.attempted - out.failed) / out.attempted)
    plans = ops.results[0]
    out.put("quality.plan_gbs", sum(p.predicted_throughput for p in plans) / len(plans) / 1e9)
    simulated = simulate_plans(points, machines, dataset, hotness, plans)
    for (machine, result), plan in zip(simulated, plans):
        if not result.ok:
            out.problems.append(f"chosen plan on {machine.name} ran out of memory")
        elif tuple(result.placement.as_tuple()) != tuple(plan.placement.as_tuple()):
            out.problems.append(f"simulated placement on {machine.name} differs from the plan")
    if not out.problems:
        n = len(simulated)
        out.put("sim_epoch_s", sum(r.paper_epoch_seconds for _, r in simulated) / n)
        out.put("quality.pred_err", sum(fig13_error(r, m) for m, r in simulated) / n)
    out.put("peak_rss_mb", peak_rss_mb())
    put_op_metrics(out, ops, trace, ("search", "ddak"))
