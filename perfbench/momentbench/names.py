"""The benchmark's metric names and units (``BENCHMARK.json`` lists the
same; ``tests/test_momentbench.py`` keeps the two in step).

Every workload reports every metric.  An end-to-end metric names one
quantity per workload (see README.md); a per-layer metric of a layer
the workload never enters reads 0.

The end-to-end metrics carry regression bounds, so they are the ones
this shared host resolves run to run.  Host time is not among them:
the host's speed swings by 20-35% over tens of seconds, in CPU time as
well as wall time, so the operation times (the ``bench.*`` metrics)
are reported with the traced run's layer times and compared by paired
runs, not by a bound (README.md, "Why host time is not bounded").
"""

WORKLOADS = ("cold-run", "plan-sweep", "serve-mix")

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("sim_epoch_s", "s"),
)

#: Host time of the workload's operations, one quantity per workload
#: (README.md): typical, tail, and throughput.
OPERATIONS = (
    ("bench.op_s", "s"),
    ("bench.tail_s", "s"),
    ("bench.ops_per_s", "1/s"),
)

OFFLINE_LAYERS = (
    ("graphs.build_s", "s"),
    ("graphs.edges_per_s", "1/s"),
    ("sampling.hotness_s", "s"),
    ("search.run_s", "s"),
    ("search.pass1_s", "s"),
    ("search.pass2_s", "s"),
    ("search.candidates", "count"),
    ("search.unique", "count"),
    ("search.lp_scored", "count"),
    ("search.pass1_per_cand_ms", "ms"),
    ("ddak.calls", "count"),
    ("ddak.place_s", "s"),
    ("sim.epoch_s", "s"),
    ("sim.steps", "count"),
    ("sim.alloc_s", "s"),
    ("sim.alloc_calls", "count"),
    ("sim.maxmin_calls", "count"),
    ("runtime.run_s", "s"),
    ("runtime.self_s", "s"),
)

SERVE_LAYERS = (
    ("serve.client_ms", "ms"),
    ("serve.server_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.queue_ms", "ms"),
    ("serve.solve_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.cold_solves", "count"),
    ("serve.refused", "count"),
    ("serve.lateness_ms", "ms"),
    ("serve.p50_ms", "ms"),
    ("serve.ref_samples", "count"),
)

#: Plan quality beside ``sim_epoch_s``: the chosen plans' predicted
#: throughput and the predictor-vs-simulator error (Fig. 13).  Not end
#: to end: serve-mix's TINY requests fit in GPU memory and move no bytes
#: over the fabric, so both read 0 there.
QUALITY = (("quality.plan_gbs", "GB/s"), ("quality.pred_err", "ratio"))

TRACE = (
    ("trace.overhead_ratio", "ratio"),
    ("trace.unaccounted_s", "s"),
)

PER_LAYER = OPERATIONS + OFFLINE_LAYERS + SERVE_LAYERS + QUALITY + TRACE

UNITS = dict(END_TO_END + PER_LAYER)
