"""Benchmark entry point for the Moment reproduction.

    python3 perfbench/run.py --workload cold-run --seed 1 --seconds 30 --trace 0

Runs one workload for about ``--seconds`` seconds, checks every answer,
prints a table of metrics and, as the last line, one JSON object::

    {"correct": true, "attempted": 2, "failed": 0,
     "metrics": {"setup_s": {"value": 0.91, "unit": "s"}, ...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones.  Each run is also appended as a ``repro.obs/v1`` record
(``derived.bench`` holds the metrics) to ``--out``, which
``python -m repro.warehouse ingest`` reads directly.  Exit status: 0
when every answer checked out, 1 when one did not, 2 when the checkout
holds no program to measure.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from momentbench import common, names  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names.WORKLOADS)
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests"
    )
    parser.add_argument(
        "--setup-only", action="store_true", help="do the workload's set-up and exit"
    )
    parser.add_argument(
        "--out",
        default=str(common.WORK / "runs.jsonl"),
        help="JSONL file the run's repro.obs/v1 record is appended to",
    )
    return parser.parse_args(argv)


def workload_module(name: str):
    return importlib.import_module("momentbench." + name.replace("-", "_"))


def result_line(out: common.Outcome, trace: int) -> dict:
    """The result line's JSON object; a metric the run did not reach
    (a layer the workload never enters) reads 0."""
    wanted = names.PER_LAYER if trace else names.END_TO_END
    return {
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": out.metrics.get(name, 0.0), "unit": unit}
            for name, unit in wanted
        },
    }


def write_record(args, line: dict, out: common.Outcome) -> None:
    """Append the run's ``repro.obs/v1`` record: ``derived.bench`` holds
    the reported metrics and every other one the run measured (an
    untraced run's ``bench.*`` operation times, for paired comparisons)."""
    from repro import obs

    record = obs.build_run_record(
        run_id=f"perfbench/{args.workload}/seed{args.seed}/trace{args.trace}",
        config={
            "benchmark": f"perfbench:{args.workload}",
            "workload": args.workload,
            "seconds": args.seconds,
            "trace": args.trace,
            "smoke": args.smoke,
        },
        derived={
            "bench": {**out.metrics, **{k: v["value"] for k, v in line["metrics"].items()}},
            "correct": line["correct"],
            "attempted": line["attempted"],
            "failed": line["failed"],
        },
        meta=obs.run_metadata(workload=args.workload, seed=args.seed),
    )
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    obs.append_jsonl(args.out, record)


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still unwinds, so child servers are stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        common.prepare_environment()
    except common.MissingProgram as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    module = workload_module(args.workload)
    if args.setup_only:
        if not hasattr(module, "setup"):
            # serve-mix times its server launches inside the run itself
            print(f"perfbench: {args.workload} has no separate set-up", file=sys.stderr)
            return 2
        module.setup(args.seed, args.smoke)
        return 0
    out = common.Outcome()
    module.measure(args.seed, args.seconds, bool(args.trace), args.smoke, out)
    if not args.trace and "setup_s" not in out.metrics:
        out.put("setup_s", common.median(
            common.setup_samples(args.workload, args.seed, 3, args.smoke)
        ))
    line = result_line(out, args.trace)
    write_record(args, line, out)
    for problem in out.problems:
        print(f"ANSWER CHECK FAILED: {problem}")
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={out.attempted} failed={out.failed} correct={out.correct}")
    for name, metric in line["metrics"].items():
        print(f"  {name:<28} {metric['value']:>16.6g} {metric['unit']}")
    if not args.trace:
        print("  recorded, not reported:")
        for name, unit in names.OPERATIONS:
            print(f"  {name:<28} {out.metrics[name]:>16.6g} {unit}")
    print(json.dumps(line))
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
