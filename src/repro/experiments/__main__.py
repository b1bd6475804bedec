"""CLI: regenerate paper experiments.

Usage::

    python -m repro.experiments            # list experiments
    python -m repro.experiments fig10      # run one (full settings)
    python -m repro.experiments all --quick
    python -m repro.experiments fig10 --trace --json-out runs.jsonl
    python -m repro.experiments fig10 --search-workers 4
    python -m repro.experiments faults --faults "fail@2:ssd0;slow@5:ssd3:0.5"

``--trace`` prints the telemetry report (span tree, tier breakdown,
busiest links) after each experiment; ``--json-out`` appends one
structured JSONL run record per experiment (schema documented in
EXPERIMENTS.md) — by default it *appends* (``--json-out-mode
overwrite`` truncates once at startup), and a run that raises
mid-epoch still flushes its partial record with an ``error`` field
before the exception propagates.  Either flag enables telemetry for
the run.
``--search-workers`` sets the placement-search engine's process-wide
worker count, its only setting (see :mod:`repro.core.search`).
"""

from __future__ import annotations

import argparse
import sys

from repro import obs
from repro.core import search
from repro.experiments.registry import list_experiments, run_experiment


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate Moment's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        help="experiment id (e.g. fig10), or 'all'",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small datasets / few simulated batches (CI-sized)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="enable telemetry and print the span tree + metric tables",
    )
    parser.add_argument(
        "--json-out",
        metavar="PATH",
        default=None,
        help="enable telemetry and append one JSONL run record per "
        "experiment to PATH (even for runs that raise mid-epoch: the "
        "partial span tree/metrics are flushed with an 'error' field)",
    )
    parser.add_argument(
        "--json-out-mode",
        choices=("append", "overwrite"),
        default="append",
        help="append to an existing --json-out file (default, the "
        "historical behaviour) or truncate it once at startup",
    )
    parser.add_argument(
        "--faults",
        metavar="SPEC",
        default=None,
        help="inject a fault schedule into fault-aware experiments; "
        "SPEC is ';'-separated 'kind@step[+duration]:target[:param]' "
        "clauses, e.g. 'fail@2:ssd0;slow@5:ssd3:0.5' "
        "(see repro.faults.FaultSchedule.parse)",
    )
    parser.add_argument(
        "--fabric",
        metavar="TARGET",
        default=None,
        help="run fabric-aware experiments on this hardware instead of "
        "the paper default; TARGET resolves through the machine "
        "registry ('machine_b', 'gen:<seed>', a repro.fabric/v1 JSON "
        "or chassis text file)",
    )
    parser.add_argument(
        "--search-workers",
        type=int,
        metavar="N",
        default=None,
        help="placement-search scoring processes (default: "
        "$REPRO_SEARCH_WORKERS or 1; serial and parallel runs pick "
        "identical winners)",
    )
    args = parser.parse_args(argv)

    if args.search_workers is not None:
        search.set_default_workers(args.search_workers)
    faults = None
    if args.faults is not None:
        from repro.faults import FaultSchedule

        faults = FaultSchedule.parse(args.faults)
    machine = None
    if args.fabric is not None:
        from repro.hardware.registry import get_machine

        machine = get_machine(args.fabric)

    if not args.experiment:
        print("available experiments:")
        for exp in list_experiments():
            print(f"  {exp}")
        return 0

    ids = list_experiments() if args.experiment == "all" else [args.experiment]
    telemetry_on = args.trace or args.json_out is not None
    if args.json_out and args.json_out_mode == "overwrite":
        # truncate exactly once; the per-experiment writes below append
        open(args.json_out, "w", encoding="utf-8").close()
    for exp in ids:
        if telemetry_on:
            result = None
            error = None
            with obs.capture() as tel:
                try:
                    result = run_experiment(
                        exp, quick=args.quick, faults=faults,
                        machine=machine,
                    )
                except Exception as err:  # noqa: BLE001 - flushed + re-raised
                    error = err
            record = obs.build_run_record(
                run_id=exp,
                config={
                    "experiment": exp,
                    "quick": args.quick,
                    "title": getattr(result, "title", None),
                },
                telemetry=tel,
                meta=obs.run_metadata(),
            )
            if error is not None:
                # flush the partial span tree/metrics so the record of
                # a crashed run is not lost, then re-raise
                record["error"] = {
                    "type": type(error).__name__,
                    "message": str(error),
                }
            if args.json_out:
                obs.append_jsonl(args.json_out, record)
            if error is not None:
                raise error
            result.print()
            if args.trace:
                print()
                print(obs.report.render_record(record))
        else:
            result = run_experiment(
                exp, quick=args.quick, faults=faults, machine=machine
            )
            result.print()
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
