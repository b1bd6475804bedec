"""The benchmark's own tests: ``python -m pytest perfbench/tests -q``.

Smoke runs of every workload (untraced and traced) on tiny inputs, the
answer checks failing on a corrupted answer, the open-loop load generator's
due-time accounting against a stalled server, and warehouse ingestion
of the records a run writes.
"""

import dataclasses
import http.server
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from momentbench import cold_run, names, openloop, plan_sweep, serve_mix
from momentbench.common import Outcome, percentile

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def run_bench(*args, cwd=ROOT, out=None):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    if out is not None:
        cmd += ["--out", str(out)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def test_benchmark_json_matches_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(names.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(names.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(names.PER_LAYER)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", names.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run(workload, trace, tmp_path):
    proc = run_bench(
        "--workload", workload, "--seed", "3", "--seconds", "2",
        "--trace", trace, "--smoke", out=tmp_path / "runs.jsonl",
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    wanted = names.PER_LAYER if trace == "1" else names.END_TO_END
    assert [(k, v["unit"]) for k, v in line["metrics"].items()] == list(wanted)
    if trace == "0":
        assert all(v["value"] > 0 for v in line["metrics"].values())


def test_smoke_record_reads_into_warehouse(tmp_path):
    out = tmp_path / "runs.jsonl"
    for seed in ("3", "4"):
        proc = run_bench("--workload", "plan-sweep", "--seed", seed, "--seconds", "1",
                         "--smoke", out=out)
        assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text().splitlines()[0])
    assert record["schema"] == "repro.obs/v1"
    assert record["meta"]["seed"] == 3 and record["meta"]["workload"] == "plan-sweep"
    assert "git_sha" in record["meta"]
    reported = {n for n, _ in names.END_TO_END}
    operations = {n for n, _ in names.OPERATIONS}
    assert reported | operations <= set(record["derived"]["bench"])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    table = tmp_path / "table.json"
    for cmd in (["ingest", str(table), str(out)], ["report", str(table)],
                ["compare", str(table), str(table)]):
        proc = subprocess.run([sys.executable, "-m", "repro.warehouse", *cmd],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
    assert "bench:bench.op_s" in proc.stdout


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "cold-run", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_cold_run_check_catches_a_wrong_answer():
    good = (("rc0.bays", 0, 1),), 10.7, 5.1e10
    assert cold_run.check([good, good]) == []
    assert cold_run.check([good, (good[0], 10.8, good[2])])
    assert cold_run.check([("oom", "no room")])


def test_plan_sweep_run_fails_on_a_corrupted_answer(monkeypatch):
    real = plan_sweep.sweep
    calls = []

    def corrupt(*args):
        plans = real(*args)
        calls.append(1)
        if len(calls) == 2:
            plans[0] = dataclasses.replace(plans[0], placement=plans[-1].placement)
        return plans

    monkeypatch.setattr(plan_sweep, "sweep", corrupt)
    out = Outcome()
    plan_sweep.measure(3, 0.0, False, True, out)
    assert not out.correct and out.failed == 1
    assert "plan sweep: operation 1" in out.problems[0]


def test_serve_checks_catch_wrong_answers():
    body = {"plan": {"placement": [["a", 0, 1]], "optimize_seconds": 0.1,
                     "predicted_throughput": 1.0},
            "verdict": {"ok": True, "paper_epoch_seconds": 2.0}}
    other_timing = json.loads(json.dumps(body))
    other_timing["plan"]["optimize_seconds"] = 9.9
    assert serve_mix.check_answers({1: body}, {1: other_timing}) == []
    wrong = json.loads(json.dumps(body))
    wrong["verdict"]["paper_epoch_seconds"] = 2.5
    assert serve_mix.check_answers({1: body}, {1: wrong})

    def ex(cache):
        return openloop.Exchange(0, 0.0, status=200, body={"cache": cache})

    assert serve_mix.cache_problems([1, 1, 2], [ex("miss"), ex("hit"), ex("miss")]) == []
    assert serve_mix.cache_problems([1, 1], [ex("miss"), ex("miss")])
    assert serve_mix.cache_problems([1, 2], [ex("miss"), ex("hit")])
    # every answer to a request found wrong counts as failed, as do errors
    sent = [1, 2, 2, 3]
    exchanges = [ex("miss"), ex("miss"), ex("hit"), openloop.Exchange(0, 0.0, status=429)]
    assert serve_mix.failed_count(sent, exchanges, []) == 1
    assert serve_mix.failed_count(sent, exchanges, [(2, "wrong")]) == 3


class _StallingHandler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    stall_s = 0.2

    def do_POST(self):  # noqa: N802
        self.rfile.read(int(self.headers["Content-Length"]))
        time.sleep(self.stall_s)
        data = b'{"cache": "hit", "timing": {"total_s": 0.2}}'
        self.send_response(200)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


def test_load_generator_times_from_due_time_against_a_stalled_server():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _StallingHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        offsets = [0.05 * i for i in range(6)]
        exchanges = openloop.drive("127.0.0.1", server.server_address[1],
                                   [b"{}"] * 6, offsets, connections=1)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert all(e.status == 200 for e in exchanges)
    # each request waited behind the stalled ones before it
    assert exchanges[-1].lateness_s > 0.5
    for e in exchanges:
        assert e.latency_s == pytest.approx(e.lateness_s + e.client_s)
        assert e.latency_s >= e.client_s >= 0.19
    out = Outcome()
    serve_mix._serve_layers(out, exchanges, exchanges, {"cache_misses": 0, "rejected": 0})
    assert out.metrics["serve.lateness_ms"] > 0
    assert serve_mix.backlog_grew(exchanges)
    assert percentile(serve_mix.latencies(exchanges), 98) > 1.0


def test_max_rate_interpolates_the_limit_crossing():
    limit = serve_mix.LATENCY_LIMIT_S
    assert serve_mix.max_rate([(20, 0.1, False), (25, 0.2, False)]) == 25
    crossing = serve_mix.max_rate([(20, 0.1, False), (30, limit + 0.1, False)])
    assert 20 < crossing < 30
    assert serve_mix.max_rate([(20, 0.1, False), (30, 0.2, True)]) == 20
    assert serve_mix.max_rate([(20, 0.1, False), (30, float("inf"), False)]) == 20
    # the first failing rung ends the ladder; a later pass does not count
    fluke = [(20, 0.1, False), (30, limit + 0.1, False), (40, 0.2, False)]
    assert serve_mix.max_rate(fluke) == crossing
    assert serve_mix.max_rate([(20, limit + 1, False)]) == 0.0


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 98) == 98
    assert percentile(values, 100) == 100


def test_traffic_is_seeded_and_mostly_repeats():
    import numpy as np

    def draw(seed):
        traffic = serve_mix.Traffic(np.random.default_rng(seed), seen=8)
        return [traffic.next() for _ in range(2000)], traffic.seen

    (a, seen), (b, _) = draw(5), draw(5)
    assert a == b
    assert seen - 8 == len(a) // serve_mix.NEW_EVERY
    assert sum(1 for i in a if i == 0) > sum(1 for i in a if i == 7)
