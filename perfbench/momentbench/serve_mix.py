"""``serve-mix``: open-loop traffic against ``python -m repro.serve``.

The service runs in its own process with a fresh plan store
(``--cache-path``) under the checkout's ``.perfbench/`` directory.  One
client process keeps at most two keep-alive connections (the box's
core count) and sends on a seeded Poisson schedule, timing each request
from when it was due.

Requests come from a seeded pool of TINY-dataset planning requests on
machine A and machine B.  Most are repeats of requests seen before,
drawn Zipf-skewed by first appearance (cache reads); a steady trickle
(one in :data:`NEW_EVERY`) are first-seen and solve cold in 70-250 ms,
appending to the store (writes).  The hot set is solved during set-up.
The mix is an assumption, not a measured trace; see :data:`NEW_EVERY`.

Phases, together within ``--seconds``: the reference rate for
:data:`REF_SHARE` of it (typical and tail latency), then a ladder of
higher fixed rates, each held for about :data:`RUNG_ARRIVALS` arrivals,
until one misses the latency limit or builds a backlog, or the next
rung would not end in time.
"""

from __future__ import annotations

import http.client
import json
import shutil
import subprocess
import sys
import threading
import time
import uuid
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from momentbench.common import (
    ROOT,
    WORK,
    Outcome,
    median,
    percentile,
    proc_peak_rss_mb,
)
from momentbench.layers import LayerProbe, offline_layers, search_spans
from momentbench.openloop import Exchange, drive, poisson_offsets

#: (machine, GPUs, SSDs) request shapes, taken in turn along the pool;
#: their cold solves span ~75 to ~200 ms at seed state.
SHAPES = (
    ("machine_b", 2, 4),
    ("machine_a", 4, 8),
    ("machine_b", 4, 4),
)
SMOKE_SHAPES = (("machine_a", 2, 2), ("machine_b", 2, 2))
DATASET_SEEDS = 4
SAMPLE_BATCHES = 3
POOL_SIZE = 20000
#: Requests solved during set-up (the hot set).
HOT_SET = 8
#: The traffic mix is assumed: the repository holds no measured request
#: trace (``repro.serve.loadgen`` cycles uniformly over distinct
#: variants).  Every NEW_EVERY-th request is first-seen (a cold solve),
#: a fixed share, so the seed moves which requests are cold, not how
#: many; the rest repeat earlier requests with Zipf(ZIPF_S) skew.
#: perfbench/README.md reports how the end-to-end figures move with both.
NEW_EVERY = 16
ZIPF_S = 1.1
CONNECTIONS = 2
#: Reference arrival rate, req/s: under half of what the service
#: sustains at seed state (~38 req/s).
REF_RATE = 14.0
#: Share of ``--seconds`` spent at the reference rate; the ladder gets
#: the rest.
REF_SHARE = 0.7
#: Tail percentile: with ~350 samples at the reference rate (36 s
#: runs), the highest percentile that keeps at least ten beyond it.
TAIL_PCT = 97
LATENCY_LIMIT_S = 0.4
#: Ladder rates, as multiples of the reference rate.
LADDER = (2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0)
#: Expected arrivals per ladder rung: a rung at rate r lasts
#: RUNG_ARRIVALS / r seconds (at most a tenth of ``--seconds``).
RUNG_ARRIVALS = 72
#: Distinct answered requests re-solved in-process to check the served plans.
CHECK_SAMPLE = 6
#: Back-to-back cache hits on one connection, in traced runs.
PROBE_HITS = 40
SETUPS = 3
#: A repeat may come from the LRU, the on-disk store, or join an
#: in-flight solve of the same request.
REPEAT_OUTCOMES = ("hit", "disk", "single_flight")


class RequestPool:
    """A seeded sequence of distinct planning requests (request ``i``
    carries plan seed ``i``, so no two share a cache key)."""

    def __init__(self, seed: int, smoke: bool = False, size: int = POOL_SIZE) -> None:
        # dataset seeds stay within a fixed few, so a solve's cost depends
        # on its shape, not on which graphs the run's seed happened to draw
        rng = np.random.default_rng([seed, 17])
        self.shapes = SMOKE_SHAPES if smoke else SHAPES
        self.dataset_of = rng.integers(DATASET_SEEDS, size=size)
        self._bodies: Dict[int, bytes] = {}

    def payload(self, i: int) -> dict:
        machine, gpus, ssds = self.shapes[i % len(self.shapes)]
        return {
            "dataset": {"key": "TINY", "seed": int(self.dataset_of[i])},
            "machine": machine,
            "num_gpus": gpus,
            "num_ssds": ssds,
            "sample_batches": SAMPLE_BATCHES,
            "seed": i,
        }

    def body(self, i: int) -> bytes:
        if i not in self._bodies:
            self._bodies[i] = json.dumps(self.payload(i)).encode("utf-8")
        return self._bodies[i]


class Traffic:
    """Which pool request each arrival sends: every
    :data:`NEW_EVERY`-th a first-seen one, the rest Zipf-ranked repeats
    of the requests seen so far (rank = order of first appearance)."""

    def __init__(self, rng, seen: int, size: int = POOL_SIZE) -> None:
        self.rng = rng
        self.seen = seen
        self.size = size
        self.sent = 0
        self._cum = np.cumsum(1.0 / np.arange(1, size + 1) ** ZIPF_S)

    def next(self) -> int:
        self.sent += 1
        if self.sent % NEW_EVERY == 0 and self.seen < self.size:
            self.seen += 1
            return self.seen - 1
        u = self.rng.random() * self._cum[self.seen - 1]
        return int(np.searchsorted(self._cum[: self.seen], u, side="right"))


class Server:
    """``python -m repro.serve`` in a child process with a fresh store."""

    def __init__(self) -> None:
        self.dir = WORK / "tmp" / f"serve-{uuid.uuid4().hex}"
        self.proc: Optional[subprocess.Popen] = None
        self.host, self.port = "127.0.0.1", 0

    def start(self, timeout_s: float = 60.0) -> None:
        self.dir.mkdir(parents=True)
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.serve",
                "--port", "0",
                "--cache-path", str(self.dir / "plans.jsonl"),
            ],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        ready: List[str] = []
        reader = threading.Thread(
            target=lambda: ready.append(self.proc.stdout.readline()), daemon=True
        )
        reader.start()
        reader.join(timeout_s)
        if not ready or "listening on http://" not in ready[0]:
            self.stop()
            raise RuntimeError(f"server did not start: {ready!r}")
        url = ready[0].split("listening on http://", 1)[1].split()[0]
        self.port = int(url.rsplit(":", 1)[1])
        deadline = time.perf_counter() + timeout_s
        while self.get("/v1/health")[0] != 200:
            if time.perf_counter() > deadline:
                raise RuntimeError("server never reported healthy")
            time.sleep(0.01)

    def get(self, path: str) -> Tuple[int, Optional[dict]]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read().decode("utf-8"))
        except (OSError, http.client.HTTPException, ValueError):
            return -1, None
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc is not None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
            self.proc.stdout.close()
            self.proc = None
        shutil.rmtree(self.dir, ignore_errors=True)


def serial(server: Server, bodies: Sequence[bytes]) -> List[Exchange]:
    """Send ``bodies`` back to back on one keep-alive connection."""
    return drive(server.host, server.port, bodies, [0.0] * len(bodies), connections=1)


def phase(server: Server, pool: RequestPool, traffic: Traffic, rate: float,
          seconds: float) -> Tuple[List[int], List[Exchange]]:
    # the arrival schedule is part of the workload, the same for every
    # seed; the seed picks which requests arrive
    offsets = poisson_offsets(rate, seconds, np.random.default_rng([int(rate * 1000), 29]))
    sent = [traffic.next() for _ in offsets]
    bodies = [pool.body(i) for i in sent]
    return sent, drive(server.host, server.port, bodies, offsets, CONNECTIONS)


def latencies(exchanges: Sequence[Exchange]) -> List[float]:
    """Due-time latencies for the ladder's limit; a failed or refused
    request misses any limit, so it counts as infinitely late."""
    return [e.latency_s if e.status == 200 else float("inf") for e in exchanges]


def backlog_grew(exchanges: Sequence[Exchange]) -> bool:
    """Whether sends fell further behind schedule over the phase: the
    last third ran later than the first third by over half the latency
    limit."""
    third = max(1, len(exchanges) // 3)
    first = np.mean([e.lateness_s for e in exchanges[:third]])
    last = np.mean([e.lateness_s for e in exchanges[-third:]])
    return bool(last - first > 0.5 * LATENCY_LIMIT_S)


def fails(rung: Tuple[float, float, bool]) -> bool:
    """Whether a ``(rate, tail latency, backlog grew)`` rung missed."""
    return rung[1] > LATENCY_LIMIT_S or rung[2]


def max_rate(rungs: Sequence[Tuple[float, float, bool]]) -> float:
    """Highest sustainable rate from ``(rate, tail latency, backlog
    grew)`` rungs in ascending rate order, up to the first that fails.

    The last passing rung counts; the crossing of the latency limit is
    interpolated linearly between it and the failing rung after it, so
    the figure moves continuously with the service instead of jumping
    between ladder rates.  Rungs after the first failure are ignored (a
    short rung's verdict hangs on which cold solves land in it, so a
    later rung may pass by luck).  A rung that fails on backlog alone
    yields the passing rate before it.
    """
    first_fail = next((i for i, rung in enumerate(rungs) if fails(rung)), len(rungs))
    if first_fail == 0:
        return 0.0
    rate, tail, _ = rungs[first_fail - 1]
    if first_fail == len(rungs):
        return rate
    next_rate, next_tail, _ = rungs[first_fail]
    if not LATENCY_LIMIT_S < next_tail < float("inf"):
        return rate
    share = (LATENCY_LIMIT_S - tail) / (next_tail - tail)
    return rate + (next_rate - rate) * share


def cache_problems(sent: Sequence[int],
                   exchanges: Sequence[Exchange]) -> List[Tuple[int, str]]:
    """``(request, problem)`` pairs: every distinct request must be
    solved exactly once (one ``miss`` against a fresh store) and every
    other answer must be a repeat."""
    misses: Dict[int, int] = {}
    problems = []
    for i, ex in zip(sent, exchanges):
        if ex.status != 200:
            continue
        outcome = ex.body.get("cache")
        if outcome == "miss":
            misses[i] = misses.get(i, 0) + 1
        elif outcome not in REPEAT_OUTCOMES:
            problems.append((i, f"request {i}: unknown cache outcome {outcome!r}"))
    answered = {i for i, ex in zip(sent, exchanges) if ex.status == 200}
    for i in sorted(answered):
        if misses.get(i, 0) != 1:
            problems.append((i, f"request {i} was solved {misses.get(i, 0)} times, not once"))
    return problems


def served_answer(body: dict) -> dict:
    """The parts of a served body a direct solve must reproduce (the
    plan less its timing, and the verdict)."""
    plan = dict(body["plan"])
    plan.pop("optimize_seconds", None)
    # compare in wire form: a direct solve holds tuples where JSON has lists
    return json.loads(json.dumps({"plan": plan, "verdict": body["verdict"]}))


def check_answers(reference: Dict[int, dict],
                  served: Dict[int, dict]) -> List[Tuple[int, str]]:
    """``(request, problem)`` pairs where a served body differs from
    the direct solve."""
    return [
        (i, f"request {i}: served answer differs from a direct solve")
        for i, ref in sorted(reference.items())
        if served_answer(served[i]) != served_answer(ref)
    ]


def failed_count(sent: Sequence[int], exchanges: Sequence[Exchange],
                 problems: Sequence[Tuple[int, str]]) -> int:
    """Failed requests: refused or errored ones, and every answer to a
    request a check found wrong."""
    wrong = {i for i, _ in problems}
    return sum(1 for i, e in zip(sent, exchanges) if e.status != 200 or i in wrong)


def start(pool: RequestPool) -> Tuple[Server, float, List[Exchange]]:
    """Launch a server and solve the hot set: the workload's set-up.
    Returns the server, the seconds from launch until the hot set was
    solved, and the warm-up exchanges."""
    t0 = time.perf_counter()
    server = Server()
    try:
        server.start()
        exchanges = serial(server, [pool.body(i) for i in range(HOT_SET)])
        bad = [e for e in exchanges if e.status != 200]
        if bad:
            raise RuntimeError(f"hot-set warm-up failed: {bad[0]}")
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - t0, exchanges


def measure(seed: int, seconds: float, trace: bool, smoke: bool, out: Outcome) -> None:
    from repro import obs
    from repro.serve.planner import solve
    from repro.serve.schema import parse_request

    pool = RequestPool(seed, smoke)
    setups = []
    for _ in range(SETUPS - 1 if not trace else 0):
        server, elapsed, _ = start(pool)
        server.stop()
        setups.append(elapsed)
    server, elapsed, exchanges = start(pool)
    setups.append(elapsed)
    # the reference phase and the ladder share --seconds
    deadline = time.perf_counter() + seconds
    traffic = Traffic(np.random.default_rng([seed, 29]), HOT_SET)
    sent: List[int] = list(range(HOT_SET))
    try:
        ref_sent, ref = phase(server, pool, traffic, REF_RATE, REF_SHARE * seconds)
        sent += ref_sent
        exchanges += ref
        rungs = [(REF_RATE, percentile(latencies(ref), TAIL_PCT), backlog_grew(ref))]
        for factor in LADDER:
            if fails(rungs[-1]):
                break
            rate = REF_RATE * factor
            rung_s = min(RUNG_ARRIVALS / rate, 0.1 * seconds)
            if time.perf_counter() + rung_s > deadline:
                break
            rung_sent, rung = phase(server, pool, traffic, rate, rung_s)
            sent += rung_sent
            exchanges += rung
            rungs.append((rate, percentile(latencies(rung), TAIL_PCT),
                          backlog_grew(rung)))
        probe_hits: List[Exchange] = []
        if trace:
            probe_hits = serial(server, [pool.body(0)] * PROBE_HITS)
        _, stats = server.get("/v1/metrics")
        rss = server.peak_rss_mb()
    finally:
        server.stop()

    problems = cache_problems(sent, exchanges)
    errors: Dict[str, int] = {}
    for e in exchanges:
        if e.status != 200:
            code = (e.body or {}).get("error", {}).get("code") or e.error or str(e.status)
            errors[code] = errors.get(code, 0) + 1
    if errors:
        print(f"serve-mix errors by code: {errors}")

    # answer check: re-solve a seeded sample of the distinct requests
    # answered at the reference rate, in this process
    served = {i: e.body for i, e in zip(ref_sent, ref) if e.status == 200}
    pick = np.random.default_rng([seed, 31]).permutation(sorted(served))
    probe = LayerProbe()
    reference = {}
    with probe, obs.capture() as tel:
        for i in pick[:CHECK_SAMPLE]:
            reference[int(i)] = solve(parse_request(pool.payload(int(i))))
    problems += check_answers(reference, served)
    out.problems = [text for _, text in problems]
    out.attempted = len(exchanges)
    out.failed = failed_count(sent, exchanges, problems)

    ok = (out.attempted - out.failed) / out.attempted
    out.put("ok_ratio", ok)
    out.put("peak_rss_mb", rss)
    # reported from every request's own due-to-answer time; a failure
    # shows in ok_ratio, and only the ladder counts it as infinitely late
    ref_lat = [e.latency_s for e in ref]
    out.put("serve.ref_samples", len(ref))
    out.put("serve.p50_ms", 1e3 * percentile(ref_lat, 50))
    # the mean, not the median: ~80% of requests are ~2 ms hits whose
    # median swings by a third with the shared host's load, the rest are
    # stalled hits (~45 ms) and cold solves (~70-250 ms); the mean moves
    # with every one of those classes and has no cliff between them
    out.put("bench.op_s", float(np.mean(ref_lat)))
    out.put("bench.tail_s", percentile(ref_lat, TAIL_PCT))
    out.put("bench.ops_per_s", max_rate(rungs))
    print(f"serve-mix rungs (rate, p{TAIL_PCT} s, backlog grew): "
          + ", ".join(f"({r:.1f}, {t:.3f}, {g})" for r, t, g in rungs))
    if trace:
        n = max(1, len(reference))
        for name, value in offline_layers(probe, search_spans(tel), n).items():
            out.put(name, value)
        _serve_layers(out, ref, probe_hits, stats)
        return
    out.put("setup_s", median(setups))
    bodies = list(reference.values())
    out.put("quality.plan_gbs", np.mean([b["plan"]["predicted_throughput"] for b in bodies]) / 1e9)
    out.put("sim_epoch_s", np.mean([b["verdict"]["paper_epoch_seconds"] for b in bodies]))


def _serve_layers(out: Outcome, ref: Sequence[Exchange], probe_hits: Sequence[Exchange],
                  stats: Optional[dict]) -> None:
    ok = [e for e in ref if e.status == 200]
    misses = [e for e in ok if e.body.get("cache") == "miss"]
    hits = [e for e in ok if e.body.get("cache") in ("hit", "disk")]
    timing = [e.body["timing"] for e in ok]
    # client, server and transport time of a cache hit, from back-to-back
    # requests on one keep-alive connection
    client = [e.client_s for e in probe_hits]
    server = [e.body["timing"]["total_s"] for e in probe_hits]
    out.put("serve.client_ms", 1e3 * median(client))
    out.put("serve.server_ms", 1e3 * median(server))
    out.put("serve.transport_ms", 1e3 * median([c - s for c, s in zip(client, server)]))
    out.put("serve.queue_ms", 1e3 * median([e.body["timing"].get("queued_s", 0.0) for e in misses]))
    out.put("serve.solve_ms", 1e3 * median([e.body["timing"].get("solve_s", 0.0) for e in misses]))
    out.put("serve.overhead_ms", 1e3 * median([
        t["total_s"] - t.get("queued_s", 0.0) - t.get("solve_s", 0.0) for t in timing
    ]))
    out.put("serve.hit_ratio", len(hits) / max(1, len(ok)))
    out.put("serve.cold_solves", (stats or {}).get("cache_misses", 0))
    out.put("serve.refused", (stats or {}).get("rejected", 0))
    out.put("serve.lateness_ms", 1e3 * float(np.mean([e.lateness_s for e in ref])))
