"""Open-loop HTTP load over a few keep-alive connections.

Arrivals follow a fixed schedule (Poisson offsets drawn up front), and
each request is timed from when it was *due*, not from when a
connection became free to send it.  A stall that holds up later
requests therefore shows in their latency instead of silently thinning
the load, and ``lateness`` says how far behind schedule each send was.

Connections are ``http.client`` keep-alive connections on purpose:
falling back to one connection per request would hide per-response
transport stalls that only keep-alive traffic hits.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

#: Per-request socket timeout; the service's own default is 30 s.
TIMEOUT_S = 60.0


@dataclass
class Exchange:
    """One request of a schedule: when it was due, sent and answered."""

    index: int
    due: float
    sent: float = float("nan")
    done: float = float("nan")
    status: int = -1
    body: Optional[dict] = None
    error: Optional[str] = None

    @property
    def latency_s(self) -> float:
        """Due time to response: the latency a user on schedule sees."""
        return self.done - self.due

    @property
    def lateness_s(self) -> float:
        """How long after its due time the request was sent."""
        return self.sent - self.due

    @property
    def client_s(self) -> float:
        """Send to response, as one connection saw it."""
        return self.done - self.sent


def poisson_offsets(rate: float, duration_s: float, rng) -> List[float]:
    """Arrival offsets (seconds from phase start) of a Poisson process."""
    if rate <= 0 or duration_s <= 0:
        raise ValueError("rate and duration must be positive")
    n_max = int(rate * duration_s * 1.5) + 16
    gaps = rng.exponential(1.0 / rate, size=n_max)
    offsets = np.cumsum(gaps)
    return [float(t) for t in offsets[offsets < duration_s]]


def drive(
    host: str,
    port: int,
    bodies: Sequence[bytes],
    offsets: Sequence[float],
    connections: int = 2,
) -> List[Exchange]:
    """POST ``bodies[i]`` to ``/v1/plan`` at ``offsets[i]`` over
    ``connections`` keep-alive connections and return every exchange, in
    schedule order.

    A connection takes the next due request as soon as it is free, so
    requests queue in schedule order behind busy connections.  Errors
    (refused connection, reset, timeout) become exchanges with
    ``status == -1`` and the error text; the connection is reopened.
    """
    if len(bodies) != len(offsets):
        raise ValueError("one body per offset")
    start = time.perf_counter() + 0.05
    exchanges = [Exchange(i, start + off) for i, off in enumerate(offsets)]
    cursor = iter(range(len(exchanges)))
    lock = threading.Lock()
    headers = {"Content-Type": "application/json"}

    def worker() -> None:
        conn = http.client.HTTPConnection(host, port, timeout=TIMEOUT_S)
        try:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                ex = exchanges[i]
                wait = ex.due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                ex.sent = time.perf_counter()
                try:
                    conn.request("POST", "/v1/plan", bodies[i], headers)
                    resp = conn.getresponse()
                    raw = resp.read()
                    ex.done = time.perf_counter()
                    ex.status = resp.status
                    ex.body = json.loads(raw.decode("utf-8"))
                except (OSError, http.client.HTTPException, ValueError) as err:
                    ex.done = time.perf_counter()
                    ex.error = f"{type(err).__name__}: {err}"
                    conn.close()
                    conn = http.client.HTTPConnection(host, port, timeout=TIMEOUT_S)
        finally:
            conn.close()

    threads = [
        threading.Thread(target=worker, daemon=True)
        for _ in range(max(1, connections))
    ]
    for t in threads:
        t.start()
    deadline = start + (offsets[-1] if offsets else 0.0) + TIMEOUT_S + 5.0
    for t in threads:
        t.join(timeout=max(0.0, deadline - time.perf_counter()))
        if t.is_alive():
            raise RuntimeError("load connection did not finish in time")
    return exchanges
