"""The benchmark's own HTTP client: a closed loop and an open loop.

Both use at most ``CONNECTIONS`` threads, each with one keep-alive
connection.  Every request is accounted for: a transport error, a
non-200 status or a non-JSON body is a failure, and so is a request
scheduled in the open loop but never completed.  Response bodies are
kept (figures: once per distinct body) so the answers can be checked
after the timed phase.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field

#: Client threads and connections: this box's CPU count, never more.
CONNECTIONS = 2

_TIMEOUT = 60.0


@dataclass
class Outcome:
    """What one loop observed; bodies are checked later."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    #: (key, body) -> how many successful responses carried it.
    bodies: dict = field(default_factory=dict)
    wall: float = 0.0
    latencies: list = field(default_factory=list)
    services: list = field(default_factory=list)
    lags: list = field(default_factory=list)

    def fail(self, why: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(why)


class _Connection:
    def __init__(self, port: int) -> None:
        self._port = port
        self._conn = None

    def send(self, request) -> tuple[int, bytes]:
        if self._conn is None:
            self._conn = http.client.HTTPConnection("127.0.0.1", self._port, timeout=_TIMEOUT)
        headers = {"Content-Type": "application/json"} if request.body else {}
        try:
            self._conn.request(request.method, request.path, body=request.body, headers=headers)
            response = self._conn.getresponse()
            return response.status, response.read()
        except Exception:
            self.close()
            raise

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def _exchange(conn: _Connection, request, outcome: Outcome, lock: threading.Lock):
    """Send one request; record a failure, or keep and return its body."""
    try:
        status, body = conn.send(request)
    except Exception as exc:  # any transport failure is a failed request
        with lock:
            outcome.fail(f"{request.path}: {type(exc).__name__}: {exc}")
        return None
    if status != 200:
        with lock:
            outcome.fail(f"{request.path}: HTTP {status}")
        return None
    try:
        json.loads(body)
    except ValueError:
        with lock:
            outcome.fail(f"{request.path}: body is not JSON")
        return None
    entry = (request.key, body)
    with lock:
        outcome.bodies[entry] = outcome.bodies.get(entry, 0) + 1
    return entry


def closed_loop(port: int, streams: list, seconds: float) -> Outcome:
    """Each thread sends its stream's next request as soon as the last
    returns, starting no new batch after ``seconds``.

    ``streams`` holds one iterator of request batches per connection.  A
    batch always completes, so a run that cycles through fig1..fig10 (one
    ~250 ms figure per cycle) does whole cycles, and its request mix does
    not depend on where the deadline fell.
    """
    outcome = Outcome()
    lock = threading.Lock()
    started = time.perf_counter()
    deadline = started + seconds

    def worker(stream) -> None:
        conn = _Connection(port)
        try:
            for batch in stream:
                if time.perf_counter() >= deadline:
                    break
                for request in batch:
                    sent = time.perf_counter()
                    entry = _exchange(conn, request, outcome, lock)
                    done = time.perf_counter()
                    with lock:
                        outcome.attempted += 1
                        if entry is not None:
                            outcome.services.append(done - sent)
        finally:
            conn.close()

    threads = [threading.Thread(target=worker, args=(s,)) for s in streams[:CONNECTIONS]]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    outcome.wall = time.perf_counter() - started
    return outcome


def open_loop(port: int, requests: list, offsets: list[float], grace: float = 10.0) -> Outcome:
    """Send ``requests[i]`` at ``offsets[i]`` seconds after the start.

    A request's latency runs from when it was due, so a stall shows in
    every request queued behind it.  ``lags`` is the generator's own
    lateness: from when a request was due, or from when a free thread
    picked it up if that was later, to when it was sent.  Requests not
    completed by ``grace`` seconds after the last offset are failures.
    """
    outcome = Outcome(attempted=len(requests))
    lock = threading.Lock()
    cursor = [0]
    started = time.perf_counter()
    deadline = started + (offsets[-1] if offsets else 0.0) + grace

    def worker() -> None:
        conn = _Connection(port)
        try:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(requests):
                    return
                due = started + offsets[index]
                picked = time.perf_counter()
                if picked >= deadline:
                    with lock:
                        outcome.fail("scheduled but never sent before the deadline")
                    continue
                if picked < due:
                    time.sleep(due - picked)
                sent = time.perf_counter()
                entry = _exchange(conn, requests[index], outcome, lock)
                done = time.perf_counter()
                if entry is not None:
                    with lock:
                        outcome.latencies.append(done - due)
                        outcome.services.append(done - sent)
                        outcome.lags.append(sent - max(due, picked))
        finally:
            conn.close()

    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    outcome.wall = time.perf_counter() - started
    return outcome
