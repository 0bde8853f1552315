"""Concurrency-hammering load-test client for the resident server.

A thread pool over stdlib :mod:`http.client` — one keep-alive
connection per worker thread, reconnect on transport error — drives a
fixed request budget at a live server and reports latency percentiles
(nearest-rank p50/p95/p99), sustained RPS over the measured wall, an
error count (transport failures, HTTP >= 400, or non-JSON bodies), and
the *server-side* ``max_in_flight`` gauge fetched from ``/stats``
afterwards, which proves the requests actually overlapped rather than
serialized at the client.

All workers arm on a barrier so the clock starts when every connection
is ready, not while threads are still spawning; the wall excludes
setup and teardown.  ``repro loadtest`` is the CLI face; ``repro
bench`` drives the same entry point as the ``serve.loadtest`` bench.

SLO evaluation: ``repro loadtest --slo p99=50ms,error_rate=0.1%``
parses objectives (:func:`parse_slo`), evaluates the finished report
against them (:func:`evaluate_slo`), and reports each objective's
**burn** — observed / target, the fraction of the budget consumed, >1.0
meaning violated — alongside the server's own sliding-window view
pulled from ``/stats``.  Any violated objective exits nonzero, which is
what makes the flag usable as a CI gate.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from urllib.parse import urlsplit

from repro import obs

_log = obs.get_logger("repro.serve.loadtest")

#: The default request mix: two figure fetches (vector-tier work), a
#: composite /query document, and the two cheap control endpoints.
_DEFAULT_QUERY = json.dumps(
    {
        "kind": "fraction",
        "predicate": {
            "op": "all",
            "args": [
                {"op": "established", "value": True},
                {
                    "op": "not",
                    "arg": {"op": "version", "value": "SSLv3"},
                },
            ],
        },
        "within": {"op": "established", "value": True},
        "month": None,
    }
)


def default_workload() -> list[tuple[str, str, str | None]]:
    """(method, path, body) triples cycled by the worker threads."""
    return [
        ("GET", "/figures/fig1", None),
        ("GET", "/healthz", None),
        ("POST", "/query", _DEFAULT_QUERY),
        ("GET", "/figures/fig6", None),
        ("GET", "/stats", None),
    ]


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample (q in 0..100)."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))  # ceil without floats
    return sorted_values[int(rank) - 1]


def _split_shares(total: int, buckets: int) -> list[int]:
    """``total`` requests split across ``buckets`` threads, off-by-none."""
    base, extra = divmod(total, buckets)
    return [base + (1 if i < extra else 0) for i in range(buckets)]


class _Worker:
    """One thread's share of the budget on one keep-alive connection."""

    def __init__(self, host, port, share, offset, workload, timeout, barrier):
        self.host = host
        self.port = port
        self.share = share
        self.offset = offset
        self.workload = workload
        self.timeout = timeout
        self.barrier = barrier
        self.latencies: list[float] = []
        self.statuses: dict[int, int] = {}
        self.correct = 0

    def _connect(self) -> http.client.HTTPConnection:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        conn.connect()
        # TCP_NODELAY: http.client writes headers and body as separate
        # packets; behind Nagle the second write waits on a delayed ACK
        # and every POST eats a ~40 ms stall.
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn

    def run(self) -> None:
        # Only correct answers are counted: the report's errors are the
        # requests that never got one, so a failed request — or the
        # unsent rest of a share whose thread died on an unexpected
        # exception — can never read as success.
        #
        # A failed initial connect (wrong port, server gone) must NOT
        # kill the thread before the barrier — the main thread would
        # wait on it forever.  The per-request loop keeps retrying the
        # connect instead.
        try:
            conn = self._connect()
        except OSError:
            conn = None
        finally:
            self.barrier.wait()
        for i in range(self.share):
            method, path, body = self.workload[
                (self.offset + i) % len(self.workload)
            ]
            headers = {}
            if body is not None:
                headers["Content-Type"] = "application/json"
            if conn is None:
                try:
                    conn = self._connect()
                except OSError:
                    continue
            started = time.perf_counter()
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                payload = response.read()
            except OSError:
                conn.close()
                conn = None
                continue
            self.latencies.append(time.perf_counter() - started)
            status = response.status
            self.statuses[status] = self.statuses.get(status, 0) + 1
            if status >= 400:
                continue
            try:
                json.loads(payload)
            except (json.JSONDecodeError, UnicodeDecodeError):
                continue
            self.correct += 1
        if conn is not None:
            conn.close()


#: SLO objective names accepted by :func:`parse_slo`; the latency ones
#: map onto the report's ``*_ms`` keys.
SLO_LATENCY_OBJECTIVES = ("p50", "p95", "p99", "max")


def parse_slo(spec: str) -> dict:
    """Parse ``"p99=50ms,error_rate=0.1%"`` into objective targets.

    Latency objectives (``p50``/``p95``/``p99``/``max``) take ``ms`` or
    ``s`` suffixed values (bare numbers mean milliseconds) and become
    ``{name}_ms`` keys; ``error_rate`` takes a ``%``-suffixed or plain
    fraction.  Raises :class:`ValueError` on anything else — a typo'd
    SLO gate that silently checks nothing is worse than none.
    """
    objectives: dict[str, float] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, eq, raw = part.partition("=")
        name, raw = name.strip().lower(), raw.strip().lower()
        if not eq or not raw:
            raise ValueError(f"SLO objective {part!r} is not name=value")
        if name in SLO_LATENCY_OBJECTIVES:
            if raw.endswith("ms"):
                value = float(raw[:-2])
            elif raw.endswith("s"):
                value = float(raw[:-1]) * 1e3
            else:
                value = float(raw)
            objectives[f"{name}_ms"] = value
        elif name == "error_rate":
            value = float(raw[:-1]) / 100.0 if raw.endswith("%") else float(raw)
            objectives["error_rate"] = value
        else:
            raise ValueError(
                f"unknown SLO objective {name!r}; choose from "
                f"{SLO_LATENCY_OBJECTIVES + ('error_rate',)}"
            )
    if not objectives:
        raise ValueError(f"SLO spec {spec!r} names no objectives")
    return objectives


def evaluate_slo(report: dict, objectives: dict) -> dict:
    """Evaluate a finished loadtest report against parsed objectives.

    Each objective reports its target, the observed value, and the
    **burn** (observed / target — the fraction of the error budget
    consumed; > 1.0 is a violation).  The top-level ``ok`` is the AND
    of every objective.
    """
    results: dict[str, dict] = {}
    ok = True
    for key, target in objectives.items():
        if key == "error_rate":
            observed = (
                report["errors"] / report["requests"]
                if report["requests"] else 0.0
            )
        else:
            observed = float(report[key])
        if target > 0:
            burn = observed / target
        else:
            burn = float("inf") if observed > 0 else 0.0
        passed = observed <= target
        ok = ok and passed
        results[key] = {
            "target": target,
            "observed": observed,
            "burn": burn,
            "ok": passed,
        }
    return {"ok": ok, "objectives": results}


def _server_window(host: str, port: int, timeout: float) -> dict | None:
    """The server's sliding-window telemetry from ``/stats`` (None if
    the target is not a repro server) — the burn report shows it next
    to the client-side numbers so a violation can be read as server
    latency vs. client/network overhead."""
    try:
        conn = http.client.HTTPConnection(host, port, timeout=timeout)
        conn.request("GET", "/stats")
        payload = json.loads(conn.getresponse().read())
        conn.close()
        window = payload.get("window")
        return dict(window) if isinstance(window, dict) else None
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _server_gauge(host: str, port: int, timeout: float) -> int | None:
    """The server's max-in-flight gauge from ``/stats`` (None if
    unreachable — e.g. the target is not a repro server)."""
    try:
        conn = http.client.HTTPConnection(host, port, timeout=timeout)
        conn.request("GET", "/stats")
        payload = json.loads(conn.getresponse().read())
        conn.close()
        return int(payload["server"]["max_in_flight"])
    except (OSError, ValueError, KeyError, TypeError):
        return None


def run_loadtest(
    url: str,
    requests: int = 2000,
    concurrency: int = 32,
    timeout: float = 30.0,
    workload: list[tuple[str, str, str | None]] | None = None,
    slo: dict | None = None,
) -> dict:
    """Hammer ``url`` and return the latency/RPS report dict.

    Report keys: ``url``, ``requests``, ``concurrency``, ``errors``,
    ``wall_seconds``, ``rps``, ``p50_ms``, ``p95_ms``, ``p99_ms``,
    ``max_ms``, ``statuses``, ``max_in_flight`` — plus ``slo`` (the
    :func:`evaluate_slo` result, with the server's sliding-window view
    attached as ``slo["window"]``) only when ``slo`` objectives are
    passed, so SLO-less reports keep their exact historical shape.
    ``errors`` is every request that did not get a correct answer (a
    status below 400 with a JSON body), sent or not.
    """
    if requests < 1:
        raise ValueError("requests must be >= 1")
    concurrency = max(1, min(concurrency, requests))
    parts = urlsplit(url if "//" in url else f"http://{url}")
    host = parts.hostname or "127.0.0.1"
    port = parts.port or 80
    workload = workload or default_workload()

    barrier = threading.Barrier(concurrency + 1)
    workers = [
        _Worker(host, port, share, i, workload, timeout, barrier)
        for i, share in enumerate(_split_shares(requests, concurrency))
    ]
    threads = [
        threading.Thread(target=w.run, name=f"loadtest-{i}", daemon=True)
        for i, w in enumerate(workers)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started

    latencies = sorted(lat for w in workers for lat in w.latencies)
    statuses: dict[int, int] = {}
    for w in workers:
        for status, count in w.statuses.items():
            statuses[status] = statuses.get(status, 0) + count
    errors = requests - sum(w.correct for w in workers)
    report = {
        "url": f"http://{host}:{port}",
        "requests": requests,
        "concurrency": concurrency,
        "errors": errors,
        "wall_seconds": wall,
        "rps": (len(latencies) / wall) if wall > 0 else 0.0,
        "p50_ms": percentile(latencies, 50) * 1e3,
        "p95_ms": percentile(latencies, 95) * 1e3,
        "p99_ms": percentile(latencies, 99) * 1e3,
        "max_ms": (latencies[-1] * 1e3) if latencies else 0.0,
        "statuses": {str(k): v for k, v in sorted(statuses.items())},
        "max_in_flight": _server_gauge(host, port, timeout),
    }
    if slo:
        verdict = evaluate_slo(report, slo)
        verdict["window"] = _server_window(host, port, timeout)
        report["slo"] = verdict
    _log.debug(
        "loadtest done: %d req, %d errors, %.0f rps",
        requests,
        errors,
        report["rps"],
    )
    return report


def render_report(report: dict) -> str:
    """Human-readable loadtest summary for the CLI."""
    lines = [
        f"loadtest {report['url']}",
        f"  requests      {report['requests']}"
        f"  (concurrency {report['concurrency']})",
        f"  errors        {report['errors']}",
        f"  wall          {report['wall_seconds']:.3f} s"
        f"  ({report['rps']:.0f} req/s sustained)",
        f"  latency p50   {report['p50_ms']:.2f} ms",
        f"  latency p95   {report['p95_ms']:.2f} ms",
        f"  latency p99   {report['p99_ms']:.2f} ms",
        f"  latency max   {report['max_ms']:.2f} ms",
        f"  statuses      {report['statuses']}",
    ]
    if report.get("max_in_flight") is not None:
        lines.append(f"  max in-flight {report['max_in_flight']} (server)")
    slo = report.get("slo")
    if slo is not None:
        lines.append(f"  slo           {'PASS' if slo['ok'] else 'FAIL'}")
        for name, result in slo["objectives"].items():
            unit = "" if name == "error_rate" else " ms"
            lines.append(
                f"    {name:<12}{'ok  ' if result['ok'] else 'FAIL'}"
                f" observed {result['observed']:.4g}{unit}"
                f" / target {result['target']:.4g}{unit}"
                f" (burn {result['burn']:.2f})"
            )
        window = slo.get("window")
        if window:
            lines.append(
                f"    server window ({window['seconds']:g}s): "
                f"p50 {window['p50_ms']:.2f} ms, "
                f"p95 {window['p95_ms']:.2f} ms, "
                f"p99 {window['p99_ms']:.2f} ms, "
                f"error rate {window['error_rate']:.4g}"
            )
    return "\n".join(lines)
