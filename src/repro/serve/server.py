"""The resident query server behind ``python -m repro serve``.

A stdlib :class:`~http.server.ThreadingHTTPServer` (one handler thread
per connection, HTTP/1.1 keep-alive) holding exactly one
:class:`~repro.notary.store.NotaryStore` loaded at startup.  Endpoints,
all JSON with an ``{"api": 1, ...}`` envelope:

* ``GET /healthz`` — readiness: 200 once the dataset is attached, 503
  while it is still loading (the socket binds and answers *before* the
  load finishes, so orchestrators can poll), 500 if the load failed.
* ``GET /figures`` / ``GET /figures/<name>`` — the paper figures as
  month/value series.
* ``POST /query`` — a structured query document (:mod:`repro.serve.wire`);
  malformed documents answer 400 without touching the store.
* ``GET /stats`` — server gauges (in-flight, max-in-flight, uptime),
  the per-route latency ledger, the sliding-window telemetry section,
  and the full engine perf-counter snapshot (``stats --json`` schema).
  Request counts, errors and latencies come from this server's own
  :class:`~repro.obs.live.LiveTelemetry`, so two servers in one
  process never see each other's traffic.
* ``GET /metrics`` — Prometheus text exposition (format 0.0.4,
  hand-rolled in :mod:`repro.obs.live`): cumulative counters, gauges,
  per-route latency histograms with bucket exemplars, and
  sliding-window rates/quantiles.  The only non-JSON endpoint; each
  scrape also persists one ``histogram_snapshot`` event per route to
  the JSONL metrics sink when it is live.

Why the store is safe to share across handler threads: every served
aggregate goes through the store's read-only query methods over packed
months, and the service holds no mutating endpoint at all — the only
writes the query tiers perform are memo-cache fills.  Store access is
governed by **double-checked locking**: the first run of any given
query (keyed per figure name / canonical query document) happens under
the query lock, which covers the memo fills and the before/after
PERF-counter sampling that attributes the answering tier.  Once a
query's tier is known to be one of the lock-free-safe ones (index /
vector / shape — pure reads plus idempotent GIL-atomic memo fills),
repeat runs of that same query skip the lock entirely and execute
concurrently; scan-tier queries keep serializing, because the
materialization LRU mutates on every scan.  The
``max_queries_in_flight`` gauge counts overlap *inside* the query
phase — the 32-thread hammer asserts it exceeds 1 on a warm server
with byte-identical payloads.  (One blur this admits: a warm query's
PERF increments can land inside a concurrent cold query's sampling
window, so that cold query may report ``mixed``; misattribution only
ever makes a query *keep* the lock, never drop it unsafely.)

Request → span → sink flow: every request is timed and recorded three
ways — an ``http_request`` completed span on the process trace
collector (thread-safe append, no nesting stack involved), an
``http_request`` JSONL metrics event (method, route, status, duration,
tier used, span id) when ``REPRO_METRICS_PATH`` is live, and the
server's :class:`~repro.obs.live.LiveTelemetry` — per route an error
count, a lifetime histogram and a sliding window — which is the one
ledger both ``/stats`` and ``/metrics`` render.  The span's
``(trace_id, id)`` travels into the latency histograms as the bucket
*exemplar*, so a tail bucket on a dashboard names the exact span to
pull from the sink.  The *tier* is observed, not guessed: the query
runs under the query lock while the tier counters are sampled before
and after, so the event reports which of index/vector/shape/scan
actually answered.

Port discipline: the default bind is port 0 — the kernel picks a free
port, ``bound_port`` reports it, and the CLI announces it on stdout
(``serving on http://host:port``).  Nothing in the repo hard-codes a
port, which is what keeps parallel CI jobs collision-free.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

from repro import obs
from repro.engine import executors
from repro.engine.perf import PERF
from repro.obs import live
from repro.serve import wire

_log = obs.get_logger("repro.serve.server")

#: Largest accepted ``/query`` body; queries are small documents.
MAX_BODY_BYTES = 1 << 20

#: How long a pooled query may take before the parent gives up on the
#: replica and answers in-thread instead (generous: it only fires when
#: a replica died or the host is badly overloaded).
QUERY_POOL_TIMEOUT = 120.0

#: The announce-line format the CLI prints and the smoke script parses.
ANNOUNCE_TEMPLATE = "serving on http://{host}:{port}"


def announce_line(host: str, port: int) -> str:
    return ANNOUNCE_TEMPLATE.format(host=host, port=port)


def _route_pattern(path: str) -> str:
    """The bounded-cardinality route key for the latency ledger."""
    path = path.rstrip("/") or "/"
    if path == "/figures" or path.startswith("/figures/"):
        return "/figures/<name>" if path != "/figures" else "/figures"
    if path in ("/healthz", "/stats", "/metrics", "/query"):
        return path
    return "<other>"


# ---- query-worker pool (the multi-process serve path) -----------------------
#
# ``repro serve --query-workers N`` forks N pre-warmed store replicas
# *after* the dataset loads, so every replica shares the loaded pages
# copy-on-write and answers from the same packed columns.  Handler
# threads dispatch ``/query`` and ``/figures`` evaluation to the pool
# through the executor interface (:mod:`repro.engine.executors`),
# escaping the GIL that serializes CPU-bound query evaluation on the
# threaded path.  Results cross back by pickle — float bit patterns
# survive exactly, so pooled answers are byte-identical to in-thread
# ones (the differential hammer runs against both modes).  Each job
# also ships the replica's per-query int-counter delta, which the
# parent folds under its perf lock: the counters reconcile exactly
# with what an in-thread evaluation would have counted.

_REPLICA: dict = {}


def _init_query_worker(store, trace_id: str | None = None) -> None:
    """Pool initializer: adopt the pre-warmed replica (inherited through
    fork memory — never pickled) and zero this process's counters so
    per-query deltas are clean."""
    _REPLICA["store"] = store
    PERF.reset()
    obs.TRACE.reset()
    if trace_id is not None:
        obs.adopt_trace(trace_id)


def _eval_query_job(job: tuple) -> dict:
    """Run one ("query", spec) / ("figure", name) job on the replica.

    Returns the raw result plus the observed tier and the replica's
    int-counter delta.  A :class:`~repro.serve.wire.QueryError` crosses
    the pool boundary unchanged (it pickles), so malformed documents
    still answer 400.
    """
    kind, payload = job
    store = _REPLICA["store"]
    before = PERF.snapshot_ints()
    tier_before = (
        PERF.vector_path_hits,
        PERF.shape_path_hits,
        PERF.scan_fallbacks,
    )
    if kind == "figure":
        from repro.core.figures import FIGURE_GENERATORS

        result = FIGURE_GENERATORS[payload](store)
    else:
        result = wire.execute_query(store, payload)
    tier_after = (
        PERF.vector_path_hits,
        PERF.shape_path_hits,
        PERF.scan_fallbacks,
    )
    after = PERF.snapshot_ints()
    delta = {
        name: after[name] - before[name]
        for name in after
        if after[name] != before.get(name, 0)
    }
    return {
        "result": result,
        "tier": _tier_of(tier_before, tier_after),
        "perf": delta,
    }


def _tier_of(before: tuple, after: tuple) -> str:
    """Which query tier answered, from a (vector, shape, scan) counter
    delta sampled around the query under the query lock.  No delta
    means every aggregate came from the O(1) index counters."""
    used = [
        name
        for name, b, a in zip(("vector", "shape", "scan"), before, after)
        if a > b
    ]
    if not used:
        return "index"
    if len(used) == 1:
        return used[0]
    return "mixed"


class ReproServer(ThreadingHTTPServer):
    """One shared store, many handler threads, read-only endpoints."""

    daemon_threads = True
    #: Listen backlog: the stdlib default of 5 drops connections when a
    #: 32-way load test opens its sockets in one burst.
    request_queue_size = 128

    def __init__(self, address=("127.0.0.1", 0), store=None, query_workers=0):
        super().__init__(address, ReproRequestHandler)
        self.store = store
        #: Requested size of the multi-process query pool (0 = the
        #: threaded path); the pool itself starts when the store is
        #: attached, so replicas fork pre-warmed.
        self.query_workers = max(0, int(query_workers))
        self.query_pool = None
        self.ready = threading.Event()
        if store is not None:
            self._start_query_pool()
            self.ready.set()
        self.load_error: str | None = None
        self.started_ts = time.time()
        self.in_flight = 0
        self.max_in_flight = 0
        #: Overlap inside the query phase specifically (not just the
        #: HTTP handler): warm lock-free queries running concurrently.
        self.queries_in_flight = 0
        self.max_queries_in_flight = 0
        self._gauge_lock = threading.Lock()
        #: Serializes *cold* store access: a query's first run fills
        #: memo caches and samples tier counters under this lock; see
        #: :meth:`run_query` for the warm lock-free fast path.
        self._query_lock = threading.Lock()
        #: memo key -> tier observed on that query's first (locked) run.
        self._warm_tiers: dict = {}
        #: Serializes PERF counter updates from handler threads.
        self._perf_lock = threading.Lock()
        #: This server's request ledger (per-route errors, lifetime
        #: histogram and sliding window; tier totals) behind ``/stats``
        #: and ``/metrics``.  Internally locked; no server lock needed.
        self.telemetry = live.LiveTelemetry()

    # ---- lifecycle ----------------------------------------------------------

    @property
    def bound_port(self) -> int:
        """The actual TCP port (the kernel's pick when bound to 0)."""
        return self.server_address[1]

    @property
    def url(self) -> str:
        host = self.server_address[0]
        return f"http://{host}:{self.bound_port}"

    def attach_store(self, store) -> None:
        """Make the dataset servable; flips ``/healthz`` to ready.

        The query pool (when requested) starts here — after the load —
        so replicas fork with the dataset already resident.
        """
        self.store = store
        self._start_query_pool()
        self.ready.set()

    def _start_query_pool(self) -> None:
        if self.query_workers < 1 or self.query_pool is not None:
            return
        if not executors.fork_available():
            # Pre-warmed replicas require inherited memory; a spawned
            # replica would re-load the dataset from scratch (and a
            # cache-loaded store's mmap-backed columns do not pickle).
            _log.warning(
                "--query-workers needs the fork start method; "
                "serving on the threaded path instead"
            )
            return
        self.query_pool = executors.create_executor(
            "fork",
            executors.WorkSpec(
                pool_fn=_eval_query_job,
                initializer=_init_query_worker,
                initargs=(self.store, obs.trace_id()),
            ),
            slots=self.query_workers,
        )
        _log.info(
            "query pool: %d pre-warmed store replica(s)", self.query_workers
        )

    def close_query_pool(self) -> None:
        pool, self.query_pool = self.query_pool, None
        if pool is not None:
            pool.close()

    def store_or_none(self):
        return self.store if self.ready.is_set() else None

    # ---- per-request accounting --------------------------------------------

    def gauge_enter(self) -> None:
        with self._gauge_lock:
            self.in_flight += 1
            if self.in_flight > self.max_in_flight:
                self.max_in_flight = self.in_flight

    def gauge_exit(self) -> None:
        with self._gauge_lock:
            self.in_flight -= 1

    def _query_enter(self) -> None:
        with self._gauge_lock:
            self.queries_in_flight += 1
            if self.queries_in_flight > self.max_queries_in_flight:
                self.max_queries_in_flight = self.queries_in_flight

    def _query_exit(self) -> None:
        with self._gauge_lock:
            self.queries_in_flight -= 1

    #: Tiers whose repeat runs are lock-free-safe: pure column/counter
    #: reads plus idempotent, GIL-atomic memo fills.  ``scan`` mutates
    #: the materialization LRU and ``mixed`` may include a scan.
    _LOCK_FREE_TIERS = frozenset({"index", "vector", "shape"})

    def run_query(self, fn, memo_key=None, job=None):
        """Run one store query; returns (result, tier used).

        With an active query pool and a ``job`` descriptor, evaluation
        is dispatched to a pre-warmed store replica process — no store
        lock at all, replicas are isolated — and the replica's counter
        delta folds back under the perf lock.  A failed dispatch falls
        back to the in-thread path below, so the pool can never make an
        answer worse, only concurrent.

        Otherwise, double-checked locking on ``memo_key``: the first
        run executes under the query lock (memo fills + exact tier
        attribution); once the memoized tier is known lock-free-safe,
        repeat runs of the same query skip the lock and overlap freely.
        Queries with no key, or whose tier involves a scan, always
        serialize.
        """
        if job is not None and self.query_pool is not None:
            pending = self.query_pool.submit(job)
            self._query_enter()
            try:
                part = pending.result(QUERY_POOL_TIMEOUT)
            except wire.QueryError:
                with self._perf_lock:
                    PERF.query_pool_dispatches += 1
                raise
            except Exception as exc:
                _log.warning(
                    "query pool dispatch failed (%s: %s); answering "
                    "in-thread",
                    type(exc).__name__,
                    exc,
                )
                with self._perf_lock:
                    PERF.query_pool_dispatches += 1
                    PERF.query_pool_fallbacks += 1
                return self.run_query(fn, memo_key=memo_key)
            finally:
                self._query_exit()
            with self._perf_lock:
                PERF.query_pool_dispatches += 1
                PERF.add_ints(part["perf"])
            return part["result"], part["tier"]
        if memo_key is not None:
            tier = self._warm_tiers.get(memo_key)
            if tier in self._LOCK_FREE_TIERS:
                self._query_enter()
                try:
                    return fn(), tier
                finally:
                    self._query_exit()
        with self._query_lock:
            self._query_enter()
            try:
                before = (
                    PERF.vector_path_hits,
                    PERF.shape_path_hits,
                    PERF.scan_fallbacks,
                )
                result = fn()
                after = (
                    PERF.vector_path_hits,
                    PERF.shape_path_hits,
                    PERF.scan_fallbacks,
                )
            finally:
                self._query_exit()
        tier = _tier_of(before, after)
        if memo_key is not None:
            if len(self._warm_tiers) >= 1024:
                self._warm_tiers.clear()
            self._warm_tiers[memo_key] = tier
        return result, tier

    def observe_request(
        self,
        method: str,
        route: str,
        status: int,
        duration: float,
        tier: str | None,
        started_ts: float,
    ) -> None:
        span_id = obs.TRACE.record_complete(
            "http_request",
            started_ts,
            duration,
            method=method,
            route=route,
            status=status,
            tier=tier,
        )
        exemplar = {
            "trace_id": obs.trace_id(),
            "span_id": span_id,
            "route": route,
            "value": duration,
            "ts": started_ts,
        }
        self.telemetry.observe(
            route, duration, status, tier=tier, exemplar=exemplar
        )
        obs.emit_event(
            "http_request",
            method=method,
            route=route,
            status=status,
            duration=duration,
            tier=tier,
            span_id=span_id,
        )

    # ---- endpoint payloads --------------------------------------------------

    def health_payload(self) -> tuple[int, dict, None]:
        if self.load_error is not None:
            return 500, {
                "status": "error",
                "ready": False,
                "error": self.load_error,
            }, None
        store = self.store_or_none()
        if store is None:
            return 503, {"status": "loading", "ready": False}, None
        return 200, {
            "status": "ok",
            "ready": True,
            "months": len(store.months()),
            "records": len(store),
        }, None

    def stats_payload(self) -> dict:
        from repro.cli import STATS_SCHEMA

        store = self.store_or_none()
        with self._perf_lock:
            counters = PERF.snapshot()
        with self._gauge_lock:
            in_flight, max_in_flight = self.in_flight, self.max_in_flight
            queries_in_flight = self.queries_in_flight
            max_queries_in_flight = self.max_queries_in_flight
        routes = self.telemetry.route_ledger()
        return {
            "schema": STATS_SCHEMA,
            "server": {
                "started": self.started_ts,
                "uptime_seconds": time.time() - self.started_ts,
                "ready": store is not None,
                "requests": sum(e["count"] for e in routes.values()),
                "errors": sum(e["errors"] for e in routes.values()),
                "in_flight": in_flight,
                "max_in_flight": max_in_flight,
                "queries_in_flight": queries_in_flight,
                "max_queries_in_flight": max_queries_in_flight,
                "routes": routes,
            },
            "dataset": (
                {"months": len(store.months()), "records": len(store)}
                if store is not None
                else None
            ),
            "counters": counters,
            "window": self.telemetry.window_payload(),
        }

    def metrics_payload(self) -> str:
        """The ``GET /metrics`` Prometheus text exposition.

        Request counters and per-route histograms come from the
        telemetry's lifetime route ledger, engine counters from the PERF
        snapshot; rates and quantiles come from the sliding window (the
        ``_total`` route label is the all-routes aggregate).  Each
        scrape also persists one ``histogram_snapshot`` event per route
        to the JSONL sink when it is live, so offline tooling sees the
        same distributions Prometheus would.
        """
        with self._perf_lock:
            counters = PERF.snapshot()
        with self._gauge_lock:
            in_flight, max_in_flight = self.in_flight, self.max_in_flight
            queries_in_flight = self.queries_in_flight
            max_queries_in_flight = self.max_queries_in_flight
        ledger = self.telemetry.route_ledger()
        window = self.telemetry.window_payload()
        families: list[live.MetricFamily] = []

        def scalar(name, kind, help_text, value):
            family = live.MetricFamily(name, kind, help_text)
            family.add(value)
            families.append(family)

        scalar(
            "repro_http_requests_total", "counter",
            "HTTP requests served (any status).",
            sum(e["count"] for e in ledger.values()),
        )
        scalar(
            "repro_http_errors_total", "counter",
            "HTTP responses with status >= 400.",
            sum(e["errors"] for e in ledger.values()),
        )
        scalar(
            "repro_faults_injected_total", "counter",
            "Faults fired by the injection plan.",
            counters["faults_injected"],
        )
        scalar(
            "repro_chunk_retries_total", "counter",
            "Chunk attempts re-queued after a failure.",
            counters["chunk_retries"],
        )
        scalar(
            "repro_worker_errors_total", "counter",
            "Worker exceptions observed by the parent scheduler.",
            counters["worker_errors"],
        )
        scalar(
            "repro_uptime_seconds", "gauge",
            "Seconds since the server started.",
            time.time() - self.started_ts,
        )
        scalar(
            "repro_in_flight", "gauge",
            "HTTP requests currently being handled.", in_flight,
        )
        scalar(
            "repro_max_in_flight", "gauge",
            "High-water mark of concurrent HTTP requests.", max_in_flight,
        )
        scalar(
            "repro_queries_in_flight", "gauge",
            "Store queries currently executing.", queries_in_flight,
        )
        scalar(
            "repro_max_queries_in_flight", "gauge",
            "High-water mark of concurrent store queries.",
            max_queries_in_flight,
        )

        tiers = live.MetricFamily(
            "repro_query_tier_total", "counter",
            "Requests answered, by the query tier that answered them.",
        )
        for tier, count in sorted(window["tier_totals"].items()):
            tiers.add(count, {"tier": tier})
        families.append(tiers)

        route_requests = live.MetricFamily(
            "repro_http_route_requests_total", "counter",
            "HTTP requests served, per route.",
        )
        route_errors = live.MetricFamily(
            "repro_http_route_errors_total", "counter",
            "HTTP responses with status >= 400, per route.",
        )
        durations = live.MetricFamily(
            "repro_http_request_duration_seconds", "histogram",
            "Request latency per route (process-lifetime cumulative).",
        )
        for route in sorted(ledger):
            entry = ledger[route]
            route_requests.add(entry["count"], {"route": route})
            route_errors.add(entry["errors"], {"route": route})
            durations.add_histogram(entry["histogram"], {"route": route})
        families.extend([route_requests, route_errors, durations])

        window_latency = live.MetricFamily(
            "repro_http_window_latency_seconds", "gauge",
            f"Latency quantiles over the trailing {window['seconds']:g}s "
            "window (_total = all routes).",
        )
        window_rps = live.MetricFamily(
            "repro_http_window_rps", "gauge",
            "Requests per second over the trailing window.",
        )
        quantiles = (("0.5", "p50_ms"), ("0.95", "p95_ms"), ("0.99", "p99_ms"))
        for quantile, key in quantiles:
            window_latency.add(
                window[key] / 1e3, {"route": "_total", "quantile": quantile}
            )
        window_rps.add(window["rps"], {"route": "_total"})
        for route, stats in sorted(window["routes"].items()):
            for quantile, key in quantiles:
                window_latency.add(
                    stats[key] / 1e3, {"route": route, "quantile": quantile}
                )
            window_rps.add(stats["rps"], {"route": route})
        families.extend([window_latency, window_rps])
        scalar(
            "repro_http_window_error_rate", "gauge",
            "Errors / requests over the trailing window (all routes).",
            window["error_rate"],
        )
        scalar(
            "repro_http_window_seconds", "gauge",
            "Span of the sliding window.", window["seconds"],
        )

        if obs.metrics_enabled():
            for route in sorted(ledger):
                snap = ledger[route]["histogram"]
                cumulative, total = [], 0
                for n in snap["counts"]:
                    total += n
                    cumulative.append(total)
                obs.emit_event(
                    "histogram_snapshot",
                    name="http_request_duration_seconds",
                    route=route,
                    bounds=snap["bounds"],
                    buckets=cumulative,
                    count=snap["count"],
                    sum=snap["sum"],
                    exemplars=snap["exemplars"],
                )
        return live.render_prometheus(families)


class ReproRequestHandler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY on the accepted socket (``StreamRequestHandler.setup``
    #: reads this off the *handler*, not the server): each response is
    #: written as a headers segment then a body segment, and with Nagle
    #: on, the body sits behind the client's delayed ACK — a ~40 ms
    #: stall on every keep-alive request after the first.
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        _log.debug("%s - %s", self.address_string(), format % args)

    def do_GET(self):  # noqa: N802 - stdlib dispatch name
        self._handle("GET")

    def do_POST(self):  # noqa: N802
        self._handle("POST")

    def _handle(self, method: str) -> None:
        server: ReproServer = self.server
        started_ts = time.time()
        started = time.perf_counter()
        server.gauge_enter()
        path = urlsplit(self.path).path
        route = _route_pattern(path)
        status, tier = 500, None
        try:
            try:
                status, payload, tier = self._dispatch(method, path)
            except wire.QueryError as exc:
                status, payload = 400, {"error": str(exc)}
            except Exception as exc:
                _log.exception("handler failed for %s %s", method, path)
                status = 500
                payload = {"error": f"{type(exc).__name__}: {exc}"}
            if isinstance(payload, str):
                # /metrics: Prometheus text exposition, not the JSON
                # envelope every other endpoint wears.
                body = payload.encode("utf-8")
                content_type = live.PROMETHEUS_CONTENT_TYPE
            else:
                body = json.dumps(
                    {"api": wire.API_VERSION, **payload}
                ).encode("utf-8")
                content_type = "application/json"
            try:
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
            except (BrokenPipeError, ConnectionResetError):
                self.close_connection = True
        finally:
            server.gauge_exit()
            server.observe_request(
                method,
                route,
                status,
                time.perf_counter() - started,
                tier,
                started_ts,
            )

    # ---- routing ------------------------------------------------------------

    def _dispatch(
        self, method: str, path: str
    ) -> tuple[int, dict | str, str | None]:
        server: ReproServer = self.server
        path = path.rstrip("/") or "/"
        if path == "/healthz":
            if method != "GET":
                return self._method_not_allowed("GET")
            return server.health_payload()
        if path == "/stats":
            if method != "GET":
                return self._method_not_allowed("GET")
            return 200, server.stats_payload(), None
        if path == "/metrics":
            if method != "GET":
                return self._method_not_allowed("GET")
            return 200, server.metrics_payload(), None
        if path == "/figures" or path.startswith("/figures/"):
            if method != "GET":
                return self._method_not_allowed("GET")
            name = path[len("/figures/"):] if path != "/figures" else None
            return self._figures(name)
        if path == "/query":
            if method != "POST":
                return self._method_not_allowed("POST")
            return self._query()
        return 404, {"error": f"unknown route {path!r}"}, None

    def _method_not_allowed(self, allowed: str) -> tuple[int, dict, None]:
        return 405, {"error": f"method not allowed; use {allowed}"}, None

    def _loading(self) -> tuple[int, dict, None]:
        return 503, {"status": "loading", "error": "dataset still loading"}, None

    def _figures(self, name: str | None) -> tuple[int, dict, str | None]:
        from repro.core.figures import FIGURE_GENERATORS

        server: ReproServer = self.server
        if name is None:
            return 200, {"figures": sorted(FIGURE_GENERATORS)}, None
        generator = FIGURE_GENERATORS.get(name)
        if generator is None:
            return 404, {
                "error": (
                    f"unknown figure {name!r}; "
                    f"choose from {sorted(FIGURE_GENERATORS)}"
                )
            }, None
        store = server.store_or_none()
        if store is None:
            return self._loading()
        series, tier = server.run_query(
            lambda: generator(store),
            memo_key=("figure", name),
            job=("figure", name),
        )
        return 200, {
            "figure": name,
            "series": wire.encode_series(series),
        }, tier

    def _query(self) -> tuple[int, dict, str | None]:
        server: ReproServer = self.server
        store = server.store_or_none()
        if store is None:
            return self._loading()
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            raise wire.QueryError("Content-Length is not an integer") from None
        if length <= 0:
            raise wire.QueryError("empty request body; POST a query document")
        if length > MAX_BODY_BYTES:
            raise wire.QueryError(
                f"request body exceeds {MAX_BODY_BYTES} bytes"
            )
        raw = self.rfile.read(length)
        try:
            spec = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise wire.QueryError(f"body is not valid JSON: {exc}") from None
        result, tier = server.run_query(
            lambda: wire.execute_query(store, spec),
            memo_key=("query", json.dumps(spec, sort_keys=True)),
            job=("query", spec),
        )
        return 200, result, tier


# ---- embedding API ----------------------------------------------------------


class ServerHandle:
    """A started server: its port, URL, readiness, and shutdown."""

    def __init__(self, server: ReproServer, thread: threading.Thread):
        self.server = server
        self.thread = thread

    @property
    def port(self) -> int:
        return self.server.bound_port

    @property
    def url(self) -> str:
        return self.server.url

    def wait_ready(self, timeout: float = 120.0) -> bool:
        """Block until the dataset is attached (or the timeout passes)."""
        return self.server.ready.wait(timeout)

    def close(self) -> None:
        """Graceful shutdown: stop accepting, join, release the socket."""
        self.server.shutdown()
        self.thread.join(timeout=10)
        self.server.server_close()
        self.server.close_query_pool()


def start_server(
    store=None,
    loader=None,
    host: str = "127.0.0.1",
    port: int = 0,
    query_workers: int = 0,
) -> ServerHandle:
    """Bind (port 0 by default), serve on a background thread, return
    the handle — ``handle.port`` is the kernel-chosen port.

    Exactly one of ``store`` (serve immediately) or ``loader`` (a
    zero-argument callable built on a *separate* loader thread; the
    server answers 503 on data endpoints until it returns) must be
    given.  A loader failure is captured on ``server.load_error`` and
    surfaces as a 500 ``/healthz`` — the socket keeps answering so the
    failure is observable instead of a connection refusal.
    """
    if (store is None) == (loader is None):
        raise ValueError("pass exactly one of store= or loader=")
    server = ReproServer((host, port), store=store, query_workers=query_workers)
    thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": 0.05},
        daemon=True,
        name="repro-serve",
    )
    thread.start()
    if loader is not None:
        def _load() -> None:
            try:
                server.attach_store(loader())
            except Exception as exc:
                _log.exception("dataset load failed; serving errors")
                server.load_error = f"{type(exc).__name__}: {exc}"

        threading.Thread(
            target=_load, daemon=True, name="repro-serve-loader"
        ).start()
    return server and ServerHandle(server, thread)
