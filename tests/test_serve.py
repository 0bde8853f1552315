"""Differential suite for the resident query server.

The core claim under test: an answer fetched over HTTP is *exactly*
the answer the same store gives in process — not approximately, not to
six decimals, but equal after the JSON round trip (the stdlib encoder's
repr-based float formatting is shortest-round-trip, so every double
survives the wire bit-for-bit).  The suite asserts that for every
figure, for a randomized population of composite predicate queries,
and — the concurrency half — under a 32-thread hammer where every
response is compared against its precomputed in-process twin and any
5xx fails the test.

Ports are never hard-coded: every server here binds port 0 and the
tests read the kernel-chosen port off the handle.
"""

from __future__ import annotations

import datetime as dt
import http.client
import json
import random
import socket
import threading
import time

import pytest

from repro.core.figures import FIGURE_GENERATORS
from repro.engine import executors
from repro.engine.partition import PackedDataset, pack_records
from repro.notary.store import NotaryStore
from repro.serve import wire
from repro.serve.server import start_server

#: The hammer's shape (satellite requirement: >= 32 threads x >= 50).
HAMMER_THREADS = 32
HAMMER_REQUESTS_PER_THREAD = 50


@pytest.fixture(scope="module")
def served_store(small_window_store):
    """The 13-month window packed — the state a warm cache load leaves
    the store in, which is what ``repro serve`` actually serves."""
    store = NotaryStore()
    store.attach_packed(
        PackedDataset(pack_records(small_window_store.records()))
    )
    return store


@pytest.fixture(scope="module")
def server(served_store):
    handle = start_server(store=served_store)
    yield handle
    handle.close()


def _open(handle) -> http.client.HTTPConnection:
    conn = http.client.HTTPConnection(
        "127.0.0.1", handle.port, timeout=30.0
    )
    conn.connect()
    conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return conn


def _request(conn, method, path, body=None):
    """(status, decoded-JSON payload) over an existing connection."""
    payload = None if body is None else json.dumps(body).encode("utf-8")
    conn.request(
        method,
        path,
        body=payload,
        headers={} if payload is None else {"Content-Type": "application/json"},
    )
    response = conn.getresponse()
    return response.status, json.loads(response.read())


def _get(handle, path):
    conn = _open(handle)
    try:
        return _request(conn, "GET", path)
    finally:
        conn.close()


def _post(handle, path, body):
    conn = _open(handle)
    try:
        return _request(conn, "POST", path, body)
    finally:
        conn.close()


# ---- differential: figures ---------------------------------------------------


def test_every_figure_matches_in_process_exactly(server, served_store):
    """Each figure over HTTP equals the in-process series — exact float
    equality, every month, every label, all ten figures."""
    for name, generator in sorted(FIGURE_GENERATORS.items()):
        status, remote = _get(server, f"/figures/{name}")
        assert status == 200, (name, remote)
        assert remote["api"] == wire.API_VERSION
        assert remote["figure"] == name
        local = wire.encode_series(generator(served_store))
        assert remote["series"] == local, f"{name} diverged over HTTP"
        # Paranoia: the equality above must have compared real floats,
        # not two empty structures.
        assert any(points for points in remote["series"].values())


def test_figure_index_lists_all_figures(server):
    status, payload = _get(server, "/figures")
    assert status == 200
    assert payload["figures"] == sorted(FIGURE_GENERATORS)


# ---- differential: randomized composite predicates ---------------------------


def _random_predicate(rng: random.Random, depth: int = 0) -> dict:
    """A random wire-encoded predicate; leaf-heavy as depth grows."""
    leaves = [
        lambda: {"op": "version", "value": rng.choice(
            ["TLSv12", "TLSv10", "SSLv3", "TLSv13"])},
        lambda: {"op": "mode", "value": rng.choice(["AEAD", "CBC", "RC4"])},
        lambda: {"op": "kex", "value": rng.choice(["ECDHE", "DHE", "RSA"])},
        lambda: {"op": "advertises", "value": rng.choice(
            ["rc4", "aead", "cbc", "3des"])},
        lambda: {"op": "established", "value": rng.random() < 0.5},
    ]
    if depth >= 3 or rng.random() < 0.5:
        return rng.choice(leaves)()
    op = rng.choice(["all", "any", "not"])
    if op == "not":
        return {"op": "not", "arg": _random_predicate(rng, depth + 1)}
    return {
        "op": op,
        "args": [
            _random_predicate(rng, depth + 1)
            for _ in range(rng.randint(1, 3))
        ],
    }


def _random_query(rng: random.Random, months) -> dict:
    month = rng.choice([None, rng.choice(months).isoformat()])
    kind = rng.choice(["fraction", "fraction", "weight", "total_weight",
                       "weighted_mean"])
    if kind == "total_weight":
        return {"kind": kind, "month": month}
    if kind == "weighted_mean":
        return {
            "kind": kind,
            "month": month,
            "value": {"op": "position_of",
                      "tag": rng.choice(["aead", "rc4", "cbc"])},
        }
    spec = {"kind": kind, "month": month,
            "predicate": _random_predicate(rng)}
    if kind == "fraction" and rng.random() < 0.5:
        spec["within"] = _random_predicate(rng)
    return spec


def test_randomized_queries_match_in_process_exactly(server, served_store):
    """Dozens of randomized composite queries: the HTTP answer equals
    the in-process answer on the identical store, exactly."""
    rng = random.Random(0xC0A6E)
    months = served_store.months()
    for _ in range(48):
        spec = _random_query(rng, months)
        status, remote = _post(server, "/query", spec)
        assert status == 200, (spec, remote)
        local = json.loads(
            json.dumps(
                {"api": wire.API_VERSION,
                 **wire.execute_query(served_store, spec)}
            )
        )
        assert remote == local, f"query diverged over HTTP: {spec}"


# ---- concurrency hammer ------------------------------------------------------


def _run_hammer(handle, served_store) -> dict:
    """The 32-thread differential hammer, shared by the threaded-path
    and query-pool servers: every response must equal its precomputed
    in-process twin and no response may be a 5xx.  Returns the server's
    closing ``/stats`` payload for mode-specific assertions."""
    month = served_store.months()[3].isoformat()
    single = {
        "kind": "fraction",
        "predicate": {"op": "mode", "value": "AEAD"},
        "within": {"op": "established", "value": True},
        "month": month,
    }
    series = {
        "kind": "weight",
        "predicate": {
            "op": "all",
            "args": [
                {"op": "established", "value": True},
                {"op": "not", "arg": {"op": "version", "value": "SSLv3"}},
            ],
        },
        "month": None,
    }
    fig1 = wire.encode_series(FIGURE_GENERATORS["fig1"](served_store))
    workload = [
        ("GET", "/healthz", None, None),  # payload varies (gauges) — status only
        ("POST", "/query", single,
         {"api": 1, **wire.execute_query(served_store, single)}),
        ("GET", "/figures/fig1", None,
         {"api": 1, "figure": "fig1", "series": fig1}),
        ("POST", "/query", series,
         {"api": 1, **wire.execute_query(served_store, series)}),
    ]
    # Round-trip the expectations through JSON once so the comparison
    # is wire-form vs wire-form (it changes nothing for repr-floats —
    # which is the point — but keeps int/float key coercion honest).
    workload = [
        (m, p, b, e if e is None else json.loads(json.dumps(e)))
        for m, p, b, e in workload
    ]

    failures: list[str] = []
    statuses: list[int] = []
    lock = threading.Lock()
    barrier = threading.Barrier(HAMMER_THREADS)

    def worker(worker_id: int) -> None:
        conn = _open(handle)
        barrier.wait()
        local_statuses = []
        local_failures = []
        for i in range(HAMMER_REQUESTS_PER_THREAD):
            method, path, body, expected = workload[
                (worker_id + i) % len(workload)
            ]
            try:
                status, payload = _request(conn, method, path, body)
            except OSError as exc:
                local_failures.append(f"transport error on {path}: {exc!r}")
                conn.close()
                conn = _open(handle)
                continue
            local_statuses.append(status)
            if status >= 500:
                local_failures.append(f"5xx on {path}: {payload}")
            elif expected is not None and payload != expected:
                local_failures.append(f"divergent payload on {path}")
        conn.close()
        with lock:
            statuses.extend(local_statuses)
            failures.extend(local_failures)

    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(HAMMER_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not failures, failures[:5]
    assert len(statuses) == HAMMER_THREADS * HAMMER_REQUESTS_PER_THREAD
    assert all(status == 200 for status in statuses)
    # The requests genuinely overlapped on the server.
    _, stats = _get(handle, "/stats")
    assert stats["server"]["max_in_flight"] > 1
    return stats


def test_hammer_32_threads_byte_identical_zero_5xx(server, served_store):
    stats = _run_hammer(server, served_store)
    # Inside the *query phase* specifically: with the memo caches
    # warm, index/vector/shape-tier queries bypass the store lock
    # (double-checked locking), so store reads themselves must have
    # run concurrently — the serialize-everything lock this PR removed
    # would pin this gauge at 1.
    assert stats["server"]["max_queries_in_flight"] > 1


# ---- differential: the multi-process query pool ------------------------------


@pytest.fixture(scope="module")
def mp_server(served_store):
    """The same store served through ``--query-workers 2`` replicas."""
    if not executors.fork_available():
        pytest.skip("query pool needs the fork start method")
    handle = start_server(store=served_store, query_workers=2)
    assert handle.server.query_pool is not None
    yield handle
    handle.close()


def test_mp_hammer_byte_identical_zero_5xx(mp_server, served_store):
    """The identical differential hammer against the query-pool server:
    pooled answers must be byte-for-byte the in-process ones, and the
    pool must actually have dispatched."""
    stats = _run_hammer(mp_server, served_store)
    assert stats["counters"]["query_pool_dispatches"] > 0
    assert stats["server"]["max_queries_in_flight"] > 1


def test_mp_every_figure_matches_in_process_exactly(mp_server, served_store):
    for name, generator in sorted(FIGURE_GENERATORS.items()):
        status, payload = _get(mp_server, f"/figures/{name}")
        assert status == 200
        expected = json.loads(
            json.dumps(wire.encode_series(generator(served_store)))
        )
        assert payload["series"] == expected, name


def test_mp_malformed_query_answers_400_across_pool(mp_server):
    status, payload = _post(mp_server, "/query", {"kind": "nope"})
    assert status == 400
    assert "error" in payload


def test_mp_perf_counters_reconcile(mp_server, served_store):
    """A replica's per-query counter delta folds into the parent: the
    parent's tier counters move exactly as an in-thread run would."""
    month = served_store.months()[2].isoformat()
    body = {
        "kind": "fraction",
        "predicate": {
            "op": "any",
            "args": [
                {"op": "version", "value": "TLSv12"},
                {"op": "version", "value": "TLSv13"},
            ],
        },
        "month": month,
    }
    _, before = _get(mp_server, "/stats")
    status, _payload = _post(mp_server, "/query", body)
    assert status == 200
    _, after = _get(mp_server, "/stats")
    delta_dispatch = (
        after["counters"]["query_pool_dispatches"]
        - before["counters"]["query_pool_dispatches"]
    )
    assert delta_dispatch >= 1
    moved = sum(
        after["counters"][name] - before["counters"][name]
        for name in ("vector_path_hits", "shape_path_hits", "scan_fallbacks")
    )
    assert moved >= 1, "replica tier counters did not fold into the parent"


# ---- error paths -------------------------------------------------------------


@pytest.mark.parametrize(
    "body",
    [
        {"kind": "nope"},
        {"kind": "fraction", "predicate": {"op": "warp", "value": "x"}},
        {"kind": "fraction", "predicate": {"op": "version"}},
        {"kind": "fraction", "predicate": {"op": "kex", "value": "TELEPATHY"}},
        {"kind": "fraction", "predicate": {"op": "all", "args": "not-a-list"}},
        {"kind": "weight", "predicate": {"op": "established"},
         "within": {"op": "established"}},
        {"kind": "fraction", "predicate": {"op": "established"},
         "month": "not-a-date"},
        {"kind": "fraction", "predicate": {"op": "established"},
         "surprise": 1},
        {"kind": "weighted_mean", "value": {"op": "entropy"}},
        ["not", "an", "object"],
    ],
)
def test_malformed_query_answers_400(server, body):
    status, payload = _post(server, "/query", body)
    assert status == 400
    assert "error" in payload


def test_deeply_nested_predicate_answers_400(server):
    spec: dict = {"op": "established", "value": True}
    for _ in range(wire.MAX_DEPTH + 2):
        spec = {"op": "not", "arg": spec}
    status, payload = _post(
        server, "/query", {"kind": "fraction", "predicate": spec}
    )
    assert status == 400
    assert "nesting" in payload["error"]


def test_non_json_body_answers_400(server):
    conn = _open(server)
    try:
        conn.request("POST", "/query", body=b"{not json",
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        payload = json.loads(response.read())
    finally:
        conn.close()
    assert response.status == 400
    assert "JSON" in payload["error"]


def test_empty_body_answers_400(server):
    conn = _open(server)
    try:
        conn.request("POST", "/query")
        response = conn.getresponse()
        payload = json.loads(response.read())
    finally:
        conn.close()
    assert response.status == 400
    assert "error" in payload


def test_unknown_route_answers_404(server):
    status, payload = _get(server, "/similar-but-wrong")
    assert status == 404
    assert "error" in payload


def test_unknown_figure_answers_404(server):
    status, payload = _get(server, "/figures/fig99")
    assert status == 404
    assert "fig99" in payload["error"]


def test_wrong_method_answers_405(server):
    status, payload = _get(server, "/query")
    assert status == 405
    status, payload = _post(server, "/healthz", {})
    assert status == 405


# ---- readiness ---------------------------------------------------------------


def test_healthz_readiness_before_load(served_store):
    """The socket answers before the dataset loads: 503 while loading,
    200 (with dataset facts) once the loader finishes."""
    gate = threading.Event()

    def slow_loader():
        gate.wait(timeout=30)
        return served_store

    handle = start_server(loader=slow_loader)
    try:
        status, payload = _get(handle, "/healthz")
        assert status == 503
        assert payload["ready"] is False
        # Data endpoints also answer 503, not connection refusal.
        status, _ = _get(handle, "/figures/fig1")
        assert status == 503
        gate.set()
        assert handle.wait_ready(timeout=30)
        status, payload = _get(handle, "/healthz")
        assert status == 200
        assert payload["ready"] is True
        assert payload["records"] == len(served_store)
    finally:
        gate.set()
        handle.close()


def test_healthz_surfaces_loader_failure(served_store):
    failed = threading.Event()

    def broken_loader():
        try:
            raise RuntimeError("corrupt cache blob")
        finally:
            failed.set()

    handle = start_server(loader=broken_loader)
    try:
        assert failed.wait(timeout=30)
        # The loader thread sets load_error right after the event; poll
        # briefly rather than racing it.
        for _ in range(100):
            status, payload = _get(handle, "/healthz")
            if status == 500:
                break
            import time

            time.sleep(0.05)
        assert status == 500
        assert "corrupt cache blob" in payload["error"]
    finally:
        handle.close()


# ---- observability -----------------------------------------------------------


def test_http_requests_flow_into_metrics_sink(server, tmp_path, monkeypatch):
    sink = tmp_path / "serve.jsonl"
    monkeypatch.setenv("REPRO_METRICS_PATH", str(sink))
    _get(server, "/figures/fig2")
    _post(server, "/query",
          {"kind": "total_weight", "month": None})
    _get(server, "/no-such-route")
    # The event is emitted *after* the response is written, so the
    # handler thread can still be mid-emit when the client returns;
    # wait for all three lines before pulling the sink env back out.
    import time

    deadline = time.monotonic() + 10
    http_events: list[dict] = []
    while time.monotonic() < deadline:
        if sink.exists():
            events = [
                json.loads(line) for line in sink.read_text().splitlines()
            ]
            http_events = [e for e in events if e["event"] == "http_request"]
            if len(http_events) >= 3:
                break
        time.sleep(0.02)
    monkeypatch.delenv("REPRO_METRICS_PATH")
    assert len(http_events) == 3
    for event in http_events:
        assert event["method"] in ("GET", "POST")
        assert isinstance(event["route"], str) and event["route"]
        assert isinstance(event["status"], int)
        assert isinstance(event["duration"], float)
        assert event["duration"] >= 0
    by_route = {e["route"]: e for e in http_events}
    assert by_route["/figures/<name>"]["status"] == 200
    assert by_route["/query"]["status"] == 200
    assert by_route["<other>"]["status"] == 404
    # The tier is observed, not guessed: a served aggregate reports
    # which query tier answered it.
    assert by_route["/query"]["tier"] in (
        "index", "vector", "shape", "scan", "mixed"
    )
    # And every line satisfies the CI validator's http_request rules.
    import importlib.util
    from pathlib import Path

    spec = importlib.util.spec_from_file_location(
        "check_metrics_jsonl",
        Path(__file__).resolve().parent.parent
        / "scripts"
        / "check_metrics_jsonl.py",
    )
    checker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checker)
    last_ts: dict = {}
    for event in events:
        assert checker.check_record(event, last_ts) is None


def test_stats_endpoint_shape(server):
    from repro.cli import STATS_SCHEMA

    # Put one /stats request in the books before the read, so the test
    # does not depend on earlier tests' traffic.
    booked = server.server.stats_payload()["server"]["requests"]
    _get(server, "/stats")
    _await_booked(server, booked + 1)
    status, stats = _get(server, "/stats")
    assert status == 200
    assert stats["schema"] == STATS_SCHEMA
    assert stats["server"]["ready"] is True
    assert stats["server"]["requests"] >= 1
    assert stats["server"]["max_in_flight"] >= 1
    assert stats["server"]["uptime_seconds"] > 0
    assert stats["dataset"]["months"] == 13
    ledger = stats["server"]["routes"]
    assert "/stats" in ledger
    entry = ledger["/stats"]
    assert entry["count"] >= 1
    assert entry["total_seconds"] >= 0
    assert stats["server"]["requests"] == sum(
        e["count"] for e in ledger.values()
    )
    assert "http_requests" not in stats["counters"]


def _await_booked(handle, requests: int) -> None:
    """Wait until the server has booked ``requests`` requests.  A
    request is booked just after its response is written, so a client
    can hold the answer a moment before the ledger shows it."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        if handle.server.stats_payload()["server"]["requests"] >= requests:
            return
        time.sleep(0.01)
    raise AssertionError(f"server never booked {requests} requests")


def test_request_ledger_is_per_server_and_reconciles(served_store):
    """Two servers in one process keep separate books: B, which took no
    traffic, reports none of A's.  On A, after a mix of 200/400/404
    answers, every request and error count agrees — ``/stats``
    ``server.requests``, the sum over ``server.routes``, ``window``, and
    ``/metrics`` (which also books the ``/stats`` read before it)."""
    from repro.obs import live

    a = start_server(store=served_store)
    b = start_server(store=served_store)
    try:
        statuses = [_get(a, path)[0] for path in (
            "/figures/fig1", "/figures/fig2", "/figures",
            "/similar-but-wrong", "/figures/fig99",
        )]
        statuses += [_post(a, "/query", body)[0] for body in (
            {"kind": "fraction", "predicate": {"op": "established"},
             "month": served_store.months()[0].isoformat()},
            {"kind": "nope"},
            {"kind": "fraction", "predicate": {"op": "warp", "value": "x"}},
        )]
        assert sorted(set(statuses)) == [200, 400, 404]
        sent = len(statuses)
        failed = sum(1 for status in statuses if status >= 400)
        _await_booked(a, sent)

        _, other = _get(b, "/stats")
        assert other["server"]["requests"] == 0
        assert other["server"]["errors"] == 0
        assert other["server"]["routes"] == {}
        assert other["window"]["count"] == 0

        _, stats = _get(a, "/stats")
        routes = stats["server"]["routes"]
        assert stats["server"]["requests"] == sent
        assert sum(e["count"] for e in routes.values()) == sent
        assert stats["window"]["count"] == sent
        assert stats["server"]["errors"] == failed
        assert sum(e["errors"] for e in routes.values()) == failed
        assert stats["window"]["errors"] == failed

        _await_booked(a, sent + 1)
        _, _, text = _get_text(a, "/metrics")
        families = live.parse_prometheus(text)
        route_requests = families["repro_http_route_requests_total"]["samples"]
        route_errors = families["repro_http_route_errors_total"]["samples"]
        assert live.sample_value(families, "repro_http_requests_total") == sent + 1
        assert sum(value for _, value in route_requests) == sent + 1
        assert live.sample_value(families, "repro_http_errors_total") == failed
        assert sum(value for _, value in route_errors) == failed
    finally:
        a.close()
        b.close()


def test_fig4_books_its_tier_and_scans_stay_serialized(
    served_store, montecarlo_store
):
    """A served fig4 is booked under the tier that answered it:
    ``vector`` on a packed store, ``scan`` on a day-carrying packed
    store (its months fall back to the record fold).  A scan mutates
    the materialization LRU, so a repeat fig4 there must still wait for
    the query lock, while the vector one runs lock-free once warm."""
    day_store = NotaryStore()
    day_store.attach_packed(
        PackedDataset(pack_records(montecarlo_store.records()))
    )
    for store, tier in ((served_store, "vector"), (day_store, "scan")):
        handle = start_server(store=store)
        try:
            assert _get(handle, "/figures/fig4")[0] == 200
            _await_booked(handle, 1)
            _, stats = _get(handle, "/stats")
            assert stats["window"]["tier_totals"] == {tier: 1}

            answered = threading.Event()

            def repeat():
                if _get(handle, "/figures/fig4")[0] == 200:
                    answered.set()

            with handle.server._query_lock:
                worker = threading.Thread(target=repeat, daemon=True)
                worker.start()
                if tier == "vector":
                    assert answered.wait(10.0), "warm vector fig4 took the lock"
                else:
                    assert not answered.wait(0.3), "scan fig4 ran unlocked"
            worker.join(10.0)
            assert answered.is_set()
        finally:
            handle.close()


# ---- live telemetry: /metrics + sliding window -------------------------------


def _get_text(handle, path):
    """(status, content-type, raw body text) — /metrics is the one
    endpoint that does not speak JSON."""
    conn = _open(handle)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return (
            response.status,
            response.getheader("Content-Type"),
            response.read().decode("utf-8"),
        )
    finally:
        conn.close()


def _load_script(name):
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "scripts" / name
    spec = importlib.util.spec_from_file_location(name[:-3], path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_metrics_endpoint_is_valid_prometheus(server):
    from repro.obs import live

    _get(server, "/figures/fig1")  # at least one request in the books
    status, content_type, text = _get_text(server, "/metrics")
    assert status == 200
    assert content_type == live.PROMETHEUS_CONTENT_TYPE
    # The CI gate's full rule set: grammar, HELP/TYPE ordering, no
    # duplicate series, histogram bucket monotonicity, +Inf == _count.
    checker = _load_script("check_prometheus_text.py")
    assert checker.check_text(text) is None
    families = live.parse_prometheus(text)
    for name in (
        "repro_http_requests_total",
        "repro_http_request_duration_seconds",
        "repro_http_window_rps",
        "repro_http_window_latency_seconds",
        "repro_in_flight",
        "repro_uptime_seconds",
    ):
        assert name in families, f"{name} missing from /metrics"
    assert (
        live.sample_value(families, "repro_http_requests_total") >= 1
    )
    histogram = families["repro_http_request_duration_seconds"]
    assert histogram["type"] == "histogram"
    # Cumulative count for the figures route covers the request above.
    count = live.sample_value(
        families,
        "repro_http_request_duration_seconds",
        {"route": "/figures/<name>", "le": "+Inf"},
    )
    assert count is not None and count >= 1


def test_metrics_rejects_non_get(server):
    status, payload = _post(server, "/metrics", {"nope": 1})
    assert status == 405
    assert payload["error"]


def test_stats_window_section_shape(server):
    _get(server, "/figures/fig1")
    _, stats = _get(server, "/stats")
    window = stats["window"]
    assert window is not None
    assert window["seconds"] > 0
    assert window["slots"] >= 1 and window["slot_seconds"] > 0
    assert window["count"] >= 1
    assert 0 <= window["error_rate"] <= 1
    assert window["p50_ms"] <= window["p95_ms"] <= window["p99_ms"]
    routes = window["routes"]
    assert "/figures/<name>" in routes
    entry = routes["/figures/<name>"]
    assert entry["count"] >= 1
    assert entry["p50_ms"] <= entry["p99_ms"]
    assert isinstance(window["tier_totals"], dict)
    # The route ledger itself is histogram-backed now (the leak fix):
    # bounded bucket counts, no per-request sample list.
    ledger = stats["server"]["routes"]["/figures/<name>"]
    assert set(ledger) == {
        "count", "errors", "total_seconds", "max_seconds", "histogram"
    }
    hist = ledger["histogram"]
    assert len(hist["counts"]) == len(hist["bounds"]) + 1
    assert sum(hist["counts"]) == hist["count"] == ledger["count"]


def test_metrics_scrape_emits_histogram_snapshot_events(
    server, tmp_path, monkeypatch
):
    sink = tmp_path / "scrape.jsonl"
    monkeypatch.setenv("REPRO_METRICS_PATH", str(sink))
    _get(server, "/figures/fig1")
    status, _ctype, _text = _get_text(server, "/metrics")
    assert status == 200
    monkeypatch.delenv("REPRO_METRICS_PATH")
    events = [json.loads(line) for line in sink.read_text().splitlines()]
    snapshots = [e for e in events if e["event"] == "histogram_snapshot"]
    assert snapshots, "a /metrics scrape must journal histogram snapshots"
    routes = {e["route"] for e in snapshots}
    assert "/figures/<name>" in routes
    checker = _load_script("check_metrics_jsonl.py")
    last_ts: dict = {}
    for event in events:
        assert checker.check_record(event, last_ts) is None
    # Exemplars carry trace ids that link back to spans in this sink.
    exemplars = [
        x
        for e in snapshots
        for x in e["exemplars"]
        if x is not None
    ]
    assert exemplars, "served requests must leave trace exemplars"
    assert all(x["trace_id"] for x in exemplars)


def test_window_percentiles_agree_with_loadtest(served_store):
    """The acceptance criterion: the server's windowed p50/p95/p99
    agree with a loadtest's client-side percentiles to within one
    (log-scale) histogram bucket width at that latency."""
    from repro.obs import live
    from repro.serve.loadtest import run_loadtest

    handle = start_server(store=served_store)
    try:
        # Concurrency 1: with N requests in flight the client measures
        # queueing (≈ N × handler time under the GIL) that the
        # per-request server histogram, by design, does not.
        report = run_loadtest(
            f"127.0.0.1:{handle.port}",
            requests=300,
            concurrency=1,
            workload=[("GET", "/figures/fig1", None)],
        )
        assert report["errors"] == 0
        _, stats = _get(handle, "/stats")
    finally:
        handle.close()
    window = stats["window"]["routes"]["/figures/<name>"]
    assert window["count"] >= 300
    for q in ("p50_ms", "p95_ms", "p99_ms"):
        client_s = report[q] / 1e3
        server_s = window[q] / 1e3
        # The server reports its bucket's upper bound while the client
        # reports an exact sample, so "agree within one bucket width"
        # means the two land in the same or adjacent log-scale buckets.
        distance = abs(
            live.bucket_index(client_s) - live.bucket_index(server_s)
        )
        assert distance <= 1, (
            f"{q}: client {report[q]:.3f} ms vs server window "
            f"{window[q]:.3f} ms are {distance} histogram buckets apart"
        )


def test_top_dashboard_renders_from_live_metrics(server):
    from repro.serve import top

    from repro.obs import live

    _get(server, "/figures/fig1")
    url = f"http://127.0.0.1:{server.port}/metrics"
    families = live.parse_prometheus(top.fetch_metrics(url, timeout=10.0))
    frame = top.render_dashboard(families, url)
    assert "repro top" in frame
    assert "/figures/<name>" in frame
    assert "p50" in frame.lower()
    # And the one-shot runner exits cleanly after a single poll.
    import io

    out = io.StringIO()
    assert top.run_top(url, interval=0.01, iterations=1, out=out, clear=False) == 0
    assert "/figures/<name>" in out.getvalue()
    bad = top.run_top(
        "http://127.0.0.1:9/metrics",
        interval=0.01,
        iterations=1,
        out=io.StringIO(),
        clear=False,
    )
    assert bad == 1


# ---- port policy -------------------------------------------------------------


def test_port_zero_binds_distinct_free_ports(served_store, server):
    """Two servers asked for port 0 coexist on distinct kernel-chosen
    ports — the class of CI flake this design retires."""
    second = start_server(store=served_store)
    try:
        assert server.port != 0
        assert second.port != 0
        assert second.port != server.port
        status, _ = _get(second, "/healthz")
        assert status == 200
    finally:
        second.close()
