"""Golden-structure test for the versioned ``stats --json`` document.

Downstream consumers (the trace analyzer, bench trajectory tooling, CI
scripts) parse this document; this module pins its exact top-level
shape so any change — adding, removing, or retyping a key — fails here
first and forces a deliberate ``STATS_SCHEMA`` bump.

The rule the docstring on ``STATS_SCHEMA`` states: bump on any
backwards-incompatible key change.  These tests are the enforcement.
"""

from __future__ import annotations

import datetime as dt
import json
import time

import pytest

from repro import obs
from repro.engine import faults
from repro.engine.perf import PERF, PerfCounters

#: The pinned top-level contract: key -> allowed types.  Editing this
#: dict is the deliberate act that must accompany a STATS_SCHEMA bump.
GOLDEN_TOP_LEVEL = {
    "schema": int,
    "dataset": dict,
    "counters": dict,
    "derived": dict,
    "trace": dict,
    "profile": (dict, type(None)),
    "histograms": dict,
    "window": (dict, type(None)),
}

GOLDEN_DATASET = {
    "start": str,
    "end": str,
    "months": int,
    "records": int,
    "wall_seconds": float,
}

GOLDEN_TRACE = {
    "trace_id": str,
    "spans": list,
    "dropped_spans": int,
}

#: Per-span record contract (PR 4 added the deterministic identity).
GOLDEN_SPAN = {
    "name": str,
    "id": int,
    "parent_id": (int, type(None)),
    "pid": int,
    "trace_id": str,
    "ts": float,
    "duration": float,
    "depth": int,
    "parent": (str, type(None)),
}

#: Schema 7: the serve counters every document carries inside
#: ``counters`` are the query-pool ones.  Request accounting left
#: ``counters`` (schema 5 put ``http_requests`` / ``http_errors`` /
#: ``http_route_latency`` there): it lives in each server's telemetry
#: and ``/stats`` renders it under ``server``.
GOLDEN_SERVE_COUNTERS = {
    "query_pool_dispatches": int,
    "query_pool_fallbacks": int,
}

#: Keys of one ``/stats`` ``server.routes`` entry.
GOLDEN_ROUTE_ENTRY = {
    "count",
    "errors",
    "total_seconds",
    "max_seconds",
    "histogram",
}

#: Schema 6: the shape of one mergeable histogram snapshot — the value
#: type of the top-level ``histograms`` section and of each route
#: ledger entry's ``histogram`` key.
GOLDEN_HISTOGRAM_SNAPSHOT = {
    "bounds": list,
    "counts": list,
    "count": int,
    "sum": (int, float),
    "max": (int, float),
    "min": (int, float, type(None)),
    "exemplars": list,
}

#: The version these golden dicts describe.  If you bumped STATS_SCHEMA
#: without updating the golden structure (or vice versa), the mismatch
#: fails here with instructions rather than silently downstream.
GOLDEN_SCHEMA_VERSION = 7

#: Every schema revision this repo has ever published; consumers and
#: the metrics validator keep accepting all of them.
KNOWN_SCHEMA_VERSIONS = (1, 2, 3, 4, 5, 6, 7)


@pytest.fixture(autouse=True)
def _hermetic(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_METRICS_PATH", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    obs.TRACE.reset()
    obs.profile.configure(None)
    faults.clear()
    yield
    obs.TRACE.reset()
    obs.profile.configure(None)
    faults.clear()


@pytest.fixture
def small_model(monkeypatch):
    from repro.simulation import ecosystem

    small = ecosystem.EcosystemModel(
        start=dt.date(2014, 6, 1),
        end=dt.date(2014, 7, 1),
        use_cache=False,
        workers=0,
    )
    monkeypatch.setattr(ecosystem, "_DEFAULT_MODEL", small)
    PERF.reset()
    return small


def stats_document(capsys, *flags: str) -> dict:
    from repro.cli import main

    assert main([*flags, "stats", "--json"]) == 0
    return json.loads(capsys.readouterr().out)


def assert_shape(document: dict, golden: dict, where: str) -> None:
    assert set(document) == set(golden), (
        f"{where}: keys changed "
        f"(added {set(document) - set(golden)}, "
        f"removed {set(golden) - set(document)}) — "
        "update the golden structure AND bump STATS_SCHEMA"
    )
    for key, types in golden.items():
        assert isinstance(document[key], types), (
            f"{where}.{key}: expected {types}, got {type(document[key])}"
        )


class TestGoldenStructure:
    def test_version_and_golden_agree(self):
        from repro.cli import STATS_SCHEMA

        assert STATS_SCHEMA == GOLDEN_SCHEMA_VERSION, (
            "STATS_SCHEMA changed: update the GOLDEN_* dicts in this "
            "file to describe the new layout, then set "
            "GOLDEN_SCHEMA_VERSION to match"
        )
        assert GOLDEN_SCHEMA_VERSION == KNOWN_SCHEMA_VERSIONS[-1], (
            "append the new version to KNOWN_SCHEMA_VERSIONS — "
            "earlier schemas stay accepted, never replaced"
        )

    def test_top_level_shape(self, capsys, small_model):
        document = stats_document(capsys)
        assert_shape(document, GOLDEN_TOP_LEVEL, "document")
        assert document["schema"] == GOLDEN_SCHEMA_VERSION

    def test_dataset_shape(self, capsys, small_model):
        document = stats_document(capsys)
        assert_shape(document["dataset"], GOLDEN_DATASET, "dataset")
        dt.date.fromisoformat(document["dataset"]["start"])
        dt.date.fromisoformat(document["dataset"]["end"])

    def test_counters_mirror_the_dataclass_exactly(self, capsys, small_model):
        document = stats_document(capsys)
        assert set(document["counters"]) == set(
            PerfCounters.__dataclass_fields__
        )

    def test_serve_counters_present(self, capsys, small_model):
        """Schema 7 golden case: the serve fields exist with their
        pinned types even in a process that never served a request —
        consumers can rely on the keys, not probe for them — and the
        request ledger is no longer among them."""
        document = stats_document(capsys)
        assert document["schema"] == GOLDEN_SCHEMA_VERSION
        counters = document["counters"]
        for key, types in GOLDEN_SERVE_COUNTERS.items():
            assert key in counters, f"counters.{key} missing (schema 7)"
            assert isinstance(counters[key], types)
            assert counters[key] == 0
        for key in ("http_requests", "http_errors", "http_route_latency"):
            assert key not in counters, f"counters.{key} is back (schema 7)"

    def test_schema6_route_ledger_shape_after_serving(
        self, capsys, small_model
    ):
        """After real served traffic ``/stats`` ``server.routes`` carries
        per-route entries with the pinned keys — schema 6 swapped the
        unbounded ``samples`` list for a bounded ``histogram`` snapshot,
        and schema 7 moved the ledger out of ``counters``."""
        import urllib.request

        from repro.engine.partition import PackedDataset, pack_records
        from repro.notary.store import NotaryStore
        from repro.serve.server import start_server
        from repro.serve.loadtest import run_loadtest

        packed = NotaryStore()
        packed.attach_packed(
            PackedDataset(pack_records(small_model.passive_store().records()))
        )
        handle = start_server(store=packed)
        try:
            report = run_loadtest(handle.url, requests=40, concurrency=4)
            # A request is booked just after its response is written.
            deadline = time.monotonic() + 10.0
            while (
                time.monotonic() < deadline
                and handle.server.stats_payload()["server"]["requests"] < 40
            ):
                time.sleep(0.01)
            with urllib.request.urlopen(handle.url + "/stats") as response:
                document = json.loads(response.read())
        finally:
            handle.close()
        assert report["errors"] == 0
        assert document["schema"] == GOLDEN_SCHEMA_VERSION
        routes = document["server"]["routes"]
        assert document["server"]["requests"] >= 40
        assert document["server"]["requests"] == sum(
            entry["count"] for entry in routes.values()
        )
        for route, entry in routes.items():
            assert isinstance(route, str)
            assert GOLDEN_ROUTE_ENTRY == set(entry), (
                f"route ledger keys changed for {route}"
            )
            assert entry["count"] >= 1
            assert_shape(
                entry["histogram"],
                GOLDEN_HISTOGRAM_SNAPSHOT,
                f"route {route} histogram",
            )
            assert sum(entry["histogram"]["counts"]) == entry["count"]

    def test_schema6_histograms_and_window_sections(
        self, capsys, small_model
    ):
        """Schema 6 golden case: a batch document carries the named
        duration histograms of the run (per-month simulation at least)
        and a null ``window`` (only the resident server fills it)."""
        document = stats_document(capsys)
        assert document["schema"] == GOLDEN_SCHEMA_VERSION
        assert document["window"] is None
        histograms = document["histograms"]
        assert "simulate_month_seconds" in histograms
        for name, snap in histograms.items():
            assert_shape(
                snap, GOLDEN_HISTOGRAM_SNAPSHOT, f"histograms.{name}"
            )
            assert len(snap["counts"]) == len(snap["bounds"]) + 1
            assert len(snap["exemplars"]) == len(snap["counts"])
            assert sum(snap["counts"]) == snap["count"]
        months = document["dataset"]["months"]
        assert histograms["simulate_month_seconds"]["count"] == months

    def test_trace_and_span_shape(self, capsys, small_model):
        document = stats_document(capsys)
        assert_shape(document["trace"], GOLDEN_TRACE, "trace")
        spans = document["trace"]["spans"]
        assert spans, "a fresh run must record spans"
        for span in spans:
            missing = set(GOLDEN_SPAN) - set(span)
            assert not missing, f"span missing field(s) {missing}"
            for key, types in GOLDEN_SPAN.items():
                assert isinstance(span[key], types), (
                    f"span.{key}: expected {types}, got {type(span[key])}"
                )
        # attrs/origin are optional but JSON-safe when present.
        json.dumps(spans)

    def test_profile_null_without_flag(self, capsys, small_model):
        assert stats_document(capsys)["profile"] is None

    def test_profile_populates_under_flag(self, capsys, small_model):
        document = stats_document(capsys, "--profile", "cprofile")
        profile = document["profile"]
        assert profile["mode"] == "cprofile"
        phases = {p["name"]: p for p in profile["phases"]}
        assert "run_expectation" in phases
        phase = phases["run_expectation"]
        assert phase["wall_seconds"] > 0
        assert phase["top"], "no hotspots captured"
        top = phase["top"][0]
        assert {"func", "calls", "tottime", "cumtime"} <= set(top)

    def test_profile_tracemalloc_reports_peaks(self, capsys, small_model):
        document = stats_document(capsys, "--profile", "tracemalloc")
        profile = document["profile"]
        assert profile["mode"] == "tracemalloc"
        phases = {p["name"]: p for p in profile["phases"]}
        phase = phases["run_expectation"]
        assert phase["peak_bytes"] > 0
        assert phase["top"], "no allocation sites captured"
        assert {"site", "size_bytes", "count"} <= set(phase["top"][0])
