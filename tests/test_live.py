"""The live-telemetry layer (:mod:`repro.obs.live`) under test.

Four contracts, in roughly dependency order:

* **Merge algebra** (property-based): merging two histograms is exactly
  equivalent to single-stream ingestion for counts, bucket totals, and
  (to float tolerance) sums — the invariant that makes worker-shipped
  snapshots, window slots, and scrape-side aggregation all the same
  operation.
* **Percentile bounds** (property-based): the nearest-rank percentile
  read from buckets is an upper bound on the exact sample percentile
  and lands within one bucket width of it.
* **Windowing**: observations expire after ``slots × slot_seconds``
  with a deterministic injected clock; ring slots reset on epoch reuse.
* **Bounded state** (the ledger-leak regression): 10k observations
  leave both the PERF route ledger and the live telemetry holding
  O(buckets) state — no reachable list grows with request count.

Plus the Prometheus text exposition round trip: rendered text parses
back to the same values and passes the CI validator
(``scripts/check_prometheus_text.py``), and malformed expositions are
rejected.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.perf import PerfCounters
from repro.obs import live
from repro.obs.live import (
    DEFAULT_BOUNDS,
    Histogram,
    LiveTelemetry,
    MetricFamily,
    PrometheusParseError,
    WindowedHistogram,
    bucket_index,
    bucket_width,
    parse_prometheus,
    render_prometheus,
    sample_value,
)


def _load_script(name: str):
    path = Path(__file__).resolve().parent.parent / "scripts" / name
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: Finite observation values: positive, spanning the full bucket range
#: including sub-first-bucket and overflow territory.
values_st = st.floats(
    min_value=1e-6, max_value=500.0, allow_nan=False, allow_infinity=False
)

#: Values strictly inside the finite buckets (no overflow), for the
#: one-bucket-width percentile property — the overflow bucket has no
#: finite width and reports the observed max instead.
finite_values_st = st.floats(
    min_value=1e-6,
    max_value=DEFAULT_BOUNDS[-1],
    allow_nan=False,
    allow_infinity=False,
)


def exact_percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile over raw samples (the reference)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100))
    return ordered[rank - 1]


# ---- histogram basics --------------------------------------------------------


class TestHistogram:
    def test_bucket_index_le_semantics(self):
        # A value exactly on a bound belongs to that bound's bucket
        # (Prometheus `le`), the next float above it to the next.
        assert bucket_index(DEFAULT_BOUNDS[0]) == 0
        assert bucket_index(math.nextafter(DEFAULT_BOUNDS[0], 1)) == 1
        assert bucket_index(0.0) == 0
        assert bucket_index(DEFAULT_BOUNDS[-1]) == len(DEFAULT_BOUNDS) - 1
        assert bucket_index(DEFAULT_BOUNDS[-1] * 2) == len(DEFAULT_BOUNDS)

    def test_observe_accumulates_scalars(self):
        hist = Histogram()
        for value in (0.001, 0.004, 0.002):
            hist.observe(value)
        assert hist.count == 3
        assert math.isclose(hist.sum, 0.007)
        assert hist.max == 0.004
        assert hist.min == 0.001
        assert sum(hist.counts) == 3

    def test_state_is_o_buckets(self):
        hist = Histogram()
        for i in range(10_000):
            hist.observe((i % 997) * 1e-5)
        assert len(hist.counts) == len(DEFAULT_BOUNDS) + 1
        assert len(hist.exemplars) == len(DEFAULT_BOUNDS) + 1
        assert hist.count == 10_000

    def test_empty_percentile_is_zero(self):
        assert Histogram().percentile(50) == 0.0

    def test_overflow_percentile_reports_observed_max(self):
        hist = Histogram()
        hist.observe(DEFAULT_BOUNDS[-1] * 3)
        assert hist.percentile(99) == DEFAULT_BOUNDS[-1] * 3

    def test_merge_rejects_mismatched_bounds(self):
        narrow = Histogram(bounds=(0.1, 1.0))
        with pytest.raises(ValueError, match="bounds differ"):
            Histogram().merge(narrow)

    def test_snapshot_is_json_safe_and_detached(self):
        import json

        hist = Histogram()
        hist.observe(0.01, exemplar={"trace_id": "t", "value": 0.01, "ts": 1})
        snap = hist.snapshot()
        json.dumps(snap)
        snap["counts"][0] = 999  # mutating the copy...
        snap["exemplars"][bucket_index(0.01)]["trace_id"] = "mangled"
        fresh = hist.snapshot()  # ...never touches the histogram
        assert fresh["counts"][0] != 999
        assert fresh["exemplars"][bucket_index(0.01)]["trace_id"] == "t"

    def test_cumulative_matches_counts(self):
        hist = Histogram()
        for value in (0.0001, 0.01, 0.01, 5.0, 100.0):
            hist.observe(value)
        cumulative = hist.cumulative()
        assert cumulative[-1] == hist.count
        assert all(b >= a for a, b in zip(cumulative, cumulative[1:]))


# ---- merge algebra (property-based) ------------------------------------------


class TestMergeAlgebra:
    @settings(max_examples=60, deadline=None)
    @given(
        a=st.lists(values_st, max_size=60),
        b=st.lists(values_st, max_size=60),
    )
    def test_merge_equals_single_stream(self, a, b):
        left, right, single = Histogram(), Histogram(), Histogram()
        for value in a:
            left.observe(value)
        for value in b:
            right.observe(value)
        for value in a + b:
            single.observe(value)
        left.merge(right)
        assert left.count == single.count
        assert left.counts == single.counts
        assert math.isclose(left.sum, single.sum, rel_tol=1e-9, abs_tol=1e-12)
        assert left.max == single.max
        assert left.min == single.min

    @settings(max_examples=30, deadline=None)
    @given(
        chunks=st.lists(
            st.lists(values_st, max_size=30), min_size=1, max_size=6
        )
    )
    def test_merge_is_associative_over_snapshots(self, chunks):
        """Folding worker snapshots one at a time (the parent's merge
        loop) equals ingesting the concatenated stream."""
        parent, single = Histogram(), Histogram()
        for chunk in chunks:
            worker = Histogram()
            for value in chunk:
                worker.observe(value)
            parent.merge_snapshot(worker.snapshot())
        for value in (v for chunk in chunks for v in chunk):
            single.observe(value)
        assert parent.counts == single.counts
        assert parent.count == single.count

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(finite_values_st, min_size=1, max_size=80),
        q=st.sampled_from([50.0, 95.0, 99.0]),
    )
    def test_percentile_within_one_bucket_width(self, values, q):
        hist = Histogram()
        for value in values:
            hist.observe(value)
        exact = exact_percentile(values, q)
        approx = hist.percentile(q)
        assert approx >= exact, "bucket upper bound must bound the exact value"
        assert approx - exact <= bucket_width(exact), (
            f"p{q} off by more than one bucket width: "
            f"exact {exact}, histogram {approx}"
        )

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(values_st, min_size=1, max_size=80))
    def test_percentile_from_snapshot_matches_object(self, values):
        hist = Histogram()
        for value in values:
            hist.observe(value)
        snap = hist.snapshot()
        for q in (50, 95, 99):
            assert live.percentile_from_snapshot(snap, q) == hist.percentile(q)


# ---- exemplars ---------------------------------------------------------------


class TestExemplars:
    def test_bucket_retains_most_recent_exemplar(self):
        hist = Histogram()
        slot = bucket_index(0.01)
        hist.observe(0.01, exemplar={"trace_id": "old", "value": 0.01, "ts": 1})
        hist.observe(0.011, exemplar={"trace_id": "new", "value": 0.011, "ts": 2})
        assert hist.snapshot()["exemplars"][slot]["trace_id"] == "new"

    def test_merge_keeps_newest_exemplar_per_bucket(self):
        a, b = Histogram(), Histogram()
        slot = bucket_index(0.01)
        a.observe(0.01, exemplar={"trace_id": "a", "value": 0.01, "ts": 5})
        b.observe(0.01, exemplar={"trace_id": "b", "value": 0.01, "ts": 9})
        a.merge(b)
        assert a.exemplars[slot]["trace_id"] == "b"
        # And the newer side wins regardless of merge direction.
        c = Histogram()
        c.observe(0.01, exemplar={"trace_id": "c", "value": 0.01, "ts": 1})
        c.merge_snapshot(a.snapshot())
        assert c.exemplars[slot]["trace_id"] == "b"

    def test_observations_without_exemplars_leave_slot_alone(self):
        hist = Histogram()
        slot = bucket_index(0.01)
        hist.observe(0.01, exemplar={"trace_id": "keep", "value": 0.01, "ts": 1})
        hist.observe(0.01)
        assert hist.exemplars[slot]["trace_id"] == "keep"


# ---- sliding window ----------------------------------------------------------


class TestWindowedHistogram:
    def test_observations_expire_after_the_window(self):
        window = WindowedHistogram(slots=4, slot_seconds=1.0)
        window.observe(0.01, now=0.5)
        assert window.window(now=0.6)["count"] == 1
        assert window.window(now=3.9)["count"] == 1  # still inside 4s
        assert window.window(now=4.5)["count"] == 0  # rotated out

    def test_partial_expiry_keeps_newer_slots(self):
        window = WindowedHistogram(slots=4, slot_seconds=1.0)
        window.observe(0.01, now=0.5, error=True)
        window.observe(0.02, now=2.5)
        summary = window.window(now=3.0)
        assert summary["count"] == 2
        assert summary["errors"] == 1
        summary = window.window(now=4.5)  # epoch 0 out, epoch 2 alive
        assert summary["count"] == 1
        assert summary["errors"] == 0

    def test_ring_slot_reset_on_epoch_reuse(self):
        window = WindowedHistogram(slots=4, slot_seconds=1.0)
        window.observe(0.01, now=0.5)
        window.observe(0.02, now=4.5)  # same ring slot, 4 epochs later
        summary = window.window(now=4.6)
        assert summary["count"] == 1
        assert summary["histogram"]["max"] == 0.02

    def test_rates_use_the_full_window_span(self):
        window = WindowedHistogram(slots=10, slot_seconds=1.0)
        for i in range(20):
            window.observe(0.001, now=5.05 + i * 0.01)
        summary = window.window(now=5.5)
        assert summary["seconds"] == 10.0
        assert summary["rps"] == pytest.approx(2.0)
        assert summary["error_rate"] == 0.0

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            WindowedHistogram(slots=0)
        with pytest.raises(ValueError):
            WindowedHistogram(slot_seconds=0)

    def test_window_percentiles_come_from_merged_slots(self):
        window = WindowedHistogram(slots=4, slot_seconds=1.0)
        for now, value in ((0.5, 0.001), (1.5, 0.002), (2.5, 0.004)):
            window.observe(value, now=now)
        summary = window.window(now=3.0)
        assert summary["p50"] == DEFAULT_BOUNDS[bucket_index(0.002)]


# ---- the serve-facing bundle -------------------------------------------------


class TestLiveTelemetry:
    def test_routes_and_tiers_accumulate(self):
        telemetry = LiveTelemetry(slots=4, slot_seconds=1.0)
        telemetry.observe("/a", 0.01, 200, tier="index", now=0.5)
        telemetry.observe("/a", 0.02, 500, tier="index", now=0.6)
        telemetry.observe("/b", 0.04, 200, tier="vector", now=0.7)
        payload = telemetry.window_payload(now=1.0)
        assert set(payload["routes"]) == {"/a", "/b"}
        assert payload["routes"]["/a"]["count"] == 2
        assert payload["routes"]["/a"]["errors"] == 1
        assert payload["count"] == 3
        assert payload["error_rate"] == pytest.approx(1 / 3)
        assert payload["tier_totals"] == {"index": 2, "vector": 1}
        assert payload["p99_ms"] >= payload["p50_ms"] > 0
        ledger = telemetry.route_ledger()
        assert set(ledger) == {"/a", "/b"}
        assert ledger["/a"]["count"] == 2
        assert ledger["/a"]["errors"] == 1
        assert ledger["/a"]["total_seconds"] == 0.01 + 0.02
        assert ledger["/a"]["max_seconds"] == 0.02
        assert ledger["/b"]["histogram"]["count"] == 1

    def test_window_payload_expires_but_tier_totals_do_not(self):
        telemetry = LiveTelemetry(slots=4, slot_seconds=1.0)
        telemetry.observe("/a", 0.01, 200, tier="shape", now=0.5)
        payload = telemetry.window_payload(now=30.0)
        assert payload["count"] == 0
        assert payload["routes"]["/a"]["count"] == 0
        assert payload["tier_totals"] == {"shape": 1}  # cumulative
        assert telemetry.route_ledger()["/a"]["count"] == 1  # lifetime


# ---- bounded state: the route-ledger leak regression -------------------------


def _reachable_list_lengths(root) -> list[int]:
    """Lengths of every list reachable from ``root`` (dict/list walk)."""
    lengths, stack, seen = [], [root], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, list):
            lengths.append(len(node))
            stack.extend(node)
        elif isinstance(node, dict):
            stack.extend(node.values())
    return lengths


class TestBoundedLedger:
    def test_perf_route_ledger_stays_o_buckets_after_10k_requests(self):
        """The satellite regression: the old ledger appended every
        request's duration to a per-route ``samples`` list; 10k served
        requests must now leave no reachable list longer than the
        bucket array in the ``/stats`` route ledger."""
        telemetry = LiveTelemetry()
        for i in range(10_000):
            telemetry.observe(
                "/figures/<name>",
                (i % 463) * 1e-5,
                200 if i % 7 else 500,
                exemplar={"trace_id": "t", "value": (i % 463) * 1e-5, "ts": i},
                now=i * 0.01,
            )
        ledgers = telemetry.route_ledger()
        ledger = ledgers["/figures/<name>"]
        assert ledger["count"] == 10_000
        assert ledger["errors"] == len(range(0, 10_000, 7))
        assert "samples" not in ledger
        bucket_cap = len(DEFAULT_BOUNDS) + 1
        for length in _reachable_list_lengths(ledgers):
            assert length <= bucket_cap, (
                "route-ledger state grew beyond O(buckets) — "
                "the unbounded-samples leak is back"
            )

    def test_live_telemetry_state_stays_bounded_after_10k_requests(self):
        telemetry = LiveTelemetry(slots=12, slot_seconds=5.0)
        for i in range(10_000):
            telemetry.observe(
                "/query", (i % 211) * 1e-5, 200, tier="index", now=i * 0.01
            )
        payload = telemetry.window_payload(now=100.0)
        bucket_cap = len(DEFAULT_BOUNDS) + 1
        for length in _reachable_list_lengths(payload):
            assert length <= bucket_cap
        assert len(telemetry.routes) == 1
        assert len(telemetry.routes["/query"].window._ring) == 12

    def test_perf_histograms_merge_from_worker_snapshots(self):
        workers = []
        for base in (0.001, 0.01):
            worker = PerfCounters()
            for i in range(5):
                worker.observe_duration("simulate_month_seconds", base + i * base)
            workers.append(worker.snapshot())
        parent = PerfCounters()
        for snap in workers:
            parent.merge_worker(snap, wall=1.0)
        merged = parent.duration_histograms["simulate_month_seconds"]
        assert merged.count == 10
        single = Histogram()
        for base in (0.001, 0.01):
            for i in range(5):
                single.observe(base + i * base)
        assert merged.counts == single.counts


# ---- Prometheus exposition ---------------------------------------------------


class TestPrometheusText:
    def _families(self):
        requests = MetricFamily("repro_requests_total", "counter", "Requests.")
        requests.add(42, {"route": "/a"})
        requests.add(7, {"route": 'we"ird\\path\n'})
        gauge = MetricFamily("repro_in_flight", "gauge", "In flight.")
        gauge.add(3)
        hist = Histogram()
        for value in (0.0001, 0.003, 0.003, 0.2, 80.0):
            hist.observe(value)
        latency = MetricFamily(
            "repro_latency_seconds", "histogram", "Latency."
        )
        latency.add_histogram(hist.snapshot(), {"route": "/a"})
        return [requests, gauge, latency], hist

    def test_render_parse_round_trip(self):
        families, hist = self._families()
        text = render_prometheus(families)
        parsed = parse_prometheus(text)
        assert sample_value(parsed, "repro_requests_total", {"route": "/a"}) == 42
        assert sample_value(
            parsed, "repro_requests_total", {"route": 'we"ird\\path\n'}
        ) == 7
        assert sample_value(parsed, "repro_in_flight") == 3
        assert parsed["repro_latency_seconds"]["type"] == "histogram"
        assert sample_value(
            parsed,
            "repro_latency_seconds",
            {"route": "/a", "__suffix__": "_count"},
        ) == hist.count
        assert sample_value(
            parsed,
            "repro_latency_seconds",
            {"route": "/a", "le": "+Inf"},
        ) == hist.count

    def test_rendered_text_passes_the_ci_validator(self):
        checker = _load_script("check_prometheus_text.py")
        families, _hist = self._families()
        assert checker.check_text(render_prometheus(families)) is None

    def test_parser_rejects_malformed_lines(self):
        for bad in (
            "repro_thing not-a-number\n",
            'repro_thing{route="x} 1\n',
            "repro_thing{ 1\n",
            "# TYPE repro_thing flumph\n",
        ):
            with pytest.raises(PrometheusParseError):
                parse_prometheus(bad)

    def test_validator_catches_histogram_violations(self):
        checker = _load_script("check_prometheus_text.py")
        ok_prefix = (
            "# HELP h x\n"
            "# TYPE h histogram\n"
        )
        # +Inf bucket disagreeing with _count.
        bad = ok_prefix + (
            'h_bucket{le="0.1"} 1\n'
            'h_bucket{le="+Inf"} 2\n'
            "h_sum 0.1\n"
            "h_count 3\n"
        )
        assert "!= _count" in checker.check_text(bad)
        # Decreasing cumulative buckets.
        bad = ok_prefix + (
            'h_bucket{le="0.1"} 5\n'
            'h_bucket{le="0.2"} 3\n'
            'h_bucket{le="+Inf"} 5\n'
            "h_sum 0.1\n"
            "h_count 5\n"
        )
        assert "decrease" in checker.check_text(bad)
        # Missing +Inf.
        bad = ok_prefix + (
            'h_bucket{le="0.1"} 5\n'
            "h_sum 0.1\n"
            "h_count 5\n"
        )
        assert "+Inf" in checker.check_text(bad)

    def test_validator_catches_duplicates_and_ordering(self):
        checker = _load_script("check_prometheus_text.py")
        dup = (
            "# TYPE a counter\n"
            "a 1\n"
            "a 2\n"
        )
        assert "duplicate series" in checker.check_text(dup)
        late_type = (
            "a 1\n"
            "# TYPE a counter\n"
        )
        assert "after" in checker.check_text(late_type)
        assert checker.check_text("") == "exposition contains no samples"


# ---- histogram_snapshot sink-event validation --------------------------------


class TestHistogramSnapshotEvent:
    def _event(self, **overrides) -> dict:
        hist = Histogram()
        for value in (0.0001, 0.003, 0.003, 0.2):
            hist.observe(
                value, exemplar={"trace_id": "t1", "value": value, "ts": 1.0}
            )
        snap = hist.snapshot()
        cumulative, total = [], 0
        for n in snap["counts"]:
            total += n
            cumulative.append(total)
        event = {
            "ts": 1.0,
            "event": "histogram_snapshot",
            "trace_id": "t1",
            "pid": 123,
            "name": "http_request_duration_seconds",
            "route": "/a",
            "bounds": snap["bounds"],
            "buckets": cumulative,
            "count": snap["count"],
            "sum": snap["sum"],
            "exemplars": snap["exemplars"],
        }
        event.update(overrides)
        return event

    def test_valid_event_passes(self):
        checker = _load_script("check_metrics_jsonl.py")
        assert checker.check_record(self._event(), {}) is None

    def test_violations_are_caught(self):
        checker = _load_script("check_metrics_jsonl.py")
        base = self._event()
        # count disagreeing with the +Inf cumulative bucket.
        assert "count" in checker.check_record(
            self._event(count=base["count"] + 1), {}
        )
        # Decreasing cumulative buckets.
        buckets = list(base["buckets"])
        buckets[5] = buckets[4] - 1 if buckets[4] else 0
        bad = checker.check_record(self._event(buckets=buckets), {})
        assert bad is not None
        # Non-increasing bounds.
        bounds = list(base["bounds"])
        bounds[1] = bounds[0]
        assert "increasing" in checker.check_record(
            self._event(bounds=bounds), {}
        )
        # Exemplar outside its bucket.
        exemplars = [dict(e) if e else None for e in base["exemplars"]]
        slot = bucket_index(0.2)
        exemplars[slot]["value"] = 50.0
        assert "bucket range" in checker.check_record(
            self._event(exemplars=exemplars), {}
        )
        # Exemplar without a trace_id.
        exemplars = [dict(e) if e else None for e in base["exemplars"]]
        del exemplars[slot]["trace_id"]
        assert "trace_id" in checker.check_record(
            self._event(exemplars=exemplars), {}
        )
        # sum > 0 on an empty histogram.
        empty = Histogram().snapshot()
        assert "sum" in checker.check_record(
            self._event(
                bounds=empty["bounds"],
                buckets=[0] * (len(empty["bounds"]) + 1),
                count=0,
                sum=1.0,
                exemplars=empty["exemplars"],
            ),
            {},
        )
