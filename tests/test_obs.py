"""Observability-layer tests: spans, JSONL metrics, diagnostic logging,
and the fleet-accounting fixes in :mod:`repro.engine.perf`.

The layer's contract is *zero behaviour drift*: tracing, metrics, and
logging may only observe, so every differential test here compares the
instrumented dataset to a bare serial run with ``==`` — and the JSONL
event stream must reconcile exactly with the merged perf counters.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import json
import logging
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro import obs
from repro.engine import cache as dataset_cache
from repro.engine import faults, perf, runner
from repro.engine.partition import validate_payload
from repro.engine.perf import PERF, PerfCounters
from repro.obs import diag, metrics

START = dt.date(2014, 6, 1)
END = dt.date(2014, 9, 1)

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _hermetic(tmp_path, monkeypatch):
    """Fresh span collector, no leaked fault plan or metrics sink."""
    monkeypatch.delenv("REPRO_METRICS_PATH", raising=False)
    monkeypatch.delenv("REPRO_LOG_LEVEL", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    obs.TRACE.reset()
    faults.clear()
    yield
    obs.TRACE.reset()
    faults.clear()


@pytest.fixture(scope="module")
def baseline(record_level_store):
    """The record-level oracle: no run engine, no metrics sink — the
    equivalence yardstick."""
    return record_level_store(START, END)


def read_events(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line]


# ---- spans ------------------------------------------------------------------


class TestSpans:
    def test_nesting_depth_and_completion_order(self):
        with obs.span("outer", kind="parent"):
            with obs.span("inner"):
                pass
            with obs.span("sibling"):
                pass
        names = [s["name"] for s in obs.snapshot_spans()]
        assert names == ["inner", "sibling", "outer"]  # completion order
        spans = {s["name"]: s for s in obs.snapshot_spans()}
        assert spans["outer"]["depth"] == 0 and spans["outer"]["parent"] is None
        assert spans["inner"]["depth"] == 1 and spans["inner"]["parent"] == "outer"
        assert spans["sibling"]["parent"] == "outer"
        assert spans["outer"]["duration"] >= spans["inner"]["duration"]

    def test_attrs_are_json_safe_scalars(self):
        with obs.span("work", month=dt.date(2015, 1, 1), n=3, flag=True):
            pass
        attrs = obs.snapshot_spans()[0]["attrs"]
        assert attrs == {"month": "2015-01-01", "n": 3, "flag": True}
        json.dumps(attrs)  # must not raise

    def test_span_records_even_when_body_raises(self):
        with pytest.raises(RuntimeError):
            with obs.span("doomed"):
                raise RuntimeError("boom")
        assert [s["name"] for s in obs.snapshot_spans()] == ["doomed"]

    def test_all_spans_share_the_trace_id(self):
        tid = obs.new_trace()
        with obs.span("a"):
            pass
        with obs.span("b"):
            pass
        assert {s["trace_id"] for s in obs.snapshot_spans()} == {tid}

    def test_reset_spans_keeps_trace_identity(self):
        tid = obs.new_trace()
        with obs.span("a"):
            pass
        obs.reset_spans()
        assert obs.snapshot_spans() == []
        assert obs.trace_id() == tid

    def test_begin_run_mints_a_fresh_trace_per_run(self):
        first = obs.begin_run("expectation")
        second = obs.begin_run("expectation")
        assert first != second

    def test_cap_degrades_to_drop_counter(self, monkeypatch):
        from repro.obs import trace

        monkeypatch.setattr(trace, "MAX_SPANS", 2)
        for _ in range(4):
            with obs.span("x"):
                pass
        assert len(obs.TRACE.spans) == 2
        assert obs.TRACE.dropped == 2

    def test_deterministic_ids_and_parent_ids(self):
        """Identity is structural, not name-based: ids count up in open
        order within the process, parent_id references the enclosing
        span's id, and every record carries the owning pid — the triple
        the trace analyzer needs to rebuild sibling spans with repeated
        names unambiguously."""
        with obs.span("outer"):
            with obs.span("inner"):
                pass
            with obs.span("sibling"):
                pass
        spans = {s["name"]: s for s in obs.snapshot_spans()}
        assert spans["outer"]["id"] == 0
        assert spans["inner"]["id"] == 1
        assert spans["sibling"]["id"] == 2
        assert spans["outer"]["parent_id"] is None
        assert spans["inner"]["parent_id"] == spans["outer"]["id"]
        assert spans["sibling"]["parent_id"] == spans["outer"]["id"]
        assert {s["pid"] for s in spans.values()} == {os.getpid()}
        # The name-based fields survive for backward compatibility.
        assert spans["inner"]["parent"] == "outer"
        assert spans["inner"]["depth"] == 1

    def test_reset_spans_keeps_ids_unique_across_chunks(self):
        """reset_spans drops records but not the id counter, so spans
        from successive chunks in one worker process never collide."""
        with obs.span("a"):
            pass
        first = obs.snapshot_spans()[0]["id"]
        obs.reset_spans()
        with obs.span("b"):
            pass
        assert obs.snapshot_spans()[0]["id"] > first

    def test_full_reset_restarts_the_id_counter(self):
        with obs.span("a"):
            pass
        obs.TRACE.reset()
        with obs.span("b"):
            pass
        assert obs.snapshot_spans()[0]["id"] == 0


# ---- perf-counter accounting (the bugfix sweep) -----------------------------


class TestMergeWorker:
    def test_every_field_is_classified(self):
        """Regression gate: a new PerfCounters field must be exactly one
        of a summable int counter (merged from workers by default), a
        PARENT_ONLY_FIELDS member, or a HISTOGRAM_FIELDS member (merged
        bucket-by-bucket) — anything else is a new silent accounting
        hole."""
        fresh = PerfCounters()
        for field in dataclasses.fields(PerfCounters):
            if field.name in perf.PARENT_ONLY_FIELDS:
                continue
            if field.name in perf.HISTOGRAM_FIELDS:
                assert getattr(fresh, field.name) == {}, (
                    f"PerfCounters.{field.name} is histogram-classified "
                    "but does not start as an empty name->Histogram dict"
                )
                continue
            value = getattr(fresh, field.name)
            assert isinstance(value, int) and not isinstance(value, bool), (
                f"PerfCounters.{field.name} is neither a summable int counter "
                f"nor listed in perf.PARENT_ONLY_FIELDS / "
                f"perf.HISTOGRAM_FIELDS — classify it"
            )
        assert perf.PARENT_ONLY_FIELDS <= set(PerfCounters.__dataclass_fields__)
        assert perf.HISTOGRAM_FIELDS <= set(PerfCounters.__dataclass_fields__)
        assert not perf.PARENT_ONLY_FIELDS & perf.HISTOGRAM_FIELDS

    def test_merge_folds_every_summable_field(self):
        worker = PerfCounters()
        expected = {}
        for i, field in enumerate(dataclasses.fields(PerfCounters)):
            if field.name in perf.PARENT_ONLY_FIELDS:
                continue
            if field.name in perf.HISTOGRAM_FIELDS:
                continue
            setattr(worker, field.name, i + 1)
            expected[field.name] = i + 1
        parent = PerfCounters()
        parent.merge_worker(worker.snapshot(), wall=0.25)
        for name, value in expected.items():
            assert getattr(parent, name) == value, name
        assert parent.worker_wall_times == [0.25]

    def test_previously_dropped_counters_now_merge(self):
        """The old six-name list dropped these outright."""
        worker = PerfCounters(
            cache_write_failures=2,
            cache_corrupt_deleted=3,
            dataset_cache_hits=4,
            dataset_cache_misses=5,
        )
        parent = PerfCounters()
        parent.merge_worker(worker.snapshot(), wall=0.1)
        assert parent.cache_write_failures == 2
        assert parent.cache_corrupt_deleted == 3
        assert parent.dataset_cache_hits == 4
        assert parent.dataset_cache_misses == 5

    def test_parent_only_fields_never_fold(self):
        worker = PerfCounters(run_seconds=99.0, load_seconds=42.0, workers=7)
        parent = PerfCounters()
        parent.merge_worker(worker.snapshot(), wall=0.1)
        assert parent.run_seconds == 0.0
        assert parent.load_seconds == 0.0
        assert parent.workers == 0

    def test_merge_tolerates_old_snapshots_missing_fields(self):
        parent = PerfCounters(records=5)
        parent.merge_worker({"records": 2}, wall=0.1)
        assert parent.records == 7
        assert parent.negotiations == 0


class TestRecordsPerSecond:
    def test_simulated_run_uses_run_seconds(self):
        counters = PerfCounters(records=100, run_seconds=4.0, load_seconds=1.0)
        assert counters.records_per_second() == pytest.approx(25.0)

    def test_warm_cache_run_reports_load_throughput(self):
        """Regression: a warm load (run_seconds == 0, nothing observed)
        used to hide throughput entirely."""
        counters = PerfCounters(
            records_loaded=100, run_seconds=0.0, load_seconds=0.5
        )
        assert counters.records_per_second() == pytest.approx(200.0)

    def test_observed_records_win_over_loaded(self):
        counters = PerfCounters(
            records=100, records_loaded=999, run_seconds=0.0, load_seconds=0.5
        )
        assert counters.records_per_second() == pytest.approx(200.0)

    def test_no_records_or_no_wall_is_none(self):
        assert PerfCounters().records_per_second() is None
        assert PerfCounters(records=10).records_per_second() is None
        assert PerfCounters(run_seconds=1.0).records_per_second() is None


# ---- JSONL metrics sink -----------------------------------------------------


class TestMetricsSink:
    def test_disabled_without_env(self, tmp_path):
        metrics.emit("nothing", detail=1)
        assert not metrics.enabled()
        assert list(tmp_path.glob("*.jsonl")) == []

    def test_event_envelope(self, tmp_path, monkeypatch):
        sink = tmp_path / "metrics.jsonl"
        monkeypatch.setenv("REPRO_METRICS_PATH", str(sink))
        tid = obs.new_trace()
        metrics.emit("unit_test", month=dt.date(2015, 1, 1), n=2)
        (event,) = read_events(sink)
        assert event["event"] == "unit_test"
        assert event["trace_id"] == tid
        assert isinstance(event["ts"], float)
        assert event["pid"] == os.getpid()
        assert event["month"] == "2015-01-01" and event["n"] == 2

    def test_rotation_moves_existing_file_aside(self, tmp_path, monkeypatch):
        sink = tmp_path / "metrics.jsonl"
        sink.write_text('{"event": "old"}\n')
        monkeypatch.setenv("REPRO_METRICS_PATH", str(sink))
        monkeypatch.setattr(metrics, "_ROTATED", False)
        rotated = metrics.rotate_existing()
        assert rotated == tmp_path / "metrics.jsonl.1"
        assert rotated.read_text() == '{"event": "old"}\n'
        assert not sink.exists()
        metrics.emit("fresh")
        assert [e["event"] for e in read_events(sink)] == ["fresh"]

    def test_rotation_picks_next_free_suffix(self, tmp_path, monkeypatch):
        sink = tmp_path / "metrics.jsonl"
        sink.write_text("current\n")
        (tmp_path / "metrics.jsonl.1").write_text("oldest\n")
        monkeypatch.setenv("REPRO_METRICS_PATH", str(sink))
        monkeypatch.setattr(metrics, "_ROTATED", False)
        rotated = metrics.rotate_existing()
        assert rotated == tmp_path / "metrics.jsonl.2"
        assert (tmp_path / "metrics.jsonl.1").read_text() == "oldest\n"

    def test_rotation_is_once_per_process(self, tmp_path, monkeypatch):
        sink = tmp_path / "metrics.jsonl"
        monkeypatch.setenv("REPRO_METRICS_PATH", str(sink))
        monkeypatch.setattr(metrics, "_ROTATED", False)
        metrics.emit("first")
        metrics.rotate_existing()
        # Second call (a chained in-process command) must not rotate the
        # file the first command just started.
        metrics.emit("second")
        assert metrics.rotate_existing() is None
        assert [e["event"] for e in read_events(sink)] == ["second"]
        assert (tmp_path / "metrics.jsonl.1").exists()

    def test_emit_failure_is_swallowed_and_logged(
        self, tmp_path, monkeypatch, caplog
    ):
        monkeypatch.setenv("REPRO_METRICS_PATH", str(tmp_path))  # a directory
        with caplog.at_level(logging.WARNING, logger="repro.obs.metrics"):
            metrics.emit("doomed")
        assert any("not written" in r.message for r in caplog.records)


# ---- span persistence (the analyzer's input contract) -----------------------


class TestSpanPersistence:
    def test_end_run_ships_the_trace_spans(self, tmp_path, monkeypatch):
        sink = tmp_path / "m.jsonl"
        monkeypatch.setenv("REPRO_METRICS_PATH", str(sink))
        obs.begin_run("unit")
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        obs.end_run("unit")
        events = read_events(sink)
        assert events[-1]["event"] == "run_complete"
        by_name = {e["name"]: e for e in events if e["event"] == "span"}
        assert set(by_name) == {"outer", "inner"}
        assert by_name["outer"]["parent_id"] is None
        assert by_name["inner"]["parent_id"] == by_name["outer"]["id"]
        assert by_name["inner"]["span_pid"] == os.getpid()
        assert by_name["inner"]["duration"] >= 0
        assert by_name["inner"]["start"] >= by_name["outer"]["start"]

    def test_prior_runs_spans_are_not_reemitted(self, tmp_path, monkeypatch):
        sink = tmp_path / "m.jsonl"
        monkeypatch.setenv("REPRO_METRICS_PATH", str(sink))
        obs.begin_run("first")
        with obs.span("first_work"):
            pass
        obs.end_run("first")
        obs.begin_run("second")
        with obs.span("second_work"):
            pass
        obs.end_run("second")
        events = read_events(sink)
        names = [e["name"] for e in events if e["event"] == "span"]
        assert names.count("first_work") == 1
        assert names.count("second_work") == 1

    def test_span_drop_overflow_is_reported(self, tmp_path, monkeypatch):
        from repro.obs import trace

        sink = tmp_path / "m.jsonl"
        monkeypatch.setenv("REPRO_METRICS_PATH", str(sink))
        monkeypatch.setattr(trace, "MAX_SPANS", 1)
        obs.begin_run("unit")
        for _ in range(3):
            with obs.span("x"):
                pass
        obs.end_run("unit")
        (dropped,) = [
            e for e in read_events(sink) if e["event"] == "spans_dropped"
        ]
        assert dropped["count"] == 2


# ---- diagnostic logging -----------------------------------------------------


class TestDiagnostics:
    def test_get_logger_prefixes_the_hierarchy(self):
        assert diag.get_logger("engine.runner").name == "repro.engine.runner"
        assert diag.get_logger("repro.engine.cache").name == "repro.engine.cache"

    def test_level_precedence(self, monkeypatch):
        assert diag.resolve_level() == logging.WARNING
        monkeypatch.setenv("REPRO_LOG_LEVEL", "DEBUG")
        assert diag.resolve_level() == logging.DEBUG
        assert diag.resolve_level("ERROR") == logging.ERROR
        assert diag.resolve_level(15) == 15
        monkeypatch.setenv("REPRO_LOG_LEVEL", "not-a-level")
        assert diag.resolve_level() == logging.WARNING

    def test_configure_is_idempotent(self):
        logger = diag.configure_logging("INFO")
        before = [h for h in logger.handlers if getattr(h, "_repro_diag", False)]
        diag.configure_logging("DEBUG")
        after = [h for h in logger.handlers if getattr(h, "_repro_diag", False)]
        assert len(before) == len(after) == 1
        assert logger.level == logging.DEBUG


# ---- swallow sites are now attributable -------------------------------------


class TestSwallowSites:
    def test_validate_payload_logs_and_counts(self, caplog):
        PERF.reset()
        with caplog.at_level(logging.WARNING, logger="repro.engine.partition"):
            assert validate_payload("not a payload", [START]) is False
        assert PERF.validation_errors == 1
        assert any("rejected" in r.message for r in caplog.records)

    def test_corrupt_blob_read_logs_and_counts(self, tmp_path, caplog):
        path = dataset_cache.store_path("0" * 64)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"garbage that fails the footer")
        PERF.reset()
        with caplog.at_level(logging.WARNING, logger="repro.engine.cache"):
            assert dataset_cache.load_store("0" * 64) is None
        assert PERF.cache_read_errors == 1
        assert PERF.cache_corrupt_deleted == 1
        assert any("rejected" in r.message for r in caplog.records)

    def test_worker_failures_log_and_count(
        self, client_population, server_population, baseline, caplog
    ):
        PERF.reset()
        with caplog.at_level(logging.WARNING, logger="repro.engine.runner"):
            store = runner.run_expectation(
                client_population, server_population, START, END,
                workers=2, faults_spec="worker_crash:0.7,seed:1",
            )
        assert PERF.worker_errors > 0
        assert PERF.worker_errors <= PERF.chunk_retries
        assert any("failed in worker" in r.message for r in caplog.records)
        assert store.records() == baseline.records()


# ---- stats --json -----------------------------------------------------------


class TestStatsJson:
    @pytest.fixture
    def small_model(self, monkeypatch):
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

    def test_schema_and_counter_completeness(self, capsys, small_model):
        from repro.cli import STATS_SCHEMA, main

        assert main(["stats", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == STATS_SCHEMA
        assert set(document) == {
            "schema", "dataset", "counters", "derived", "trace", "profile",
            "histograms", "window",
        }
        assert document["profile"] is None  # no --profile flag given
        assert set(document["dataset"]) == {
            "start", "end", "months", "records", "wall_seconds",
        }
        # Every perf counter — including the ones merge_worker used to
        # drop — is present, keyed exactly like the dataclass.
        assert set(document["counters"]) == set(PerfCounters.__dataclass_fields__)
        assert document["dataset"]["months"] == 2
        assert document["dataset"]["records"] == document["counters"]["records"] > 0
        assert document["derived"]["records_per_second"] > 0
        assert document["trace"]["trace_id"]
        span_names = {s["name"] for s in document["trace"]["spans"]}
        assert "run_expectation" in span_names
        assert "passive_store" in span_names

    def test_text_stats_unchanged(self, capsys, small_model):
        from repro.cli import main

        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "ENGINE PERF COUNTERS" in out
        assert "records/s" in out


# ---- the acceptance scenario ------------------------------------------------


class TestFaultedRunReconciles:
    def test_events_reconcile_and_dataset_is_byte_identical(
        self, client_population, server_population, baseline, tmp_path, monkeypatch
    ):
        """A parallel faulted run with the sink enabled must (a) leave a
        JSONL trail whose retry/timeout/fallback events match the merged
        counters exactly, and (b) produce a store byte-identical to the
        bare serial baseline — tracing observes, never perturbs."""
        sink = tmp_path / "metrics.jsonl"
        monkeypatch.setenv("REPRO_METRICS_PATH", str(sink))
        PERF.reset()
        store = runner.run_expectation(
            client_population, server_population, START, END,
            workers=4, chunk_months=1, faults_spec="worker_crash:0.2,seed:11",
        )

        events = read_events(sink)
        counts = Counter(e["event"] for e in events)
        assert counts["run_start"] == 1
        assert counts["run_complete"] == 1
        assert counts["chunk_retry"] == PERF.chunk_retries
        assert counts["chunk_timeout"] == PERF.chunk_timeouts
        assert counts["inline_fallback"] == PERF.inline_fallbacks
        assert counts["chunk_failed"] == PERF.worker_errors
        # Fault events are emitted *before* the injected crash kills the
        # worker, so the trail can only ever exceed the merged counter.
        assert counts["fault"] >= PERF.faults_injected
        assert counts["fault"] > 0  # the schedule did fire

        (complete,) = [e for e in events if e["event"] == "run_complete"]
        assert complete["records"] == len(store)
        assert complete["chunk_retries"] == PERF.chunk_retries
        assert complete["worker_errors"] == PERF.worker_errors

        # One trace ID across parent and worker events alike.
        assert len({e["trace_id"] for e in events}) == 1

        # Every merged chunk left an attribution row (the worker join
        # table) and a matching chunk_done event in the trail.
        assert counts["chunk_done"] == len(PERF.chunk_attribution)
        for row in PERF.chunk_attribution:
            assert set(row) >= {"chunk", "attempt", "months", "pid", "worker"}

        # The parent persisted the span tree: every span event belongs
        # to this run's trace, and the run root span is among them.
        span_events = [e for e in events if e["event"] == "span"]
        assert any(e["name"] == "run_expectation" for e in span_events)
        assert all("id" in e and "span_pid" in e for e in span_events)

        # Zero drift: byte-identical to the untraced serial baseline.
        assert store.months() == baseline.months()
        assert store.records() == baseline.records()

    def test_worker_spans_round_trip_through_the_pool(
        self, client_population, server_population
    ):
        obs.TRACE.reset()
        runner.run_expectation(
            client_population, server_population, START, END, workers=2
        )
        spans = obs.snapshot_spans()
        worker_spans = [s for s in spans if s.get("origin") == "worker"]
        assert worker_spans, "no spans shipped back from the fork pool"
        simulated = {
            s["attrs"]["month"]
            for s in worker_spans
            if s["name"] == "simulate_month"
        }
        assert simulated == {"2014-06-01", "2014-07-01", "2014-08-01", "2014-09-01"}
        # Workers adopted the parent's trace: one ID across the fleet.
        assert len({s["trace_id"] for s in spans}) == 1
        parents = {s["name"]: s.get("parent") for s in worker_spans}
        assert parents["simulate_month"] == "run_chunk"


# ---- lint gate --------------------------------------------------------------


class TestSwallowLint:
    SCRIPT = REPO_ROOT / "scripts" / "lint_swallowed_exceptions.py"

    def run_lint(self, *paths: Path):
        return subprocess.run(
            [sys.executable, str(self.SCRIPT), *map(str, paths)],
            capture_output=True, text=True,
        )

    def test_repo_source_is_clean(self):
        result = self.run_lint(REPO_ROOT / "src" / "repro")
        assert result.returncode == 0, result.stdout + result.stderr

    def test_silent_swallow_is_flagged(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "try:\n    work()\nexcept Exception:\n    pass\n"
        )
        result = self.run_lint(bad)
        assert result.returncode == 1
        assert "bad.py:3" in result.stdout

    def test_logged_handler_passes(self, tmp_path):
        good = tmp_path / "good.py"
        good.write_text(
            "try:\n    work()\nexcept Exception as exc:\n"
            "    log.warning('failed: %s', exc)\n"
        )
        assert self.run_lint(good).returncode == 0

    def test_allow_marker_suppresses(self, tmp_path):
        marked = tmp_path / "marked.py"
        marked.write_text(
            "try:\n    work()\n"
            "except Exception:  # lint: allow-swallow\n    pass\n"
        )
        assert self.run_lint(marked).returncode == 0

    def test_bare_except_is_flagged(self, tmp_path):
        bad = tmp_path / "bare.py"
        bad.write_text("try:\n    work()\nexcept:\n    x = 1\n")
        result = self.run_lint(bad)
        assert result.returncode == 1
        assert "bare except" in result.stdout
