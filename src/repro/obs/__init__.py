"""``repro.obs`` — structured tracing, JSONL metrics, diagnostic logging.

The engine runs parallel, fault-injected, checkpointed simulations;
this package is how those runs stay auditable.  Three channels, all
observation-only (an instrumented run is byte-identical to a bare one):

* **Spans** (:mod:`repro.obs.trace`) — nested timing records
  (``with obs.span("simulate_month", month=...)``) collected per
  process and shipped back from workers next to their perf counters;
  every span carries the run's trace ID.
* **Metrics** (:mod:`repro.obs.metrics`) — one JSON line per engine
  event (run/chunk/retry/timeout/fault/cache) appended to
  ``REPRO_METRICS_PATH``; disabled when the variable is unset.
* **Diagnostics** (:mod:`repro.obs.diag`) — ``repro.*`` stdlib loggers
  replacing the old silent failure paths; the CLI wires a stderr
  handler via ``--verbose`` / ``REPRO_LOG_LEVEL``.

Two consumers sit on top of the channels:

* **Analysis** (:mod:`repro.obs.analyze`) — reconstructs the rooted
  span tree from a JSONL sink, computes the critical path, per-worker
  utilization, and fault attribution, and exports Chrome-trace JSON
  (``python -m repro trace``).
* **Profiling** (:mod:`repro.obs.profile`) — opt-in cProfile /
  tracemalloc hooks around engine phases (``--profile``), surfaced in
  ``stats --json`` and the bench
  trajectory.
* **Live telemetry** (:mod:`repro.obs.live`) — continuous telemetry
  for long-running processes: mergeable fixed-bucket log-scale latency
  histograms with per-bucket trace exemplars, sliding time-window
  aggregation, and Prometheus text exposition (``GET /metrics`` on the
  resident server, ``repro top`` on the client side).

This package imports nothing from the rest of :mod:`repro` (it sits at
the bottom of the import graph beside :mod:`repro.engine.perf`), so any
layer — faults, partition codec, cache, runner, simulation, CLI — can
instrument itself without creating a cycle.
"""

from __future__ import annotations

from repro.obs import live
from repro.obs import metrics as _metrics
from repro.obs import profile
from repro.obs.diag import configure_logging, get_logger, resolve_level
from repro.obs.metrics import emit as emit_event
from repro.obs.metrics import enabled as metrics_enabled
from repro.obs.metrics import metrics_path, rotate_existing
from repro.obs.profile import profiled
from repro.obs.trace import MAX_SPANS, TRACE, SpanCollector

__all__ = [
    "configure_logging",
    "get_logger",
    "resolve_level",
    "emit_event",
    "metrics_enabled",
    "metrics_path",
    "rotate_existing",
    "TRACE",
    "SpanCollector",
    "MAX_SPANS",
    "span",
    "reset_spans",
    "snapshot_spans",
    "merge_worker_spans",
    "trace_id",
    "new_trace",
    "adopt_trace",
    "begin_run",
    "end_run",
    "profile",
    "profiled",
    "live",
]


# ---- span facade (delegates to the process-global collector) ----------------


def span(name: str, **attrs):
    """Context manager: time a block on the process-global collector."""
    return TRACE.span(name, **attrs)


def reset_spans() -> None:
    TRACE.reset_spans()


def snapshot_spans() -> list[dict]:
    return TRACE.snapshot()


def merge_worker_spans(spans: list[dict], origin: str = "worker") -> None:
    TRACE.merge_worker(spans, origin=origin)


def trace_id() -> str:
    return TRACE.ensure_trace()


def new_trace() -> str:
    return TRACE.new_trace()


def adopt_trace(value: str) -> None:
    TRACE.adopt_trace(value)


# ---- run lifecycle ----------------------------------------------------------


def begin_run(name: str, **fields) -> str:
    """Open a run: fresh trace ID + a ``run_start`` metrics event.

    Returns the trace ID so callers can hand it to worker processes.
    """
    tid = TRACE.new_trace()
    _metrics.emit("run_start", run=name, **fields)
    return tid


def _emit_trace_spans(tid: str) -> None:
    """Persist the current trace's spans as ``span`` events.

    Called once per run, at the end, from the parent: by then the
    collector holds the parent's own spans *and* every snapshot merged
    back from successful workers, so the sink receives only complete
    subtrees (a crashed worker's half-finished spans never shipped).
    The span's own process is ``span_pid``; the envelope ``pid`` is the
    parent doing the emitting.
    """
    if not _metrics.enabled():
        return
    for span in TRACE.spans:
        if span.get("trace_id") != tid:
            continue  # a previous run's spans, already emitted
        _metrics.emit(
            "span",
            id=span["id"],
            parent_id=span["parent_id"],
            name=span["name"],
            start=span["ts"],
            duration=span["duration"],
            depth=span["depth"],
            span_pid=span["pid"],
            origin=span.get("origin", "parent"),
            attrs=span.get("attrs"),
        )
    if TRACE.dropped:
        _metrics.emit("spans_dropped", count=TRACE.dropped)


def end_run(name: str, **fields) -> None:
    """Close a run: persist its span tree, then a ``run_complete``."""
    _emit_trace_spans(TRACE.ensure_trace())
    _metrics.emit("run_complete", run=name, **fields)
