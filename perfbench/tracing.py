"""In-memory layer tracer and the wrappers that attribute time to layers.

Everything here lives outside the program: :func:`install` replaces
public functions of the ``repro`` modules with thin wrappers that open
a span named after the layer the function belongs to, then calls the
original.  Nothing under ``src/`` knows it is being traced.

Self time is computed as spans close: a span's duration minus the part
of it its child spans (same thread, strictly nested) cover.  A span
opened with no parent on its thread is a *root*; the traced wall of a
process is the sum of its root durations, so the self times of all
layers sum to it exactly.  Roots that only frame other work (a CLI
process, a worker chunk, a loader thread) carry the ``unattributed``
layer, which is therefore the traced time no layer claimed.

Spans stay in memory and are written out by :meth:`Tracer.dump`.
Per-record and per-month calls (the record generator, store aggregate
queries) are timed but not kept as span records, so the
trace of a 373k-record build stays small.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict

#: Span records kept per process; beyond this only aggregates grow.
MAX_SPANS = 200_000

UNATTRIBUTED = "unattributed"


class Tracer:
    """Per-process span stacks (one per thread) and self-time totals."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_s: dict[str, float] = defaultdict(float)
        self.totals: dict[str, float] = defaultdict(float)
        self.root_s = 0.0
        self.spans: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, layer: str) -> list:
        frame = [layer, time.perf_counter(), 0.0]
        self._stack().append(frame)
        return frame

    def end(self, frame: list, keep: bool = True) -> None:
        stop = time.perf_counter()
        stack = self._stack()
        stack.pop()
        layer, start, covered = frame
        duration = stop - start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += duration
        with self._lock:
            self.self_s[layer] += duration - covered
            if parent is None:
                self.root_s += duration
            if keep and len(self.spans) < MAX_SPANS:
                self.spans.append((
                    layer, threading.get_ident(), start, duration,
                    parent[0] if parent is not None else None,
                ))

    def add_child(self, layer: str, seconds: float) -> None:
        """Fold time measured without a span (a timed iterator) into the
        current span as a child of layer ``layer``."""
        stack = self._stack()
        if stack:
            stack[-1][2] += seconds
        with self._lock:
            self.self_s[layer] += seconds
            if not stack:
                self.root_s += seconds

    def add_total(self, name: str, value: float) -> None:
        with self._lock:
            self.totals[name] += value

    def span(self, layer: str, fn, keep: bool = True, inherit: tuple = ()):
        """``fn`` wrapped so that each call is one span of ``layer``, or
        of the enclosing span's layer when that is one of ``inherit``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            own = stack[-1][0] if stack and stack[-1][0] in inherit else layer
            frame = self.begin(own)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(frame, keep)

        return traced

    def dump(self, path: str, extra: dict | None = None) -> None:
        """Append this process's aggregates and spans as one JSON line,
        then clear them (so successive dumps are deltas)."""
        with self._lock:
            doc = {
                "pid": os.getpid(),
                "self_s": dict(self.self_s),
                "totals": dict(self.totals),
                "root_s": self.root_s,
                "spans": self.spans,
                **(extra or {}),
            }
            self.self_s.clear()
            self.totals.clear()
            self.root_s = 0.0
            self.spans = []
        with open(path, "a", encoding="utf-8") as out:
            out.write(json.dumps(doc) + "\n")


TRACER = Tracer()


class _TimedIter:
    """An iterator that times only the time spent producing items."""

    __slots__ = ("_it", "seconds")

    def __init__(self, iterable) -> None:
        self._it = iter(iterable)
        self.seconds = 0.0

    def __iter__(self):
        return self

    def __next__(self):
        started = time.perf_counter()
        try:
            return next(self._it)
        finally:
            self.seconds += time.perf_counter() - started


def _figure_layer(name: str) -> str:
    return f"figures.{name}" if name in ("fig4", "fig5") else "figures.other"


def install(trace_dir: str) -> None:
    """Wrap the layer boundaries of the batch engine and the server."""
    import json as _json
    import types

    from repro.core import figures
    from repro.engine import cache, partition, runner
    from repro.notary import generator, store
    from repro.serve import server, wire

    t = TRACER

    # ---- build: generate -> pack -> chunk -> adopt -> spill/index -> save
    original_stream = generator.TrafficGenerator.stream_expectation_month

    @functools.wraps(original_stream)
    def stream_expectation_month(self, month):
        return _TimedIter(original_stream(self, month))

    generator.TrafficGenerator.stream_expectation_month = stream_expectation_month

    original_extend = partition.StreamPacker.extend

    @functools.wraps(original_extend)
    def extend(self, records):
        frame = t.begin("partition.pack")
        try:
            return original_extend(self, records)
        finally:
            if isinstance(records, _TimedIter):
                t.add_child("generator.busy", records.seconds)
            t.end(frame)

    partition.StreamPacker.extend = extend
    partition.StreamPacker.finish = t.span(
        "partition.pack", partition.StreamPacker.finish
    )

    original_chunk = runner._run_chunk

    @functools.wraps(original_chunk)
    def run_chunk(job):
        # A forked worker inherits the parent's open spans: start clean.
        if t.pid != os.getpid():
            t.reset()
        frame = t.begin(UNATTRIBUTED)
        try:
            return original_chunk(job)
        finally:
            t.end(frame)
            t.dump(os.path.join(trace_dir, f"worker-{os.getpid()}.jsonl"))

    runner._run_chunk = run_chunk
    runner.run_expectation = t.span("runner.run", runner.run_expectation)
    runner._adopt = t.span("runner.adopt", runner._adopt)
    runner.validate_payload = t.span("runner.adopt", runner.validate_payload)
    store.build_index_payloads = t.span(
        "store.index_build", store.build_index_payloads
    )
    cache.BlobSpill.add_payload = t.span("cache.spill", cache.BlobSpill.add_payload)
    cache.BlobSpill.finish_payload = t.span(
        "cache.spill", cache.BlobSpill.finish_payload
    )
    store.NotaryStore.attach_packed = t.span(
        "cache.spill", store.NotaryStore.attach_packed, inherit=("cache.load",)
    )
    cache.save_store = t.span("cache.save", cache.save_store)
    cache.load_store = t.span("cache.load", cache.load_store)

    # ---- serve: http -> wait -> figures/query -> store -> encode -> observe
    original_handle = server.ReproRequestHandler._handle

    @functools.wraps(original_handle)
    def handle(self, method):
        frame = t.begin("server.http")
        try:
            return original_handle(self, method)
        finally:
            t.end(frame)

    server.ReproRequestHandler._handle = handle
    server.ReproServer.run_query = t.span("server.wait", server.ReproServer.run_query)

    original_observe = server.ReproServer.observe_request

    @functools.wraps(original_observe)
    def observe_request(self, method, route, status, duration, *args, **kwargs):
        if route in ("/figures/<name>", "/query"):
            t.add_total("server.request_s", duration)
            t.add_total("server.requests", 1)
        frame = t.begin("obs.observe")
        try:
            return original_observe(
                self, method, route, status, duration, *args, **kwargs
            )
        finally:
            t.end(frame)

    server.ReproServer.observe_request = observe_request

    for name, fn in list(figures.FIGURE_GENERATORS.items()):
        figures.FIGURE_GENERATORS[name] = t.span(_figure_layer(name), fn)
    store.NotaryStore.shape_templates = t.span(
        "store.shape_templates", store.NotaryStore.shape_templates, keep=False
    )
    for method in ("fraction", "weight_where", "weighted_mean", "total_weight"):
        setattr(
            store.NotaryStore,
            method,
            t.span("store.query", getattr(store.NotaryStore, method), keep=False),
        )
    wire.execute_query = t.span("wire.decode", wire.execute_query)
    wire.encode_series = t.span("wire.encode", wire.encode_series)
    # The handler parses request bodies and serializes responses through
    # the ``json`` module it imported; give it a traced stand-in.
    server.json = types.SimpleNamespace(
        loads=t.span("wire.decode", _json.loads),
        dumps=t.span("wire.encode", _json.dumps),
        JSONDecodeError=_json.JSONDecodeError,
    )
