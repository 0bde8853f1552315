"""Continuous telemetry for long-running processes (``repro.obs.live``).

PRs 3–4 built *batch* observability: spans and JSONL events that become
useful after a run ends.  The resident server (PR 7) runs indefinitely,
so this module adds the live half — telemetry you can watch and alert
on while the process is up, at a cost small enough to leave on always:

* :class:`Histogram` — fixed-bucket log-scale latency histograms.  The
  bucket boundaries are process-wide constants, which is what makes two
  histograms **mergeable** (fold counts slot by slot) and snapshots
  comparable across processes, scrapes, and runs.  Nearest-rank
  percentiles read from the buckets are bounded within one bucket width
  of the exact sample percentile (property-tested).
* **Trace exemplars** — each bucket retains the most recent exemplar
  (trace id, span id, route, value, timestamp) that landed in it, so a
  tail-latency spike on a dashboard links straight to its span in the
  JSONL sink instead of being an anonymous count.
* :class:`WindowedHistogram` — sliding time-window aggregation: a ring
  of N slots × W seconds, each slot a histogram plus request/error
  counts.  Reading the window merges only the unexpired slots, so rates
  and percentiles reflect the last ~N·W seconds, not process lifetime.
* :class:`LiveTelemetry` — the serve-facing request ledger, the only
  one: per route an error count, a lifetime histogram and a window,
  plus tier totals.  It renders the ``server.routes`` and ``window``
  sections of ``/stats`` and every request family of ``/metrics``.
* :func:`render_prometheus` / :func:`parse_prometheus` — hand-rolled
  Prometheus text exposition (version 0.0.4) and the matching parser
  used by ``repro top`` and the CI validator
  (``scripts/check_prometheus_text.py``).

Like the rest of :mod:`repro.obs`, this module imports **nothing** from
the rest of :mod:`repro` — :mod:`repro.engine.perf` itself imports the
histogram primitive for its duration counters, so this file has to sit
at the very bottom of the import graph beside it.
Thread-safety: every mutating or reading method on a histogram/window
takes that object's lock; callers never need their own.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left

#: Log-scale bucket upper bounds (seconds): 100 µs doubling up to ~52 s.
#: 20 finite bounds + one overflow slot = 21 counters per histogram —
#: the whole point is that this is O(buckets) state no matter how many
#: observations land (the fix for the unbounded per-route sample list).
#: Fixed process-wide so any two histograms (across threads, processes,
#: scrapes) merge slot-by-slot without rebinning.
DEFAULT_BOUNDS: tuple[float, ...] = tuple(1e-4 * 2**i for i in range(20))

#: Sliding window defaults: 12 slots × 5 s = the last minute.
DEFAULT_WINDOW_SLOTS = 12
DEFAULT_SLOT_SECONDS = 5.0

#: The quantiles every window payload and ``/metrics`` exposition carry.
WINDOW_QUANTILES = (0.5, 0.95, 0.99)

#: Content type of the ``/metrics`` exposition.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def bucket_index(value: float, bounds: tuple[float, ...] = DEFAULT_BOUNDS) -> int:
    """The slot a value lands in: first bound with ``value <= bound``
    (Prometheus ``le`` semantics); ``len(bounds)`` is the overflow slot."""
    return bisect_left(bounds, value)


def bucket_width(
    value: float, bounds: tuple[float, ...] = DEFAULT_BOUNDS
) -> float:
    """Width of the bucket containing ``value`` (the agreement unit the
    acceptance criterion is phrased in).  The overflow bucket has no
    finite width; callers comparing against it get the last finite one."""
    i = min(bucket_index(value, bounds), len(bounds) - 1)
    lower = bounds[i - 1] if i > 0 else 0.0
    return bounds[i] - lower


class Histogram:
    """A fixed-bucket log-scale histogram with per-bucket exemplars.

    State is O(buckets) forever: ``counts`` (one int per slot), scalar
    ``count``/``sum``/``max``/``min``, and at most one exemplar dict per
    bucket (the most recent observation that landed there, replacing the
    previous one).  ``merge`` requires identical bounds — guaranteed by
    everything in-repo using :data:`DEFAULT_BOUNDS` — and is exactly
    equivalent to having observed both streams into one histogram
    (property-tested in ``tests/test_live.py``).
    """

    __slots__ = (
        "bounds", "counts", "count", "sum", "max", "min", "exemplars",
        "_lock",
    )

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BOUNDS) -> None:
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.max = 0.0
        self.min: float | None = None
        self.exemplars: list[dict | None] = [None] * (len(self.bounds) + 1)
        self._lock = threading.Lock()

    # ---- recording ----------------------------------------------------------

    def observe(self, value: float, exemplar: dict | None = None) -> None:
        """Fold one observation in; optionally pin it as the bucket's
        exemplar (most-recent-wins)."""
        i = bisect_left(self.bounds, value)
        with self._lock:
            self.counts[i] += 1
            self.count += 1
            self.sum += value
            if value > self.max:
                self.max = value
            if self.min is None or value < self.min:
                self.min = value
            if exemplar is not None:
                self.exemplars[i] = exemplar

    def merge(self, other: "Histogram") -> None:
        self.merge_snapshot(other.snapshot())

    def merge_snapshot(self, snap: dict) -> None:
        """Fold a :meth:`snapshot` dict in (the worker → parent path)."""
        if tuple(snap["bounds"]) != self.bounds:
            raise ValueError(
                "histogram bounds differ; fixed process-wide bounds are "
                "what makes snapshots mergeable"
            )
        with self._lock:
            for i, n in enumerate(snap["counts"]):
                self.counts[i] += n
            self.count += snap["count"]
            self.sum += snap["sum"]
            if snap["max"] > self.max:
                self.max = snap["max"]
            if snap["min"] is not None and (
                self.min is None or snap["min"] < self.min
            ):
                self.min = snap["min"]
            for i, exemplar in enumerate(snap.get("exemplars") or []):
                if exemplar is None:
                    continue
                mine = self.exemplars[i]
                if mine is None or exemplar.get("ts", 0) >= mine.get("ts", 0):
                    self.exemplars[i] = dict(exemplar)

    # ---- reading ------------------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-safe, picklable copy (what workers ship and sinks get)."""
        with self._lock:
            return {
                "bounds": list(self.bounds),
                "counts": list(self.counts),
                "count": self.count,
                "sum": self.sum,
                "max": self.max,
                "min": self.min,
                "exemplars": [
                    dict(e) if e is not None else None for e in self.exemplars
                ],
            }

    def cumulative(self) -> list[int]:
        """Prometheus-style cumulative bucket counts (``+Inf`` last)."""
        with self._lock:
            total, out = 0, []
            for n in self.counts:
                total += n
                out.append(total)
            return out

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile from the buckets (q in 0..100).

        Returns the *upper bound* of the bucket holding the nearest-rank
        sample, clamped to the observed max — still >= the exact value
        and within one bucket width of it by construction (the clamp
        only tightens the bound, and keeps ``p99 <= max`` in every
        rendering; the overflow bucket reports the observed max, which
        is exact).  0.0 on an empty histogram.
        """
        with self._lock:
            if self.count == 0:
                return 0.0
            rank = max(1, -(-self.count * q // 100))  # ceil without floats
            cumulative = 0
            for i, n in enumerate(self.counts):
                cumulative += n
                if cumulative >= rank:
                    if i >= len(self.bounds):
                        return self.max
                    return min(self.bounds[i], self.max)
            return self.max


def percentile_from_snapshot(snap: dict, q: float) -> float:
    """:meth:`Histogram.percentile` over a snapshot dict."""
    if snap["count"] == 0:
        return 0.0
    rank = max(1, -(-snap["count"] * q // 100))
    cumulative = 0
    for i, n in enumerate(snap["counts"]):
        cumulative += n
        if cumulative >= rank:
            if i >= len(snap["bounds"]):
                return snap["max"]
            return min(snap["bounds"][i], snap["max"])
    return snap["max"]


class WindowedHistogram:
    """A ring of N slots × W seconds over :class:`Histogram`.

    ``observe`` lands in the slot for the current epoch (``now // W``),
    lazily resetting a slot whose epoch has rotated out.  ``window()``
    merges only slots whose epoch is within the last N, so the snapshot
    reflects the trailing ~N·W seconds.  State stays O(slots × buckets)
    no matter the request rate — this is the bounded replacement for
    the grow-forever per-route sample ledger.
    """

    def __init__(
        self,
        slots: int = DEFAULT_WINDOW_SLOTS,
        slot_seconds: float = DEFAULT_SLOT_SECONDS,
        bounds: tuple[float, ...] = DEFAULT_BOUNDS,
    ) -> None:
        if slots < 1 or slot_seconds <= 0:
            raise ValueError("window needs >= 1 slot of positive width")
        self.slots = slots
        self.slot_seconds = float(slot_seconds)
        self.bounds = tuple(bounds)
        self._lock = threading.Lock()
        #: slot index -> (epoch, Histogram, errors)
        self._ring: list[list] = [
            [None, Histogram(self.bounds), 0] for _ in range(slots)
        ]

    @property
    def window_seconds(self) -> float:
        return self.slots * self.slot_seconds

    def _slot(self, now: float) -> list:
        """The (reset-if-stale) ring slot for ``now``; caller holds lock."""
        epoch = int(now // self.slot_seconds)
        slot = self._ring[epoch % self.slots]
        if slot[0] != epoch:
            slot[0] = epoch
            slot[1] = Histogram(self.bounds)
            slot[2] = 0
        return slot

    def observe(
        self,
        value: float,
        error: bool = False,
        exemplar: dict | None = None,
        now: float | None = None,
    ) -> None:
        now = time.monotonic() if now is None else now
        with self._lock:
            slot = self._slot(now)
        slot[1].observe(value, exemplar=exemplar)
        if error:
            with self._lock:
                slot[2] += 1

    def window(self, now: float | None = None) -> dict:
        """Merge the live slots into one summary of the trailing window.

        Returns ``{seconds, count, errors, rps, error_rate, histogram,
        p50, p95, p99}`` where ``seconds`` is the full ring span (the
        denominator for the rate) and the percentiles are bucket-bound
        nearest-rank reads over the merged histogram.
        """
        now = time.monotonic() if now is None else now
        epoch = int(now // self.slot_seconds)
        merged = Histogram(self.bounds)
        errors = 0
        with self._lock:
            live = [
                (slot_epoch, hist, errs)
                for slot_epoch, hist, errs in self._ring
                if slot_epoch is not None and epoch - slot_epoch < self.slots
            ]
        for _slot_epoch, hist, errs in live:
            merged.merge(hist)
            errors += errs
        return _window_summary(merged, errors, self.window_seconds)


def _window_summary(merged: Histogram, errors: int, seconds: float) -> dict:
    """The :meth:`WindowedHistogram.window` dict for a merged window."""
    count = merged.count
    return {
        "seconds": seconds,
        "count": count,
        "errors": errors,
        "rps": count / seconds if seconds > 0 else 0.0,
        "error_rate": errors / count if count else 0.0,
        "histogram": merged.snapshot(),
        "p50": merged.percentile(50),
        "p95": merged.percentile(95),
        "p99": merged.percentile(99),
    }


class _RouteLedger:
    """One route's books: its error count, a lifetime histogram (whose
    ``count``/``sum``/``max`` are the route's request count, total and
    max latency), and its sliding window."""

    __slots__ = ("errors", "lifetime", "window")

    def __init__(self, slots: int, slot_seconds: float) -> None:
        self.errors = 0
        self.lifetime = Histogram()
        self.window = WindowedHistogram(slots, slot_seconds)


class LiveTelemetry:
    """The resident server's request ledger — the only place a served
    request's latency is recorded.

    One :class:`_RouteLedger` per route (created on first sight; route
    cardinality is bounded by the server's route patterns) plus a
    cumulative tier tally.  ``observe`` is the single entry point the
    serve path calls per request.  Nothing is observed globally: the
    all-routes figures are folds over the route ledgers at read time,
    which is exact because every histogram shares the same fixed
    bounds.  ``route_ledger`` is the ``server.routes`` section of
    ``/stats``; ``window_payload`` is its ``window`` section.
    """

    def __init__(
        self,
        slots: int = DEFAULT_WINDOW_SLOTS,
        slot_seconds: float = DEFAULT_SLOT_SECONDS,
    ) -> None:
        self.slots = slots
        self.slot_seconds = slot_seconds
        self.routes: dict[str, _RouteLedger] = {}
        self.tier_totals: dict[str, int] = {}
        self._lock = threading.Lock()

    def observe(
        self,
        route: str,
        seconds: float,
        status: int,
        tier: str | None = None,
        exemplar: dict | None = None,
        now: float | None = None,
    ) -> None:
        now = time.monotonic() if now is None else now
        error = status >= 400
        with self._lock:
            ledger = self.routes.get(route)
            if ledger is None:
                ledger = self.routes[route] = _RouteLedger(
                    self.slots, self.slot_seconds
                )
            if error:
                ledger.errors += 1
            if tier is not None:
                self.tier_totals[tier] = self.tier_totals.get(tier, 0) + 1
        ledger.lifetime.observe(seconds, exemplar=exemplar)
        ledger.window.observe(seconds, error=error, exemplar=exemplar, now=now)

    def _ledgers(self) -> list[tuple[str, _RouteLedger]]:
        with self._lock:
            return sorted(self.routes.items())

    def route_ledger(self) -> dict:
        """Lifetime totals per route: ``{route: {count, errors,
        total_seconds, max_seconds, histogram}}`` (seconds; the
        histogram as a mergeable snapshot)."""
        out = {}
        for route, ledger in self._ledgers():
            snap = ledger.lifetime.snapshot()
            out[route] = {
                "count": snap["count"],
                "errors": ledger.errors,
                "total_seconds": snap["sum"],
                "max_seconds": snap["max"],
                "histogram": snap,
            }
        return out

    def window_payload(self, now: float | None = None) -> dict:
        """The JSON ``window`` section: global rates/percentiles plus a
        per-route breakdown (milliseconds, the operator-facing unit).
        The global figures merge the route windows."""
        now = time.monotonic() if now is None else now
        with self._lock:
            tiers = dict(self.tier_totals)
        merged = Histogram()
        errors = 0
        payload_routes = {}
        for route, ledger in self._ledgers():
            w = ledger.window.window(now)
            merged.merge_snapshot(w["histogram"])
            errors += w["errors"]
            payload_routes[route] = {
                "count": w["count"],
                "errors": w["errors"],
                "rps": w["rps"],
                "p50_ms": w["p50"] * 1e3,
                "p95_ms": w["p95"] * 1e3,
                "p99_ms": w["p99"] * 1e3,
            }
        total = _window_summary(
            merged, errors, self.slots * float(self.slot_seconds)
        )
        return {
            "seconds": total["seconds"],
            "slots": self.slots,
            "slot_seconds": self.slot_seconds,
            "count": total["count"],
            "errors": total["errors"],
            "rps": total["rps"],
            "error_rate": total["error_rate"],
            "p50_ms": total["p50"] * 1e3,
            "p95_ms": total["p95"] * 1e3,
            "p99_ms": total["p99"] * 1e3,
            "routes": payload_routes,
            "tier_totals": tiers,
        }


# ---- Prometheus text exposition ---------------------------------------------


def _format_value(value: float) -> str:
    """Prometheus sample values: integers bare, floats via repr."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _labels_text(labels: dict | None) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label(str(value))}"'
        for name, value in labels.items()
    )
    return "{" + inner + "}"


class MetricFamily:
    """One exposition family: name, type, help, and its samples."""

    def __init__(self, name: str, kind: str, help_text: str) -> None:
        if kind not in ("counter", "gauge", "histogram", "untyped"):
            raise ValueError(f"unknown metric type {kind!r}")
        self.name = name
        self.kind = kind
        self.help = help_text
        #: (suffix, labels-dict-or-None, value)
        self.samples: list[tuple[str, dict | None, float]] = []

    def add(self, value: float, labels: dict | None = None, suffix: str = "") -> None:
        self.samples.append((suffix, labels, value))

    def add_histogram(self, snap: dict, labels: dict | None = None) -> None:
        """A full histogram snapshot as ``_bucket``/``_sum``/``_count``
        series (cumulative counts, ``le`` labels, ``+Inf`` last)."""
        labels = dict(labels or {})
        total = 0
        for bound, n in zip(snap["bounds"], snap["counts"]):
            total += n
            self.add(total, {**labels, "le": _format_value(float(bound))}, "_bucket")
        total += snap["counts"][len(snap["bounds"])]
        self.add(total, {**labels, "le": "+Inf"}, "_bucket")
        self.add(snap["sum"], labels, "_sum")
        self.add(snap["count"], labels, "_count")


def render_prometheus(families: list[MetricFamily]) -> str:
    """The families as Prometheus text exposition format 0.0.4."""
    lines: list[str] = []
    for family in families:
        lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for suffix, labels, value in family.samples:
            lines.append(
                f"{family.name}{suffix}{_labels_text(labels)} "
                f"{_format_value(value)}"
            )
    return "\n".join(lines) + "\n"


class PrometheusParseError(ValueError):
    """A line the text-format grammar rejects."""


def _parse_labels(text: str) -> dict:
    labels: dict[str, str] = {}
    i = 0
    while i < len(text):
        eq = text.index("=", i)
        name = text[i:eq].strip()
        if not name or text[eq + 1] != '"':
            raise PrometheusParseError(f"malformed label at {text[i:]!r}")
        j = eq + 2
        value: list[str] = []
        while True:
            if j >= len(text):
                raise PrometheusParseError(f"unterminated label value in {text!r}")
            ch = text[j]
            if ch == "\\":
                escaped = text[j + 1]
                value.append(
                    {"n": "\n", "\\": "\\", '"': '"'}.get(escaped, escaped)
                )
                j += 2
                continue
            if ch == '"':
                break
            value.append(ch)
            j += 1
        labels[name] = "".join(value)
        i = j + 1
        if i < len(text) and text[i] == ",":
            i += 1
    return labels


def parse_prometheus(text: str) -> dict:
    """Parse exposition text into ``{metric_name: {"type", "help",
    "samples": [(labels, value)]}}``.

    Samples are keyed by their *family* name (``_bucket``/``_sum``/
    ``_count`` suffixes fold into the histogram family when its TYPE
    line declared one).  Raises :class:`PrometheusParseError` on any
    line the grammar rejects — ``repro top`` and the CI validator both
    run on this parser, so a malformed exposition fails loudly.
    """
    families: dict[str, dict] = {}
    types: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] in ("HELP", "TYPE"):
                name = parts[2]
                family = families.setdefault(
                    name, {"type": "untyped", "help": "", "samples": []}
                )
                if parts[1] == "TYPE":
                    kind = parts[3].strip() if len(parts) > 3 else ""
                    if kind not in (
                        "counter", "gauge", "histogram", "summary", "untyped"
                    ):
                        raise PrometheusParseError(
                            f"line {lineno}: unknown TYPE {kind!r}"
                        )
                    family["type"] = kind
                    types[name] = kind
                else:
                    family["help"] = parts[3] if len(parts) > 3 else ""
            continue
        brace = line.find("{")
        if brace >= 0:
            close = line.rfind("}")
            if close < brace:
                raise PrometheusParseError(f"line {lineno}: unbalanced braces")
            name = line[:brace]
            labels = _parse_labels(line[brace + 1:close])
            rest = line[close + 1:].strip()
        else:
            fields = line.split()
            if len(fields) < 2:
                raise PrometheusParseError(f"line {lineno}: no sample value")
            name, rest = fields[0], " ".join(fields[1:])
            labels = {}
        value_text = rest.split()[0] if rest.split() else ""
        try:
            value = float(value_text.replace("+Inf", "inf").replace("-Inf", "-inf"))
        except ValueError:
            raise PrometheusParseError(
                f"line {lineno}: sample value {value_text!r} is not a number"
            ) from None
        family_name = name
        for suffix in ("_bucket", "_sum", "_count"):
            base = name[: -len(suffix)] if name.endswith(suffix) else None
            if base and types.get(base) == "histogram":
                family_name = base
                labels = {**labels, "__suffix__": suffix}
                break
        family = families.setdefault(
            family_name, {"type": types.get(family_name, "untyped"),
                          "help": "", "samples": []}
        )
        family["samples"].append((labels, value))
    return families


def sample_value(
    families: dict, name: str, labels: dict | None = None, default: float = 0.0
) -> float:
    """First sample of ``name`` whose labels include ``labels``."""
    family = families.get(name)
    if not family:
        return default
    want = labels or {}
    for sample_labels, value in family["samples"]:
        if all(sample_labels.get(k) == v for k, v in want.items()):
            return value
    return default
