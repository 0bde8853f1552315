"""Columnar (de)serialization of month partitions of connection records.

Expectation mode emits the same (client, server, response) combination
for many months with only the month and weight changing, so a partition
dictionary-encodes records: the distinct "shape" — every field except
``month``/``weight``/``day`` — is stored once, and each month becomes
three columns: a weight array, a shape-index array, and (Monte-Carlo
only) a day column.  A packed full-study store is a few MB instead of
hundreds; the same format serves the worker → parent hand-off of the
parallel runner and the persistent dataset cache.

:class:`PackedDataset` wraps a payload for lazy consumption: the store
attaches it and only materializes a month's record objects when a scan
actually needs them — aggregate queries are answered from the columns
(or from precomputed index counters embedded in the payload) without
creating a single record.

Each month also carries a **shape summary** — per-shape weight sums
(accumulated in row order, so a single-shape sum is bit-identical to a
scan over that shape's rows), the distinct shapes present in first- and
last-occurrence order, and the month's total/established weight folds.
The summary is computed once at pack time (an O(records) group-by over
the weight/shape-index columns), persists through the dataset cache and
checkpoints inside the payload, and is rebuilt lazily for payloads
packed before it existed.  It is what powers the store's shape-compiled
query tier: predicates evaluate once per distinct shape instead of once
per record.

The payload additionally carries a **shape matrix**: one small-integer
column per shape field over the whole shape table (a per-field vocab of
distinct canonical values plus an ``array`` of codes, one per shape).
It is the data layout of the store's vectorized query tier
(:mod:`repro.notary.vector`): a predicate is evaluated once per
*distinct field value* and broadcast to shapes by integer gather.
Like the summaries, the matrix persists through the cache inside the
payload and is rebuilt lazily for older payloads — no format bump.

Datasets are no longer strictly frozen after packing:
:meth:`PackedDataset.append_month` packs one *new* month in place —
appending to the shared shape table and matrix (existing shape indices
keep their meaning), building the month's columns and summary, and
invalidating the compiled-query memos — without ever re-packing sealed
months.  This is the incremental-maintenance path streaming ingest
uses (see ``NotaryStore.add_batch``).

Round-trips are exact: materialized records compare equal to the
originals field by field, in the original per-month order, and weights
are carried as the same Python floats — so packed aggregation is
float-identical to a fresh serial run, not merely close.
"""

from __future__ import annotations

import datetime as _dt
from array import array
from collections.abc import Iterable

from repro.engine.perf import PERF
from repro.notary.events import ConnectionRecord, FingerprintFields
from repro.obs import get_logger

_log = get_logger("repro.engine.partition")

#: Bump when the layout below changes; packed blobs with another
#: version are rejected (the dataset cache treats that as a miss).
PARTITION_FORMAT = 2

#: Record fields carried in the shape table, in layout order.  Everything
#: except the per-row ``month``/``weight``/``day``.
_SHAPE_FIELDS = (
    "client_family",
    "client_version",
    "client_category",
    "client_in_database",
    "fingerprint",
    "advertised",
    "positions",
    "suite_count",
    "offered_tls13",
    "offered_tls13_versions",
    "established",
    "negotiated_version",
    "negotiated_wire",
    "negotiated_suite",
    "negotiated_curve",
    "heartbeat_negotiated",
    "server_chose_unoffered",
    "client_extensions",
    "server_extensions",
    "server_profile",
    "server_port",
)

#: Slot of the ``established`` flag inside a shape tuple (the summary
#: builder reads it without expanding templates).
_ESTABLISHED_SLOT = _SHAPE_FIELDS.index("established")


def _shape_of(record: ConnectionRecord) -> tuple:
    """The record's hashable shape tuple (dict/set fields canonicalized)."""
    fingerprint = record.fingerprint
    return (
        record.client_family,
        record.client_version,
        record.client_category,
        record.client_in_database,
        None
        if fingerprint is None
        else (
            fingerprint.cipher_suites,
            fingerprint.extensions,
            fingerprint.curves,
            fingerprint.ec_point_formats,
        ),
        tuple(sorted(record.advertised)),
        tuple(sorted(record.positions.items())),
        record.suite_count,
        record.offered_tls13,
        record.offered_tls13_versions,
        record.established,
        record.negotiated_version,
        record.negotiated_wire,
        record.negotiated_suite,
        record.negotiated_curve,
        record.heartbeat_negotiated,
        record.server_chose_unoffered,
        record.client_extensions,
        record.server_extensions,
        record.server_profile,
        record.server_port,
    )


def _shape_fields(shape: tuple) -> dict:
    """Expand a shape tuple back into record field values."""
    fields = dict(zip(_SHAPE_FIELDS, shape))
    fp = fields["fingerprint"]
    if fp is not None:
        fields["fingerprint"] = FingerprintFields(
            cipher_suites=tuple(fp[0]),
            extensions=tuple(fp[1]),
            curves=tuple(fp[2]),
            ec_point_formats=tuple(fp[3]),
        )
    fields["advertised"] = frozenset(fields["advertised"])
    fields["positions"] = dict(fields["positions"])
    return fields


def build_shape_summary(columns: dict, shapes: list[tuple]) -> dict:
    """The per-shape group-by for one month's columns.

    One O(records) pass over the weight/shape-index columns produces:

    * ``order`` / ``sums`` — the distinct shapes present this month in
      first-occurrence order, each with its weight sum accumulated in
      row order (a single shape's sum is therefore bit-identical to a
      left-fold scan over exactly that shape's rows);
    * ``last`` — the same distinct shapes in *last*-occurrence order
      (last-wins per-fingerprint semantics, Figure 4);
    * ``total`` / ``established`` — the month's full weight folds in
      row order, matching a record scan float for float.
    """
    sums: dict[int, float] = {}
    last_pos: dict[int, int] = {}
    order: list[int] = []
    total = 0.0
    established = 0.0
    for pos, (weight, idx) in enumerate(
        zip(columns["weights"], columns["shape_idx"])
    ):
        total += weight
        if shapes[idx][_ESTABLISHED_SLOT]:
            established += weight
        if idx in sums:
            sums[idx] += weight
        else:
            sums[idx] = weight
            order.append(idx)
        last_pos[idx] = pos
    return {
        "order": array("L", order),
        "sums": array("d", (sums[idx] for idx in order)),
        "last": array("L", sorted(last_pos, key=last_pos.__getitem__)),
        "total": total,
        "established": established,
    }


def build_shape_matrix(shapes: list[tuple], matrix: dict | None = None, start: int = 0) -> dict:
    """Int-code the shape table: one small-integer column per field.

    For every shape field the matrix holds a ``vocab`` (the distinct
    canonical values, in first-occurrence order) and a ``codes`` array
    with one entry per shape.  Vocabulary entries are deduplicated by
    ``==``/hash — the same equality every predicate in
    :mod:`repro.notary.query` uses — so "two shapes share a code" is
    exactly "a field-reading predicate cannot tell them apart".

    Passing an existing ``matrix`` plus ``start`` extends it in place
    for shapes appended after it was built (the
    :meth:`PackedDataset.append_month` path): codes are append-only, so
    compiled masks over the old table stay valid for old months.
    """
    if matrix is None:
        matrix = {
            "fields": {
                name: {"vocab": [], "codes": array("L")}
                for name in _SHAPE_FIELDS
            }
        }
    for slot, name in enumerate(_SHAPE_FIELDS):
        entry = matrix["fields"][name]
        vocab = entry["vocab"]
        codes = entry["codes"]
        index = {value: code for code, value in enumerate(vocab)}
        for shape in shapes[start:] if start else shapes:
            value = shape[slot]
            code = index.get(value)
            if code is None:
                code = index[value] = len(vocab)
                vocab.append(value)
            codes.append(code)
    return matrix


class StreamPacker:
    """Incremental columnar pack: feed records one chunk at a time.

    Holds exactly the accumulation state :func:`pack_records` builds —
    the shape lookup and the per-month column arrays — so a month's
    record *objects* never need to exist together: the streaming ingest
    path (``TrafficGenerator.stream_expectation_month`` under
    ``--scale``) yields records straight into :meth:`add` and resident
    memory stays O(shapes + packed columns), not O(records).

    Any chunking of the same record sequence finishes with a payload
    byte-identical to ``pack_records`` over the concatenation: per
    record the packer performs the same appends in the same order, and
    :meth:`finish` runs the identical summary/matrix builds.

    The one shortcut taken is an identity memo on the previously added
    record: a scaled stream yields the *same* frozen record object N
    times in a row, and re-deriving the shape tuple per replica would
    make replication O(shape size) instead of O(1).  Identical objects
    have identical shapes, so the memo cannot change the output.
    """

    def __init__(self) -> None:
        self._shape_index: dict[tuple, int] = {}
        self._shapes: list[tuple] = []
        self._months: dict[int, dict] = {}
        self._last_record: ConnectionRecord | None = None
        self._last_idx: int = 0
        #: Records consumed so far (the ingest bench reads this).
        self.records = 0

    def add(self, record: ConnectionRecord) -> None:
        """Append one record to its month's columns."""
        if record is self._last_record:
            idx = self._last_idx
        else:
            shape = _shape_of(record)
            idx = self._shape_index.get(shape)
            if idx is None:
                idx = self._shape_index[shape] = len(self._shapes)
                self._shapes.append(shape)
            self._last_record = record
            self._last_idx = idx
        month_ord = record.month.toordinal()
        columns = self._months.get(month_ord)
        if columns is None:
            columns = self._months[month_ord] = {
                "weights": array("d"),
                "shape_idx": array("L"),
                "days": None,
            }
        columns["weights"].append(record.weight)
        columns["shape_idx"].append(idx)
        if record.day is not None and columns["days"] is None:
            # Upgrade lazily: expectation months never carry days.
            columns["days"] = [None] * (len(columns["weights"]) - 1)
        if columns["days"] is not None:
            columns["days"].append(
                record.day.toordinal() if record.day is not None else None
            )
        self.records += 1

    def extend(self, records: Iterable[ConnectionRecord]) -> None:
        for record in records:
            self.add(record)

    def finish(self) -> dict:
        """Seal the payload: summaries + matrix over the final table."""
        for columns in self._months.values():
            columns["shape_summary"] = build_shape_summary(
                columns, self._shapes
            )
        return {
            "format": PARTITION_FORMAT,
            "shapes": self._shapes,
            "months": self._months,
            "shape_matrix": build_shape_matrix(self._shapes),
        }


def pack_records(records: Iterable[ConnectionRecord]) -> dict:
    """Dictionary-encode records into a compact columnar payload."""
    packer = StreamPacker()
    packer.extend(records)
    return packer.finish()


def pack_stream(chunks: Iterable[Iterable[ConnectionRecord]]) -> dict:
    """Pack a stream of record chunks, chunk by chunk.

    Byte-identical to ``pack_records`` over the concatenation of the
    chunks — chunk boundaries only bound how many record objects are
    alive at once, never the output (proven by the chunking property
    test).  Chunks may be any iterables, including generators that
    build records on the fly.
    """
    packer = StreamPacker()
    for chunk in chunks:
        packer.extend(chunk)
    return packer.finish()


def remap_month(columns, source_shapes, shapes: list, shape_index: dict) -> dict:
    """Remap one month's columns into a shared shape table, in row order.

    New shapes join ``shapes`` / ``shape_index`` in first-occurrence row
    order — the discovery order ``pack_records`` would see.  The weight
    column is copied float for float, and the pack-time shape summary is
    *translated* through the remap (the per-shape sums, folds, and
    occurrence orders cover the same rows in the same order, so the
    floats carry over bit for bit and only the indices change) — O(month
    shapes) instead of another O(rows) pass.  Sources without a summary
    get one rebuilt from the remapped rows.
    """
    remap: dict[int, int] = {}
    merged_idx = array("L")
    append = merged_idx.append
    for idx in columns["shape_idx"]:
        new = remap.get(idx)
        if new is None:
            shape = source_shapes[idx]
            new = shape_index.get(shape)
            if new is None:
                new = shape_index[shape] = len(shapes)
                shapes.append(shape)
            remap[idx] = new
        append(new)
    days = columns["days"]
    merged_columns = {
        "weights": array("d", columns["weights"]),
        "shape_idx": merged_idx,
        "days": None if days is None else list(days),
    }
    summary = columns.get("shape_summary")
    if summary is None:
        # No source summary to translate: rebuild from rows (same
        # contract as split_by_month).
        merged_columns["shape_summary"] = build_shape_summary(
            merged_columns, shapes
        )
    else:
        merged_columns["shape_summary"] = {
            "order": array("L", (remap[i] for i in summary["order"])),
            "sums": array("d", summary["sums"]),
            "last": array("L", (remap[i] for i in summary["last"])),
            "total": summary["total"],
            "established": summary["established"],
        }
    return merged_columns


class PackedMerge:
    """Streaming merge of packed payloads, one month at a time.

    Months are visited in ascending order across all payloads and each
    month's shape indices are remapped into a merged shape table in row
    order — exactly the discovery order ``pack_records`` would see over
    the materialized records sorted by month.  Weight columns are
    copied float for float, so the merge is byte-identical to
    re-packing the merged store's ``records()`` while costing only
    O(rows) integer work.

    The streaming shape matters as much as the arithmetic: the
    cache-save path for scaled runs consumes :meth:`months` and writes
    each merged month straight to disk, so only *one* month's remapped
    columns are ever resident — a whole-dataset merged copy at scale
    100 would by itself rival the source columns it was copied from.
    ``shapes`` is complete only after :meth:`months` is exhausted.
    """

    def __init__(self, payloads: Iterable[dict]) -> None:
        self.shapes: list[tuple] = []
        self._shape_index: dict[tuple, int] = {}
        self._sources: list[tuple[int, dict, list]] = []
        self.has_days = False
        seen: set[int] = set()
        for payload in payloads:
            if payload.get("format") != PARTITION_FORMAT:
                raise ValueError(
                    f"unsupported partition format: {payload.get('format')!r}"
                )
            for month_ord, columns in payload["months"].items():
                if month_ord in seen:
                    raise ValueError(
                        f"month {_dt.date.fromordinal(month_ord)} appears "
                        "in more than one payload"
                    )
                seen.add(month_ord)
                if columns["days"] is not None:
                    self.has_days = True
                self._sources.append((month_ord, columns, payload["shapes"]))
        self._sources.sort(key=lambda s: s[0])

    def months(self):
        """Yield ``(month_ord, merged_columns)`` ascending, remapped."""
        for month_ord, columns, source_shapes in self._sources:
            yield month_ord, remap_month(
                columns, source_shapes, self.shapes, self._shape_index
            )


def merge_packed(payloads: Iterable[dict]) -> dict:
    """Merge packed payloads into one in-memory payload.

    The materializing wrapper over :class:`PackedMerge` — byte-identical
    to ``pack_records`` over the concatenated record streams sorted by
    month (proven by the merge property tests).  Callers that only need
    to *write* the merge should consume ``PackedMerge.months()``
    directly and skip the whole-dataset copy this builds.
    """
    merge = PackedMerge(payloads)
    months = {month_ord: columns for month_ord, columns in merge.months()}
    return {
        "format": PARTITION_FORMAT,
        "shapes": merge.shapes,
        "months": months,
        "shape_matrix": build_shape_matrix(merge.shapes),
    }


class PackedDataset:
    """Lazy view over a packed payload, one month at a time."""

    def __init__(self, payload: dict) -> None:
        if payload.get("format") != PARTITION_FORMAT:
            raise ValueError(
                f"unsupported partition format: {payload.get('format')!r}"
            )
        self._payload = payload
        self._months = payload["months"]
        self._shapes = payload["shapes"]
        self._templates: list[dict] | None = None
        self._template_records: list[ConnectionRecord] | None = None
        self._guarded_templates: list[ConnectionRecord] | None = None
        #: shape tuple -> index, built on first append (ingest path).
        self._shape_index: dict | None = None
        #: predicate/value-function compilation memos for the shape
        #: query path, keyed by the callable object itself (the shape
        #: table only ever grows via :meth:`append_month`, which clears
        #: these; the cap just bounds a pathological query mix).
        self._match_cache: dict = {}
        self._value_cache: dict = {}

    @classmethod
    def empty(cls) -> "PackedDataset":
        """A dataset with no months yet — the streaming-ingest seed."""
        return cls(
            {
                "format": PARTITION_FORMAT,
                "shapes": [],
                "months": {},
                "shape_matrix": build_shape_matrix([]),
            }
        )

    # ---- enumeration --------------------------------------------------------

    def months(self) -> list[_dt.date]:
        return sorted(_dt.date.fromordinal(o) for o in self._months)

    def count(self, month: _dt.date) -> int:
        columns = self._months.get(month.toordinal())
        return len(columns["weights"]) if columns else 0

    def columns(self, month: _dt.date) -> tuple[array, array] | None:
        """The (weights, shape_idx) columns for one month, or None."""
        columns = self._months.get(month.toordinal())
        if columns is None:
            return None
        return columns["weights"], columns["shape_idx"]

    def has_days(self, month: _dt.date) -> bool:
        """Whether the month carries a day column (Monte-Carlo mode)."""
        columns = self._months.get(month.toordinal())
        return bool(columns) and columns.get("days") is not None

    def shape_summary(self, month: _dt.date) -> dict | None:
        """The month's per-shape group-by (see :func:`build_shape_summary`).

        Packed at pack time and persisted with the payload; payloads
        from before the summary existed get one built lazily here and
        memoized in place, so old cache blobs and checkpoints stay
        loadable without a format bump.
        """
        columns = self._months.get(month.toordinal())
        if columns is None:
            return None
        summary = columns.get("shape_summary")
        if summary is None:
            summary = columns["shape_summary"] = build_shape_summary(
                columns, self._shapes
            )
        return summary

    def shape_matrix(self) -> dict:
        """The dataset's int-coded shape matrix (see
        :func:`build_shape_matrix`).

        Packed at pack time and persisted with the payload; payloads
        from before the matrix existed (and the re-indexed payloads
        :func:`split_by_month` emits) get one built lazily here and
        memoized in place — same no-format-bump contract as
        :meth:`shape_summary`.
        """
        matrix = self._payload.get("shape_matrix")
        if matrix is None:
            matrix = self._payload["shape_matrix"] = build_shape_matrix(
                self._shapes
            )
        return matrix

    # ---- incremental maintenance --------------------------------------------

    def _shape_lookup(self) -> dict:
        """shape tuple -> index over the current table (kept in sync)."""
        lookup = self._shape_index
        if lookup is None:
            lookup = self._shape_index = {
                shape: idx for idx, shape in enumerate(self._shapes)
            }
        return lookup

    def append_month(self, month: _dt.date, records: Iterable[ConnectionRecord]) -> None:
        """Pack one *new* month into this dataset in place, O(new month).

        Sealed months are untouched: new shapes append to the shared
        table (existing indices keep their meaning, so compiled answers
        for old months remain correct), the month gets its own columns
        and summary, and the shape matrix extends by exactly the new
        shapes.  Derived memos sized to the shape table — templates,
        predicate/value compilations, vectorized masks, index shape
        keys — are extended or dropped, because a stale compilation
        would silently miss the appended shapes.
        """
        month_ord = month.toordinal()
        if month_ord in self._months:
            raise ValueError(f"month {month.isoformat()} is already packed")
        lookup = self._shape_lookup()
        shapes = self._shapes
        start = len(shapes)
        columns: dict = {
            "weights": array("d"),
            "shape_idx": array("L"),
            "days": None,
        }
        for record in records:
            shape = _shape_of(record)
            idx = lookup.get(shape)
            if idx is None:
                idx = lookup[shape] = len(shapes)
                shapes.append(shape)
            columns["weights"].append(record.weight)
            columns["shape_idx"].append(idx)
            if record.day is not None and columns["days"] is None:
                columns["days"] = [None] * (len(columns["weights"]) - 1)
            if columns["days"] is not None:
                columns["days"].append(
                    record.day.toordinal() if record.day is not None else None
                )
        columns["shape_summary"] = build_shape_summary(columns, shapes)
        matrix = self._payload.get("shape_matrix")
        if matrix is not None:
            build_shape_matrix(shapes, matrix, start)
        self._months[month_ord] = columns
        self._extend_compiled(start)

    def _extend_compiled(self, start: int) -> None:
        """Bring table-sized memos in line after an append.

        The template lists extend in place (shared ``_ShapeView``s hold
        references to them, and their old indices still mean the same
        shapes); everything compiled *over* them is dropped, to be
        lazily rebuilt against the grown table.
        """
        new_shapes = self._shapes[start:]
        if self._templates is not None:
            self._templates.extend(_shape_fields(s) for s in new_shapes)
        if self._template_records is not None:
            epoch = _dt.date(2000, 1, 1)
            for fields in self._templates[start:] if self._templates else ():
                record = object.__new__(ConnectionRecord)
                record.__dict__.update(fields)
                record.__dict__["month"] = epoch
                record.__dict__["weight"] = 0.0
                record.__dict__["day"] = None
                self._template_records.append(record)
        if self._guarded_templates is not None:
            for shape in new_shapes:
                record = object.__new__(ConnectionRecord)
                record.__dict__.update(_shape_fields(shape))
                record.__dict__["day"] = None
                self._guarded_templates.append(record)
        self._match_cache.clear()
        self._value_cache.clear()
        for attr in ("_index_shape_keys", "_vector_matrix", "_vector_view_cache"):
            if hasattr(self, attr):
                delattr(self, attr)

    # ---- shape templates ----------------------------------------------------

    def _field_templates(self) -> list[dict]:
        if self._templates is None:
            self._templates = [_shape_fields(shape) for shape in self._shapes]
        return self._templates

    def template_records(self) -> list[ConnectionRecord]:
        """One zero-weight record per shape (for index-key derivation)."""
        if self._template_records is None:
            epoch = _dt.date(2000, 1, 1)
            records = []
            for fields in self._field_templates():
                record = object.__new__(ConnectionRecord)
                record.__dict__.update(fields)
                record.__dict__["month"] = epoch
                record.__dict__["weight"] = 0.0
                record.__dict__["day"] = None
                records.append(record)
            self._template_records = records
        return self._template_records

    # ---- shape-compiled query support ---------------------------------------

    def guarded_templates(self) -> list[ConnectionRecord]:
        """One *guarded* template record per shape.

        Unlike :meth:`template_records`, these carry **no** ``month`` or
        ``weight`` attribute at all: a predicate that reads either — and
        whose answer would therefore vary per row rather than per shape
        — raises ``AttributeError`` during compilation, and the caller
        falls back to a record scan instead of silently answering from
        a template's placeholder values.  ``day`` is pinned to ``None``,
        which is exact for day-less (expectation) months; months that
        carry a day column are excluded from the shape path entirely.
        """
        if self._guarded_templates is None:
            records = []
            for fields in self._field_templates():
                record = object.__new__(ConnectionRecord)
                record.__dict__.update(fields)
                record.__dict__["day"] = None
                records.append(record)
            self._guarded_templates = records
        return self._guarded_templates

    def compile_predicate(self, predicate) -> frozenset | None:
        """Shape indices matched by ``predicate``, or None when it is
        not shape-evaluable (raised on a guarded template).

        Memoized per callable object: the shape table is immutable, so
        one compilation serves every month of the dataset — a
        ``monthly_fraction`` over N months costs O(shapes) predicate
        calls total, not O(shapes x N).
        """
        try:
            return self._match_cache[predicate]
        except KeyError:
            pass
        except TypeError:  # unhashable callable: compile uncached
            return self._compile_matches(predicate)
        if len(self._match_cache) >= 256:
            self._match_cache.clear()
        matches = self._compile_matches(predicate)
        self._match_cache[predicate] = matches
        return matches

    def _compile_matches(self, predicate) -> frozenset | None:
        templates = self.guarded_templates()
        PERF.shape_evals += len(templates)
        try:
            return frozenset(
                idx for idx, record in enumerate(templates) if predicate(record)
            )
        except Exception:  # lint: allow-swallow
            # Not shape-evaluable (e.g. reads the guarded month/weight):
            # the contract is "None means scan instead", by design.
            return None

    def compile_values(self, value) -> list | None:
        """Per-shape results of a ``weighted_mean`` value function, or
        None when it is not shape-evaluable."""
        try:
            return self._value_cache[value]
        except KeyError:
            pass
        except TypeError:
            return self._compile_values(value)
        if len(self._value_cache) >= 256:
            self._value_cache.clear()
        values = self._compile_values(value)
        self._value_cache[value] = values
        return values

    def _compile_values(self, value) -> list | None:
        templates = self.guarded_templates()
        PERF.shape_evals += len(templates)
        try:
            return [value(record) for record in templates]
        except Exception:  # lint: allow-swallow
            # Same contract as _compile_matches: None means "scan".
            return None

    # ---- materialization ----------------------------------------------------

    def materialize(self, month: _dt.date) -> list[ConnectionRecord]:
        """Rebuild one month's exact record list, original order."""
        columns = self._months.get(month.toordinal())
        if columns is None:
            return []
        templates = self._field_templates()
        weights = columns["weights"]
        idxs = columns["shape_idx"]
        days = columns["days"]
        day_dates: dict[int, _dt.date] = {}
        from_ordinal = _dt.date.fromordinal
        records: list[ConnectionRecord] = []
        append = records.append
        new = object.__new__
        for i, idx in enumerate(idxs):
            record = new(ConnectionRecord)
            # In-place dict fill sidesteps the frozen-dataclass __setattr__.
            fields = record.__dict__
            fields.update(templates[idx])
            fields["month"] = month
            fields["weight"] = weights[i]
            day_ord = days[i] if days is not None else None
            if day_ord is None:
                fields["day"] = None
            else:
                day = day_dates.get(day_ord)
                if day is None:
                    day = day_dates[day_ord] = from_ordinal(day_ord)
                fields["day"] = day
            append(record)
        return records


def validate_payload(payload: dict, expected_months: Iterable[_dt.date] | None = None) -> bool:
    """Structural integrity check of a packed payload.

    A partition crossing a process boundary (worker pipe, checkpoint
    file, cache blob) is validated before it is adopted: format version,
    column length agreement, shape-index bounds, and — when the caller
    knows which months the partition must cover — the exact month set.
    Returns False instead of raising so callers can treat corruption as
    one more recoverable chunk failure.
    """
    try:
        if payload.get("format") != PARTITION_FORMAT:
            return False
        shapes = payload["shapes"]
        months = payload["months"]
        if expected_months is not None:
            if set(months) != {m.toordinal() for m in expected_months}:
                return False
        for columns in months.values():
            weights = columns["weights"]
            idxs = columns["shape_idx"]
            if len(weights) != len(idxs):
                return False
            days = columns["days"]
            if days is not None and len(days) != len(weights):
                return False
            if len(idxs) and max(idxs) >= len(shapes):
                return False
            summary = columns.get("shape_summary")
            if summary is not None:
                order = summary["order"]
                if len(order) != len(summary["sums"]) or len(order) != len(
                    summary["last"]
                ):
                    return False
                if len(order) and max(max(order), max(summary["last"])) >= len(
                    shapes
                ):
                    return False
        matrix = payload.get("shape_matrix")
        if matrix is not None:
            fields = matrix["fields"]
            if set(fields) != set(_SHAPE_FIELDS):
                return False
            for entry in fields.values():
                codes = entry["codes"]
                if len(codes) != len(shapes):
                    return False
                if len(codes) and max(codes) >= len(entry["vocab"]):
                    return False
        return True
    except Exception as exc:
        # Damage severe enough to explode the checks themselves (wrong
        # types, missing keys) is still just a corrupt partition to the
        # caller — but it must leave a trail, not vanish.
        PERF.validation_errors += 1
        _log.warning(
            "partition payload rejected (months %s): %s: %s",
            sorted(m.isoformat() for m in expected_months)
            if expected_months is not None
            else "unknown",
            type(exc).__name__,
            exc,
        )
        return False


def split_by_month(payload: dict) -> dict[_dt.date, dict]:
    """Split a packed payload into standalone single-month payloads.

    Each output payload carries only the shapes its month references
    (re-indexed), so checkpoint files stay small and independently
    loadable.  Column contents are preserved exactly — re-attaching
    every split month reproduces the original partition byte for byte.
    """
    out: dict[_dt.date, dict] = {}
    shapes = payload["shapes"]
    for month_ord, columns in payload["months"].items():
        remap: dict[int, int] = {}
        local_shapes: list[tuple] = []
        local_idx = array("L")
        for idx in columns["shape_idx"]:
            new = remap.get(idx)
            if new is None:
                new = remap[idx] = len(local_shapes)
                local_shapes.append(shapes[idx])
            local_idx.append(new)
        days = columns["days"]
        local_columns = {
            "weights": array("d", columns["weights"]),
            "shape_idx": local_idx,
            "days": None if days is None else list(days),
        }
        # Shape indices were remapped, so the summary is rebuilt against
        # the local table rather than translated (same O(records) cost,
        # no translation bugs possible).
        local_columns["shape_summary"] = build_shape_summary(
            local_columns, local_shapes
        )
        out[_dt.date.fromordinal(month_ord)] = {
            "format": PARTITION_FORMAT,
            "shapes": local_shapes,
            "months": {month_ord: local_columns},
        }
    return out


def unpack_records(payload: dict) -> list[ConnectionRecord]:
    """Rebuild every record of a payload, grouped by ascending month."""
    dataset = PackedDataset(payload)
    records: list[ConnectionRecord] = []
    for month in dataset.months():
        records.extend(dataset.materialize(month))
    return records
