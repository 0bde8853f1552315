"""Streaming-pack equivalence suite (the `--scale` byte-identity half).

The scaling architecture rests on three exact-equality claims, each
proven here rather than assumed:

* ``pack_stream`` over *any* chunking of a record sequence — one record
  per chunk, ragged chunks, one whole-sequence chunk, lazy generators —
  finishes with a payload **byte-identical** to ``pack_records`` over
  the concatenation.  Chunk boundaries bound how many record objects
  are alive at once; they must never leak into the output.
* The merge/remap machinery (``PackedMerge`` / ``remap_month``) that
  the out-of-core spill and the cache writer consume is byte-identical
  to re-packing the concatenated record streams sorted by month — the
  translated shape summaries carry the same floats bit for bit.
* The vectorized index construction (numpy ``cumsum`` folds) equals the
  record-scan build — not approximately, ``==`` on every counter.

Comparisons use ``array.tobytes()`` and ``float.hex()`` so a ULP of
drift fails loudly instead of hiding inside ``pytest.approx``.
"""

from __future__ import annotations

import datetime as dt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.notary.events import ConnectionRecord
from repro.notary.store import NotaryStore, _MonthIndex, month_of
from repro.engine.partition import (
    PackedDataset,
    PackedMerge,
    merge_packed,
    pack_records,
    pack_stream,
    remap_month,
)


def _record(month, weight, established, variant=0, day=None):
    """A record whose shape varies with ``variant`` (so chunking and
    remapping exercise multi-shape tables, not a single-row degenerate)."""
    return ConnectionRecord(
        month=month,
        weight=weight,
        client_family="x",
        client_version=str(variant),
        client_category="",
        client_in_database=False,
        fingerprint=None,
        advertised=frozenset(),
        positions={},
        suite_count=1 + variant,
        offered_tls13=False,
        offered_tls13_versions=(),
        established=established,
        negotiated_version="TLSv12" if established else None,
        negotiated_wire=0x0303 if established else None,
        negotiated_suite=0x002F if established else None,
        negotiated_curve=None,
        heartbeat_negotiated=False,
        server_chose_unoffered=False,
        day=day,
    )


_months = st.dates(min_value=dt.date(2012, 1, 1), max_value=dt.date(2018, 4, 30)).map(
    month_of
)
_record_specs = st.lists(
    st.tuples(
        _months,
        st.floats(min_value=0.001, max_value=100),
        st.booleans(),
        st.integers(min_value=0, max_value=3),
        st.one_of(st.none(), st.integers(min_value=0, max_value=27)),
    ),
    min_size=0,
    max_size=60,
)


def _records_of(specs):
    return [
        _record(
            month,
            weight,
            established,
            variant,
            None if day_off is None else month + dt.timedelta(days=day_off),
        )
        for month, weight, established, variant, day_off in specs
    ]


def _chunk(records, sizes):
    """Cut ``records`` into chunks cycling through ``sizes`` (ragged)."""
    if not sizes:
        return [records]
    chunks, pos, i = [], 0, 0
    while pos < len(records):
        size = sizes[i % len(sizes)]
        chunks.append(records[pos : pos + size])
        pos += size
        i += 1
    return chunks


def _summary_blob(summary):
    return (
        summary["order"].tobytes(),
        summary["sums"].tobytes(),
        summary["last"].tobytes(),
        summary["total"].hex(),
        summary["established"].hex(),
    )


def _column_blob(columns):
    return (
        bytes(memoryview(columns["weights"])),
        bytes(memoryview(columns["shape_idx"])),
        columns["days"],
        _summary_blob(columns["shape_summary"]),
    )


def assert_payloads_identical(a, b):
    """Byte-identity between two packed payloads, component by component."""
    assert a["format"] == b["format"]
    assert a["shapes"] == b["shapes"]
    assert sorted(a["months"]) == sorted(b["months"])
    for month_ord in a["months"]:
        assert _column_blob(a["months"][month_ord]) == _column_blob(
            b["months"][month_ord]
        ), dt.date.fromordinal(month_ord)
    fields_a = a["shape_matrix"]["fields"]
    fields_b = b["shape_matrix"]["fields"]
    assert set(fields_a) == set(fields_b)
    for name in fields_a:
        assert fields_a[name]["vocab"] == fields_b[name]["vocab"], name
        assert (
            fields_a[name]["codes"].tobytes() == fields_b[name]["codes"].tobytes()
        ), name


class TestChunkingProperty:
    @given(_record_specs, st.lists(st.integers(min_value=1, max_value=9), max_size=8))
    @settings(max_examples=100)
    def test_any_chunking_matches_batch_pack(self, specs, sizes):
        records = _records_of(specs)
        streamed = pack_stream(_chunk(records, sizes))
        assert_payloads_identical(streamed, pack_records(records))

    @given(_record_specs)
    @settings(max_examples=50)
    def test_one_record_chunks(self, specs):
        records = _records_of(specs)
        streamed = pack_stream([r] for r in records)
        assert_payloads_identical(streamed, pack_records(records))

    @given(_record_specs)
    @settings(max_examples=50)
    def test_single_whole_chunk_and_generator_chunks(self, specs):
        records = _records_of(specs)
        batch = pack_records(records)
        assert_payloads_identical(pack_stream([records]), batch)
        # Generator chunks: records built on the fly, never a list.
        assert_payloads_identical(
            pack_stream((r for r in records[i : i + 3]) for i in range(0, len(records), 3)),
            batch,
        )

    def test_scaled_stream_replicas_share_the_identity_memo(self):
        # A scaled stream yields the *same* frozen record object N times
        # in a row; the packer's identity memo must not change output.
        base = _record(dt.date(2015, 1, 1), 0.25, True)
        replicas = [base] * 5 + [_record(dt.date(2015, 1, 1), 0.5, False)] * 3
        assert_payloads_identical(
            pack_stream([[r] for r in replicas]), pack_records(replicas)
        )


class TestMergeProperty:
    @given(_record_specs)
    @settings(max_examples=60)
    def test_merge_of_per_month_packs_matches_sorted_batch(self, specs):
        records = _records_of(specs)
        by_month: dict[dt.date, list] = {}
        for record in records:
            by_month.setdefault(record.month, []).append(record)
        payloads = [pack_records(group) for group in by_month.values()]
        merged = merge_packed(payloads)
        flat = [r for month in sorted(by_month) for r in by_month[month]]
        assert_payloads_identical(merged, pack_records(flat))

    @given(_record_specs)
    @settings(max_examples=40)
    def test_streaming_merge_yields_the_materialized_merge(self, specs):
        records = _records_of(specs)
        by_month: dict[dt.date, list] = {}
        for record in records:
            by_month.setdefault(record.month, []).append(record)
        payloads = [pack_records(group) for group in by_month.values()]
        merged = merge_packed([dict(p) for p in payloads])
        merge = PackedMerge(payloads)
        streamed = dict(merge.months())
        assert sorted(streamed) == sorted(merged["months"])
        for month_ord, columns in streamed.items():
            assert _column_blob(columns) == _column_blob(merged["months"][month_ord])
        assert merge.shapes == merged["shapes"]

    def test_duplicate_month_across_payloads_rejected(self):
        payload = pack_records([_record(dt.date(2015, 1, 1), 1.0, True)])
        with pytest.raises(ValueError, match="more than one payload"):
            PackedMerge([payload, payload])


class TestRemapSummaryTranslation:
    @given(_record_specs)
    @settings(max_examples=60)
    def test_translated_summary_equals_rebuilt_summary(self, specs):
        # remap_month translates a pack-time summary through the index
        # remap (O(shapes)) instead of re-folding rows (O(rows)); the
        # two paths must produce identical bytes.
        records = _records_of(specs)
        by_month: dict[dt.date, list] = {}
        for record in records:
            by_month.setdefault(record.month, []).append(record)
        for group in by_month.values():
            payload = pack_records(group)
            (month_ord,) = payload["months"]
            columns = payload["months"][month_ord]
            shapes_a: list = []
            translated = remap_month(columns, payload["shapes"], shapes_a, {})
            stripped = dict(columns)
            stripped.pop("shape_summary")
            shapes_b: list = []
            rebuilt = remap_month(stripped, payload["shapes"], shapes_b, {})
            assert shapes_a == shapes_b
            assert _column_blob(translated) == _column_blob(rebuilt)


class TestScaleSemantics:
    """The generator-side contract of ``--scale`` (satellite of the
    tentpole): record counts multiply, weights divide, totals hold."""

    @pytest.fixture(scope="class")
    def month(self):
        return dt.date(2014, 6, 1)

    def test_scale_1_stream_equals_batch_store(
        self, client_population, server_population, month
    ):
        from repro.notary import PassiveMonitor, TrafficGenerator

        monitor = PassiveMonitor()
        generator = TrafficGenerator(client_population, server_population, monitor)
        streamed = pack_stream([generator.stream_expectation_month(month)])
        generator.run_expectation_month(month)
        assert_payloads_identical(
            streamed, pack_records(monitor.store.records(month))
        )

    def test_scaled_stream_multiplies_counts_not_totals(
        self, client_population, server_population, month
    ):
        from repro.notary import PassiveMonitor, TrafficGenerator

        scale = 7
        base_gen = TrafficGenerator(
            client_population, server_population, PassiveMonitor()
        )
        scaled_gen = TrafficGenerator(
            client_population, server_population, PassiveMonitor(), scale=scale
        )
        base = pack_stream([base_gen.stream_expectation_month(month)])
        scaled = pack_stream([scaled_gen.stream_expectation_month(month)])
        # Same shape table: scaling replicates records, never invents new ones.
        assert scaled["shapes"] == base["shapes"]
        (base_cols,) = base["months"].values()
        (scaled_cols,) = scaled["months"].values()
        assert len(scaled_cols["weights"]) == scale * len(base_cols["weights"])
        base_store, scaled_store = NotaryStore(), NotaryStore()
        base_store.attach_packed(PackedDataset(base))
        scaled_store.attach_packed(PackedDataset(scaled))
        assert scaled_store.total_weight(month) == pytest.approx(
            base_store.total_weight(month), rel=1e-9
        )
        assert scaled_store.fraction(month, lambda r: r.established) == pytest.approx(
            base_store.fraction(month, lambda r: r.established), rel=1e-9
        )


class TestIndexVectorization:
    """The numpy counter construction ≡ the record-scan build — asserted
    with ``==``, never ``approx``."""

    @pytest.fixture(scope="class")
    def dataset(self, small_window_store):
        return PackedDataset(pack_records(small_window_store.records()))

    def test_vector_path_equals_python_path_equals_scan(
        self, dataset, small_window_store
    ):
        for month in dataset.months():
            vectorized = _MonthIndex.from_columns(dataset, month)
            scan = _MonthIndex.from_records(small_window_store.records(month))
            assert vectorized.total == scan.total
            assert vectorized.established == scan.established
            assert vectorized.weights == scan.weights
            assert vectorized.established_weights == scan.established_weights

    def test_vector_path_handles_empty_month(self, dataset):
        index = _MonthIndex.from_columns(dataset, dt.date(1999, 1, 1))
        assert index.total == 0.0
        assert index.weights == {}
