"""Differential suite for the mmap-format dataset cache and the spill path.

The dataset cache has one on-disk format (magic ``RPM1``): a compressed
metadata envelope up front, raw column bytes behind it, loaded by
memory-mapping the region instead of unpickling the dataset.  The suite
pins the format's contracts:

* a store loaded from a blob answers the randomized composite query
  suite (the same generator the serve tests hammer with) **identically**
  to the original store;
* a blob in any other format at the dataset path (such as the retired
  footer-sealed pickle) is a counted miss that is deleted and rebuilt —
  migration is a cache rebuild, never a flag day;
* ``peek_meta`` serves run metadata from the envelope alone;
* torn/corrupted blobs (truncated region, flipped column byte, damaged
  envelope) are rejected *and deleted*, never half-loaded;
* ``BlobSpill`` — the out-of-core adoption sink every run feeds —
  produces a payload whose query answers are byte-identical to the
  in-memory merge of the same chunk payloads, seals through
  ``save_store`` via the region-splice path, and survives idempotent
  re-adoption;
* day-carrying (Monte-Carlo) payloads have no raw column layout, so
  both the spill and ``save_store`` refuse them.
"""

from __future__ import annotations

import datetime as dt
import json
import random

import pytest

from repro.core import figures
from repro.engine import cache as dataset_cache
from repro.engine.partition import (
    PackedDataset,
    merge_packed,
    pack_records,
    split_by_month,
)
from repro.engine.perf import PERF
from repro.notary.store import NotaryStore
from repro.serve import wire
from tests.test_serve import _random_query

ALL_FIGURES = (
    figures.fig1_negotiated_versions,
    figures.fig2_negotiated_modes,
    figures.fig3_advertised_modes,
    figures.fig4_fingerprint_support,
    figures.fig5_cipher_positions,
    figures.fig6_rc4_advertised,
    figures.fig7_weak_advertised,
    figures.fig8_key_exchange,
    figures.fig9_negotiated_aead,
    figures.fig10_advertised_aead,
)

KEY = "f" * 64
META = {"start": "2014-06-01", "end": "2015-06-01", "records": 0}


@pytest.fixture()
def _tmp_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))


@pytest.fixture()
def packed_store(small_window_store):
    store = NotaryStore()
    store.attach_packed(
        PackedDataset(pack_records(small_window_store.records()))
    )
    return store


def _save_mmap(store, key=KEY):
    path = dataset_cache.save_store(store, key, META)
    assert path is not None
    assert path.read_bytes()[:4] == b"RPM1"
    return path


def _assert_stores_identical(a, b, rng_seed=0x5CA1E):
    """Exact equality on every figure, the randomized composite-query
    suite, and full record materialization."""
    assert a.months() == b.months()
    assert len(a) == len(b)
    for figure in ALL_FIGURES:
        assert figure(a) == figure(b), figure.__name__
    rng = random.Random(rng_seed)
    months = a.months()
    for _ in range(48):
        spec = _random_query(rng, months)
        left = json.loads(json.dumps(wire.execute_query(a, spec)))
        right = json.loads(json.dumps(wire.execute_query(b, spec)))
        assert left == right, f"query diverged across load paths: {spec}"
    # Scan-tier materialization from mapped columns is exact too.
    assert a.records() == b.records()


class TestMmapRoundTrip:
    def test_mmap_load_equals_original(self, _tmp_cache, packed_store):
        _save_mmap(packed_store)
        mmap_store = dataset_cache.load_store(KEY)
        assert mmap_store is not None
        _assert_stores_identical(mmap_store, packed_store, rng_seed=0xB0B)

    def test_legacy_pickle_blob_is_a_counted_miss(
        self, _tmp_cache, packed_store
    ):
        # A valid blob of the retired footer-sealed pickle format: the
        # reader does not speak it, so it is a miss that gets deleted,
        # and the rebuild re-seals in the current format.
        path = dataset_cache.store_path(KEY)
        dataset_cache._write_blob(
            path,
            {
                "format": dataset_cache.CACHE_FORMAT,
                "key": KEY,
                "meta": META,
                "records": pack_records(packed_store.records()),
                "indexes": packed_store.index_payloads(),
            },
            "test",
        )
        PERF.reset()
        assert dataset_cache.load_store(KEY) is None
        assert PERF.dataset_cache_misses == 1
        assert PERF.cache_corrupt_deleted == 1
        assert not path.exists()
        _save_mmap(packed_store)
        assert dataset_cache.load_store(KEY) is not None

    def test_peek_meta_serves_envelope(self, _tmp_cache, packed_store):
        _save_mmap(packed_store)
        peek = dataset_cache.peek_meta(KEY)
        assert peek is not None
        assert peek["key"] == KEY
        assert peek["meta"]["start"] == META["start"]
        assert peek["months"] == packed_store.months()
        assert peek["indexes"]  # figure-ready counters ride along


class TestMmapCorruption:
    def _saved(self, store):
        return _save_mmap(store)

    def test_truncated_region_rejected_and_deleted(
        self, _tmp_cache, packed_store
    ):
        path = self._saved(packed_store)
        raw = path.read_bytes()
        path.write_bytes(raw[:-40])
        assert dataset_cache.load_store(KEY) is None
        assert not path.exists()

    def test_flipped_column_byte_fails_crc(
        self, _tmp_cache, packed_store, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_VERIFY", "1")
        path = self._saved(packed_store)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # last byte lives in the column region
        path.write_bytes(bytes(raw))
        assert dataset_cache.load_store(KEY) is None
        assert not path.exists()

    def test_damaged_envelope_rejected_and_deleted(
        self, _tmp_cache, packed_store
    ):
        path = self._saved(packed_store)
        raw = bytearray(path.read_bytes())
        raw[dataset_cache._MMAP_HEADER.size + 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert dataset_cache.load_store(KEY) is None
        assert not path.exists()

    def test_peek_meta_rejects_damaged_envelope(
        self, _tmp_cache, packed_store
    ):
        path = self._saved(packed_store)
        raw = bytearray(path.read_bytes())
        raw[dataset_cache._MMAP_HEADER.size + 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert dataset_cache.peek_meta(KEY) is None
        assert not path.exists()


class TestBlobSpill:
    """The out-of-core adoption sink, exercised the way the parallel
    runner drives it: per-chunk payloads in, mmap-backed payload out."""

    @pytest.fixture()
    def chunk_payloads(self, small_window_store):
        # One payload per month — the runner's chunk granularity at scale.
        split = split_by_month(pack_records(small_window_store.records()))
        return [split[month] for month in sorted(split)]

    def test_spill_answers_equal_in_memory_merge(
        self, _tmp_cache, chunk_payloads
    ):
        spill = dataset_cache.BlobSpill()
        for payload in chunk_payloads:
            spill.add_payload(payload)
        spilled = NotaryStore()
        spilled.attach_packed(PackedDataset(spill.finish_payload()))
        merged = NotaryStore()
        merged.attach_packed(
            PackedDataset(merge_packed(chunk_payloads))
        )
        _assert_stores_identical(spilled, merged)

    def test_spill_backed_store_seals_and_reloads(
        self, _tmp_cache, chunk_payloads, packed_store
    ):
        spill = dataset_cache.BlobSpill()
        for payload in chunk_payloads:
            spill.add_payload(payload)
        store = NotaryStore()
        store.attach_packed(PackedDataset(spill.finish_payload()))
        assert store.packed_spill() is spill  # save takes the splice path
        _save_mmap(store)
        warm = dataset_cache.load_store(KEY)
        assert warm is not None
        _assert_stores_identical(warm, packed_store, rng_seed=0xD15C)

    def test_re_adding_a_spilled_month_is_idempotent(self, chunk_payloads):
        spill = dataset_cache.BlobSpill()
        spill.add_payload(chunk_payloads[0])
        sealed = spill.columns_len
        spill.add_payload(chunk_payloads[0])
        assert spill.columns_len == sealed
        assert len(spill.descriptors) == 1

    def test_day_carrying_months_cannot_spill(self, montecarlo_store):
        payload = pack_records(montecarlo_store.records())
        spill = dataset_cache.BlobSpill()
        with pytest.raises(ValueError, match="day-carrying"):
            spill.add_payload(payload)

    @pytest.mark.parametrize("packed", [False, True], ids=["records", "packed"])
    def test_day_carrying_store_cannot_be_saved(
        self, _tmp_cache, montecarlo_store, packed
    ):
        store = montecarlo_store
        if packed:
            store = NotaryStore()
            store.attach_packed(
                PackedDataset(pack_records(montecarlo_store.records()))
            )
        with pytest.raises(ValueError, match="day-carrying"):
            dataset_cache.save_store(store, KEY, META)
        assert not dataset_cache.store_path(KEY).exists()

    def test_wrong_partition_format_rejected(self):
        spill = dataset_cache.BlobSpill()
        with pytest.raises(ValueError, match="unsupported partition format"):
            spill.add_payload({"format": 999, "shapes": [], "months": {}})

    def test_empty_spill_finishes_to_empty_payload(self):
        spill = dataset_cache.BlobSpill()
        payload = spill.finish_payload()
        assert payload["months"] == {}
        assert payload["shapes"] == []
