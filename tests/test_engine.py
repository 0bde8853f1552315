"""Run-engine tests: parallel sharding, columnar packing, dataset cache.

The engine's whole contract is *exact* equivalence: a parallel run, a
packed round-trip, an indexed aggregate, and a warm cache load must all
be byte-identical to the plain serial path — so every comparison below
is ``==``, never ``approx``.
"""

from __future__ import annotations

import datetime as dt
import os
import random
import subprocess
import sys

import pytest

from repro.core import figures
from repro.engine import cache as dataset_cache
from repro.engine import executors, faults, runner
from repro.engine.partition import (
    PackedDataset,
    pack_records,
    split_by_month,
    unpack_records,
    validate_payload,
)
from repro.engine.perf import PERF
from repro.notary import PassiveMonitor, TrafficGenerator
from repro.notary.query import NegotiatedVersion
from repro.notary.store import NotaryStore

START = dt.date(2014, 6, 1)
END = dt.date(2014, 9, 1)

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


@pytest.fixture(scope="module")
def serial_store(record_level_store):
    """The record-level oracle (plain generator loop, no run engine)."""
    return record_level_store(START, END)


@pytest.fixture(scope="module")
def parallel_store(client_population, server_population):
    return runner.run_expectation(
        client_population, server_population, START, END, workers=2
    )


class TestParallelEquivalence:
    def test_same_months_and_size(self, serial_store, parallel_store):
        assert serial_store.months() == parallel_store.months()
        assert len(serial_store) == len(parallel_store)

    def test_records_identical_per_month(self, serial_store, parallel_store):
        for month in serial_store.months():
            assert serial_store.records(month) == parallel_store.records(month)

    @pytest.mark.parametrize("figure", ALL_FIGURES, ids=lambda f: f.__name__)
    def test_every_figure_identical(self, serial_store, parallel_store, figure):
        assert figure(serial_store) == figure(parallel_store)

    def test_resolve_workers_precedence(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert runner.resolve_workers(None) == 3
        assert runner.resolve_workers(5) == 5
        assert runner.resolve_workers(0) == 0
        monkeypatch.delenv("REPRO_WORKERS")
        assert runner.resolve_workers(None) == (os.cpu_count() or 1)

    def test_resolve_workers_ignores_garbage_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "abc")
        assert runner.resolve_workers(None) == (os.cpu_count() or 1)

    def test_resolve_workers_rejects_negatives_as_malformed(self, monkeypatch):
        # A negative count is a typo, not a request for serial mode:
        # it must fall back to the CPU count like any malformed value.
        monkeypatch.setenv("REPRO_WORKERS", "-3")
        assert runner.resolve_workers(None) == (os.cpu_count() or 1)
        monkeypatch.delenv("REPRO_WORKERS")
        assert runner.resolve_workers(-2) == (os.cpu_count() or 1)


class TestDifferentialResilience:
    """Property-style: random worker counts, chunk sizes, fault
    schedules, and execution backends must never perturb a single
    figure aggregate.

    The backend axis is the PR 10 executor contract in action: fork,
    inline, and spawn all run the same scheduler policy, so each must
    produce byte-identical stores and figures under the same seeded
    schedule.  (Inline runs the fault-suppressed in-parent path, so a
    fault-heavy schedule simply injects nothing there — the identity
    assertion is the point, not the recovery counters.)
    """

    @pytest.mark.parametrize("backend", list(executors.BACKENDS))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_seeded_schedules_match_serial(
        self, serial_store, client_population, server_population,
        seed, backend, tmp_path, monkeypatch,
    ):
        if backend == "fork" and not executors.fork_available():
            pytest.skip("fork start method unavailable")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        rng = random.Random(seed)
        workers = rng.randint(0, 8)
        chunk_months = rng.randint(1, 3)
        spec = ",".join(
            f"{kind}:{rng.uniform(0.1, 0.6):.2f}"
            for kind in rng.sample(
                ["worker_crash", "month_crash", "pack_corrupt", "chunk_hang"],
                k=rng.randint(1, 3),
            )
        ) + f",hang_seconds:0.3,seed:{rng.randint(0, 999)}"
        try:
            store = runner.run_expectation(
                client_population, server_population, START, END,
                workers=workers, chunk_months=chunk_months, faults_spec=spec,
                backend=backend,
            )
        finally:
            faults.clear()
        assert store.months() == serial_store.months()
        assert store.records() == serial_store.records()
        for figure in ALL_FIGURES:
            assert figure(store) == figure(serial_store)


class TestIndexedAggregation:
    @pytest.mark.parametrize("figure", ALL_FIGURES, ids=lambda f: f.__name__)
    def test_index_matches_scan(self, small_window_store, figure):
        indexed = figure(small_window_store)
        small_window_store.use_index = False
        try:
            scanned = figure(small_window_store)
        finally:
            small_window_store.use_index = True
        assert indexed == scanned

    def test_index_matches_scan_on_packed_store(self, parallel_store):
        # The parallel store holds packed months: its index builds from
        # columns, the scan path from materialized records.
        indexed = figures.fig1_negotiated_versions(parallel_store)
        parallel_store.use_index = False
        try:
            scanned = figures.fig1_negotiated_versions(parallel_store)
        finally:
            parallel_store.use_index = True
        assert indexed == scanned

    def test_plain_callable_falls_back_to_scan(self, small_window_store):
        month = START
        predicate = NegotiatedVersion("TLSv12")
        as_lambda = lambda r: r.negotiated_version == "TLSv12"  # noqa: E731
        assert small_window_store.weight_where(
            month, predicate
        ) == small_window_store.weight_where(month, as_lambda)


class TestPartitionCodec:
    def test_expectation_roundtrip_exact(self, serial_store):
        packed = pack_records(serial_store.records())
        assert unpack_records(packed) == serial_store.records()

    def test_montecarlo_days_survive(self, montecarlo_store):
        packed = pack_records(montecarlo_store.records())
        restored = unpack_records(packed)
        assert restored == montecarlo_store.records()
        assert any(r.day is not None for r in restored)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            PackedDataset({"format": 999, "shapes": [], "months": {}})

    def test_attach_packed_is_lazy(self, serial_store):
        store = NotaryStore()
        store.attach_packed(PackedDataset(pack_records(serial_store.records())))
        assert store._packed  # months stayed columnar
        assert len(store) == len(serial_store)
        assert store.months() == serial_store.months()
        # A scan materializes transiently: the result is exact and the
        # month stays packed (only mutation converts it for good).
        assert store.records(START) == serial_store.records(START)
        assert START in store._packed
        assert START in store._mat_cache
        # Mutation is the permanent path.
        store.add(serial_store.records(START)[0])
        assert START not in store._packed
        assert START not in store._mat_cache

    def test_attach_packed_collision_appends(self, serial_store):
        store = NotaryStore()
        payload = pack_records(serial_store.records(START))
        store.attach_packed(PackedDataset(payload))
        store.attach_packed(PackedDataset(payload))
        assert len(store.records(START)) == 2 * len(serial_store.records(START))

    def test_attach_packed_idempotent_skips_collisions(self, serial_store):
        # The engine's recovery paths re-present months the store may
        # already hold (checkpoint resume); idempotent attach must not
        # double them.
        store = NotaryStore()
        payload = pack_records(serial_store.records(START))
        store.attach_packed(PackedDataset(payload))
        store.attach_packed(PackedDataset(payload), idempotent=True)
        assert store.records(START) == serial_store.records(START)

    def test_split_by_month_reassembles_exactly(self, serial_store):
        split = split_by_month(pack_records(serial_store.records()))
        assert sorted(split) == serial_store.months()
        store = NotaryStore()
        for part in split.values():
            assert validate_payload(part)
            store.attach_packed(PackedDataset(part))
        assert store.records() == serial_store.records()

    def test_validate_payload_catches_corruption(self, serial_store):
        months = serial_store.months()
        good = pack_records(serial_store.records())
        assert validate_payload(good, months)
        skewed = pack_records(serial_store.records())
        skewed["format"] = -1
        assert not validate_payload(skewed, months)
        truncated = pack_records(serial_store.records())
        next(iter(truncated["months"].values()))["weights"].pop()
        assert not validate_payload(truncated, months)
        dropped = pack_records(serial_store.records())
        dropped["months"].pop(next(iter(dropped["months"])))
        assert not validate_payload(dropped, months)
        assert not validate_payload("not a payload", months)


class TestStoreBatching:
    def test_add_batch_equals_adds(self, serial_store):
        month = START
        records = serial_store.records(month)
        one_by_one = NotaryStore()
        for record in records:
            one_by_one.add(record)
        batched = NotaryStore()
        batched.add_batch(month, records)
        assert one_by_one.records(month) == batched.records(month)
        assert one_by_one.total_weight(month) == batched.total_weight(month)

    def test_extend_groups_by_month(self, serial_store):
        store = NotaryStore()
        store.extend(serial_store.records())
        assert store.months() == serial_store.months()
        for month in store.months():
            assert store.records(month) == serial_store.records(month)

    def test_mutation_invalidates_index(self, serial_store):
        store = NotaryStore()
        records = serial_store.records(START)
        store.add_batch(START, records)
        before = store.total_weight(START)  # builds the index
        store.add_batch(START, records)
        assert store.total_weight(START) == pytest.approx(2 * before)


class TestDatasetCache:
    @pytest.fixture(autouse=True)
    def _tmp_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))

    def test_roundtrip_exact(self, serial_store, client_population, server_population):
        key = dataset_cache.dataset_key(
            client_population, server_population, START, END
        )
        dataset_cache.save_store(serial_store, key)
        warm = dataset_cache.load_store(key)
        assert warm is not None
        assert len(warm) == len(serial_store)
        for figure in ALL_FIGURES:
            assert figure(warm) == figure(serial_store)
        assert warm.records() == serial_store.records()

    def test_warm_load_skips_simulation(
        self, serial_store, client_population, server_population
    ):
        key = dataset_cache.dataset_key(
            client_population, server_population, START, END
        )
        dataset_cache.save_store(serial_store, key)
        PERF.reset()
        warm = dataset_cache.load_store(key)
        # A warm load runs zero negotiations: the store comes straight
        # off disk, figure-ready via the embedded aggregate indexes.
        assert PERF.negotiations == 0
        assert PERF.dataset_cache_hits == 1
        assert figures.fig1_negotiated_versions(warm)
        assert PERF.negotiations == 0

    def test_missing_key_is_miss(self):
        PERF.reset()
        assert dataset_cache.load_store("0" * 64) is None
        assert PERF.dataset_cache_misses == 1

    def test_corrupt_blob_is_miss_and_deleted(
        self, serial_store, client_population, server_population
    ):
        key = dataset_cache.dataset_key(
            client_population, server_population, START, END
        )
        path = dataset_cache.save_store(serial_store, key)
        path.write_bytes(b"not a dataset")
        assert dataset_cache.load_store(key) is None
        # Regression: the rejected blob used to stay on disk forever,
        # making every future run pay the read-and-fail cost.
        assert not path.exists()
        assert dataset_cache.save_store(serial_store, key) is not None
        assert dataset_cache.load_store(key) is not None

    def test_key_depends_on_window(self, client_population, server_population):
        a = dataset_cache.dataset_key(client_population, server_population, START, END)
        b = dataset_cache.dataset_key(
            client_population, server_population, START, END + dt.timedelta(days=40)
        )
        assert a != b


class TestStableSeeding:
    def test_hellos_identical_across_hash_randomization(self):
        """Two interpreters with different PYTHONHASHSEED must generate
        byte-identical traffic (the old builtin-``hash`` seeds broke this).
        """
        script = (
            "import datetime as dt, hashlib\n"
            "from repro.clients.population import default_population\n"
            "from repro.notary import PassiveMonitor, TrafficGenerator\n"
            "from repro.servers import ServerPopulation\n"
            "monitor = PassiveMonitor()\n"
            "generator = TrafficGenerator("
            "default_population(), ServerPopulation(), monitor)\n"
            "generator.run_expectation_month(dt.date(2015, 6, 1))\n"
            "digest = hashlib.sha256()\n"
            "for r in monitor.store.records():\n"
            "    digest.update(repr((r.client_family, r.client_version,"
            " r.fingerprint, r.negotiated_suite, r.weight)).encode())\n"
            "print(digest.hexdigest())\n"
        )

        def run(hashseed: str) -> str:
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hashseed
            env["PYTHONPATH"] = os.pathsep.join(sys.path)
            out = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, check=True,
            )
            return out.stdout.strip()

        assert run("1") == run("31337")
