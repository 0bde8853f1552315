"""Deterministic fault-matrix tests for the resilient run engine.

Every scenario injected here — worker crashes, hangs past the chunk
timeout, corrupted partitions, mutilated cache blobs, a SIGKILL'd run —
must end one of exactly two ways: a store byte-identical to the clean
serial baseline, or a clean degradation to a rebuild.  Never a
traceback to the caller.  Fault schedules are pure functions of a seed
(:mod:`repro.engine.faults`), so every scenario replays exactly.
"""

from __future__ import annotations

import datetime as dt
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.core import figures
from repro.engine import cache as dataset_cache
from repro.engine import executors, faults, runner
from repro.engine.partition import pack_records, split_by_month
from repro.engine.perf import PERF

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


@pytest.fixture(autouse=True)
def _hermetic(tmp_path, monkeypatch):
    """Own cache dir per test; no ambient or leaked fault plan."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    faults.clear()
    yield
    faults.clear()


@pytest.fixture(scope="module")
def baseline(record_level_store):
    """The record-level oracle every recovery must reproduce exactly
    (plain generator loop: shares no scheduler or spill code)."""
    return record_level_store(START, END)


def assert_identical(store, baseline) -> None:
    assert store.months() == baseline.months()
    assert store.records() == baseline.records()
    for figure in ALL_FIGURES:
        assert figure(store) == figure(baseline)


class TestFaultMatrix:
    """One injected scenario per row; all must recover byte-identically."""

    @pytest.mark.parametrize(
        "spec, timeout, expect",
        [
            pytest.param("worker_crash:0.7,seed:1", None, "chunk_retries", id="worker-crash"),
            pytest.param("worker_crash:1.0", None, "inline_fallbacks", id="worker-crash-always"),
            pytest.param("month_crash:0.5,seed:2", None, "chunk_retries", id="month-crash"),
            pytest.param("pack_corrupt:1.0", None, "chunk_retries", id="corrupt-partition"),
            pytest.param("chunk_hang:1.0,hang_seconds:3", 0.5, "chunk_timeouts", id="hang-past-timeout"),
            pytest.param(
                "worker_crash:0.3,month_crash:0.2,pack_corrupt:0.2,seed:7",
                None, None, id="mixed-schedule",
            ),
        ],
    )
    @pytest.mark.parametrize("backend", list(executors.BACKENDS))
    def test_recovers_byte_identical(
        self, client_population, server_population, baseline, spec, timeout,
        expect, backend,
    ):
        if backend == "fork" and not executors.fork_available():
            pytest.skip("fork start method unavailable")
        PERF.reset()
        store = runner.run_expectation(
            client_population, server_population, START, END,
            workers=2, faults_spec=spec,
            chunk_timeout=timeout or runner.DEFAULT_CHUNK_TIMEOUT,
            backend=backend,
        )
        if backend == "inline":
            # The inline backend is the fault-suppressed in-parent path
            # promoted to a first-class executor: nothing injects, so
            # recovery counters stay silent by design — byte-identity
            # is the whole assertion.
            assert PERF.faults_injected == 0
        elif expect is not None:
            assert getattr(PERF, expect) > 0, expect
        assert_identical(store, baseline)

    def test_hundred_percent_crash_rate_terminates_via_inline(
        self, client_population, server_population, baseline
    ):
        """The suppressed inline path is the termination guarantee."""
        PERF.reset()
        store = runner.run_expectation(
            client_population, server_population, START, END,
            workers=2, faults_spec="worker_crash:1.0,pack_corrupt:1.0",
        )
        assert PERF.inline_fallbacks > 0
        assert_identical(store, baseline)

    def test_serial_path_ignores_worker_faults(
        self, client_population, server_population, baseline
    ):
        store = runner.run_expectation(
            client_population, server_population, START, END,
            workers=0, faults_spec="worker_crash:1.0,chunk_hang:1.0",
        )
        assert_identical(store, baseline)

    def test_schedule_is_deterministic(self):
        plan = faults.FaultPlan.parse("worker_crash:0.4,seed:9")
        draws = [plan.fires("worker_crash", f"c{i}.a0") for i in range(64)]
        assert draws == [plan.fires("worker_crash", f"c{i}.a0") for i in range(64)]
        assert any(draws) and not all(draws)

    def test_malformed_spec_entries_degrade_to_noop(self):
        plan = faults.FaultPlan.parse("worker_crash:nope,unknown:1.0,:,seed:x,,")
        assert not plan.active()


class TestCacheHygiene:
    """Blob integrity, delete-on-reject, eviction, and the build lock."""

    @pytest.fixture
    def saved(self, baseline, client_population, server_population):
        key = dataset_cache.dataset_key(
            client_population, server_population, START, END
        )
        path = dataset_cache.save_store(baseline, key)
        assert path is not None
        return key, path

    @pytest.mark.parametrize(
        "mutate",
        [
            pytest.param(lambda raw: raw[: len(raw) // 2], id="truncation"),
            pytest.param(lambda raw: bytes([raw[0] ^ 0xFF]) + raw[1:], id="bit-flip"),
            pytest.param(lambda raw: b"xy", id="shorter-than-footer"),
        ],
    )
    def test_damaged_blob_is_culled_then_rebuilt(self, saved, baseline, mutate):
        key, path = saved
        path.write_bytes(mutate(path.read_bytes()))
        PERF.reset()
        assert dataset_cache.load_store(key) is None
        assert not path.exists()  # deleted on rejection, not left to rot
        assert PERF.cache_corrupt_deleted == 1
        # The clean rebuild re-seals and loads again.
        assert dataset_cache.save_store(baseline, key) is not None
        warm = dataset_cache.load_store(key)
        assert warm is not None
        assert_identical(warm, baseline)

    def test_format_skew_is_culled(self, saved):
        key, path = saved
        dataset_cache._write_blob(
            path, {"format": -1, "key": key, "records": {}}, "test"
        )
        assert dataset_cache.load_store(key) is None
        assert not path.exists()

    def test_injected_write_corruption_detected_on_read(self, baseline, saved):
        key, path = saved
        faults.configure("cache_write:1.0")
        dataset_cache.save_store(baseline, key)
        faults.clear()
        assert dataset_cache.load_store(key) is None
        assert not path.exists()

    def test_injected_read_corruption_is_miss_never_error(self, saved):
        key, _ = saved
        faults.configure("cache_read:1.0")
        PERF.reset()
        assert dataset_cache.load_store(key) is None
        assert PERF.dataset_cache_misses == 1

    def test_lru_eviction_drops_oldest_first(self, baseline, saved):
        key, path = saved
        other = "f" * 64
        time.sleep(0.05)
        kept = dataset_cache.save_store(baseline, other)
        PERF.reset()
        evicted = dataset_cache.evict_lru(max_bytes=kept.stat().st_size + 16)
        assert evicted == 1
        assert not path.exists() and kept.exists()
        assert PERF.cache_evictions == 1

    def test_build_lock_excludes_second_builder(self, saved):
        key, _ = saved
        with dataset_cache.build_lock(key) as first:
            assert first
            with dataset_cache.build_lock(key) as second:
                assert not second
        with dataset_cache.build_lock(key) as again:
            assert again  # released on exit

    def test_stale_lock_is_broken(self, saved):
        key, _ = saved
        lock = dataset_cache._lock_path(key)
        lock.write_text("999999\n")
        ancient = time.time() - 7200
        os.utime(lock, (ancient, ancient))
        with dataset_cache.build_lock(key) as acquired:
            assert acquired


class TestKillAndResume:
    """Checkpointed shards: a dead run resumes instead of restarting."""

    @pytest.mark.parametrize(
        "workers, backend",
        [pytest.param(2, backend, id=backend) for backend in executors.BACKENDS]
        + [pytest.param(0, None, id="serial")],
    )
    def test_resume_adopts_checkpointed_months(
        self, client_population, server_population, baseline, workers,
        backend,
    ):
        """Checkpoint adoption is scheduler policy, so it must behave
        identically on every execution backend — and on a serial run,
        which is the scheduler with one inline chunk."""
        if backend == "fork" and not executors.fork_available():
            pytest.skip("fork start method unavailable")
        key = dataset_cache.dataset_key(
            client_population, server_population, START, END
        )
        split = split_by_month(pack_records(baseline.records()))
        seeded = dict(list(split.items())[:2])
        dataset_cache.Checkpoint(key).save_months(seeded)
        PERF.reset()
        store = runner.run_expectation(
            client_population, server_population, START, END,
            workers=workers, resume=True, backend=backend,
        )
        assert PERF.resumed_months == len(seeded)
        assert_identical(store, baseline)
        assert not dataset_cache.Checkpoint(key).dir.exists()  # cleared

    def test_corrupt_checkpoint_is_culled_and_month_resimulated(
        self, client_population, server_population, baseline
    ):
        key = dataset_cache.dataset_key(
            client_population, server_population, START, END
        )
        checkpoint = dataset_cache.Checkpoint(key)
        split = split_by_month(pack_records(baseline.records()))
        checkpoint.save_months(dict(list(split.items())[:2]))
        victim = sorted(checkpoint.dir.glob("*.bin"))[0]
        victim.write_bytes(b"garbage")
        PERF.reset()
        store = runner.run_expectation(
            client_population, server_population, START, END,
            workers=2, resume=True,
        )
        assert PERF.resumed_months == 1
        assert PERF.cache_corrupt_deleted >= 1
        assert_identical(store, baseline)

    def test_sigkilled_run_resumes_from_checkpoints(
        self, tmp_path, client_population, server_population,
        record_level_store,
    ):
        """Kill a parallel run outright mid-flight, then resume it.

        The child runs with a deterministic hang schedule (chunk 0
        completes and checkpoints, later chunks hang), so checkpoint
        files are guaranteed to land while the run is still alive to be
        killed.  The resumed run must re-simulate only the unfinished
        months and match the serial baseline exactly.
        """
        start, end = dt.date(2014, 1, 1), dt.date(2015, 6, 1)
        script = (
            "import datetime as dt\n"
            "from repro.clients.population import default_population\n"
            "from repro.servers import ServerPopulation\n"
            "from repro.engine import runner\n"
            "runner.run_expectation(default_population(), ServerPopulation(),\n"
            "    dt.date(2014, 1, 1), dt.date(2015, 6, 1), workers=2,\n"
            "    chunk_months=2)\n"
        )
        env = dict(os.environ)
        env.update(
            PYTHONPATH=os.pathsep.join(sys.path),
            REPRO_CACHE_DIR=str(tmp_path),
            REPRO_FAULTS="chunk_hang:0.5,hang_seconds:300,seed:0",
        )
        child = subprocess.Popen(
            [sys.executable, "-c", script], env=env, start_new_session=True
        )
        try:
            deadline = time.monotonic() + 120
            checkpoint_glob = tmp_path / "checkpoints"
            while time.monotonic() < deadline:
                if child.poll() is not None:
                    pytest.fail("child finished before it could be killed")
                if list(checkpoint_glob.glob("*/*.bin")):
                    break
                time.sleep(0.05)
            else:
                pytest.fail("no checkpoint files appeared before the deadline")
        finally:
            try:
                os.killpg(os.getpgid(child.pid), signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            child.wait(timeout=30)
        survivors = list(checkpoint_glob.glob("*/*.bin"))
        assert survivors, "kill landed before any checkpoint was spilled"

        PERF.reset()
        resumed = runner.run_expectation(
            client_population, server_population, start, end,
            workers=2, resume=True,
        )
        assert PERF.resumed_months >= 1
        serial = record_level_store(start, end)
        assert resumed.months() == serial.months()
        assert resumed.records() == serial.records()
        for figure in ALL_FIGURES:
            assert figure(resumed) == figure(serial)
