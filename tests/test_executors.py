"""Executor-interface tests: backend selection, the WorkSpec contract,
and the scheduler knobs' oversubscription diagnostics (PR 10).

The byte-identity half of the executor contract lives in the
differential suites (``test_engine.py`` / ``test_faults.py`` /
``test_serve.py``, parametrized over backends); this file covers the
interface mechanics those suites lean on.
"""

from __future__ import annotations

import os

import pytest

from repro.engine import executors, runner
from repro.engine.executors import ChunkTimeout, WorkSpec
from repro.engine.perf import PERF


def _double(job):
    return job * 2


def _boom(job):
    raise ValueError(f"boom on {job!r}")


def _sleepy(job):
    import time

    time.sleep(30)
    return job


class TestResolveBackend:
    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "spawn")
        assert executors.resolve_backend("inline") == "inline"

    def test_env_honored_when_no_explicit(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "inline")
        assert executors.resolve_backend(None) == "inline"

    def test_default_without_either(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert executors.resolve_backend(None) == executors.default_backend()

    def test_explicit_typo_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            executors.resolve_backend("frok")

    def test_malformed_env_degrades_with_default(self, monkeypatch):
        # A stale env var must not kill a run — same policy as every
        # other REPRO_* knob.
        monkeypatch.setenv("REPRO_BACKEND", "frok")
        assert executors.resolve_backend(None) == executors.default_backend()

    def test_explicit_is_normalized(self):
        assert executors.resolve_backend(" SPAWN ") == "spawn"


class TestInlineExecutor:
    def test_runs_inline_fn_when_given(self):
        spec = WorkSpec(pool_fn=_boom, inline_fn=_double)
        ex = executors.create_executor("inline", spec, slots=4)
        assert ex.submit(21).result() == 42

    def test_falls_back_to_pool_fn(self):
        ex = executors.create_executor("inline", WorkSpec(pool_fn=_double), 1)
        assert ex.submit(3).result() == 6

    def test_exception_replays_from_result_not_submit(self):
        """Failure transparency: the error surfaces where the scheduler
        collects, not where it submits — same shape as a pool."""
        ex = executors.create_executor("inline", WorkSpec(pool_fn=_boom), 1)
        pending = ex.submit("x")  # must not raise here
        with pytest.raises(ValueError, match="boom on 'x'"):
            pending.result()

    def test_never_preemptible(self):
        ex = executors.create_executor("inline", WorkSpec(pool_fn=_double), 1)
        assert ex.preemptible is False
        ex.close()

    def test_initializer_never_runs_in_parent(self):
        """Contract point 4: no parent-state mutation."""
        ran = []
        spec = WorkSpec(
            pool_fn=_double, initializer=lambda: ran.append(1)
        )
        ex = executors.create_executor("inline", spec, 1)
        assert ex.submit(1).result() == 2
        assert ran == []


@pytest.mark.parametrize(
    "backend",
    [
        pytest.param(
            "fork",
            marks=pytest.mark.skipif(
                not executors.fork_available(), reason="no fork"
            ),
        ),
        "spawn",
    ],
)
class TestPoolExecutors:
    def test_roundtrip(self, backend):
        ex = executors.create_executor(backend, WorkSpec(pool_fn=_double), 2)
        try:
            pendings = [ex.submit(i) for i in range(5)]
            assert [p.result(30) for p in pendings] == [0, 2, 4, 6, 8]
        finally:
            ex.close()

    def test_worker_exception_propagates(self, backend):
        ex = executors.create_executor(backend, WorkSpec(pool_fn=_boom), 1)
        try:
            with pytest.raises(ValueError, match="boom"):
                ex.submit("job").result(30)
        finally:
            ex.close()

    def test_deadline_miss_raises_chunk_timeout(self, backend):
        ex = executors.create_executor(backend, WorkSpec(pool_fn=_sleepy), 1)
        try:
            with pytest.raises(ChunkTimeout):
                ex.submit(1).result(0.2)
        finally:
            ex.close()  # must reclaim the still-hung worker

    def test_preemptible(self, backend):
        ex = executors.create_executor(backend, WorkSpec(pool_fn=_double), 1)
        assert ex.preemptible is True
        ex.close()


class TestUnknownBackend:
    def test_create_executor_rejects_typos(self):
        with pytest.raises(ValueError, match="unknown backend"):
            executors.create_executor("threads", WorkSpec(pool_fn=_double), 1)


class TestOversubscriptionWarnings:
    """resolve_* warn (never clamp) when an explicit knob exceeds the
    CPU-reasonable bound — PR 10 satellite."""

    def test_explicit_workers_over_bound_warns(self):
        bound = 2 * (os.cpu_count() or 1)
        PERF.reset()
        assert runner.resolve_workers(bound + 1) == bound + 1  # honored
        assert PERF.oversubscription_warnings == 1

    def test_reasonable_values_stay_silent(self):
        PERF.reset()
        runner.resolve_workers(None)  # the CPU default never warns
        runner.resolve_workers(1)
        runner.resolve_workers(0)
        assert PERF.oversubscription_warnings == 0

    def test_chunk_months_over_bound_warns(self):
        # A span so wide the 76-month study yields fewer chunks than
        # CPUs defeats load balancing: honored, but flagged.
        bound = max(1, 76 // (os.cpu_count() or 1))
        PERF.reset()
        assert runner.resolve_chunk_months(bound + 1) == bound + 1
        assert PERF.oversubscription_warnings == 1
        PERF.reset()
        assert runner.resolve_chunk_months(None) is None  # auto: silent
        assert runner.resolve_chunk_months(1) == 1
        assert PERF.oversubscription_warnings == 0
