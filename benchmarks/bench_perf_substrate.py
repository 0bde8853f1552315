"""Throughput benchmarks of the hot substrate paths.

Not paper experiments — these are the library's own performance
envelope: wire encode/decode, negotiation, and fingerprint extraction
all sit on the expectation-mode inner loop, and regressions here make
the full 76-month simulation visibly slower.
"""

import random

from repro.clients import chrome
from repro.core.fingerprint import Fingerprint
from repro.servers.archetypes import TLS12_ECDHE_GCM
from repro.tls.wire import decode_client_hello, encode_client_hello

_HELLO = chrome.family().release("49").build_hello(rng=random.Random(1))
_WIRE = encode_client_hello(_HELLO)


def test_perf_encode_client_hello(benchmark):
    wire = benchmark(encode_client_hello, _HELLO)
    assert wire == _WIRE


def test_perf_decode_client_hello(benchmark):
    decoded = benchmark(decode_client_hello, _WIRE)
    assert decoded.cipher_suites == _HELLO.cipher_suites


def test_perf_negotiate(benchmark):
    result = benchmark(TLS12_ECDHE_GCM.respond, _HELLO)
    assert result.ok


def test_perf_fingerprint_extraction(benchmark):
    fingerprint = benchmark(Fingerprint.from_client_hello, _HELLO)
    assert len(fingerprint.digest) == 32


def test_perf_expectation_month(benchmark):
    """One full expectation-mode month (cold caches)."""
    import datetime as dt

    from repro.clients.population import default_population
    from repro.notary import PassiveMonitor, TrafficGenerator
    from repro.servers import ServerPopulation

    def run_month():
        monitor = PassiveMonitor()
        generator = TrafficGenerator(default_population(), ServerPopulation(), monitor)
        generator.run_expectation_month(dt.date(2016, 6, 1))
        return len(monitor.store)

    records = benchmark(run_month)
    assert records > 1000


# ---- run engine ------------------------------------------------------------
#
# A short three-month window keeps these affordable in CI; the serial and
# parallel variants bracket the sharding overhead (on multi-core hardware
# the parallel run should approach serial/cores + merge cost).

_ENGINE_WINDOW = None  # (clients, servers, start, end), built lazily


def _engine_window():
    global _ENGINE_WINDOW
    if _ENGINE_WINDOW is None:
        import datetime as dt

        from repro.clients.population import default_population
        from repro.servers import ServerPopulation

        _ENGINE_WINDOW = (
            default_population(),
            ServerPopulation(),
            dt.date(2016, 4, 1),
            dt.date(2016, 6, 1),
        )
    return _ENGINE_WINDOW


def test_perf_engine_run_serial(benchmark):
    from repro.engine import runner

    clients, servers, start, end = _engine_window()

    def run():
        return len(runner.run_expectation(clients, servers, start, end, workers=0))

    records = benchmark.pedantic(run, rounds=1, iterations=1)
    assert records > 3000


def test_perf_engine_run_parallel(benchmark):
    from repro.engine import executors, runner

    clients, servers, start, end = _engine_window()
    if not executors.fork_available():
        import pytest

        pytest.skip("no fork start method on this platform")

    def run():
        return len(runner.run_expectation(clients, servers, start, end, workers=2))

    records = benchmark.pedantic(run, rounds=1, iterations=1)
    assert records > 3000


def test_perf_dataset_cache_load(benchmark, tmp_path, monkeypatch):
    """Warm cache load of a packed window — the repeat-CLI hot path."""
    from repro.engine import cache as dataset_cache
    from repro.engine import runner

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    clients, servers, start, end = _engine_window()
    store = runner.run_expectation(clients, servers, start, end, workers=0)
    key = dataset_cache.dataset_key(clients, servers, start, end)
    dataset_cache.save_store(store, key)

    warm = benchmark(lambda: dataset_cache.load_store(key))
    assert warm is not None
    assert len(warm) == len(store)


def test_perf_indexed_aggregation(benchmark):
    """Figure 1 series off the aggregate index (post-warmup: O(1)/month)."""
    from repro.core import figures
    from repro.engine import runner

    clients, servers, start, end = _engine_window()
    store = runner.run_expectation(clients, servers, start, end, workers=0)
    series = benchmark(figures.fig1_negotiated_versions, store)
    assert series["TLSv12"]
