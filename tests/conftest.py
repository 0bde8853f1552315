"""Shared fixtures: small, session-scoped simulations keep tests fast."""

from __future__ import annotations

import datetime as dt
import os
import random

import pytest


@pytest.fixture(scope="session", autouse=True)
def _isolated_cache_dir(tmp_path_factory):
    """Keep dataset blobs and run checkpoints out of the user's real
    ``~/.cache/repro`` (unless the environment already redirects it)."""
    if not os.environ.get("REPRO_CACHE_DIR", "").strip():
        os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("repro-cache"))

from repro.clients.population import default_population
from repro.notary import PassiveMonitor, TrafficGenerator
from repro.servers import ServerPopulation
from repro.simulation.ecosystem import EcosystemModel


@pytest.fixture(scope="session")
def client_population():
    return default_population()


@pytest.fixture(scope="session")
def server_population():
    return ServerPopulation()


@pytest.fixture(scope="session")
def record_level_store(client_population, server_population):
    """Factory for the record-level oracle over ``[start, end)``.

    The plain generator loop into a :class:`PassiveMonitor` — no run
    engine, no packing, no spill — so it stays an independent reference
    for every engine path (serial included) that must match it exactly.
    """

    def build(start: dt.date, end: dt.date):
        monitor = PassiveMonitor()
        TrafficGenerator(
            client_population, server_population, monitor
        ).run_expectation(start, end)
        return monitor.store

    return build


@pytest.fixture(scope="session")
def small_window_store(client_population, server_population):
    """Expectation-mode store over 2014-06 .. 2015-06 (13 months)."""
    monitor = PassiveMonitor()
    generator = TrafficGenerator(client_population, server_population, monitor)
    generator.run_expectation(dt.date(2014, 6, 1), dt.date(2015, 6, 1))
    return monitor.store


@pytest.fixture(scope="session")
def late_window_store(client_population, server_population):
    """Expectation-mode store over 2018-01 .. 2018-04 (TLS 1.3 era)."""
    monitor = PassiveMonitor()
    generator = TrafficGenerator(client_population, server_population, monitor)
    generator.run_expectation(dt.date(2018, 1, 1), dt.date(2018, 4, 1))
    return monitor.store


@pytest.fixture(scope="session")
def early_window_store(client_population, server_population):
    """Expectation-mode store over 2012-02 .. 2012-06 (pre-fingerprints)."""
    monitor = PassiveMonitor()
    generator = TrafficGenerator(client_population, server_population, monitor)
    generator.run_expectation(dt.date(2012, 2, 1), dt.date(2012, 6, 1))
    return monitor.store


@pytest.fixture(scope="session")
def montecarlo_store(client_population, server_population):
    """Sampled store over 2014-10 .. 2015-06, day resolution."""
    monitor = PassiveMonitor()
    generator = TrafficGenerator(client_population, server_population, monitor)
    generator.run_montecarlo(
        dt.date(2014, 10, 1),
        dt.date(2015, 6, 1),
        connections_per_month=400,
        rng=random.Random(13),
    )
    return monitor.store


@pytest.fixture(scope="session")
def fingerprint_db(client_population):
    from repro.core.database import build_default_database

    return build_default_database(client_population)
