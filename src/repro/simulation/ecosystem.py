"""The calibrated ecosystem model: one object that runs the whole study.

``EcosystemModel`` wires the client population, server population,
passive monitor and Censys archive together and exposes the datasets
every benchmark consumes.  Results are cached per instance, so a bench
module can share one model across all its experiments.

The model's fields are the run configuration: the CLI resolves its
flags into them once (:func:`repro.cli.model_kwargs`) and nothing here
reads the environment.  The expectation dataset goes through the run
engine (:mod:`repro.engine`): month-sharded across ``workers``, and
persisted to the dataset cache (``REPRO_CACHE_DIR``; disable with
``use_cache=False``) so repeat processes load instead of re-simulating.
"""

from __future__ import annotations

import datetime as _dt
import random
from dataclasses import dataclass, field

from repro import obs
from repro.clients.population import ClientPopulation, default_population
from repro.core.database import FingerprintDatabase, build_default_database
from repro.notary.monitor import PassiveMonitor
from repro.notary.generator import TrafficGenerator
from repro.notary.store import NotaryStore
from repro.scanner.censys import CENSYS_FIRST_SCAN, CENSYS_LAST_SCAN, CensysArchive
from repro.scanner.sslpulse import SslPulse
from repro.servers.population import ServerPopulation

_log = obs.get_logger("repro.simulation.ecosystem")

#: The Notary observation window (§3.1).
STUDY_START = _dt.date(2012, 1, 1)
STUDY_END = _dt.date(2018, 4, 1)


@dataclass
class EcosystemModel:
    """Client + server populations plus the two measurement pipelines."""

    start: _dt.date = STUDY_START
    end: _dt.date = STUDY_END
    seed: int = 7
    clients: ClientPopulation = field(default_factory=default_population)
    servers: ServerPopulation = field(default_factory=ServerPopulation)
    #: Worker processes for the expectation run; None means
    #: ``os.cpu_count()``; 0 forces serial.
    workers: int | None = None
    #: Persistent dataset cache.
    use_cache: bool = True
    #: Ignore any cached dataset and overwrite it with a fresh run.
    rebuild: bool = False
    #: Fault-injection spec (``kind:rate,...``) installed for the run;
    #: None keeps the process plan.  See :mod:`repro.engine.faults`.
    faults: str | None = None
    #: Resume a killed run from its month checkpoints.
    resume: bool = False
    #: Dataset scale multiplier (records per month ×N at weight/N);
    #: must be at least 1.  See
    #: :class:`repro.notary.generator.TrafficGenerator`.
    scale: int = 1

    def __post_init__(self) -> None:
        if self.scale < 1:
            raise ValueError(f"scale must be >= 1, got {self.scale!r}")
        self._passive_store: NotaryStore | None = None
        self._montecarlo_store: NotaryStore | None = None
        self._censys: CensysArchive | None = None
        self._database: FingerprintDatabase | None = None
        self._scans: dict[tuple[str, int], CensysArchive] = {}
        self._pulse: SslPulse | None = None

    # ---- passive (Notary) ----------------------------------------------------

    def _build_passive_store(self) -> NotaryStore:
        from repro.engine import runner

        return runner.run_expectation(
            self.clients, self.servers, self.start, self.end,
            workers=self.workers,
            resume=self.resume,
            faults_spec=self.faults,
            scale=self.scale,
        )

    def passive_store(self) -> NotaryStore:
        """The expectation-mode Notary dataset (memoized + disk-cached).

        On a cache miss the build runs under the advisory per-key build
        lock: if another process is already simulating the same dataset,
        this one waits briefly for that blob to land instead of
        duplicating a multi-minute run (and builds anyway if it never
        does — the lock is advisory, not load-bearing).
        """
        if self._passive_store is None:
            from repro.engine import cache as dataset_cache

            with obs.span(
                "passive_store",
                start=self.start.isoformat(),
                end=self.end.isoformat(),
            ):
                key = None
                store = None
                if self.use_cache:
                    key = dataset_cache.dataset_key(
                        self.clients, self.servers, self.start, self.end,
                        scale=self.scale,
                    )
                    if not self.rebuild:
                        store = dataset_cache.load_store(key)
                if store is None:
                    if key is not None:
                        with dataset_cache.build_lock(key) as acquired:
                            if not acquired and not self.rebuild:
                                _log.info(
                                    "another process is building dataset %s; "
                                    "waiting for its blob",
                                    key[:16],
                                )
                                store = dataset_cache.wait_for_store(key)
                            if store is None:
                                store = self._build_passive_store()
                                dataset_cache.save_store(
                                    store,
                                    key,
                                    meta={
                                        "start": self.start.isoformat(),
                                        "end": self.end.isoformat(),
                                        "records": len(store),
                                        "scale": self.scale,
                                    },
                                )
                    else:
                        store = self._build_passive_store()
                else:
                    _log.debug(
                        "passive store served from dataset cache (%d records)",
                        len(store),
                    )
                self._passive_store = store
        return self._passive_store

    def montecarlo_store(self, connections_per_month: int = 2000) -> NotaryStore:
        """A sampled, day-resolution Notary dataset (cached).

        Stays serial on purpose: the sample stream draws from one
        sequential RNG, so sharding would change the dataset.
        """
        if self._montecarlo_store is None:
            with obs.span(
                "montecarlo_store", connections_per_month=connections_per_month
            ):
                monitor = PassiveMonitor()
                generator = TrafficGenerator(self.clients, self.servers, monitor)
                generator.run_montecarlo(
                    self.start,
                    self.end,
                    connections_per_month=connections_per_month,
                    rng=random.Random(self.seed),
                )
                self._montecarlo_store = monitor.store
        return self._montecarlo_store

    # ---- active (Censys) ------------------------------------------------------

    def censys(
        self,
        probes: tuple[str, ...] = ("chrome2015", "ssl3", "export"),
        interval_days: int = 28,
        start: _dt.date = CENSYS_FIRST_SCAN,
        end: _dt.date = CENSYS_LAST_SCAN,
    ) -> CensysArchive:
        """The Censys-style scan archive over its availability window."""
        if self._censys is None:
            archive = CensysArchive(self.servers, seed=self.seed)
            for probe in probes:
                archive.run_schedule(probe, start=start, end=end, interval_days=interval_days)
            self._censys = archive
        return self._censys

    def scan(self, probe: str, interval_days: int = 56) -> CensysArchive:
        """One probe's scan schedule, cached per (probe, interval)."""
        key = (probe, interval_days)
        archive = self._scans.get(key)
        if archive is None:
            archive = CensysArchive(self.servers, seed=self.seed)
            archive.run_schedule(probe, interval_days=interval_days)
            self._scans[key] = archive
        return archive

    def pulse(self) -> SslPulse:
        """The SSL Pulse-style survey bound to this model's servers."""
        if self._pulse is None:
            self._pulse = SslPulse(self.servers)
        return self._pulse

    # ---- fingerprinting --------------------------------------------------------

    def database(self) -> FingerprintDatabase:
        """The fingerprint database harvested from the client substrate."""
        if self._database is None:
            self._database = build_default_database(self.clients)
        return self._database


_DEFAULT_MODEL: EcosystemModel | None = None


def default_model(**config) -> EcosystemModel:
    """A process-wide shared model, so benches and chained CLI commands
    reuse one simulation.

    ``config`` is :class:`EcosystemModel` fields (``workers``,
    ``use_cache``, ``scale``, ...).  The first call fixes the
    configuration; later calls return the same instance regardless of
    arguments (one dataset per process).
    """
    global _DEFAULT_MODEL
    if _DEFAULT_MODEL is None:
        _DEFAULT_MODEL = EcosystemModel(**config)
    return _DEFAULT_MODEL
