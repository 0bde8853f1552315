"""Traffic generation: client population x server population -> records.

Two modes:

* **Expectation mode** — for every month, every active client release is
  negotiated against every active server variant and the resulting
  record carries the product weight.  Handshakes are cached on
  (release, tls13-flag, server-variant) since both configurations are
  date-independent; a full 2012–2018 run costs only a few thousand real
  negotiations.  This mode produces exact, noise-free monthly series —
  the right tool for Figures 1–3 and 5–10.

* **Monte-Carlo mode** — samples individual connections with real
  randomness (GREASE values, cipher-order shuffling, staged TLS 1.3
  rollouts), at day granularity.  This is the tool for fingerprint
  statistics (§4.1), where per-connection variability is the object of
  study.

Niche clients route to their matching endpoints via an affinity map
(GRID movers to GRID servers, Nagios probes to Nagios servers, Interwise
clients to Interwise servers), mirroring how those connections occur in
the monitored networks.
"""

from __future__ import annotations

import datetime as _dt
import random
import zlib
from dataclasses import dataclass, field

from repro.clients.population import ClientPopulation
from repro.clients.profile import ClientRelease
from repro.engine.perf import PERF
from repro.notary.monitor import PassiveMonitor
from repro.servers.config import ServerProfile
from repro.servers.population import ServerPopulation
from repro.tls.handshake import HandshakeResult
from repro.tls.messages import ClientHello

#: Which client families talk to dedicated endpoints instead of the
#: mainstream server mix.
DEFAULT_AFFINITY: dict[str, str] = {
    "GridFTP": "grid",
    "Nagios NRPE": "nagios",
    "Interwise": "interwise",
    "Splunk forwarder": "splunk",
}


def _release_seed(release: ClientRelease, tls13: bool) -> int:
    """Stable hello seed for a release.

    Must not depend on the interpreter's string-hash randomization
    (``PYTHONHASHSEED``): run-to-run reproducibility and the parallel
    runner's serial-equivalence both require every process to derive
    the same seed for the same release.
    """
    token = f"{release.family}\x00{release.version}\x00{int(tls13)}"
    return zlib.crc32(token.encode("utf-8")) & 0x7FFFFFFF


@dataclass
class TrafficGenerator:
    """Drives handshakes between the two populations into a monitor."""

    clients: ClientPopulation
    servers: ServerPopulation
    monitor: PassiveMonitor
    affinity: dict[str, str] = field(default_factory=lambda: dict(DEFAULT_AFFINITY))
    #: Dataset scale multiplier (``--scale``): every
    #: expectation record is emitted ``scale`` times at ``weight/scale``,
    #: so per-month *record counts* grow by the factor while month
    #: totals and fractions stay put.  ``1`` is the seed dataset exactly
    #: (weights untouched, byte-identical records).
    scale: int = 1

    def __post_init__(self) -> None:
        self._hello_cache: dict[tuple[str, str, bool], ClientHello] = {}
        self._result_cache: dict[tuple[str, str, bool, str], HandshakeResult] = {}

    # ---- expectation mode ---------------------------------------------------

    def _static_hello(self, release: ClientRelease, tls13: bool) -> ClientHello:
        key = (release.family, release.version, tls13)
        hello = self._hello_cache.get(key)
        if hello is None:
            rng = random.Random(_release_seed(release, tls13))
            hello = release.build_hello(rng=rng, include_tls13=tls13)
            self._hello_cache[key] = hello
            PERF.hello_builds += 1
        else:
            PERF.hello_cache_hits += 1
        return hello

    #: Clients released after this date append TLS_FALLBACK_SCSV on
    #: dance retries (RFC 7507 shipped in early 2014).
    SCSV_DEPLOYED = _dt.date(2014, 2, 1)

    def _negotiate(
        self, release: ClientRelease, tls13: bool, server: ServerProfile
    ) -> tuple[ClientHello, HandshakeResult]:
        hello = self._static_hello(release, tls13)
        key = (release.family, release.version, tls13, server.name)
        result = self._result_cache.get(key)
        if result is None:
            PERF.negotiations += 1
            result = server.respond(hello)
            if (
                not result.ok
                and result.reason == "version-intolerant server"
            ):
                # The client runs its downgrade dance (repro.tls.fallback)
                # against the broken stack.
                from repro.tls.fallback import downgrade_dance

                dance = downgrade_dance(
                    release,
                    server,
                    hello=hello,
                    send_scsv=release.released >= self.SCSV_DEPLOYED,
                )
                if dance.final is not None:
                    result = dance.final
            if release.tolerates_unoffered_suite and result.client_aborts:
                # Interwise-style clients proceed anyway (§5.5).
                result = HandshakeResult(
                    client_hello=result.client_hello,
                    server_hello=result.server_hello,
                    reason=result.reason,
                    client_aborts=False,
                )
            self._result_cache[key] = result
        else:
            PERF.handshake_cache_hits += 1
        return hello, result

    def _tls13_splits(
        self, release: ClientRelease, month: _dt.date
    ) -> list[tuple[bool, float]]:
        """Weight split between hellos with and without supported_versions."""
        if not release.supported_versions:
            return [(False, 1.0)]
        fraction = min(max(release.tls13_fraction_at(month), 0.0), 1.0)
        splits = []
        if fraction > 0:
            splits.append((True, fraction))
        if fraction < 1:
            splits.append((False, 1.0 - fraction))
        return splits

    def stream_expectation_month(self, month: _dt.date):
        """Yield the month's expectation records without storing them.

        This is the bounded-memory ingest path: records are generated
        one at a time straight into whatever consumes the stream
        (``StreamPacker`` in the runner), so a month's record objects
        never coexist.  The record sequence is exactly what
        :meth:`run_expectation_month` pushes into the monitor's store —
        same ``make_record`` calls, same order — so a streamed pack is
        byte-identical to a batch pack of the stored records.

        At ``scale > 1`` each base record is yielded ``scale`` times at
        ``weight/scale`` (the *same* frozen record object, so replicas
        cost O(1) each downstream): record counts multiply, month-total
        weight and every fraction stay at the base values up to float
        associativity.
        """
        from repro.notary.events import make_record
        from repro.notary.store import month_of
        from repro.servers.population import DEDICATED_PORTS

        scale = max(1, int(self.scale))
        record_month = month_of(month)
        fingerprint = month >= self.monitor.fingerprint_fields_since
        client_mix = self.clients.mix(month)
        server_mix = self.servers.mix(month, weighting="traffic")
        for release, client_weight in client_mix:
            tag = self.affinity.get(release.family)
            destinations: list[tuple[ServerProfile, float]]
            if tag is not None:
                destinations = [(self.servers.dedicated(tag), 1.0)]
                port = DEDICATED_PORTS.get(tag, 443)
            else:
                destinations = server_mix
                port = 443
            for tls13, tls13_weight in self._tls13_splits(release, month):
                for server, server_weight in destinations:
                    weight = client_weight * tls13_weight * server_weight
                    if weight <= 0:
                        continue
                    hello, result = self._negotiate(release, tls13, server)
                    record = make_record(
                        month=record_month,
                        day=None,
                        server_profile=server.name,
                        server_port=port,
                        weight=weight if scale == 1 else weight / scale,
                        hello=hello,
                        result=result,
                        client_family=release.family,
                        client_version=release.version,
                        client_category=release.category,
                        client_in_database=release.in_database,
                        record_fingerprint=fingerprint,
                    )
                    PERF.records += scale
                    for _ in range(scale):
                        yield record
        ssl2 = self._ssl2_record(month, scale)
        if ssl2 is not None:
            PERF.records += scale
            for _ in range(scale):
                yield ssl2

    def run_expectation_month(self, month: _dt.date) -> None:
        """Generate the full expectation-weighted record set for a month.

        Materializing wrapper over :meth:`stream_expectation_month`:
        every streamed record lands in the monitor's store, preserving
        the historical contract (tests and the zeeklog exporter read
        the store directly).  Scaled or bulk ingest should consume the
        stream instead.
        """
        store = self.monitor.store
        for record in self.stream_expectation_month(month):
            store.add(record)

    #: Monthly connection-weight of the SSL 2 relic traffic: ~1.2K of
    #: the Notary's billions of monthly connections (§5.1), terminating
    #: at one university's Nagios endpoints.
    SSL2_WEIGHT = 2e-7

    def _ssl2_record(self, month: _dt.date, scale: int = 1) -> "ConnectionRecord | None":
        """The §5.1 SSL 2 remnant as one pre-classified record (or None).

        SSL 2 uses an incompatible record format the ClientHello model
        does not express (see repro.tls.ssl2); the monitor classifies
        such first flights by sniffing and records them directly.
        """
        if self.SSL2_WEIGHT <= 0:
            return None
        from repro.notary.events import ConnectionRecord
        from repro.notary.store import month_of

        weight = self.SSL2_WEIGHT if scale == 1 else self.SSL2_WEIGHT / scale
        return ConnectionRecord(
            month=month_of(month),
            weight=weight,
            client_family="Nagios NRPE",
            client_version="ssl2-probe",
            client_category="OS Tools and Services",
            client_in_database=False,
            fingerprint=None,
            advertised=frozenset({"rc4", "export"}),
            positions={},
            suite_count=2,
            offered_tls13=False,
            offered_tls13_versions=(),
            established=True,
            negotiated_version="SSLv2",
            negotiated_wire=0x0002,
            negotiated_suite=None,
            negotiated_curve=None,
            heartbeat_negotiated=False,
            server_chose_unoffered=False,
            server_profile="nagios-server",
            server_port=5666,
        )

    def run_expectation(self, start: _dt.date, end: _dt.date) -> None:
        """Expectation mode over every month from ``start`` to ``end``."""
        from repro.notary.store import month_range

        for month in month_range(start, end):
            self.run_expectation_month(month)

    # ---- Monte-Carlo mode ---------------------------------------------------

    def run_montecarlo(
        self,
        start: _dt.date,
        end: _dt.date,
        connections_per_month: int,
        rng: random.Random,
    ) -> None:
        """Sample individual connections at day granularity."""
        from repro.notary.store import month_range

        from repro.servers.population import DEDICATED_PORTS

        for month in month_range(start, end):
            client_mix = self.clients.mix(month)
            releases = [r for r, _ in client_mix]
            client_weights = [w for _, w in client_mix]
            server_mix = self.servers.mix(month, weighting="traffic")
            servers = [s for s, _ in server_mix]
            server_weights = [w for _, w in server_mix]
            days_in_month = (
                (month.replace(day=28) + _dt.timedelta(days=4)).replace(day=1) - month
            ).days
            for _ in range(connections_per_month):
                release = rng.choices(releases, client_weights)[0]
                tag = self.affinity.get(release.family)
                if tag is not None:
                    server = self.servers.dedicated(tag)
                    port = DEDICATED_PORTS.get(tag, 443)
                else:
                    server = rng.choices(servers, server_weights)[0]
                    port = 443
                include_tls13 = bool(release.supported_versions) and (
                    rng.random() < release.tls13_fraction_at(month)
                )
                hello = release.build_hello(rng=rng, include_tls13=include_tls13)
                result = server.respond(hello)
                if release.tolerates_unoffered_suite and result.client_aborts:
                    result = HandshakeResult(
                        client_hello=result.client_hello,
                        server_hello=result.server_hello,
                        reason=result.reason,
                        client_aborts=False,
                    )
                day = month + _dt.timedelta(days=rng.randrange(days_in_month))
                self.monitor.observe(
                    day=day,
                    hello=hello,
                    result=result,
                    weight=1.0,
                    client_family=release.family,
                    client_version=release.version,
                    client_category=release.category,
                    client_in_database=release.in_database,
                    exact_day=True,
                    server_profile=server.name,
                    server_port=port,
                )
