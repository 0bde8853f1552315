"""Server profiles: the supply side of the TLS ecosystem.

A :class:`ServerProfile` bundles everything :func:`repro.tls.handshake.negotiate`
needs — supported versions, suite preference, groups, echoable
extensions, selection policy — plus scan-relevant attributes
(Heartbleed vulnerability).  Profiles are archetypes: the population
model weights them over time rather than enumerating 46M hosts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.tls.extensions import ExtensionType
from repro.tls.handshake import HandshakeResult, SelectionPolicy, negotiate
from repro.tls.messages import ClientHello


@dataclass(frozen=True)
class ServerProfile:
    """One server configuration archetype."""

    name: str
    supported_versions: frozenset[int]
    suite_preference: tuple[int, ...]
    supported_groups: tuple[int, ...] = ()
    echo_extensions: tuple[int, ...] = ()
    policy: SelectionPolicy = field(default_factory=SelectionPolicy)
    heartbeat: bool = False
    heartbleed_vulnerable: bool = False
    # Version intolerance: instead of negotiating down, the server
    # aborts any hello whose version exceeds this — the broken behaviour
    # that forced browsers into the downgrade dance (POODLE's enabler).
    intolerant_above: int | None = None

    def __post_init__(self) -> None:
        if not self.supported_versions:
            raise ValueError(f"server {self.name} supports no versions")

    @property
    def effective_echo_extensions(self) -> tuple[int, ...]:
        if self.heartbeat:
            return self.echo_extensions + (int(ExtensionType.HEARTBEAT),)
        return self.echo_extensions

    def respond(self, hello: ClientHello, strict: bool = False) -> HandshakeResult:
        """Negotiate against a Client Hello with this configuration."""
        if (
            self.intolerant_above is not None
            and hello.legacy_version > self.intolerant_above
        ):
            from repro.tls.messages import Alert, AlertDescription

            result = HandshakeResult(
                client_hello=hello,
                alert=Alert(AlertDescription.PROTOCOL_VERSION),
                reason="version-intolerant server",
            )
            if strict:
                from repro.tls.handshake import HandshakeFailure

                raise HandshakeFailure(result.alert, result.reason)
            return result
        return negotiate(
            hello,
            supported_versions=self.supported_versions,
            suite_preference=self.suite_preference,
            supported_groups=self.supported_groups,
            echo_extensions=self.effective_echo_extensions,
            policy=self.policy,
            strict=strict,
        )

    def supports_version(self, wire: int) -> bool:
        return wire in self.supported_versions

    def with_heartbeat(self, vulnerable: bool = False) -> "ServerProfile":
        """A copy of this profile with the Heartbeat extension enabled."""
        return replace(
            self,
            name=f"{self.name}+hb",
            heartbeat=True,
            heartbleed_vulnerable=vulnerable,
        )

    def without_version(self, wire: int) -> "ServerProfile":
        """A copy of this profile with one protocol version removed."""
        remaining = frozenset(v for v in self.supported_versions if v != wire)
        return replace(self, name=f"{self.name}-nov{wire:x}", supported_versions=remaining)

    def without_suites(self, predicate, tag: str) -> "ServerProfile":
        """A copy of this profile with matching suites removed."""
        remaining = tuple(
            code
            for code in self.suite_preference
            if not predicate(_suite(code))
        )
        return replace(self, name=f"{self.name}-no{tag}", suite_preference=remaining)


def _suite(code: int):
    from repro.tls.ciphers import REGISTRY

    suite = REGISTRY.get(code)
    if suite is None:
        raise KeyError(f"unregistered suite {code:#06x} in server preference")
    return suite
