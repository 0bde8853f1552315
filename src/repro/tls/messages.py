"""Client Hello / Server Hello message models.

These are the two messages the paper's datasets observe (§2.1: "These two
messages are not encrypted, allowing passive observation").  The models
are plain frozen dataclasses; the binary codec lives in
:mod:`repro.tls.wire`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.tls.ciphers import REGISTRY, CipherSuite
from repro.tls.curves import CURVE_REGISTRY, NamedCurve
from repro.tls.extensions import (
    Extension,
    ExtensionType,
    decode_supported_versions,
    encode_supported_versions,
)
from repro.tls.grease import strip_grease
from repro.tls.versions import ProtocolVersion, TLS12, version_by_wire


def encode_u16_list(values) -> bytes:
    """Encode a list of 16-bit values as a big-endian byte string."""
    return b"".join(int(v).to_bytes(2, "big") for v in values)


def decode_u16_list(data: bytes) -> tuple[int, ...]:
    """Decode a big-endian byte string into 16-bit values."""
    if len(data) % 2 != 0:
        raise ValueError("odd-length u16 list")
    return tuple(int.from_bytes(data[i : i + 2], "big") for i in range(0, len(data), 2))


@dataclass(frozen=True)
class ClientHello:
    """A TLS Client Hello.

    ``cipher_suites``, ``extensions``, ``supported_groups`` and
    ``ec_point_formats`` are stored in the order they appear on the wire,
    which is the order the fingerprint preserves (§4).

    ``supported_groups`` / ``ec_point_formats`` are modeled as first-class
    fields and rendered into extension bodies by the wire codec: every
    realistic client that sends them sends them as extensions anyway, and
    keeping them structured makes fingerprinting and negotiation direct.
    """

    legacy_version: int = TLS12.wire
    random: bytes = b"\x00" * 32
    session_id: bytes = b""
    cipher_suites: tuple[int, ...] = ()
    compression_methods: tuple[int, ...] = (0,)
    extensions: tuple[Extension, ...] = ()
    supported_groups: tuple[int, ...] = ()
    ec_point_formats: tuple[int, ...] = ()
    supported_versions: tuple[int, ...] = ()

    # ---- structured accessors -------------------------------------------

    def extension_types(self) -> tuple[int, ...]:
        """Extension type code points in wire order."""
        return tuple(ext.ext_type for ext in self.extensions)

    def has_extension(self, ext_type: int) -> bool:
        return any(ext.ext_type == ext_type for ext in self.extensions)

    def extension(self, ext_type: int) -> Extension | None:
        """The first extension of the given type, or None."""
        for ext in self.extensions:
            if ext.ext_type == ext_type:
                return ext
        return None

    def known_suites(self) -> tuple[CipherSuite, ...]:
        """Offered suites resolvable in the registry, GREASE stripped."""
        return tuple(
            REGISTRY[code]
            for code in strip_grease(self.cipher_suites)
            if code in REGISTRY
        )

    def known_curves(self) -> tuple[NamedCurve, ...]:
        """Offered named groups resolvable in the registry, GREASE stripped."""
        return tuple(
            CURVE_REGISTRY[code]
            for code in strip_grease(self.supported_groups)
            if code in CURVE_REGISTRY
        )

    def offered_versions(self) -> tuple[int, ...]:
        """Every protocol version the client actually offers.

        TLS 1.3 clients keep ``legacy_version`` at 1.2 and list real
        support in the ``supported_versions`` extension (§6.4); for older
        clients the offer is every version up to ``legacy_version``.
        """
        if self.supported_versions:
            return strip_grease(self.supported_versions)
        return (self.legacy_version,)

    def max_offered_version(self) -> int:
        versions = self.offered_versions()
        return max(versions) if versions else self.legacy_version

    # ---- advertisement predicates (Figures 3, 6, 7, 10) -----------------

    def advertises(self, predicate) -> bool:
        """True if any offered (known, non-GREASE) suite satisfies ``predicate``."""
        return any(predicate(s) for s in self.known_suites())

    def first_index(self, predicate) -> int | None:
        """Index (GREASE-stripped) of the first suite matching ``predicate``.

        Used for Figure 5, the average relative position of the first
        AEAD/CBC/RC4/DES/3DES suite in the advertised list.
        """
        for i, suite in enumerate(self.known_suites()):
            if predicate(suite):
                return i
        return None

    def relative_position(self, predicate) -> float | None:
        """Relative position (0.0 = head, 1.0 = tail) of the first match."""
        suites = self.known_suites()
        if len(suites) <= 1:
            index = self.first_index(predicate)
            return 0.0 if index is not None else None
        index = self.first_index(predicate)
        if index is None:
            return None
        return index / (len(suites) - 1)


class AlertDescription(enum.IntEnum):
    """TLS alert descriptions used by the negotiation model."""

    CLOSE_NOTIFY = 0
    UNEXPECTED_MESSAGE = 10
    HANDSHAKE_FAILURE = 40
    ILLEGAL_PARAMETER = 47
    PROTOCOL_VERSION = 70
    INSUFFICIENT_SECURITY = 71
    INAPPROPRIATE_FALLBACK = 86


@dataclass(frozen=True)
class Alert:
    """A TLS alert record (always fatal in this model)."""

    description: AlertDescription
    level: int = 2  # fatal

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"Alert({self.description.name.lower()})"


@dataclass(frozen=True)
class ServerHello:
    """A TLS Server Hello: the server's committed choices (§2.1)."""

    version: int
    random: bytes = b"\x00" * 32
    session_id: bytes = b""
    cipher_suite: int = 0
    compression_method: int = 0
    extensions: tuple[Extension, ...] = ()
    selected_version: int | None = None  # TLS 1.3 supported_versions echo
    selected_group: int | None = None

    def extension_types(self) -> tuple[int, ...]:
        return tuple(ext.ext_type for ext in self.extensions)

    def has_extension(self, ext_type: int) -> bool:
        return any(ext.ext_type == ext_type for ext in self.extensions)

    @property
    def suite(self) -> CipherSuite | None:
        """The chosen suite if it is a registered code point."""
        return REGISTRY.get(self.cipher_suite)

    @property
    def negotiated_version(self) -> int:
        """The version actually in force (supported_versions overrides)."""
        return self.selected_version if self.selected_version is not None else self.version

    def negotiated_protocol(self) -> ProtocolVersion | None:
        """The negotiated :class:`ProtocolVersion`, or None for drafts."""
        try:
            return version_by_wire(self.negotiated_version)
        except KeyError:
            return None


def build_supported_versions_extension(wire_versions) -> Extension:
    """Build a ``supported_versions`` extension from wire version ints."""
    return Extension(
        ExtensionType.SUPPORTED_VERSIONS,
        encode_supported_versions(list(wire_versions)),
    )


def parse_supported_versions_extension(ext: Extension) -> tuple[int, ...]:
    """Parse a ``supported_versions`` extension body into wire ints."""
    if ext.ext_type != ExtensionType.SUPPORTED_VERSIONS:
        raise ValueError("not a supported_versions extension")
    return tuple(decode_supported_versions(ext.data))
