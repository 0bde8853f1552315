"""Binary TLS wire codec for hello messages.

Implements the RFC 5246 encodings of Client Hello and Server Hello,
including record-layer and handshake framing, at the fidelity a banner
grabber (zgrab) or passive monitor (Zeek) needs.  The codec is strict on
decode — truncated or inconsistent length fields raise
:class:`DecodeError` — and deterministic on encode.

The three Client Hello fields that the model keeps structured
(``supported_groups``, ``ec_point_formats``, ``supported_versions``) are
materialized into extension bodies on encode and parsed back out on
decode; :func:`materialize` exposes that normalization directly so
round-trip properties can be stated exactly:
``decode(encode(h)) == materialize(h)`` and encode∘decode is the
identity on byte strings produced by this codec.
"""

from __future__ import annotations

from dataclasses import replace

from repro.tls.extensions import Extension, ExtensionType
from repro.tls.messages import ClientHello, ServerHello, decode_u16_list, encode_u16_list

RECORD_TYPE_HANDSHAKE = 22
RECORD_TYPE_ALERT = 21
HANDSHAKE_TYPE_CLIENT_HELLO = 1
HANDSHAKE_TYPE_SERVER_HELLO = 2

_STRUCTURED_TYPES = (
    ExtensionType.SUPPORTED_GROUPS,
    ExtensionType.EC_POINT_FORMATS,
    ExtensionType.SUPPORTED_VERSIONS,
)


class DecodeError(ValueError):
    """Raised on malformed or truncated wire data."""


class _Reader:
    """Bounds-checked big-endian byte reader."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def take(self, n: int) -> bytes:
        if n < 0 or self.remaining < n:
            raise DecodeError(
                f"truncated data: wanted {n} bytes, have {self.remaining}"
            )
        chunk = self._data[self._pos : self._pos + n]
        self._pos += n
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return int.from_bytes(self.take(2), "big")

    def vector(self, length_bytes: int) -> bytes:
        length = int.from_bytes(self.take(length_bytes), "big")
        return self.take(length)

    def expect_end(self) -> None:
        if self.remaining:
            raise DecodeError(f"{self.remaining} trailing bytes")


# ---------------------------------------------------------------------------
# Extension-body codecs for the structured Client Hello fields
# ---------------------------------------------------------------------------

def encode_supported_groups_body(groups) -> bytes:
    body = encode_u16_list(groups)
    return len(body).to_bytes(2, "big") + body


def decode_supported_groups_body(data: bytes) -> tuple[int, ...]:
    reader = _Reader(data)
    body = reader.vector(2)
    reader.expect_end()
    return decode_u16_list(body)


def encode_ec_point_formats_body(formats) -> bytes:
    body = bytes(formats)
    return bytes([len(body)]) + body


def decode_ec_point_formats_body(data: bytes) -> tuple[int, ...]:
    reader = _Reader(data)
    body = reader.vector(1)
    reader.expect_end()
    return tuple(body)


def encode_sni_body(hostname: str) -> bytes:
    name = hostname.encode("ascii")
    entry = b"\x00" + len(name).to_bytes(2, "big") + name
    return len(entry).to_bytes(2, "big") + entry


def decode_sni_body(data: bytes) -> str:
    reader = _Reader(data)
    entries = _Reader(reader.vector(2))
    reader.expect_end()
    name_type = entries.u8()
    if name_type != 0:
        raise DecodeError(f"unsupported SNI name type {name_type}")
    return entries.vector(2).decode("ascii")


def _encode_extensions(extensions: tuple[Extension, ...]) -> bytes:
    parts = []
    for ext in extensions:
        parts.append(ext.ext_type.to_bytes(2, "big"))
        parts.append(len(ext.data).to_bytes(2, "big"))
        parts.append(ext.data)
    body = b"".join(parts)
    return len(body).to_bytes(2, "big") + body


def _decode_extensions(reader: _Reader) -> tuple[Extension, ...]:
    if reader.remaining == 0:
        return ()
    block = _Reader(reader.vector(2))
    extensions = []
    while block.remaining:
        ext_type = block.u16()
        data = block.vector(2)
        extensions.append(Extension(ext_type, data))
    return tuple(extensions)


# ---------------------------------------------------------------------------
# Client Hello
# ---------------------------------------------------------------------------

def materialize(hello: ClientHello) -> ClientHello:
    """Fill the wire bodies of the structured extensions.

    For each structured field that is non-empty: if a marker extension of
    the matching type exists, its body is replaced in place (preserving
    wire order, which fingerprinting depends on); otherwise the extension
    is appended.  Structured fields that are empty leave the extension
    list untouched.
    """
    bodies = {}
    if hello.supported_groups:
        bodies[int(ExtensionType.SUPPORTED_GROUPS)] = encode_supported_groups_body(
            hello.supported_groups
        )
    if hello.ec_point_formats:
        bodies[int(ExtensionType.EC_POINT_FORMATS)] = encode_ec_point_formats_body(
            hello.ec_point_formats
        )
    if hello.supported_versions:
        from repro.tls.extensions import encode_supported_versions

        bodies[int(ExtensionType.SUPPORTED_VERSIONS)] = encode_supported_versions(
            list(hello.supported_versions)
        )

    extensions = []
    seen = set()
    for ext in hello.extensions:
        if ext.ext_type in bodies:
            extensions.append(Extension(ext.ext_type, bodies[ext.ext_type]))
            seen.add(ext.ext_type)
        else:
            extensions.append(ext)
    for ext_type, body in bodies.items():
        if ext_type not in seen:
            extensions.append(Extension(ext_type, body))
    return replace(hello, extensions=tuple(extensions))


def encode_client_hello(hello: ClientHello) -> bytes:
    """Encode the Client Hello handshake body (no framing)."""
    hello = materialize(hello)
    if len(hello.random) != 32:
        raise ValueError("client random must be 32 bytes")
    if len(hello.session_id) > 32:
        raise ValueError("session id longer than 32 bytes")
    suites = encode_u16_list(hello.cipher_suites)
    parts = [
        hello.legacy_version.to_bytes(2, "big"),
        hello.random,
        bytes([len(hello.session_id)]),
        hello.session_id,
        len(suites).to_bytes(2, "big"),
        suites,
        bytes([len(hello.compression_methods)]),
        bytes(hello.compression_methods),
    ]
    if hello.extensions:
        parts.append(_encode_extensions(hello.extensions))
    return b"".join(parts)


def decode_client_hello(data: bytes) -> ClientHello:
    """Decode a Client Hello handshake body (no framing)."""
    reader = _Reader(data)
    legacy_version = reader.u16()
    random = reader.take(32)
    session_id = reader.vector(1)
    suites = decode_u16_list(reader.vector(2))
    compression = tuple(reader.vector(1))
    if not compression:
        raise DecodeError("empty compression methods")
    extensions = _decode_extensions(reader)
    reader.expect_end()

    supported_groups: tuple[int, ...] = ()
    ec_point_formats: tuple[int, ...] = ()
    supported_versions: tuple[int, ...] = ()
    for ext in extensions:
        if ext.ext_type == ExtensionType.SUPPORTED_GROUPS:
            supported_groups = decode_supported_groups_body(ext.data)
        elif ext.ext_type == ExtensionType.EC_POINT_FORMATS:
            ec_point_formats = decode_ec_point_formats_body(ext.data)
        elif ext.ext_type == ExtensionType.SUPPORTED_VERSIONS:
            from repro.tls.extensions import decode_supported_versions

            supported_versions = tuple(decode_supported_versions(ext.data))
    return ClientHello(
        legacy_version=legacy_version,
        random=random,
        session_id=session_id,
        cipher_suites=suites,
        compression_methods=compression,
        extensions=extensions,
        supported_groups=supported_groups,
        ec_point_formats=ec_point_formats,
        supported_versions=supported_versions,
    )


# ---------------------------------------------------------------------------
# Server Hello
# ---------------------------------------------------------------------------

def encode_server_hello(hello: ServerHello) -> bytes:
    """Encode the Server Hello handshake body (no framing)."""
    if len(hello.random) != 32:
        raise ValueError("server random must be 32 bytes")
    extensions = list(hello.extensions)
    if hello.selected_version is not None and not any(
        e.ext_type == ExtensionType.SUPPORTED_VERSIONS for e in extensions
    ):
        extensions.append(
            Extension(
                ExtensionType.SUPPORTED_VERSIONS,
                hello.selected_version.to_bytes(2, "big"),
            )
        )
    if hello.selected_group is not None and not any(
        e.ext_type == ExtensionType.KEY_SHARE for e in extensions
    ):
        extensions.append(
            Extension(ExtensionType.KEY_SHARE, hello.selected_group.to_bytes(2, "big"))
        )
    parts = [
        hello.version.to_bytes(2, "big"),
        hello.random,
        bytes([len(hello.session_id)]),
        hello.session_id,
        hello.cipher_suite.to_bytes(2, "big"),
        bytes([hello.compression_method]),
    ]
    if extensions:
        parts.append(_encode_extensions(tuple(extensions)))
    return b"".join(parts)


def decode_server_hello(data: bytes) -> ServerHello:
    """Decode a Server Hello handshake body (no framing)."""
    reader = _Reader(data)
    version = reader.u16()
    random = reader.take(32)
    session_id = reader.vector(1)
    cipher_suite = reader.u16()
    compression = reader.u8()
    extensions = _decode_extensions(reader)
    reader.expect_end()

    selected_version: int | None = None
    selected_group: int | None = None
    for ext in extensions:
        if ext.ext_type == ExtensionType.SUPPORTED_VERSIONS:
            if len(ext.data) != 2:
                raise DecodeError("malformed server supported_versions")
            selected_version = int.from_bytes(ext.data, "big")
        elif ext.ext_type == ExtensionType.KEY_SHARE:
            if len(ext.data) < 2:
                raise DecodeError("malformed server key_share")
            selected_group = int.from_bytes(ext.data[:2], "big")
    return ServerHello(
        version=version,
        random=random,
        session_id=session_id,
        cipher_suite=cipher_suite,
        compression_method=compression,
        extensions=extensions,
        selected_version=selected_version,
        selected_group=selected_group,
    )


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------

def frame_handshake(handshake_type: int, body: bytes, record_version: int) -> bytes:
    """Wrap a handshake body in handshake + record headers."""
    if len(body) > 0xFFFFFF:
        raise ValueError("handshake body too large")
    handshake = bytes([handshake_type]) + len(body).to_bytes(3, "big") + body
    if len(handshake) > 0xFFFF:
        raise ValueError("record payload too large")
    return (
        bytes([RECORD_TYPE_HANDSHAKE])
        + record_version.to_bytes(2, "big")
        + len(handshake).to_bytes(2, "big")
        + handshake
    )


def unframe_handshake(data: bytes) -> tuple[int, int, bytes]:
    """Strip record + handshake headers.

    Returns ``(handshake_type, record_version, body)``.
    """
    reader = _Reader(data)
    record_type = reader.u8()
    if record_type != RECORD_TYPE_HANDSHAKE:
        raise DecodeError(f"not a handshake record (type {record_type})")
    record_version = reader.u16()
    payload = _Reader(reader.vector(2))
    reader.expect_end()
    handshake_type = payload.u8()
    body = payload.vector(3)
    payload.expect_end()
    return handshake_type, record_version, body


def frame_client_hello(hello: ClientHello) -> bytes:
    """Fully framed Client Hello as sent on the wire.

    The record-layer version is pinned at the legacy version (capped at
    TLS 1.2 as TLS 1.3 requires) for middlebox compatibility.
    """
    record_version = min(hello.legacy_version, 0x0303)
    return frame_handshake(
        HANDSHAKE_TYPE_CLIENT_HELLO, encode_client_hello(hello), record_version
    )


def parse_client_hello_record(data: bytes) -> ClientHello:
    """Parse a fully framed Client Hello record."""
    handshake_type, _, body = unframe_handshake(data)
    if handshake_type != HANDSHAKE_TYPE_CLIENT_HELLO:
        raise DecodeError(f"not a client hello (handshake type {handshake_type})")
    return decode_client_hello(body)


def frame_server_hello(hello: ServerHello) -> bytes:
    """Fully framed Server Hello as sent on the wire."""
    record_version = min(hello.version, 0x0303)
    return frame_handshake(
        HANDSHAKE_TYPE_SERVER_HELLO, encode_server_hello(hello), record_version
    )


def parse_server_hello_record(data: bytes) -> ServerHello:
    """Parse a fully framed Server Hello record."""
    handshake_type, _, body = unframe_handshake(data)
    if handshake_type != HANDSHAKE_TYPE_SERVER_HELLO:
        raise DecodeError(f"not a server hello (handshake type {handshake_type})")
    return decode_server_hello(body)
