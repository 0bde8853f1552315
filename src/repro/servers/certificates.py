"""Synthetic X.509 certificate metadata for the server substrate.

The ICSI SSL *Notary* is, at heart, a certificate notary (§3.1: 31.5M
unique certificates over six years), and Censys collected 535M unique
certificates (§3.2).  The paper's analysis deliberately excludes
certificate content (§7.5), but the collection machinery is part of the
system; this module provides the metadata layer at the fidelity the
pipelines need: deterministic per-host certificates whose key type,
key size, signature algorithm and validity follow the well-documented
deployment trends of the period (1024→2048-bit RSA, SHA-1→SHA-256
signatures, the slow arrival of ECDSA).
"""

from __future__ import annotations

import datetime as _dt
import hashlib
from dataclasses import dataclass

# Deployment milestones (CA/Browser Forum baseline requirements).
_RSA1024_SUNSET = _dt.date(2014, 1, 1)   # CAs stopped issuing 1024-bit RSA
_SHA1_ISSUANCE_SUNSET = _dt.date(2016, 1, 1)  # SHA-1 issuance ban
_TYPICAL_VALIDITY_DAYS = 365 * 2


@dataclass(frozen=True)
class Certificate:
    """Summary metadata of one leaf certificate."""

    fingerprint: str          # SHA-256 hex digest (synthetic)
    subject: str
    key_type: str             # "RSA" | "ECDSA"
    key_bits: int
    signature_algorithm: str  # "sha1WithRSA" | "sha256WithRSA" | "ecdsa-with-SHA256"
    not_before: _dt.date
    not_after: _dt.date

    def valid_at(self, on: _dt.date) -> bool:
        return self.not_before <= on <= self.not_after

    @property
    def weak_key(self) -> bool:
        """RSA below 2048 bits (or toy ECDSA curves)."""
        if self.key_type == "RSA":
            return self.key_bits < 2048
        return self.key_bits < 256

    @property
    def sha1_signed(self) -> bool:
        return self.signature_algorithm.startswith("sha1")


def _digest(*parts) -> str:
    payload = "|".join(str(p) for p in parts).encode("ascii")
    return hashlib.sha256(payload).hexdigest()


def issue_certificate(
    host_address: int,
    profile_name: str,
    on: _dt.date,
) -> Certificate:
    """Deterministically derive the certificate a host serves at a date.

    The same host keeps its certificate until it expires; re-issuance
    rolls the serial (so longitudinal scans see realistic certificate
    churn, and unique-certificate counts grow with both hosts and time).
    """
    # Issuance epoch: the start of the current validity period.
    epoch_index = (on.toordinal() // _TYPICAL_VALIDITY_DAYS)
    not_before = _dt.date.fromordinal(epoch_index * _TYPICAL_VALIDITY_DAYS)
    not_after = _dt.date.fromordinal(
        min((epoch_index + 1) * _TYPICAL_VALIDITY_DAYS, _dt.date.max.toordinal())
    )

    # Stable per-host randomness.
    seed = int(_digest(host_address, epoch_index)[:8], 16)

    # ECDSA arrives with the modern archetypes, mostly post-2015.
    modern = "gcm" in profile_name or "tls13" in profile_name
    ecdsa = modern and not_before >= _dt.date(2015, 1, 1) and seed % 5 == 0

    if ecdsa:
        key_type, key_bits = "ECDSA", 256
        signature = "ecdsa-with-SHA256"
    else:
        key_type = "RSA"
        if not_before < _RSA1024_SUNSET and seed % 4 == 0:
            key_bits = 1024
        elif seed % 10 == 0:
            key_bits = 4096
        else:
            key_bits = 2048
        if not_before < _SHA1_ISSUANCE_SUNSET and seed % 3 != 0:
            signature = "sha1WithRSA"
        else:
            signature = "sha256WithRSA"

    return Certificate(
        fingerprint=_digest(host_address, profile_name, epoch_index, key_type),
        subject=f"CN=host-{host_address & 0xFFFFFF:06x}.example",
        key_type=key_type,
        key_bits=key_bits,
        signature_algorithm=signature,
        not_before=not_before,
        not_after=not_after,
    )


@dataclass
class CertificateObservatory:
    """Accumulates unique certificates the way the Notary does (§3.1)."""

    def __post_init__(self) -> None:
        self._seen: dict[str, Certificate] = {}

    def observe(self, certificate: Certificate) -> bool:
        """Record a certificate; True if it was new."""
        if certificate.fingerprint in self._seen:
            return False
        self._seen[certificate.fingerprint] = certificate
        return True

    def __len__(self) -> int:
        return len(self._seen)

    def weak_key_share(self) -> float:
        if not self._seen:
            return 0.0
        weak = sum(1 for c in self._seen.values() if c.weak_key)
        return weak / len(self._seen)

    def sha1_share(self) -> float:
        if not self._seen:
            return 0.0
        sha1 = sum(1 for c in self._seen.values() if c.sha1_signed)
        return sha1 / len(self._seen)

    def key_type_shares(self) -> dict[str, float]:
        if not self._seen:
            return {}
        counts: dict[str, int] = {}
        for certificate in self._seen.values():
            counts[certificate.key_type] = counts.get(certificate.key_type, 0) + 1
        return {k: v / len(self._seen) for k, v in counts.items()}
