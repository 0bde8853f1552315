"""Seeded inputs: the request streams and the open-loop arrival schedule.

Only these generated inputs reach the program.  The same seed gives the
same figure order, the same query documents in the same order, and the
same arrival offsets.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

FIGURES = tuple(f"fig{i}" for i in range(1, 11))

_VERSIONS = ("SSLv3", "TLSv10", "TLSv11", "TLSv12", "TLSv13")
_MODES = ("AEAD", "CBC", "RC4")
_KEX = ("RSA", "DHE", "ECDHE", "ECDH", "DH")
_AEADS = ("AES128-GCM", "AES256-GCM", "CHACHA20-POLY1305")
_TAGS = ("rc4", "aead", "cbc", "3des")


@dataclass(frozen=True)
class Request:
    method: str
    path: str
    body: bytes | None
    #: What the answer is checked against: a figure name or a query index.
    key: str | int


def figure_request(name: str) -> Request:
    return Request("GET", f"/figures/{name}", None, name)


def figure_cycles(start: int):
    """fig1..fig10 in order, over and over, starting at ``FIGURES[start]``:
    one list of ten requests per cycle."""
    cycle = [figure_request(FIGURES[(start + i) % len(FIGURES)]) for i in range(len(FIGURES))]
    while True:
        yield cycle


def _leaf(rng: random.Random) -> dict:
    op = rng.choice(("version", "mode", "kex", "aead", "advertises", "established"))
    if op == "established":
        return {"op": op, "value": rng.random() < 0.5}
    values = {
        "version": _VERSIONS,
        "mode": _MODES,
        "kex": _KEX,
        "aead": _AEADS,
        "advertises": _TAGS,
    }[op]
    return {"op": op, "value": rng.choice(values)}


def _predicate(rng: random.Random, depth: int = 1) -> dict:
    """A composite predicate of nesting depth at most 3."""
    if depth >= 3 or rng.random() < 0.3:
        return _leaf(rng)
    op = rng.choice(("all", "any", "not"))
    if op == "not":
        return {"op": "not", "arg": _predicate(rng, depth + 1)}
    return {"op": op, "args": [_predicate(rng, depth + 1) for _ in range(rng.randint(2, 3))]}


class QueryStream:
    """Distinct whole-series ``POST /query`` documents, seeded.

    ``weighted_mean`` has one document per suite-class tag, so each is
    sent once, early in the stream; the rest are ``fraction`` (half of
    them with a ``within`` denominator) and ``weight`` documents over
    composite predicates.  A document never repeats within a stream.
    """

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self._seen: set[bytes] = set()
        self._means = list(_TAGS)
        self.docs: list[dict] = []

    def _document(self) -> dict:
        rng = self._rng
        if self._means and rng.random() < 0.02:
            tag = self._means.pop(0)
            return {"kind": "weighted_mean", "month": None,
                    "value": {"op": "position_of", "tag": tag}}
        if rng.random() < 0.6:
            doc = {"kind": "fraction", "month": None, "predicate": _predicate(rng)}
            if rng.random() < 0.5:
                doc["within"] = _predicate(rng)
            return doc
        return {"kind": "weight", "month": None, "predicate": _predicate(rng)}

    def take(self, count: int) -> list[Request]:
        requests = []
        while len(requests) < count:
            doc = self._document()
            body = json.dumps(doc, sort_keys=True).encode()
            if body in self._seen:
                continue
            self._seen.add(body)
            requests.append(Request("POST", "/query", body, len(self.docs)))
            self.docs.append(doc)
        return requests


def arrival_offsets(seed: int, rate: float, count: int) -> list[float]:
    """``count`` send offsets at ``rate`` per second: one arrival at a
    seeded uniform point of each ``1/rate`` slot.

    Stratified rather than Poisson: at the rates used here a GIL-bound
    server's median falls between its "alone" and "overlapped" modes,
    and Poisson bursts move it by a third from seed to seed.
    """
    rng = random.Random(seed ^ 0x5EED)
    return [(index + rng.random()) / rate for index in range(count)]
