"""Series generators for every figure in the paper's evaluation.

Each function takes a populated :class:`repro.notary.store.NotaryStore`
(and, where needed, active-scan data) and returns the figure's series as
``{label: [(month, percent), ...]}`` — the same rows a plotting script
would consume.  Established connections form the denominator of the
"negotiated" figures; all connections form the denominator of the
"advertised" figures, exactly as in the paper.

Every generator accepts an optional ``months`` list so batch callers
compute the store's sorted month list once; :func:`evaluate_all`
answers all ten figures that way.  On packed months the store resolves
each series through its fast tiers: the aggregate index, numpy masks
over the int-coded shape matrix, or per-shape evaluation.  Figure 4's
per-fingerprint counts come from the vector tier's last-writer kernel
(:meth:`NotaryStore.distinct_count`) — integer numpy work over shape
codes, no template walk — and the TLS 1.3 mix helper folds the packed
columns directly.  All fast paths are identical to the record scans
they replace and silently fall back to records when a month is not
packed.
"""

from __future__ import annotations

import datetime as _dt

from repro.notary.query import (
    ESTABLISHED,
    Advertises,
    NegotiatedAead,
    NegotiatedKex,
    NegotiatedMode,
    NegotiatedVersion,
    PositionOf,
)
from repro.notary.store import NotaryStore
from repro.tls.ciphers import KexFamily

Series = dict[str, list[tuple[_dt.date, float]]]

# Indexed predicate: behaves like ``lambda r: r.established`` but lets
# the store answer the standard figure queries from its aggregate index.
_ESTABLISHED = ESTABLISHED


def _pct(series):
    return [(m, v * 100.0) for m, v in series]


def fig1_negotiated_versions(store: NotaryStore, months=None) -> Series:
    """Figure 1: negotiated SSL/TLS versions, percent of monthly connections."""
    if months is None:
        months = store.months()
    out: Series = {}
    for name in ("SSLv2", "SSLv3", "TLSv10", "TLSv11", "TLSv12", "TLSv13"):
        out[name] = _pct(
            store.monthly_fraction(NegotiatedVersion(name), _ESTABLISHED, months)
        )
    return out


def fig2_negotiated_modes(store: NotaryStore, months=None) -> Series:
    """Figure 2: connections negotiating RC4, CBC, or AEAD suites."""
    if months is None:
        months = store.months()
    out: Series = {}
    for mode in ("AEAD", "CBC", "RC4"):
        out[mode] = _pct(
            store.monthly_fraction(NegotiatedMode(mode), _ESTABLISHED, months)
        )
    return out


def fig3_advertised_modes(store: NotaryStore, months=None) -> Series:
    """Figure 3: clients advertising RC4, DES, 3DES, AEAD (CBC > 99%)."""
    if months is None:
        months = store.months()
    out: Series = {}
    for label, tag in (("AEAD", "aead"), ("RC4", "rc4"), ("DES", "des"), ("3DES", "3des"), ("CBC", "cbc")):
        out[label] = _pct(store.monthly_fraction(Advertises(tag), months=months))
    return out


def fig4_fingerprint_support(store: NotaryStore, months=None) -> Series:
    """Figure 4: support per distinct monthly fingerprint (not traffic-weighted).

    Each distinct fingerprint of the month votes once, with the
    advertised set of its *last* record (a last-wins fold over the
    month's records).  :meth:`NotaryStore.distinct_count` answers each
    (month, tag) pair as integer counts — on packed months from the
    vector tier's last-writer kernel, otherwise from the record fold.
    Only months with fingerprint fields (>= Feb 2014) produce points.
    """
    if months is None:
        months = store.months()
    advertises = {
        label: Advertises(tag)
        for label, tag in (("AEAD", "aead"), ("RC4", "rc4"), ("DES", "des"), ("3DES", "3des"), ("CBC", "cbc"))
    }
    out: Series = {label: [] for label in advertises}
    for month in months:
        for label, predicate in advertises.items():
            count, n = store.distinct_count(month, "fingerprint", predicate)
            if not n:
                break  # no fingerprints this month: no point for any label
            out[label].append((month, 100.0 * count / n))
    return {k: v for k, v in out.items() if v}


def fig5_cipher_positions(store: NotaryStore, months=None) -> Series:
    """Figure 5: average relative position of the first suite per class."""
    if months is None:
        months = store.months()
    out: Series = {}
    for label, tag in (("AEAD", "aead"), ("CBC", "cbc"), ("RC4", "rc4"), ("DES", "des"), ("3DES", "3des")):
        value = PositionOf(tag)
        series = []
        for month in months:
            mean = store.weighted_mean(month, value)
            if mean is not None:
                series.append((month, mean * 100.0))
        if series:
            out[label] = series
    return out


def fig6_rc4_advertised(store: NotaryStore, months=None) -> Series:
    """Figure 6: percent of connections advertising RC4 suites."""
    return {
        "RC4 advertised": _pct(
            store.monthly_fraction(Advertises("rc4"), months=months)
        )
    }


def fig7_weak_advertised(store: NotaryStore, months=None) -> Series:
    """Figure 7: clients advertising Export, NULL, or Anonymous suites."""
    if months is None:
        months = store.months()
    return {
        "Export": _pct(store.monthly_fraction(Advertises("export"), months=months)),
        "Anonymous": _pct(store.monthly_fraction(Advertises("anon"), months=months)),
        "Null": _pct(store.monthly_fraction(Advertises("null"), months=months)),
    }


def fig8_key_exchange(store: NotaryStore, months=None) -> Series:
    """Figure 8: negotiated RSA vs DHE vs ECDHE key exchange."""
    if months is None:
        months = store.months()
    out: Series = {}
    for label, family in (("RSA", KexFamily.RSA), ("DHE", KexFamily.DHE), ("ECDHE", KexFamily.ECDHE)):
        out[label] = _pct(
            store.monthly_fraction(NegotiatedKex(family), _ESTABLISHED, months)
        )
    return out


def fig9_negotiated_aead(store: NotaryStore, months=None) -> Series:
    """Figure 9: negotiated AEAD breakdown plus the AEAD total."""
    if months is None:
        months = store.months()
    out: Series = {
        "AEAD Total": _pct(
            store.monthly_fraction(NegotiatedMode("AEAD"), _ESTABLISHED, months)
        )
    }
    for label in ("AES128-GCM", "AES256-GCM", "ChaCha20-Poly1305"):
        out[label] = _pct(
            store.monthly_fraction(NegotiatedAead(label), _ESTABLISHED, months)
        )
    return out


def fig10_advertised_aead(store: NotaryStore, months=None) -> Series:
    """Figure 10: clients advertising AES-GCM, ChaCha20-Poly1305, AES-CCM."""
    if months is None:
        months = store.months()
    return {
        "AES128-GCM": _pct(store.monthly_fraction(Advertises("aes128gcm"), months=months)),
        "AES256-GCM": _pct(store.monthly_fraction(Advertises("aes256gcm"), months=months)),
        "ChaCha20-Poly1305": _pct(store.monthly_fraction(Advertises("chacha20"), months=months)),
        "AES-CCM": _pct(store.monthly_fraction(Advertises("aesccm"), months=months)),
    }


#: Every paper figure, in order, for batch evaluation and tests.
FIGURE_GENERATORS = {
    "fig1": fig1_negotiated_versions,
    "fig2": fig2_negotiated_modes,
    "fig3": fig3_advertised_modes,
    "fig4": fig4_fingerprint_support,
    "fig5": fig5_cipher_positions,
    "fig6": fig6_rc4_advertised,
    "fig7": fig7_weak_advertised,
    "fig8": fig8_key_exchange,
    "fig9": fig9_negotiated_aead,
    "fig10": fig10_advertised_aead,
}


def evaluate_all(store: NotaryStore) -> dict[str, Series]:
    """All ten figure series in one batch: ``{"fig1": ..., "fig10": ...}``.

    The sorted month list is computed once and shared, and on packed
    months the store's shape tier memoizes each predicate's per-shape
    verdicts across the whole batch — so the batch costs one evaluation
    per (predicate, shape) plus the column folds, not ten record scans
    per month.  Results are identical to calling each generator alone.
    """
    months = store.months()
    return {name: fig(store, months=months) for name, fig in FIGURE_GENERATORS.items()}


def _tls13_wire_label(wire: int) -> str:
    if (wire & 0xFF00) == 0x7E00:
        return f"google-0x{wire:04x}"
    if (wire & 0xFF00) == 0x7F00:
        return f"draft-{wire & 0xFF}"
    return "final"


def tls13_version_mix(store: NotaryStore, month: _dt.date) -> dict[str, float]:
    """Advertised TLS 1.3 version breakdown for one month (§6.4).

    Returns {version-label: % of supported_versions-bearing weight}.
    Labels: ``"google-0x7e02"``, ``"draft-NN"``, ``"final"``.
    """
    from repro.tls.versions import TLS13, is_tls13_variant

    weights: dict[str, float] = {}
    total = 0.0
    packed = store.packed_columns(month)
    if packed is not None:
        # Shape fast path: the offered flag and wire list are shape
        # fields, so resolve labels once per shape and fold the weight
        # columns in row order — the identical fold the scan performs.
        weight_column, idx_column, templates = packed
        shape_labels: list[list[str] | None] = [
            (
                [
                    _tls13_wire_label(wire)
                    for wire in record.offered_tls13_versions
                    if is_tls13_variant(wire)
                ]
                if record.offered_tls13
                else None
            )
            for record in templates
        ]
        for weight, idx in zip(weight_column, idx_column):
            labels = shape_labels[idx]
            if labels is None:
                continue
            total += weight
            for label in labels:
                weights[label] = weights.get(label, 0.0) + weight
    else:
        for record in store.records(month):
            if not record.offered_tls13:
                continue
            total += record.weight
            for wire in record.offered_tls13_versions:
                if not is_tls13_variant(wire):
                    continue
                label = _tls13_wire_label(wire)
                weights[label] = weights.get(label, 0.0) + record.weight
    if total <= 0:
        return {}
    return {label: weight / total * 100.0 for label, weight in weights.items()}


def unoffered_choice_series(
    store: NotaryStore, months=None
) -> list[tuple[_dt.date, float]]:
    """Monthly % of connections where the server chose an unoffered suite.

    §7.3's protocol violators: GOST responders and the Interwise export
    anomaly.  The denominator is all connections with a Server Hello.
    """
    return [
        (month, value * 100.0)
        for month, value in store.monthly_fraction(
            lambda r: r.server_chose_unoffered,
            within=lambda r: r.negotiated_suite is not None,
            months=months,
        )
    ]


def value_at(series: list[tuple[_dt.date, float]], on: _dt.date) -> float:
    """Series value at (or nearest to) a date — convenience for benches."""
    if not series:
        raise ValueError("empty series")
    return min(series, key=lambda point: abs((point[0] - on).days))[1]


def to_csv(series: Series) -> str:
    """Render a figure's series as CSV (month column + one per label).

    Months missing from a label's series render as empty cells; the
    output loads directly into pandas/gnuplot for re-plotting the paper
    figures.
    """
    import csv
    import io

    months = sorted({m for points in series.values() for m, _ in points})
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["month", *series.keys()])
    lookups = {label: dict(points) for label, points in series.items()}
    for month in months:
        row = [month.isoformat()]
        for label in series:
            value = lookups[label].get(month)
            row.append(f"{value:.4f}" if value is not None else "")
        writer.writerow(row)
    return buffer.getvalue()


def render_series(series: Series, sample_months=None, width: int = 9) -> str:
    """Plain-text rendering of a figure's series for bench output."""
    months = sorted({m for pts in series.values() for m, _ in pts})
    if sample_months is not None:
        months = [m for m in months if m in set(sample_months)]
    lines = []
    header = "month      " + "".join(f"{label:>{max(width, len(label) + 1)}}" for label in series)
    lines.append(header)
    for month in months:
        cells = []
        for label, points in series.items():
            lookup = dict(points)
            value = lookup.get(month)
            cell = f"{value:.1f}" if value is not None else "-"
            cells.append(f"{cell:>{max(width, len(label) + 1)}}")
        lines.append(month.isoformat() + " " + "".join(cells))
    return "\n".join(lines)
