"""The vectorized (numpy) query tier over the packed shape matrix.

This module sits between the store's aggregate-index counters and its
shape-compiled tier.  The shape tier's documented ceiling is one
Python-level predicate call per distinct shape per month; this tier
removes it.  The packed payload carries an int-coded **shape matrix**
(:func:`repro.engine.partition.build_shape_matrix`): per shape field, a
vocabulary of distinct canonical values plus one code per shape.  A
predicate that declares a ``vector_field`` is evaluated once per
*distinct value* of that field — typically a handful — on a stub record
carrying only that field; the per-value verdicts then broadcast to a
per-shape boolean mask by integer gather (``flags[codes]``), and
``All``/``AnyOf``/``Not`` combine child masks with boolean algebra.

**Byte identity.**  The headline invariant of the query engine is that
every tier returns bit-equal floats to the record scan, and IEEE
addition is not associative — so the folds here never use
``numpy.sum`` (pairwise summation: a *different* addition order).
Every reduction selects the matching rows in record order and folds
them with ``numpy.cumsum``, whose accumulation is defined sequentially
(``out[i] = out[i-1] + a[i]``) — the *same partial sums in the same
order* as the scan's left fold, just executed in C.  Means keep two
independent row-order folds (Σw·v with elementwise products, and Σw),
matching the scan's interleaved accumulator pair because each
accumulator sees an identical operand sequence either way.

Figure 4's per-fingerprint counts need no float fold at all: each view
has a **last-writer kernel** (:meth:`VectorView.last_writers`) that
picks, per distinct non-``None`` value of a field, the shape of the
month's last record carrying it — integer ``np.unique`` work over the
pack-time last-occurrence order and the field's codes, the same
winners a last-wins dict over the records keeps.  The store counts the
winners under a compiled mask (:meth:`NotaryStore.distinct_count`).

numpy is a hard dependency.  When a predicate doesn't compile the
compilers here return ``None`` and the store falls through to the shape
tier, which answers the same bytes.
"""

from __future__ import annotations

import datetime as _dt

import numpy as _np

from repro.notary.events import ConnectionRecord
from repro.obs import emit_event

#: Per-field expansion from the canonical shape encoding back to the
#: record-level type predicates actually read (mirrors
#: ``partition._shape_fields`` for the fields the vector tier serves).
_EXPAND = {
    "advertised": frozenset,
    "positions": dict,
}

#: Compilation memo cap per matrix (same discipline as the dataset's
#: shape-compilation memos).
_CACHE_LIMIT = 256


def _stub(field: str, value):
    """A record carrying only ``field`` (canonical value expanded).

    Evaluating the predicate itself on the stub — instead of
    reimplementing its logic per class — keeps the vector tier's
    verdicts definitionally identical to the scan's, including for
    derived properties (``negotiated_mode_class`` et al. read only
    ``negotiated_suite``, which the stub provides).  A predicate that
    reads any *other* field raises ``AttributeError``, the compile
    returns ``None``, and the query falls through — the same guard
    contract as the shape tier's guarded templates.
    """
    record = object.__new__(ConnectionRecord)
    expand = _EXPAND.get(field)
    record.__dict__[field] = value if expand is None else expand(value)
    return record


class ShapeMatrix:
    """numpy-side view of one dataset's shape matrix.

    Owns the per-field code arrays (copied into numpy once, lazily per
    field) and the predicate/value compilation memos.  Built per
    dataset and invalidated wholesale when a month is appended (codes
    are append-only, but a compiled mask's *length* goes stale).
    """

    __slots__ = ("_fields", "_codes", "_mask_cache", "_value_cache")

    def __init__(self, matrix_payload: dict) -> None:
        self._fields = matrix_payload["fields"]
        self._codes: dict = {}
        self._mask_cache: dict = {}
        self._value_cache: dict = {}

    def field_codes(self, field: str):
        """The per-shape vocab codes of ``field`` (numpy, memoized)."""
        codes = self._codes.get(field)
        if codes is None:
            codes = self._codes[field] = _np.array(
                self._fields[field]["codes"], dtype=_np.intp
            )
        return codes

    # ---- predicate masks ----------------------------------------------------

    def compile_mask(self, predicate):
        """Per-shape boolean mask for ``predicate``, or None when it is
        not vector-compilable.  Memoized per callable (value-hashable
        predicates memoize across equal instances)."""
        try:
            return self._mask_cache[predicate]
        except KeyError:
            pass
        except TypeError:  # unhashable callable: compile uncached
            return self._compile_mask(predicate)
        if len(self._mask_cache) >= _CACHE_LIMIT:
            self._mask_cache.clear()
        mask = self._compile_mask(predicate)
        self._mask_cache[predicate] = mask
        return mask

    def _compile_mask(self, predicate):
        # Imported here (not at module top) to keep this module usable
        # when query.py is mid-import via the store.
        from repro.notary.query import All, AnyOf, Not

        if isinstance(predicate, Not):
            child = self.compile_mask(predicate.predicates[0])
            return None if child is None else ~child
        if isinstance(predicate, (All, AnyOf)):
            children = []
            for child in predicate.predicates:
                mask = self.compile_mask(child)
                if mask is None:
                    return None
                children.append(mask)
            n = self.n_shapes()
            if isinstance(predicate, All):
                combined = _np.ones(n, dtype=bool)
                for mask in children:
                    combined &= mask
            else:
                combined = _np.zeros(n, dtype=bool)
                for mask in children:
                    combined |= mask
            return combined
        field = getattr(predicate, "vector_field", None)
        if not field or field not in self._fields:
            return None
        vocab = self._fields[field]["vocab"]
        try:
            flags = _np.fromiter(
                (bool(predicate(_stub(field, value))) for value in vocab),
                dtype=bool,
                count=len(vocab),
            )
        except Exception:  # lint: allow-swallow
            # Not vector-evaluable (reads beyond its declared field):
            # the contract is "None means next tier", by design.
            return None
        return flags[self.field_codes(field)]

    # ---- value functions ----------------------------------------------------

    def compile_values(self, value):
        """``(per-shape float64 values, per-shape validity mask)`` for a
        ``weighted_mean`` value function, or None."""
        try:
            return self._value_cache[value]
        except KeyError:
            pass
        except TypeError:
            return self._compile_values(value)
        if len(self._value_cache) >= _CACHE_LIMIT:
            self._value_cache.clear()
        compiled = self._compile_values(value)
        self._value_cache[value] = compiled
        return compiled

    def _compile_values(self, value):
        field = getattr(value, "vector_field", None)
        if not field or field not in self._fields:
            return None
        vocab = self._fields[field]["vocab"]
        try:
            per_value = [value(_stub(field, entry)) for entry in vocab]
        except Exception:  # lint: allow-swallow
            # Same contract as _compile_mask: None means "next tier".
            return None
        size = len(per_value)
        valid = _np.fromiter((v is not None for v in per_value), bool, count=size)
        # None slots carry 0.0 but are masked out before any arithmetic,
        # so the placeholder never reaches a fold.  int values convert
        # exactly (the scan's ``w * v`` promotes them identically).
        vals = _np.fromiter(
            (0.0 if v is None else float(v) for v in per_value),
            _np.float64,
            count=size,
        )
        codes = self.field_codes(field)
        return vals[codes], valid[codes]

    def vocab(self, field: str) -> list | None:
        """``field``'s distinct canonical values (index = code), or None
        when the matrix has no such field."""
        entry = self._fields.get(field)
        return None if entry is None else entry["vocab"]

    def n_shapes(self) -> int:
        for entry in self._fields.values():
            return len(entry["codes"])
        return 0


class VectorView:
    """One packed month's numpy columns + byte-identical fold kernels.

    Columns are copied out of the payload arrays once per view (cheap,
    and it avoids exporting buffers on arrays the ingest path may still
    append to elsewhere in the payload).  Views are immutable and
    shared per dataset, like ``_ShapeView``.
    """

    __slots__ = (
        "matrix", "weights", "idxs", "total", "established", "_last",
        "_last_writers",
    )

    def __init__(self, dataset, month: _dt.date, matrix: ShapeMatrix) -> None:
        summary = dataset.shape_summary(month)
        weights, idxs = dataset.columns(month)
        self.matrix = matrix
        self.weights = _np.array(weights, dtype=_np.float64)
        self.idxs = _np.array(idxs, dtype=_np.intp)
        self.total = summary["total"]
        self.established = summary["established"]
        #: The month's shapes in last-occurrence order (pack-time summary).
        self._last = summary["last"]
        self._last_writers: dict = {}

    def last_writers(self, field: str):
        """Shape indices of the month's *last writer* per distinct
        non-``None`` value of ``field`` (memoized), or None when the
        matrix has no such field.

        A last-wins dict fold over the month's records keyed on
        ``field`` leaves each value with its last record, whose shape is
        the value's shape that occurs last.  So the winners are, per
        code, the last entry of the ``last``-occurrence shape order:
        ``np.unique`` over the reversed code sequence returns each
        code's first position there, which maps back to a shape index.
        """
        try:
            return self._last_writers[field]
        except KeyError:
            pass
        vocab = self.matrix.vocab(field)
        if vocab is None:
            return None
        order = _np.array(self._last, dtype=_np.intp)
        codes = self.matrix.field_codes(field)[order]
        none = [code for code, value in enumerate(vocab) if value is None]
        if none:
            keep = codes != none[0]
            order, codes = order[keep], codes[keep]
        _values, first = _np.unique(codes[::-1], return_index=True)
        winners = self._last_writers[field] = order[order.size - 1 - first]
        return winners

    def _fold(self, selected) -> float:
        """Left fold of ``selected`` in row order, bit-equal to the
        scan's ``sum()``: ``cumsum`` accumulates sequentially, one IEEE
        addition per element (never ``np.sum`` — pairwise summation is
        a different addition order, hence different last bits)."""
        if selected.size == 0:
            return 0.0
        return float(_np.cumsum(selected)[-1])

    def weight_of(self, mask) -> float:
        """Total weight of rows whose shape is in ``mask`` (exact)."""
        return self._fold(self.weights[mask[self.idxs]])

    def restrict_weights(self, within_mask, mask) -> tuple[float, float]:
        """(denominator, numerator) folds under a ``within`` restriction,
        mirroring the scan: both fold their row subsequence from zero."""
        within_rows = within_mask[self.idxs]
        total = self._fold(self.weights[within_rows])
        matched = self._fold(self.weights[(within_mask & mask)[self.idxs]])
        return total, matched

    def mean_of(self, values, valid) -> float | None:
        """Row-order weighted mean of per-shape values (exact): the
        products are the scan's own ``w * v`` multiplications, and each
        accumulator folds its identical operand sequence."""
        rows = valid[self.idxs]
        weights = self.weights[rows]
        total = self._fold(weights)
        if total <= 0:
            return None
        acc = self._fold(weights * values[self.idxs[rows]])
        return acc / total


def matrix_for(dataset) -> ShapeMatrix:
    """The dataset's (shared, memoized) numpy shape matrix."""
    matrix = getattr(dataset, "_vector_matrix", None)
    if matrix is None:
        matrix = dataset._vector_matrix = ShapeMatrix(dataset.shape_matrix())
    return matrix


def view_for(dataset, month: _dt.date) -> VectorView:
    """The month's (shared, memoized) vector view.

    Shared per dataset exactly like ``_ShapeView`` — every store
    attaching the same packed dataset reuses the numpy columns and the
    compilation memos.  Callers have already excluded day-carrying
    months (same restriction as the shape tier).
    """
    matrix = matrix_for(dataset)
    shared = getattr(dataset, "_vector_view_cache", None)
    if shared is None:
        shared = dataset._vector_view_cache = {}
    view = shared.get(month)
    if view is None:
        view = shared[month] = VectorView(dataset, month, matrix)
        emit_event(
            "vector_path",
            month=month.isoformat(),
            outcome="view_build",
            shapes=matrix.n_shapes(),
            rows=int(view.weights.size),
        )
    return view
