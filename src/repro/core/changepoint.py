"""Change-point detection: correlating series shifts with the timeline.

The paper's contribution (i) is correlating ecosystem changes "with the
timing of specific attacks on TLS".  This module makes the correlation
mechanical: find where a monthly series accelerates hardest, and match
that against the §2.2 event timeline.

The detector is deliberately simple and transparent — a smoothed
second-difference (curvature) extremum — because the series are monthly
and low-noise; heavier machinery would obscure what is being claimed.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass

import numpy as np

from repro.simulation.timeline import Event

Series = list[tuple[_dt.date, float]]


def _smooth(values: list[float], window: int) -> list[float]:
    """Centered moving average, zero-padded at the boundaries
    (``np.convolve`` with a flat kernel, ``mode="same"``): output ``i``
    averages the window centered (right-biased for even widths) on
    ``i``, with out-of-range taps contributing zero.
    """
    if window <= 1:
        return list(values)
    kernel = np.ones(window) / window
    return list(np.convolve(np.array(values, dtype=float), kernel, mode="same"))


@dataclass(frozen=True)
class ChangePoint:
    """The strongest acceleration (or deceleration) of a series."""

    month: _dt.date
    curvature: float     # signed second difference at the point
    direction: str       # "acceleration" | "deceleration"


def detect_changepoint(
    series: Series,
    smooth_window: int = 3,
    rising: bool | None = None,
) -> ChangePoint:
    """The month where the series' slope changes the most.

    Args:
        series: Monthly (date, value) points, ordered.
        smooth_window: Moving-average width applied before
            differentiating (noise control).
        rising: If True, only look for upward accelerations (slope
            increasing); if False, only downward; None takes the
            largest in magnitude.
    """
    if len(series) < 5:
        raise ValueError("need at least 5 points to detect a change point")
    dates = [d for d, _ in series]
    values = _smooth([v for _, v in series], smooth_window)
    curvature = np.diff(values, n=2)  # index i -> month i+1
    # The moving average zero-pads at the boundaries, which manufactures
    # spurious curvature there; restrict the search to the interior.
    margin = max(smooth_window - 1, 0)
    interior = curvature[margin : len(curvature) - margin or None]
    if len(interior) == 0:
        raise ValueError("series too short for the requested smoothing")
    # First-extremum ties, like np.argmax/argmin would pick.
    indices = range(len(interior))
    if rising is True:
        local = max(indices, key=interior.__getitem__)
    elif rising is False:
        local = min(indices, key=interior.__getitem__)
    else:
        local = max(indices, key=lambda i: abs(interior[i]))
    index = local + margin
    value = float(curvature[index])
    return ChangePoint(
        month=dates[index + 1],
        curvature=value,
        direction="acceleration" if value > 0 else "deceleration",
    )


@dataclass(frozen=True)
class EventCorrelation:
    """A change point matched against the nearest timeline event."""

    changepoint: ChangePoint
    event: Event
    lag_days: int  # positive: change after the event

    @property
    def within_months(self) -> float:
        return abs(self.lag_days) / 30.44


def correlate_with_events(
    series: Series,
    events,
    smooth_window: int = 3,
    rising: bool | None = None,
) -> EventCorrelation:
    """Detect the series' change point and name the nearest event.

    Correlation in time is not causality (§6.3.1 makes the same caveat
    for Snowden); the result reports the lag so the caller can judge.
    """
    changepoint = detect_changepoint(series, smooth_window, rising)
    nearest = min(events, key=lambda e: abs((changepoint.month - e.date).days))
    return EventCorrelation(
        changepoint=changepoint,
        event=nearest,
        lag_days=(changepoint.month - nearest.date).days,
    )
