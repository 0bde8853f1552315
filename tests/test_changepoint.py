"""Change-point detector tests on synthetic and simulated series."""

import datetime as dt

import pytest

from repro.core.changepoint import (
    ChangePoint,
    correlate_with_events,
    detect_changepoint,
)
from repro.simulation.timeline import ATTACK_TIMELINE, Event


def months(start, values):
    cursor = dt.date.fromisoformat(start)
    out = []
    for value in values:
        out.append((cursor, float(value)))
        cursor = (cursor.replace(day=28) + dt.timedelta(days=4)).replace(day=1)
    return out


class TestDetector:
    def test_finds_kink_in_piecewise_line(self):
        # Flat for 6 months, then rising: the kink is the change point.
        series = months("2015-01-01", [10] * 6 + [10 + 5 * i for i in range(1, 7)])
        cp = detect_changepoint(series, smooth_window=1, rising=True)
        assert dt.date(2015, 5, 1) <= cp.month <= dt.date(2015, 8, 1)
        assert cp.direction == "acceleration"

    def test_finds_downward_kink(self):
        series = months("2015-01-01", [50] * 6 + [50 - 4 * i for i in range(1, 7)])
        cp = detect_changepoint(series, smooth_window=1, rising=False)
        assert dt.date(2015, 5, 1) <= cp.month <= dt.date(2015, 8, 1)
        assert cp.direction == "deceleration"

    def test_magnitude_mode(self):
        series = months("2015-01-01", [0, 0, 0, 0, 0, 30, 60, 60, 60, 60])
        cp = detect_changepoint(series, smooth_window=1)
        assert cp.month in (dt.date(2015, 5, 1), dt.date(2015, 6, 1), dt.date(2015, 7, 1))

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            detect_changepoint(months("2015-01-01", [1, 2, 3]))

    def test_smoothing_tolerates_noise(self):
        values = [10 + (1 if i % 2 else -1) for i in range(8)]
        values += [10 + 6 * i + (1 if i % 2 else -1) for i in range(1, 9)]
        series = months("2014-01-01", values)
        cp = detect_changepoint(series, smooth_window=3, rising=True)
        assert dt.date(2014, 6, 1) <= cp.month <= dt.date(2014, 11, 1)

    def test_smoothed_s_curve_pinned(self):
        # An S-shaped adoption curve through the default 3-wide
        # smoothing: month, direction and curvature are pinned.
        series = months(
            "2014-01-01",
            [1.0, 1.0, 1.1, 1.2, 1.5, 2.5, 4.0, 5.0, 5.5, 5.7, 5.8, 5.85],
        )
        cp = detect_changepoint(series)
        assert cp.month == dt.date(2014, 5, 1)
        assert cp.direction == "acceleration"
        assert cp.curvature == pytest.approx(0.4666666666666668, abs=1e-12)


class TestCorrelation:
    def test_nearest_event_named(self):
        series = months("2013-01-01", [5] * 5 + [5 + 8 * i for i in range(1, 8)])
        correlation = correlate_with_events(
            series, ATTACK_TIMELINE, smooth_window=1, rising=True
        )
        # The kink lands mid-2013; the nearest event is Snowden (June 2013).
        assert correlation.event.name == "Snowden"
        assert correlation.within_months < 4

    def test_lag_sign(self):
        event = Event("E", dt.date(2015, 3, 1), "attack")
        series = months("2015-01-01", [0] * 5 + [10 * i for i in range(1, 6)])
        correlation = correlate_with_events(series, [event], smooth_window=1, rising=True)
        assert correlation.lag_days > 0  # change after the event


class TestOnSimulation:
    def test_fs_shift_correlates_with_snowden(self, client_population, server_population):
        """§6.3.1: the FS shift 'coincides with' the Snowden revelations."""
        import datetime as dtm

        from repro.core import figures
        from repro.notary import PassiveMonitor, TrafficGenerator

        monitor = PassiveMonitor()
        generator = TrafficGenerator(client_population, server_population, monitor)
        generator.run_expectation(dtm.date(2012, 6, 1), dtm.date(2014, 12, 1))
        series = figures.fig8_key_exchange(monitor.store)["ECDHE"]
        correlation = correlate_with_events(series, ATTACK_TIMELINE, rising=True)
        assert correlation.event.name in ("Snowden", "RC4")
        assert correlation.within_months < 13
