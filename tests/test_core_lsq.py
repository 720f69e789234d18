"""Least-squares fitting and the rolling stability detector."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import StabilityDetector, least_squares_fit


def test_exact_fit_recovery():
    xs = [0, 1, 2, 3, 4]
    ys = [2 * x + 5 for x in xs]
    a, b = least_squares_fit(xs, ys)
    assert a == pytest.approx(2.0)
    assert b == pytest.approx(5.0)


def test_fit_requires_two_points():
    with pytest.raises(ValueError):
        least_squares_fit([1], [1])


def test_fit_degenerate_x():
    with pytest.raises(ValueError):
        least_squares_fit([3, 3, 3], [1, 2, 3])


@settings(max_examples=50, deadline=None)
@given(
    a=st.floats(-100, 100),
    b=st.floats(-1000, 1000),
    xs=st.lists(st.integers(0, 100000), min_size=3, max_size=50,
                unique=True),
)
def test_property_fit_recovers_noiseless_line(a, b, xs):
    xs = [float(x) for x in xs]  # well-separated abscissae
    ys = [a * x + b for x in xs]
    fit_a, fit_b = least_squares_fit(xs, ys)
    assert fit_a == pytest.approx(a, abs=1e-4, rel=1e-4)


def _slope_only(window):
    """A detector used for its rolling slope alone."""
    return StabilityDetector(window, delta=0.03, mean_check=False)


def test_rolling_slope_matches_batch():
    window = 8
    roll = _slope_only(window)
    points = [(float(i), 1.5 * i + (i % 3)) for i in range(30)]
    for x, y in points:
        roll.add(x, y)
    a, _ = least_squares_fit([p[0] for p in points[-window:]],
                             [p[1] for p in points[-window:]])
    assert roll.slope() == pytest.approx(a)


def test_rolling_slope_window_eviction():
    roll = _slope_only(4)
    for i in range(100):
        roll.add(float(i), float(2 * i))
    assert roll.observations == 100
    assert roll.ready
    # only the last four points remain in the sums: slope and mean
    # duration are theirs (x = 96..99, duration = x)
    assert roll.slope() == pytest.approx(2.0)
    assert roll.mean_duration() == pytest.approx(97.5)


def test_rolling_slope_degenerate_returns_none():
    roll = _slope_only(4)
    for _ in range(4):
        roll.add(5.0, 1.0)
    assert roll.slope() is None
    assert not roll.is_stable()


def test_rolling_slope_rejects_tiny_window():
    with pytest.raises(ValueError):
        StabilityDetector(1, delta=0.03)


def _feed_stable(detector, count, start=0.0, duration=10.0, step=5.0):
    t = start
    for _ in range(count):
        detector.add(t, t + duration)
        t += step


def test_detector_stable_stream():
    det = StabilityDetector(window=8, delta=0.03)
    _feed_stable(det, 16)
    assert det.ready
    assert det.is_stable()
    assert det.mean_duration() == pytest.approx(10.0)


def test_detector_not_ready_before_two_windows():
    det = StabilityDetector(window=8, delta=0.03)
    _feed_stable(det, 15)  # one short of 2n
    assert not det.ready
    assert not det.is_stable()


def test_detector_ready_at_window_without_mean_check():
    det = StabilityDetector(window=8, delta=0.03, mean_check=False)
    _feed_stable(det, 8)
    assert det.ready and det.is_stable()


def test_detector_rejects_warmup_slope():
    """Durations growing with issue time -> slope > 1 -> unstable."""
    det = StabilityDetector(window=8, delta=0.03)
    t = 0.0
    for i in range(16):
        det.add(t, t + 10.0 + 5.0 * i)  # growing latency
        t += 5.0
    assert not det.is_stable()


def test_detector_mean_check_catches_level_shift():
    """Slope ~1 inside each window but means differ -> local optimum."""
    det = StabilityDetector(window=8, delta=0.05)
    _feed_stable(det, 8, start=0.0, duration=10.0)
    _feed_stable(det, 8, start=40.0, duration=20.0)
    # slope within each half is 1, but the means differ by 2x
    assert abs(det.slope() - 1.0) < 1.0  # slope alone is not wildly off
    assert not det.is_stable()


def test_detector_mean_delta_loosens_guard():
    strict = StabilityDetector(window=8, delta=0.03)
    loose = StabilityDetector(window=8, delta=0.03, mean_delta=0.5)
    for det in (strict, loose):
        _feed_stable(det, 8, start=0.0, duration=10.0)
        _feed_stable(det, 8, start=40.0, duration=11.0)  # 10% drift
    assert not strict.is_stable()
    assert loose.is_stable()


def test_detector_mean_duration_requires_data():
    det = StabilityDetector(window=4, delta=0.03)
    with pytest.raises(ValueError):
        det.mean_duration()


def test_detector_recovers_after_instability():
    det = StabilityDetector(window=8, delta=0.03, mean_delta=0.03)
    _feed_stable(det, 8, start=0.0, duration=10.0)
    _feed_stable(det, 8, start=40.0, duration=30.0)  # shift: unstable
    assert not det.is_stable()
    _feed_stable(det, 16, start=100.0, duration=30.0)
    assert det.is_stable()
    assert det.mean_duration() == pytest.approx(30.0)


@settings(max_examples=30, deadline=None)
@given(
    duration=st.floats(1.0, 1e4),
    step=st.floats(0.5, 100.0),
    window=st.integers(2, 64),
)
def test_property_constant_duration_is_stable(duration, step, window):
    det = StabilityDetector(window=window, delta=0.03)
    _feed_stable(det, 2 * window, duration=duration, step=step)
    assert det.is_stable()
    assert det.mean_duration() == pytest.approx(duration)
