"""Rolling least-squares stability detection (paper Equation 1).

Photon decides that a stream of (issue time, retired time) observations is
*stable* when the least-squares slope over the last ``n`` observations is
close to one.  The intuition (Observation 3): once competition among
warps has stabilised, an execution's retired time tracks its issue time
plus a constant, so the fitted line ``retired = a * issue + b`` has
``a ≈ 1``.  During warm-up (resources filling, caches cold) later issues
see more contention and ``a`` deviates from one.

The paper additionally guards against local optima by requiring that the
mean execution time over the last ``n`` observations differs from the
mean over the previous ``n`` by less than the same threshold ``δ``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def least_squares_fit(xs, ys) -> Tuple[float, float]:
    """Best-fit line ``y = a*x + b`` by ordinary least squares (Eq. 1).

    Raises ``ValueError`` on fewer than two points or zero x-variance.
    """
    n = len(xs)
    if n < 2 or n != len(ys):
        raise ValueError("need at least two (x, y) points")
    sx = float(sum(xs))
    sy = float(sum(ys))
    sxy = float(sum(x * y for x, y in zip(xs, ys)))
    sxx = float(sum(x * x for x in xs))
    denom = sxx - sx * sx / n
    if denom == 0:
        raise ValueError("zero variance in x; slope undefined")
    a = (sxy - sx * sy / n) / denom
    b = sy / n - a * sx / n
    return a, b


def observations_needed(window: int, mean_check: bool) -> int:
    """Observations before a stream *can* be judged stable: one full
    window for the slope, a second one behind it for the mean guard."""
    return window * (2 if mean_check else 1)


class StabilityDetector:
    """Photon's per-stream stability criterion.

    Feed ``(issue, retired)`` pairs to :attr:`observe` (``add`` is the
    same function): it returns whether the last ``window`` observations
    have a least-squares slope within ``delta`` of one AND (optionally)
    the mean execution duration over the last ``window`` differs from
    the previous ``window``'s by less than ``mean_delta`` relative — the
    local-optimum guard from Sections 4.1/4.2 — and ``False``, without
    a slope, until ``need`` observations have arrived.

    ``observe`` runs once per basic block of a detailed simulation, so
    it is one closure over local floats.  One ring of ``2 * window``
    points backs both windows: the point one window old leaves the
    slope sums and moves from the recent duration sum to the older one,
    the point two windows old leaves that and its cell is reused.  Each
    sum is updated add-first, subtract-second, so results depend on the
    stream alone (``tests/golden/lsq_verdicts.json`` pins the last bit).
    :attr:`observe_many` judges a batch, bit for bit as ``observe`` would.
    """

    def __init__(self, window: int, delta: float, mean_check: bool = True,
                 mean_delta: Optional[float] = None):
        if window < 2:
            raise ValueError("window must be >= 2")
        self.window = window
        self.delta = delta
        self.mean_check = mean_check
        # threshold for the window-mean drift guard; defaults to the slope
        # threshold (the paper uses one delta), but may be calibrated
        # separately for substrates with noisier steady states
        self.mean_delta = mean_delta = (
            delta if mean_delta is None else mean_delta)
        self.need = need = observations_needed(window, mean_check)

        size = 2 * window
        span = float(window)
        xs, ys = [], []  # the ring: grows to ``size`` points, then wraps
        n = 0
        sx = sy = sxy = sxx = 0.0
        recent = older = 0.0  # duration sums: last window, the one before
        stable = False

        def observe(issue: float, retired: float) -> bool:
            nonlocal n, sx, sy, sxy, sxx, recent, older, stable
            pos = n % size
            sx += issue
            sy += retired
            sxy += issue * retired
            sxx += issue * issue
            recent += retired - issue
            if n >= window:
                # one window old; in a full ring a negative index wraps
                ox = xs[pos - window]
                oy = ys[pos - window]
                sx -= ox
                sy -= oy
                sxy -= ox * oy
                sxx -= ox * ox
                moved = oy - ox
                recent -= moved
                older += moved
                if n >= size:
                    older -= ys[pos] - xs[pos]
            if n < size:
                xs.append(issue)
                ys.append(retired)
            else:
                xs[pos] = issue
                ys[pos] = retired
            n += 1
            if n < need:
                return False
            # the criterion, comparisons in place of abs() / max() calls
            stable = False
            denom = sxx - sx * sx / span
            if (denom >= 1e-12 or denom <= -1e-12) and (
                    -delta < (sxy - sx * sy / span) / denom - 1.0 < delta):
                stable = True
                if mean_check:
                    recent_mean = recent / span
                    older_mean = older / span
                    drift = recent_mean - older_mean
                    if drift < 0.0:
                        drift = -drift
                    if recent_mean < 0.0:
                        recent_mean = -recent_mean
                    if older_mean < 0.0:
                        older_mean = -older_mean
                    scale = (recent_mean if recent_mean > older_mean
                             else older_mean)
                    if scale < 1e-12:
                        scale = 1e-12
                    stable = drift / scale < mean_delta
            return stable

        def observe_many(issues, retireds) -> np.ndarray:
            nonlocal n, sx, sy, sxy, sxx, recent, older, stable
            x, y = np.asarray(issues, float), np.asarray(retireds, float)
            m = len(x)
            if not m:
                return np.zeros(0, dtype=bool)
            # point ``n + k`` is ``hx[size + k]``; zeros: before the stream
            pos, pad = n % size, np.zeros(max(0, size - n))
            hx = np.concatenate((pad, xs[pos:] + xs[:pos], x))
            hy = np.concatenate((pad, ys[pos:] + ys[:pos], y))
            ox, oy = hx[size - window:][:m], hy[size - window:][:m]
            moved = oy - ox
            # each sum: a sequential accumulate of observe's terms (a-b == a+-b)
            terms = np.empty((6, 2 * m + 1))
            terms[:, 0] = sx, sy, sxy, sxx, recent, older
            terms[:, 1::2] = x, y, x * y, x * x, y - x, moved
            terms[:, 2::2] = (-ox, -oy, -(ox * oy), -(ox * ox), -moved,
                              -(hy[:m] - hx[:m]))
            sx_, sy_, sxy_, sxx_, recent_, older_ = run = np.add.accumulate(
                terms, axis=1, out=terms)[:, 2::2]
            with np.errstate(all="ignore"):  # ``observe``'s criterion
                denom = sxx_ - sx_ * sx_ / span
                dev = (sxy_ - sx_ * sy_ / span) / denom - 1.0
                verdicts = (abs(denom) >= 1e-12) & (abs(dev) < delta)
                if mean_check:
                    recent_, older_ = recent_ / span, older_ / span
                    scale = np.maximum(abs(recent_), abs(older_)).clip(1e-12)
                    verdicts &= abs(recent_ - older_) / scale < mean_delta
            verdicts[:max(0, need - n - 1)] = False
            n += m
            sx, sy, sxy, sxx, recent, older = run[:, -1].tolist()
            stable = bool(verdicts[-1]) if n >= need else stable
            for ring, points in ((xs, hx), (ys, hy)):  # point g: cell g % size
                ring[:] = np.roll(points[-min(n, size):], n).tolist()
            return verdicts

        self.observe = self.add = observe
        self.observe_many = observe_many
        self._state = lambda: (n, sx, sy, sxy, sxx, recent, stable)

    @property
    def observations(self) -> int:
        return self._state()[0]

    @property
    def ready(self) -> bool:
        """True once enough observations exist to judge stability."""
        return self.observations >= self.need

    def is_stable(self) -> bool:
        """The verdict of the latest observation."""
        return self._state()[-1]

    def mean_duration(self) -> float:
        """Mean execution duration over the most recent window.

        This is the predictor used once a stream is declared stable.
        """
        n, *_, recent, _ = self._state()
        if not n:
            raise ValueError("no observations")
        return recent / min(n, self.window)

    def slope(self) -> Optional[float]:
        """Least-squares slope over the most recent window, or None
        while undefined (fewer than two points, degenerate x)."""
        n, sx, sy, sxy, sxx, _, _ = self._state()
        n = min(n, self.window)
        if n < 2:
            return None
        denom = sxx - sx * sx / n
        if abs(denom) < 1e-12:
            return None
        return (sxy - sx * sy / n) / denom
