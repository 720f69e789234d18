"""Golden replay of the stability detector's verdicts.

``tests/golden/lsq_verdicts.json`` was recorded at commit b395508 from
the detector that kept three deques and a separate ``RollingSlope``
(``add`` then ``is_stable`` per observation).  For every seeded stream x
window x guard setting it holds the sha256 of the verdict sequence and
``repr`` of ``slope()`` / ``mean_duration()`` at fixed checkpoints — the
rolling sums are floating point, so the order of every addition and
subtraction shows in the last bit.  ``StabilityDetector.observe`` must
reproduce all of it exactly.

``PYTHONPATH=src:tests python tests/test_lsq_golden.py`` rewrites the
file from the current detector (only after an intended change to the
criterion).
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.core import StabilityDetector

from conftest import write_golden

GOLDEN = Path(__file__).parent / "golden" / "lsq_verdicts.json"

WINDOWS = (2, 3, 64, 2048)
DELTA = 0.03


def _ramp_then_flat(rng, n):
    """Warm-up: durations grow with issue time (slope 1.1) over the
    first third, then settle (noisy)."""
    t, out = 0.0, []
    for _ in range(n):
        grow = 0.1 * min(t, n / 3.0)
        out.append((t, t + 100.0 + grow + rng.uniform(-1.0, 1.0)))
        t += rng.uniform(0.5, 1.5)
    return out


def _level_shift(rng, n):
    """Slope one inside each half, means 15% apart."""
    t, out = 0.0, []
    for i in range(n):
        level = 100.0 if i < n // 2 else 115.0
        out.append((t, t + level + rng.uniform(-0.5, 0.5)))
        t += rng.uniform(0.5, 1.5)
    return out


def _constant_x(rng, n):
    """Bursts issued at one timestamp: zero x-variance inside a window."""
    t, out = 0.0, []
    for i in range(n):
        if (i // 97) % 2 == 0:
            t += 3.0
        out.append((t, t + 50.0 + (i % 5)))
    return out


def _integer_clock(rng, n):
    """Whole-cycle issue and retire times (the evaluation GPUs)."""
    t, out = 0, []
    for _ in range(n):
        out.append((float(t), float(t + 200 + rng.randint(-3, 3))))
        t += rng.randint(1, 4)
    return out


def _fractional_clock(rng, n):
    """Non-dyadic steps: every rolling add and subtract rounds."""
    t, out = 0.7, []
    for _ in range(n):
        out.append((t, t + 87.3 + rng.uniform(-2.6, 2.6)))
        t += 1.3
    return out


STREAMS = {
    "ramp-then-flat": _ramp_then_flat,
    "level-shift": _level_shift,
    "constant-x": _constant_x,
    "integer-clock": _integer_clock,
    "fractional-clock": _fractional_clock,
}


def _length(window: int) -> int:
    return max(240, 7 * window)


def run_case(stream: str, window: int, mean_check: bool,
             mean_delta, cuts=None) -> dict:
    """The record of one case, fed point by point through ``observe`` —
    or, with ``cuts``, through ``observe_many`` in the batches between
    them (and between the checkpoints, whose views it reads)."""
    n = _length(window)
    points = STREAMS[stream](random.Random(f"{stream}/{window}"), n)
    det = StabilityDetector(window, DELTA, mean_check, mean_delta)
    checkpoints = {n // 5, n // 3, n // 2, (3 * n) // 4, n - 1}
    verdicts = bytearray()
    marks = {}
    if cuts is None:
        for i, (issue, retired) in enumerate(points):
            verdicts.append(det.observe(issue, retired))
            if i in checkpoints:
                marks[str(i)] = [repr(det.slope()),
                                 repr(det.mean_duration())]
    else:
        ends = sorted(set(cuts) | {i + 1 for i in checkpoints})
        for lo, hi in zip([0] + ends, ends):
            batch = points[lo:hi]
            verdicts.extend(det.observe_many([x for x, _ in batch],
                                             [y for _, y in batch]))
            if hi - 1 in checkpoints:
                marks[str(hi - 1)] = [repr(det.slope()),
                                      repr(det.mean_duration())]
    return {
        "n": n,
        "stable": sum(verdicts),
        "verdicts_sha256": hashlib.sha256(bytes(verdicts)).hexdigest(),
        "checkpoints": marks,
    }


def all_cases():
    for stream in STREAMS:
        for window in WINDOWS:
            for mean_check in (True, False):
                for mean_delta in (None, 0.2):
                    key = (f"{stream}/w{window}/"
                           f"{'guard' if mean_check else 'noguard'}/"
                           f"{'delta' if mean_delta is None else mean_delta}")
                    yield key, (stream, window, mean_check, mean_delta)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("stream", sorted(STREAMS))
def test_verdicts_replay(stream, golden):
    for key, case in all_cases():
        if case[0] == stream:
            assert run_case(*case) == golden[key], key


@pytest.mark.parametrize("stream", sorted(STREAMS))
def test_batched_verdicts_replay(stream, golden):
    """``observe_many`` over every golden stream — in one batch per
    checkpoint, and cut at random points besides — reproduces the
    record ``observe`` made."""
    rng = random.Random(stream)
    for key, case in all_cases():
        if case[0] == stream:
            n = _length(case[1])
            assert run_case(*case, cuts=()) == golden[key], key
            cuts = rng.sample(range(n + 1), rng.randint(1, 12))
            assert run_case(*case, cuts=cuts) == golden[key], (key, cuts)


def test_one_batch_is_the_whole_stream(golden):
    """A single ``observe_many`` call over a whole golden stream."""
    for key, (stream, window, mean_check, mean_delta) in all_cases():
        n = _length(window)
        points = STREAMS[stream](random.Random(f"{stream}/{window}"), n)
        det = StabilityDetector(window, DELTA, mean_check, mean_delta)
        verdicts = det.observe_many(*zip(*points))
        rec = golden[key]
        assert hashlib.sha256(bytes(verdicts)).hexdigest() == (
            rec["verdicts_sha256"]), key
        assert [repr(det.slope()), repr(det.mean_duration())] == (
            rec["checkpoints"][str(n - 1)]), key


def test_views_agree_with_observe():
    """``add`` + ``is_stable`` (the pre-fusion call pair, still what
    diagnostics use) is the same verdict as ``observe``."""
    for stream in STREAMS:
        points = STREAMS[stream](random.Random(stream), 400)
        fused = StabilityDetector(16, DELTA)
        paired = StabilityDetector(16, DELTA)
        for issue, retired in points:
            verdict = fused.observe(issue, retired)
            paired.add(issue, retired)
            assert paired.is_stable() == verdict
            assert paired.ready == (paired.observations >= 32)
        assert paired.slope() == fused.slope()
        assert paired.mean_duration() == fused.mean_duration()


def test_golden_sees_both_verdicts(golden):
    """Only meaningful while streams reach stable and unstable states,
    and while the degenerate slope shows up at a checkpoint."""
    assert any(0 < rec["stable"] < rec["n"] for rec in golden.values())
    assert any(rec["stable"] == 0 for rec in golden.values())
    assert any(mark[0] == "None" for rec in golden.values()
               for mark in rec["checkpoints"].values())


if __name__ == "__main__":
    fresh = {key: run_case(*case) for key, case in all_cases()}
    write_golden(GOLDEN, fresh)
