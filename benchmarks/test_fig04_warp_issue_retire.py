"""Figure 4: issue vs retired time at the *warp* level.

For regular applications (MM) the warp-level fit behaves like the
basic-block-level one (slope ~ 1, enabling warp-sampling); for irregular
applications (SpMV) warps do different amounts of work, so the fit's
residuals are large and the slope is uninformative — warp-sampling is
automatically disabled.
"""

import numpy as np

from repro.core import least_squares_fit
from repro.harness import EVAL_R9NANO, format_table
from repro.timing import DetailedEngine, WarpProbe
from repro.workloads import build_mm, build_spmv

from conftest import emit


def _warp_fit(kernel):
    probe = WarpProbe()
    engine = DetailedEngine(kernel, EVAL_R9NANO)
    probe.watch(engine)
    engine.run()
    pairs = probe.issue_retire_pairs()
    tail = pairs[len(pairs) // 3:]
    xs = [x for x, _ in tail]
    ys = [y for _, y in tail]
    a, b = least_squares_fit(xs, ys)
    predictions = [a * x + b for x in xs]
    residual = float(np.sqrt(np.mean(
        [(y - p) ** 2 for y, p in zip(ys, predictions)])))
    durations = [y - x for x, y in tail]
    spread = float(np.std(durations) / np.mean(durations))
    return a, residual, spread


def test_fig04(once):
    def run_both():
        return _warp_fit(build_mm(576)), _warp_fit(build_spmv(2048))

    (mm_a, mm_res, mm_spread), (sp_a, sp_res, sp_spread) = once(run_both)

    emit("Figure 4: warp issue-vs-retired fits",
         format_table(
             ("app", "slope a", "rms residual", "duration CV"),
             [("MM", mm_a, mm_res, mm_spread),
              ("SpMV", sp_a, sp_res, sp_spread)]))

    # regular app: near-unit slope (the tail drains faster, pulling the
    # global fit below 1 at this scaled size; the online detector uses a
    # rolling window which sees ~1 in steady state)
    assert abs(mm_a - 1.0) < 0.25
    # the discriminator warp-sampling keys on: regular warps have tight
    # duration spread, irregular warps do not
    assert mm_spread < 0.3
    assert sp_spread > 2 * mm_spread
