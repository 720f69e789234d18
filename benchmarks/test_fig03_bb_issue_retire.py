"""Figure 3: issue vs retired time of the dominating basic block.

The least-squares line fitted through the (issue, retired) points has a
slope close to one once competition among warps stabilises — for both
regular (MM) and irregular (SpMV) applications.  This is the signal
Photon's detectors use instead of raw variance.
"""

import numpy as np

from repro.core import least_squares_fit
from repro.harness import EVAL_R9NANO, format_table
from repro.timing import BBProbe, DetailedEngine
from repro.workloads import build_mm, build_spmv

from conftest import emit


def _fit(kernel):
    probe = BBProbe()
    engine = DetailedEngine(kernel, EVAL_R9NANO)
    probe.watch(engine)
    engine.run()
    pc = probe.dominating_pc()
    records = probe.records[pc]
    # skip the warm-up third, as the paper notes the slope deviates there
    tail = records[len(records) // 3:]
    xs = [issue for issue, _ in tail]
    ys = [retired for _, retired in tail]
    a, b = least_squares_fit(xs, ys)
    warm = records[: len(records) // 3]
    a_warm, _ = least_squares_fit([x for x, _ in warm],
                                  [y for _, y in warm])
    return a, b, a_warm, len(records)


def test_fig03(once):
    def run_both():
        return _fit(build_mm(576)), _fit(build_spmv(2048))

    (mm_a, mm_b, mm_warm, mm_n), (sp_a, sp_b, sp_warm, sp_n) = once(run_both)

    emit("Figure 3: dominating-BB issue-vs-retired least-squares fits",
         format_table(
             ("app", "slope a (steady)", "intercept b", "slope (warm-up)",
              "n"),
             [("MM", mm_a, mm_b, mm_warm, mm_n),
              ("SpMV", sp_a, sp_b, sp_warm, sp_n)]))

    # paper: a ~= 1.00 / 0.99 for MM and SpMV respectively
    assert abs(mm_a - 1.0) < 0.05
    assert abs(sp_a - 1.0) < 0.05
