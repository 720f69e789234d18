"""Figure 2: execution time and variance of the dominating basic block.

Shows that raw variance (the PKA/TBPoint threshold) cannot identify
stability: MM's dominating block has a much larger global variance than
SpMV's while being the *regular* application, and blocks can present
multiple "stable plateaus" over their lifetime.
"""

import numpy as np

from repro.harness import EVAL_R9NANO, format_table
from repro.timing import BBProbe, DetailedEngine
from repro.workloads import build_mm, build_spmv

from conftest import emit


def _dominating_series(kernel):
    probe = BBProbe()
    engine = DetailedEngine(kernel, EVAL_R9NANO)
    probe.watch(engine)
    engine.run()
    pc = probe.dominating_pc()
    return pc, np.array(probe.exec_times(pc))


def test_fig02(once):
    def run_both():
        return (_dominating_series(build_mm(576)),
                _dominating_series(build_spmv(2048)))

    (mm_pc, mm_times), (spmv_pc, spmv_times) = once(run_both)

    rows = []
    for name, times in (("MM", mm_times), ("SpMV", spmv_times)):
        n = len(times)
        segments = [times[i * n // 8: (i + 1) * n // 8].mean()
                    for i in range(8)]
        rows.append((name, n, float(times.mean()), float(times.var()),
                     " ".join(f"{x:.0f}" for x in segments)))
    emit("Figure 2: dominating-BB execution time over block index",
         format_table(("app", "n_blocks", "mean", "variance",
                       "segment means (8 octiles)"), rows))

    # both runs produced plenty of dynamic blocks
    assert len(mm_times) > 1000 and len(spmv_times) > 1000
    # execution times vary along the run for both applications
    assert mm_times.var() > 0 and spmv_times.var() > 0
