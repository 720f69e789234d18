"""The paper's evaluation as named claims.

One test per claim the paper's evaluation makes in *shape*: Tables 1-2,
Observations 1-5 (Figs. 1-4, 6, 8, 11), the Fig. 13-17 comparisons,
§6.3 and three ablations.  Every simulation runs once, in a
module-scoped fixture, and feeds each claim that reads it; sizes are the
quick tier (``QUICK_SIZES``).  The rows behind each figure are
regenerated with ``repro sweep`` / ``repro app`` (EXPERIMENTS.md,
"Reproducing").

    PYTHONPATH=src python -m pytest -m slow tests/test_paper_claims.py
"""

import dataclasses
import functools
import gc
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cli import APP_BUILDERS
from repro.config import MI100, R9_NANO
from repro.core import (
    AnalysisStore,
    BBVProjector,
    Photon,
    PhotonConfig,
    analyze_kernel,
    cluster_by_distance,
    least_squares_fit,
)
from repro.functional import FunctionalExecutor, Kernel
from repro.harness import (
    EVAL_MI100,
    EVAL_PHOTON,
    EVAL_R9NANO,
    QUICK_SIZES,
    run_methods_app,
    run_methods_kernel,
    sim_time_error,
    workload_factory,
)
from repro.harness.runner import simulate_method
from repro.isa import with_waitcnt_blocks
from repro.timing import (
    BBProbe,
    DetailedEngine,
    MemoryHierarchy,
    WarpProbe,
    simulate_kernel_detailed,
)
from repro.workloads import (
    REGISTRY,
    build_fir,
    build_mm,
    build_relu,
    build_sc,
    build_spmv,
)

pytestmark = pytest.mark.slow

#: the Table 2 single-kernel workloads of Figs. 13-15
KERNELS = ("relu", "fir", "sc", "aes", "spmv", "mm")
#: Fig. 13 (pka, photon) and Fig. 15 (the levels alone) share one cell
R9NANO_METHODS = ("pka", "bb-sampling", "warp-sampling", "photon")
#: the inter-kernel-only baselines, run on the single-kernel MM cell
INTER_KERNEL = ("sieve", "gtpin")
FIG17_METHODS = ("kernel-sampling", "kernel+warp", "photon")
IPC_BUCKET = 200.0
FIR_SIZE = 4096


def _by_method(rows):
    assert all(row.ok for row in rows), [row.error for row in rows]
    return {row.method: row for row in rows}


def _kernel_cell(workload, gpu, methods):
    size, = QUICK_SIZES[workload]
    return _by_method(run_methods_kernel(
        workload_factory(workload, size), workload, size, gpu=gpu,
        methods=methods))


def _app_cell(name, methods=("photon",)):
    out = run_methods_app(APP_BUILDERS[name], name, methods=methods)
    out["rows"] = _by_method(out["rows"])
    return out


def _host_speedup(factory):
    """Full detail's host cost ÷ Photon's on what ``factory`` builds:
    the least process CPU time of three alternated runs per side,
    each on a freshly built target with the cyclic collector paused.
    CPU time leaves out the time the process waits for a core and the
    minimum leaves out a round a burst of host load slowed, so the
    ratio reads the simulators, not the machine's load."""
    best = {"full": float("inf"), "photon": float("inf")}
    for _ in range(3):
        for method in best:
            target = factory()
            gc.collect()
            gc.disable()
            try:
                start = time.process_time()
                simulate_method(target, method, EVAL_R9NANO, EVAL_PHOTON)
                cpu = time.process_time() - start
            finally:
                gc.enable()
            best[method] = min(best[method], cpu)
    return best["full"] / best["photon"]


# ------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def observed():
    """One detailed run per observation kernel, watched by a BB probe and
    a warp probe, with retired instructions bucketed (Figs. 1-4)."""
    runs = {}
    for name, kernel in (("mm", build_mm(576)), ("spmv", build_spmv(2048)),
                         ("relu", build_relu(4096))):
        engine = DetailedEngine(kernel, EVAL_R9NANO, ipc_bucket=IPC_BUCKET)
        bb, warp = BBProbe(), WarpProbe()
        bb.watch(engine)
        warp.watch(engine)
        result = engine.run()
        runs[name] = SimpleNamespace(
            ipc=np.array(result.ipc_series, dtype=float) / IPC_BUCKET,
            bb=bb, warp=warp)
    return runs


@pytest.fixture(scope="module")
def online():
    """Online analysis of the 1% sample and of every warp (Figs. 8, 11)."""
    projector = BBVProjector(EVAL_PHOTON.bbv_dim)
    every_warp = PhotonConfig(sample_fraction=1.0, min_sample_warps=1)
    return {name: (analyze_kernel(kernel, EVAL_PHOTON, projector),
                   analyze_kernel(kernel, every_warp, projector))
            for name, kernel in (("sc", build_sc(2048)),
                                 ("spmv", build_spmv(2048)))}


@pytest.fixture(scope="module")
def r9nano():
    """``r9nano(workload)``: full detail, PKA, each level alone and
    Photon (plus Sieve / GT-Pin on MM) — Figs. 13, 15 and the
    single-kernel inter-kernel ablation — run on first use."""
    return functools.cache(lambda workload: _kernel_cell(
        workload, EVAL_R9NANO,
        R9NANO_METHODS + (INTER_KERNEL if workload == "mm" else ())))


@pytest.fixture(scope="module")
def mi100():
    """``mi100(workload)``: full detail and Photon on MI100 (Fig. 14)."""
    return functools.cache(
        lambda workload: _kernel_cell(workload, EVAL_MI100, ("photon",)))


@pytest.fixture(scope="module")
def vgg16():
    """Figs. 6, 16 (vgg16) and 17."""
    return _app_cell("vgg16", FIG17_METHODS)


@pytest.fixture(scope="module")
def pagerank():
    """Fig. 16 (pr-1024) and the repeated-kernel inter-kernel ablation."""
    return _app_cell("pr-1024", INTER_KERNEL + ("photon",))


@pytest.fixture(scope="module")
def resnet18():
    return _app_cell("resnet18")


@pytest.fixture(scope="module")
def resnet50():
    return _app_cell("resnet50")


@pytest.fixture(scope="module")
def fir_full():
    """The full-detail FIR run both detector ablations compare against."""
    return simulate_kernel_detailed(build_fir(FIR_SIZE), EVAL_R9NANO)


# ------------------------------------------------------------ Tables 1-2


def test_table1_hierarchies_match_the_presets():
    assert len(MemoryHierarchy(R9_NANO).l1v) == 64
    mi100 = MemoryHierarchy(MI100)
    assert len(mi100.l1v) == 120
    assert len(mi100.l2_banks) == 32


def test_table2_every_workload_fast_forwards():
    for name in sorted(REGISTRY):
        kernel = REGISTRY[name](256)
        executor = FunctionalExecutor(kernel)
        insts = sum(executor.run_warp_control(warp).n_insts
                    for warp in range(0, kernel.n_warps, 16))
        assert insts > 0, name


# ------------------------------------------------ Observations (Figs. 1-11)


def _steady_cv(series):
    """CV of the middle 60% of the run (skips ramp-up and drain)."""
    n = len(series)
    window = series[int(0.2 * n): int(0.8 * n)]
    return float(window.std() / max(window.mean(), 1e-9))


def test_fig01_mm_ipc_fluctuates_more_than_relu(observed):
    """Observation 2: a stable-IPC assumption (PKA/TBPoint) holds for
    ReLU, not for MM."""
    assert _steady_cv(observed["mm"].ipc) > _steady_cv(observed["relu"].ipc)


def test_fig02_dominating_block_time_varies(observed):
    """Raw variance cannot rank stability: the dominating block's time
    moves along the run for regular and irregular kernels alike."""
    for name in ("mm", "spmv"):
        probe = observed[name].bb
        times = np.array(probe.exec_times(probe.dominating_pc()))
        assert len(times) > 1000, name
        assert times.var() > 0, name


def test_fig03_block_issue_retire_slope_is_one(observed):
    """Past warm-up, the dominating block's issue-vs-retired fit has
    slope ~1 (paper: 1.00 MM, 0.99 SpMV) — the detectors' signal."""
    for name in ("mm", "spmv"):
        probe = observed[name].bb
        records = probe.records[probe.dominating_pc()]
        tail = records[len(records) // 3:]
        a, _ = least_squares_fit([issue for issue, _ in tail],
                                 [retired for _, retired in tail])
        assert abs(a - 1.0) < 0.05, name


def _warp_fit(probe):
    """Slope and duration CV of the warp issue-vs-retired fit, past
    warm-up."""
    pairs = probe.issue_retire_pairs()
    tail = pairs[len(pairs) // 3:]
    a, _ = least_squares_fit([x for x, _ in tail], [y for _, y in tail])
    durations = [y - x for x, y in tail]
    return a, float(np.std(durations) / np.mean(durations))


def test_fig04_warp_durations_separate_regular_from_irregular(observed):
    mm_a, mm_spread = _warp_fit(observed["mm"].warp)
    _, spmv_spread = _warp_fit(observed["spmv"].warp)
    # the tail drains faster, pulling the global fit below 1 at this
    # scaled size; the online detector's rolling window sees ~1
    assert abs(mm_a - 1.0) < 0.25
    # what warp-sampling keys on: regular warps have a tight duration
    # spread, irregular warps do not
    assert mm_spread < 0.3
    assert spmv_spread > 2 * mm_spread


def test_fig06_bbv_clusters_share_ipc(vgg16):
    """Observation 5: VGG-16 launches close in GPU BBV have close IPC —
    the basis of kernel-sampling."""
    projector = BBVProjector(EVAL_PHOTON.bbv_dim)
    bbvs = [analyze_kernel(kernel, EVAL_PHOTON, projector).gpu_bbv
            for kernel in APP_BUILDERS["vgg16"]().kernels]
    ipcs = np.array([k.n_insts / k.sim_time for k in vgg16["full"].kernels])
    clusters = cluster_by_distance(bbvs, threshold=EVAL_PHOTON.kernel_distance)
    intra = [ipcs[[i for i, c in enumerate(clusters) if c == cid]].std()
             for cid in set(clusters) if clusters.count(cid) >= 2]
    assert max(clusters) + 1 >= 3  # layers are not all one blob
    assert intra, "expected at least one multi-member cluster"
    assert np.mean(intra) < 0.5 * ipcs.std()


def test_fig08_sample_reproduces_block_distribution(online):
    """The 1% online sample reproduces every warp's basic-block
    instruction shares (within 10% L1 distance)."""
    for name, (sample, every) in online.items():
        full, part = every.bb_share, sample.bb_share
        l1_gap = sum(abs(full.get(pc, 0.0) - part.get(pc, 0.0))
                     for pc in set(full) | set(part))
        assert l1_gap < 0.10, name


def test_fig11_sample_finds_the_dominant_warp_type(online):
    """SC has a dominant warp type in both views, SpMV in neither."""
    threshold = EVAL_PHOTON.dominant_warp_rate
    for analysis in online["sc"]:
        assert analysis.dominant_rate >= threshold
    for analysis in online["spmv"]:
        assert analysis.dominant_rate < threshold


# ----------------------------------------------- Figs. 13-15 (one kernel)


@pytest.mark.parametrize("workload", KERNELS)
def test_fig13_photon_error_is_bounded(workload, r9nano):
    cell = r9nano(workload)
    photon = cell["photon"]
    assert photon.error_pct < 50.0
    if workload in ("relu", "aes", "sc"):
        assert photon.error_pct < 15.0
    # a sampled run skips a real share of the work (the deterministic
    # speedup proxy; the host-time bar stays loose)
    if photon.detail_fraction < 1.0:
        assert photon.detail_fraction < 0.95
        size, = QUICK_SIZES[workload]
        assert _host_speedup(workload_factory(workload, size)) > 0.5
    # PKA's stable-IPC assumption fails on the irregular workload
    if workload == "spmv":
        assert photon.error_pct <= cell["pka"].error_pct * 1.2 + 5.0


@pytest.mark.parametrize("workload", KERNELS)
def test_fig14_photon_error_is_bounded_on_mi100(workload, mi100):
    """No reconfiguration for another cache hierarchy / CU count."""
    error = mi100(workload)["photon"].error_pct
    assert error < 50.0
    if workload in ("relu", "aes", "sc"):
        assert error < 15.0


@pytest.mark.parametrize("workload", KERNELS)
def test_fig15_levels_compose(workload, r9nano):
    cell = r9nano(workload)
    bb, warp, photon = (cell[m] for m in ("bb-sampling", "warp-sampling",
                                          "photon"))
    for row in (bb, warp, photon):
        assert row.error_pct < 60.0
    if workload == "spmv":
        # no dominant warp type: warp-sampling alone falls back to full
        assert warp.mode == "full"
        assert warp.error_pct == pytest.approx(0.0, abs=1e-9)
    # AES's long straight-line block favours warp-sampling (the detector
    # needs ~2x its window in retired warps to judge)
    if workload == "aes" and warp.size >= 4 * EVAL_PHOTON.warp_window:
        assert warp.mode == "warp"
    # Photon samples whenever any level alone can
    if bb.mode != "full" or warp.mode != "full":
        assert photon.mode != "full"


def test_inter_kernel_baselines_cannot_sample_one_kernel(r9nano):
    """On one big MM kernel Sieve / GT-Pin degenerate to full detail;
    Photon samples inside the kernel."""
    cell = r9nano("mm")
    assert cell["sieve"].detail_fraction == 1.0
    assert cell["gtpin"].detail_fraction == 1.0
    assert cell["sieve"].error_pct == 0.0
    assert cell["photon"].detail_fraction < 1.0


# ---------------------------------------------- Figs. 16-17 (applications)


@pytest.mark.parametrize("app", ["pagerank", "vgg16", "resnet18",
                                 "resnet50"])
def test_fig16_photon_kernel_samples_apps(app, request):
    out = request.getfixturevalue(app)
    row = out["rows"]["photon"]
    assert row.error_pct < 25.0
    assert out["photon"].mode_counts().get("kernel", 0) >= 1
    if app != "vgg16":
        # repeated-kernel apps skip a large share of the work; the host
        # speedup follows, the sampled fraction is the deterministic check
        assert row.detail_fraction < 0.8
        assert _host_speedup(APP_BUILDERS[row.workload]) > 0.8


def test_fig16_resnet50_skips_no_less_than_resnet18(resnet18, resnet50):
    """More repeated kernels, larger skipped fraction — the mechanism
    behind the paper's 39.1x on ResNet-152."""
    assert (resnet50["rows"]["photon"].detail_fraction
            <= resnet18["rows"]["photon"].detail_fraction + 0.05)


def test_repeated_kernels_are_skipped_by_every_inter_kernel_method(
        pagerank):
    """On PageRank Sieve, GT-Pin and Photon all skip the repeats; Photon
    needs no kernel names or up-front profiling for it."""
    for method in INTER_KERNEL + ("photon",):
        modes = [k.mode for k in pagerank[method].kernels[1:]]
        assert all(mode.endswith("kernel") for mode in modes), method
        assert pagerank["rows"][method].error_pct < 25.0


def test_fig17_kernel_sampling_is_the_most_accurate_level(vgg16):
    rows = vgg16["rows"]
    for method in FIG17_METHODS:
        assert rows[method].error_pct < 25.0
    # adding intra-kernel levels does not reduce the sampled fraction
    assert (rows["photon"].detail_fraction
            <= rows["kernel-sampling"].detail_fraction + 0.05)
    # paper: 4.60% vs 8.05%
    assert rows["kernel-sampling"].error_pct <= rows["photon"].error_pct + 5.0


def test_sec63_offline_analysis_is_reused(vgg16):
    """A run over a warm AnalysisStore takes every kernel's analysis
    from the store, is not slower (paper: 4.19 h -> 3.76 h on VGG-16)
    and equals a run without a store bit for bit.  Online (a fresh
    store; the first one warms ``store``) and offline runs alternate
    three times, each timed with the cyclic collector paused, and the
    best of each side is compared: one collector pause or scheduler
    hiccup cannot decide the verdict."""
    def timed(analysis_store):
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            result = Photon(EVAL_R9NANO, EVAL_PHOTON,
                            analysis_store=analysis_store).simulate_app(
                                APP_BUILDERS["vgg16"]())
            return time.perf_counter() - start, result
        finally:
            gc.enable()

    store = AnalysisStore()
    online, offline = [], []
    for i in range(3):
        online.append(timed(store if i == 0 else AnalysisStore())[0])
        wall, last = timed(store)
        offline.append(wall)
    assert store.hits >= len(store)
    assert min(offline) <= min(online) * 1.10
    plain = [(k.sim_time, k.n_insts, k.mode) for k in vgg16["photon"].kernels]
    assert [(k.sim_time, k.n_insts, k.mode) for k in last.kernels] == plain


# ------------------------------------------------------------- ablations


def test_detector_parameters_trade_accuracy_for_switching(fir_full):
    """δ and window size on FIR, which only BB-sampling accelerates."""
    def run(**overrides):
        result = Photon(EVAL_R9NANO, dataclasses.replace(
            EVAL_PHOTON, **overrides)).simulate_kernel(build_fir(FIR_SIZE))
        return result, sim_time_error(fir_full.sim_time, result.sim_time)

    defaults, error = run()
    assert defaults.mode != "full" and error < 30.0
    _, loose_error = run(delta=0.10)
    assert loose_error < 60.0
    # smaller windows are not a free win: the least-squares slope over a
    # short window is noise-dominated, so the detector switches earlier
    # or never — the reason for the paper's large default window
    small, _ = run(bb_window=EVAL_PHOTON.bb_window // 4,
                   warp_window=EVAL_PHOTON.warp_window // 4)
    assert small.mode in ("bb", "full")
    if small.mode == "full":
        assert small.detail_fraction == 1.0


def _waitcnt_fir():
    kernel = build_fir(FIR_SIZE)
    return Kernel(
        program=with_waitcnt_blocks(kernel.program),
        n_warps=kernel.n_warps, wg_size=kernel.wg_size,
        memory=kernel.memory, args=kernel.args,
        name=kernel.name + "-wcnt", meta=dict(kernel.meta))


def test_waitcnt_blocks_keep_bb_sampling_accurate(fir_full):
    """s_waitcnt-terminated blocks (paper future work) give the BB
    detector a finer static structure without losing accuracy."""
    bb_only = dataclasses.replace(EVAL_PHOTON, enable_warp_sampling=False,
                                  enable_kernel_sampling=False)
    fine_full = simulate_kernel_detailed(_waitcnt_fir(), EVAL_R9NANO)
    fine = _waitcnt_fir()
    assert fine.program.num_blocks > build_fir(FIR_SIZE).program.num_blocks
    for full, kernel in ((fir_full, build_fir(FIR_SIZE)),
                         (fine_full, fine)):
        sampled = Photon(EVAL_R9NANO, bb_only).simulate_kernel(kernel)
        assert sim_time_error(full.sim_time, sampled.sim_time) < 40.0
