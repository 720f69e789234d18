"""Evaluation runners: full vs PKA vs Photon vs level ablations.

Each method gets a freshly built kernel/application (same seed, hence
identical workload and data) so that no method benefits from another's
warm state, matching how the paper runs each configuration separately.

Sweep isolation: one misbehaving method (or one bad problem size) must
never poison a whole evaluation.  Every method run is wrapped in a
bounded :class:`~repro.reliability.RetryPolicy` (transient watchdog
trips get a second attempt) and, failing that, collapses into a *failed*
:class:`~repro.harness.metrics.Comparison` row carrying the error class
and message — the remaining methods still run and report.  Pass
``isolate=False`` to get the old fail-fast behaviour.
"""

from __future__ import annotations

import time as _time
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..baselines.inter_kernel import GTPin, Sieve
from ..baselines.tbpoint import TBPoint
from ..baselines.pka import PKA, PkaConfig
from ..config.gpu_configs import GpuConfig
from ..core.config import PhotonConfig
from ..core.kerneldb import KernelDB
from ..core.photon import AnalysisStore, Photon
from ..errors import ReproError, WorkloadError
from ..functional.kernel import Application, Kernel
from ..reliability.faults import FaultPlan
from ..reliability.retry import NO_RETRY, RetryPolicy
from ..reliability.watchdog import WatchdogConfig
from ..timing.simulator import (
    AppResult,
    KernelResult,
    simulate_app_detailed,
    simulate_kernel_detailed,
)
from ..workloads.base import REGISTRY
from .defaults import EVAL_PHOTON, EVAL_R9NANO
from .metrics import (
    Comparison,
    compare_apps,
    compare_kernels,
    failed_comparison,
)

KernelFactory = Callable[[], Kernel]
AppFactory = Callable[[], Application]

# the Figure 15/17 ablation configurations
LEVEL_METHODS = {
    "bb-sampling": dict(kernel=False, warp=False, bb=True),
    "warp-sampling": dict(kernel=False, warp=True, bb=False),
    "kernel-sampling": dict(kernel=True, warp=False, bb=False),
    "kernel+warp": dict(kernel=True, warp=True, bb=False),
    "photon": dict(kernel=True, warp=True, bb=True),
}


def workload_factory(name: str, size: int, **kwargs) -> KernelFactory:
    """Factory for a registered single-kernel workload at ``size`` warps."""
    if name not in REGISTRY:
        raise WorkloadError(
            f"unknown workload {name!r}; registered: {sorted(REGISTRY)}")
    build = REGISTRY[name]
    return lambda: build(size, **kwargs)


def run_methods_kernel(
    factory: KernelFactory,
    workload: str,
    size: int,
    gpu: Optional[GpuConfig] = None,
    methods: Sequence[str] = ("pka", "photon"),
    photon_config: Optional[PhotonConfig] = None,
    pka_config: Optional[PkaConfig] = None,
    watchdog: Optional[WatchdogConfig] = None,
    fault_plan: Optional[FaultPlan] = None,
    retry: Optional[RetryPolicy] = None,
    isolate: bool = True,
) -> List[Comparison]:
    """Run one kernel fully detailed plus each sampled method.

    ``methods`` may contain "pka", "photon", or any key of
    :data:`LEVEL_METHODS` (level ablations).  Unknown method names always
    raise :class:`WorkloadError` (a typo is a caller bug, not a sweep
    casualty); failures *inside* a known method become failed rows when
    ``isolate`` is on.
    """
    gpu = gpu or EVAL_R9NANO
    photon_config = photon_config or EVAL_PHOTON
    retry = retry or NO_RETRY
    _check_methods(methods)
    try:
        full = retry.run(lambda: simulate_kernel_detailed(
            factory(), gpu, watchdog=watchdog))
    except ReproError as exc:
        if not isolate:
            raise
        # no baseline: every row of this (workload, size) cell fails
        return [failed_comparison(workload, size, m, exc)
                for m in ("full", *methods)]
    rows = [Comparison(
        workload=workload, size=size, method="full",
        full_time=full.sim_time, sampled_time=full.sim_time,
        full_wall=full.wall_seconds, sampled_wall=full.wall_seconds,
        mode="full", detail_fraction=1.0,
    )]
    for method in methods:
        try:
            sampled = retry.run(lambda: simulate_method(
                factory(), method, gpu, photon_config, pka_config,
                watchdog, fault_plan))
        except ReproError as exc:
            if not isolate:
                raise
            rows.append(failed_comparison(workload, size, method, exc,
                                          full=full))
            continue
        rows.append(compare_kernels(workload, size, method, full, sampled))
    return rows


def run_methods_app(
    factory: AppFactory,
    workload: str,
    gpu: Optional[GpuConfig] = None,
    methods: Sequence[str] = ("photon",),
    photon_config: Optional[PhotonConfig] = None,
    pka_config: Optional[PkaConfig] = None,
    watchdog: Optional[WatchdogConfig] = None,
    fault_plan: Optional[FaultPlan] = None,
    retry: Optional[RetryPolicy] = None,
    isolate: bool = True,
) -> Dict[str, object]:
    """Run an application fully detailed plus each sampled method.

    Returns ``{"full": AppResult, method: AppResult, "rows": [Comparison]}``
    so benches can also inspect per-kernel results (Figure 17).  Failed
    methods contribute a failed row and no ``out[method]`` entry.
    """
    gpu = gpu or EVAL_R9NANO
    photon_config = photon_config or EVAL_PHOTON
    retry = retry or NO_RETRY
    _check_methods(methods)
    rows: List[Comparison] = []
    out: Dict[str, object] = {"rows": rows}
    try:
        full = retry.run(lambda: simulate_app_detailed(
            factory(), gpu, watchdog=watchdog))
    except ReproError as exc:
        if not isolate:
            raise
        rows.extend(failed_comparison(workload, 0, m, exc)
                    for m in ("full", *methods))
        return out
    out["full"] = full
    for method in methods:
        try:
            sampled = retry.run(lambda: simulate_app_method(
                factory(), method, gpu, photon_config, pka_config,
                watchdog, fault_plan))
        except ReproError as exc:
            if not isolate:
                raise
            rows.append(failed_comparison(workload, full.n_insts, method,
                                          exc, full=full))
            continue
        out[method] = sampled
        rows.append(compare_apps(workload, method, full, sampled))
    return out


def all_methods() -> List[str]:
    """Every known method name (baselines + level ablations), sorted."""
    return sorted(_BASELINES) + sorted(LEVEL_METHODS)


def _check_methods(methods: Sequence[str]) -> None:
    """Reject unknown method names up front (typos must not be isolated)."""
    for method in methods:
        if method not in _BASELINES and method not in LEVEL_METHODS:
            raise WorkloadError(
                f"unknown method {method!r}; choose from {all_methods()}")


def _photon_for(method: str, gpu: GpuConfig, config: PhotonConfig,
                watchdog: Optional[WatchdogConfig],
                fault_plan: Optional[FaultPlan],
                analysis_store: Optional[AnalysisStore] = None,
                kernel_db: Optional[KernelDB] = None) -> Photon:
    levels = LEVEL_METHODS.get(method)
    if levels is None:
        raise WorkloadError(
            f"unknown method {method!r}; choose from {all_methods()}")
    return Photon(gpu, config.with_levels(**levels), watchdog=watchdog,
                  fault_plan=fault_plan, analysis_store=analysis_store,
                  kernel_db=kernel_db)


_BASELINES = {"pka": PKA, "sieve": Sieve, "gtpin": GTPin,
              "tbpoint": TBPoint}


def simulate_method(kernel: Kernel, method: str, gpu: GpuConfig,
                    photon_config: PhotonConfig,
                    pka_config: Optional[PkaConfig] = None,
                    watchdog: Optional[WatchdogConfig] = None,
                    fault_plan: Optional[FaultPlan] = None,
                    analysis_store: Optional[AnalysisStore] = None,
                    kernel_db: Optional[KernelDB] = None) -> KernelResult:
    """Simulate one kernel under one named method — the pure cell task.

    This is the unit of work both the serial harness and the parallel
    sweep engine execute: everything it needs arrives as arguments,
    nothing is read from or written to shared state.  ``analysis_store``
    and ``kernel_db`` apply to Photon-family methods only; a parallel
    worker passes fresh instances and ships their contents back for the
    deterministic merge.
    """
    if fault_plan is not None:
        fault_plan.arm("harness.method", kernel=method)
    if method == "pka":
        return PKA(gpu, pka_config).simulate_kernel(kernel)
    if method in _BASELINES:
        return _BASELINES[method](gpu).simulate_kernel(kernel)
    simulator = _photon_for(method, gpu, photon_config, watchdog,
                            fault_plan, analysis_store, kernel_db)
    return simulator.simulate_kernel(kernel)


def simulate_app_method(app: Application, method: str, gpu: GpuConfig,
                        photon_config: PhotonConfig,
                        pka_config: Optional[PkaConfig] = None,
                        watchdog: Optional[WatchdogConfig] = None,
                        fault_plan: Optional[FaultPlan] = None,
                        analysis_store: Optional[AnalysisStore] = None,
                        kernel_db: Optional[KernelDB] = None) -> AppResult:
    """Application counterpart of :func:`simulate_method`."""
    if fault_plan is not None:
        fault_plan.arm("harness.method", kernel=method)
    if method == "pka":
        return PKA(gpu, pka_config).simulate_app(app)
    if method in _BASELINES:
        return _BASELINES[method](gpu).simulate_app(
            app, method_name=method)
    simulator = _photon_for(method, gpu, photon_config, watchdog,
                            fault_plan, analysis_store, kernel_db)
    return simulator.simulate_app(app, method_name=method)


def sweep_sizes(
    workload: str,
    sizes: Iterable[int],
    gpu: Optional[GpuConfig] = None,
    methods: Sequence[str] = ("pka", "photon"),
    photon_config: Optional[PhotonConfig] = None,
    watchdog: Optional[WatchdogConfig] = None,
    fault_plan: Optional[FaultPlan] = None,
    retry: Optional[RetryPolicy] = None,
    isolate: bool = True,
    **workload_kwargs,
) -> List[Comparison]:
    """Sweep a single-kernel workload over problem sizes (Figure 13/14).

    A size whose kernel cannot even be built contributes one failed row
    (method ``"build"``) instead of aborting the remaining sizes.
    """
    rows: List[Comparison] = []
    for size in sizes:
        try:
            factory = workload_factory(workload, size, **workload_kwargs)
            factory()  # surface workload construction errors per size
        except ReproError as exc:
            if not isolate:
                raise
            rows.append(failed_comparison(workload, size, "build", exc))
            continue
        rows.extend(run_methods_kernel(
            factory, workload, size, gpu=gpu, methods=methods,
            photon_config=photon_config, watchdog=watchdog,
            fault_plan=fault_plan, retry=retry, isolate=isolate))
    return rows


def measure_online_offline(
    factory: AppFactory,
    gpu: Optional[GpuConfig] = None,
    photon_config: Optional[PhotonConfig] = None,
) -> Dict[str, float]:
    """Section 6.3: wall time of online Photon vs offline (reused
    analysis).  Returns wall seconds for both and the store hit count."""
    gpu = gpu or EVAL_R9NANO
    photon_config = photon_config or EVAL_PHOTON
    store = AnalysisStore()
    t0 = _time.perf_counter()
    Photon(gpu, photon_config, analysis_store=store).simulate_app(factory())
    online_wall = _time.perf_counter() - t0
    t0 = _time.perf_counter()
    Photon(gpu, photon_config, analysis_store=store).simulate_app(factory())
    offline_wall = _time.perf_counter() - t0
    return {
        "online_wall": online_wall,
        "offline_wall": offline_wall,
        "store_entries": float(sum(1 for _ in store.items())),
        "store_hits": float(store.hits),
    }
