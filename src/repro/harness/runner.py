"""Evaluation runners: one method table, one evaluate step.

Every number the harness reports is one *cell* — full detail against
the sampled methodologies on one workload.  :data:`METHODS` is the one
table of methodologies (full detail, the baselines, Photon and its level
ablations), :func:`check_methods` the one validator of their names,
:func:`simulate_method` the one place a name becomes a simulator, and
:func:`evaluate` the one step that runs a method on a freshly built
kernel/application (same seed, hence identical workload and data, so no
method benefits from another's warm state — the paper runs each
configuration separately too).  ``repro run`` / ``repro app`` call it
through :func:`run_methods_kernel` / :func:`run_methods_app`; sweeps,
fleet workers and the server through
:func:`repro.parallel.tasks.run_task`; all of them build their rows with
:func:`repro.harness.metrics.cell_rows`.

Isolation: one misbehaving method (or one bad problem size) must never
poison a whole evaluation.  Every evaluation is wrapped in a bounded
:class:`~repro.reliability.RetryPolicy` (transient watchdog trips get a
second attempt) and, failing that, collapses into a *failed*
:class:`~repro.harness.metrics.Comparison` row carrying the error class
and message — the remaining methods still run and report.  Pass
``isolate=False`` to get fail-fast behaviour.
"""

from __future__ import annotations

import time as _time
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

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
    FullDetail,
    KernelResult,
    Methodology,
)
from ..timing.tracecache import TraceCache
from ..workloads.base import REGISTRY
from .defaults import EVAL_PHOTON, EVAL_R9NANO
from .metrics import Comparison, Evaluation, cell_rows

KernelFactory = Callable[[], Kernel]
AppFactory = Callable[[], Application]

#: the full-detailed baseline every other method is compared against
FULL_METHOD = "full"

# the Figure 15/17 ablation configurations
LEVEL_METHODS = {
    "bb-sampling": dict(kernel=False, warp=False, bb=True),
    "warp-sampling": dict(kernel=False, warp=True, bb=False),
    "kernel-sampling": dict(kernel=True, warp=False, bb=False),
    "kernel+warp": dict(kernel=True, warp=True, bb=False),
    "photon": dict(kernel=True, warp=True, bb=True),
}


def _shared_only(cls) -> Callable[..., Methodology]:
    """Table entry of a methodology built from the shared state alone."""
    return lambda gpu, shared, **_: cls(gpu, **shared)


def _photon_levels(levels: Dict[str, bool]) -> Callable[..., Methodology]:
    """Table entry of Photon restricted to ``levels``."""
    def build(gpu, shared, photon_config, fault_plan=None,
              analysis_store=None, kernel_db=None, **_):
        return Photon(gpu, photon_config.with_levels(**levels),
                      fault_plan=fault_plan, analysis_store=analysis_store,
                      kernel_db=kernel_db, **shared)
    return build


#: the method table: name → constructor.  Every constructor is called
#: with the same keywords — ``gpu``, ``shared`` (what every
#: :class:`Methodology` takes: ``watchdog``, ``trace_cache``),
#: ``photon_config``, ``pka_config``, ``fault_plan``, ``analysis_store``,
#: ``kernel_db`` — and takes the ones its methodology has a use for.
METHODS: Dict[str, Callable[..., Methodology]] = {
    FULL_METHOD: _shared_only(FullDetail),
    "gtpin": _shared_only(GTPin),
    "pka": lambda gpu, shared, pka_config=None, **_: PKA(
        gpu, pka_config, **shared),
    "sieve": _shared_only(Sieve),
    "tbpoint": _shared_only(TBPoint),
    **{name: _photon_levels(LEVEL_METHODS[name])
       for name in sorted(LEVEL_METHODS)},
}


def all_methods() -> List[str]:
    """Every sampled method name (baselines, then level ablations) —
    what a ``methods`` list may name; the baseline they are compared
    against is implicit."""
    return [name for name in METHODS if name != FULL_METHOD]


def check_methods(methods: Iterable[str], baseline: bool = False) -> None:
    """Reject unknown method names up front — the one validator.

    A typo is a caller bug, never an isolated failure.  ``methods`` names
    what to compare *against* full detail, so ``full`` itself passes only
    where a single task may be the baseline (``baseline=True``).
    """
    known = list(METHODS) if baseline else all_methods()
    for method in methods:
        if method not in known:
            raise WorkloadError(
                f"unknown method {method!r}; choose from "
                f"{', '.join(known)}")


def check_workloads(names: Iterable[str]) -> None:
    """Reject unregistered single-kernel workload names up front."""
    for name in names:
        if name not in REGISTRY:
            raise WorkloadError(f"unknown workload {name!r}; "
                                f"registered: {sorted(REGISTRY)}")


def workload_factory(name: str, size: int, **kwargs) -> KernelFactory:
    """Factory for a registered single-kernel workload at ``size`` warps."""
    check_workloads([name])
    build = REGISTRY[name]
    return lambda: build(size, **kwargs)


def simulate_method(target: Union[Kernel, Application], method: str,
                    gpu: GpuConfig, photon_config: PhotonConfig,
                    pka_config: Optional[PkaConfig] = None,
                    watchdog: Optional[WatchdogConfig] = None,
                    fault_plan: Optional[FaultPlan] = None,
                    analysis_store: Optional[AnalysisStore] = None,
                    kernel_db: Optional[KernelDB] = None,
                    trace_cache: Optional[TraceCache] = None,
                    ) -> Union[KernelResult, AppResult]:
    """Simulate one kernel or application under one named method.

    The one place a method name becomes a simulator: everything it needs
    arrives as arguments, nothing is read from or written to shared
    state.  ``analysis_store`` and ``kernel_db`` apply to Photon-family
    methods only; a parallel worker passes fresh instances and ships
    their contents back for the deterministic merge.  ``trace_cache``
    serves every detailed engine the method starts (the caller flushes
    a store-backed one).
    """
    check_methods([method], baseline=True)
    if fault_plan is not None:
        fault_plan.arm("harness.method", kernel=method)
    simulator = METHODS[method](
        gpu=gpu, shared=dict(watchdog=watchdog, trace_cache=trace_cache),
        photon_config=photon_config, pka_config=pka_config,
        fault_plan=fault_plan, analysis_store=analysis_store,
        kernel_db=kernel_db)
    if isinstance(target, Application):
        return simulator.simulate_app(target, method_name=method)
    return simulator.simulate_kernel(target)


#: the name PhotonBench imports for applications (``photonbench/`` is
#: frozen to feature PRs; dropping the alias needs a ``benchmark`` issue)
simulate_app_method = simulate_method


def evaluate(
    factory: Callable[[], Union[Kernel, Application]],
    method: str,
    gpu: Optional[GpuConfig] = None,
    photon_config: Optional[PhotonConfig] = None,
    pka_config: Optional[PkaConfig] = None,
    watchdog: Optional[WatchdogConfig] = None,
    fault_plan: Optional[FaultPlan] = None,
    retry: Optional[RetryPolicy] = None,
    isolate: bool = True,
    keep_state: bool = False,
    trace_cache: Optional[TraceCache] = None,
) -> Evaluation:
    """Evaluate ``method`` on what ``factory`` builds — the one step.

    Every attempt starts from scratch: a freshly built target, a new
    simulator and (``keep_state``, for workers that ship it back) a new
    analysis store and kernel database; ``trace_cache`` alone is shared
    across attempts (traces are deterministic, so whatever a failed
    attempt emulated is still right).  A :class:`ReproError` comes back
    as a failed :class:`Evaluation` tagged with the stage it struck in —
    ``build`` (inside ``factory``) or ``run`` — unless ``isolate`` is
    off; an unknown method name always raises.
    """
    check_methods([method], baseline=True)
    gpu = gpu or EVAL_R9NANO
    photon_config = photon_config or EVAL_PHOTON
    stage = "build"

    def attempt():
        nonlocal stage
        stage = "build"
        target = factory()
        stage = "run"
        store = db = None
        if keep_state:
            store = AnalysisStore()
            db = KernelDB(photon_config.kernel_distance, gpu.n_cu)
        return simulate_method(target, method, gpu, photon_config,
                               pka_config, watchdog, fault_plan,
                               store, db, trace_cache), store, db

    try:
        (result, store, db), attempts, backoff = (
            retry or NO_RETRY).run_logged(attempt)
    except ReproError as exc:
        if not isolate:
            raise
        return Evaluation(method, error_class=type(exc).__name__,
                          error=str(exc), stage=stage)
    return Evaluation(method, result, attempts=attempts,
                      backoff_total=backoff, analysis_store=store,
                      kernel_db=db)


def _evaluate_cell(factory: Callable[[], Union[Kernel, Application]],
                   methods: Sequence[str],
                   fault_plan: Optional[FaultPlan] = None,
                   **options) -> Tuple[Evaluation, List[Evaluation]]:
    """Full detail, then each of ``methods`` (not run when there is no
    baseline to compare them against).  ``fault_plan`` targets the
    sampled methods only; ``options`` are :func:`evaluate`'s."""
    check_methods(methods)
    full = evaluate(factory, FULL_METHOD, **options)
    if not full.ok:
        return full, [Evaluation(method) for method in methods]
    return full, [evaluate(factory, method, fault_plan=fault_plan,
                           **options) for method in methods]


def run_methods_kernel(factory: KernelFactory, workload: str, size: int,
                       gpu: Optional[GpuConfig] = None,
                       methods: Sequence[str] = ("pka", "photon"),
                       **options) -> List[Comparison]:
    """Run one kernel fully detailed plus each sampled method.

    ``methods`` may contain any name of :func:`all_methods`; ``options``
    are :func:`evaluate`'s (``photon_config``, ``pka_config``,
    ``watchdog``, ``fault_plan``, ``retry``, ``isolate``,
    ``trace_cache``).  Unknown
    method names always raise :class:`WorkloadError` (a typo is a caller
    bug, not a sweep casualty); failures *inside* a known method become
    failed rows when ``isolate`` is on, and a kernel that cannot even be
    built becomes one failed ``build`` row.
    """
    return cell_rows(workload, size, *_evaluate_cell(
        factory, methods, gpu=gpu, **options))


def run_methods_app(factory: AppFactory, workload: str,
                    gpu: Optional[GpuConfig] = None,
                    methods: Sequence[str] = ("photon",),
                    **options) -> Dict[str, object]:
    """Run an application fully detailed plus each sampled method.

    Returns ``{"rows": [Comparison], "full": AppResult, method:
    AppResult}`` so benches can also inspect per-kernel results
    (Figure 17).  Failed methods contribute a failed row and no
    ``out[method]`` entry.  ``options`` as in :func:`run_methods_kernel`.
    """
    full, sampled = _evaluate_cell(factory, methods, gpu=gpu, **options)
    out: Dict[str, object] = {
        "rows": cell_rows(workload, None, full, sampled)}
    out.update((ev.method, ev.result) for ev in (full, *sampled)
               if ev.result is not None)
    return out


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
        rows.extend(run_methods_kernel(
            lambda size=size: workload_factory(
                workload, size, **workload_kwargs)(),
            workload, size, gpu=gpu, methods=methods,
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
