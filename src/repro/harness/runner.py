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
poison a whole evaluation.  A :class:`~repro.errors.ReproError` raised
while building or simulating collapses into a *failed*
:class:`~repro.harness.metrics.Comparison` row carrying the error class
and message — the remaining methods still run and report.  Every
evaluation runs once: its result is a pure function of (workload, seed,
configuration), so the way to re-run a failed one is ``repro sweep
--resume``, which re-runs failed tasks.
"""

from __future__ import annotations

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
from ..core.photon import Photon
from ..errors import ReproError, WorkloadError
from ..functional.kernel import Application, Kernel
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


def _photon_ablation(levels: Dict[str, bool]) -> Callable[..., Methodology]:
    """Table entry of Photon restricted to ``levels``."""
    def build(gpu, shared, photon_config, **_):
        return Photon(gpu, photon_config.with_levels(**levels), **shared)
    return build


#: the method table: name → constructor.  Every constructor is called
#: with the same keywords — ``gpu``, ``shared`` (what every
#: :class:`Methodology` takes: ``watchdog``, ``trace_cache``),
#: ``photon_config``, ``pka_config`` — and takes the ones its
#: methodology has a use for.
METHODS: Dict[str, Callable[..., Methodology]] = {
    FULL_METHOD: _shared_only(FullDetail),
    "gtpin": _shared_only(GTPin),
    "pka": lambda gpu, shared, pka_config=None, **_: PKA(
        gpu, pka_config, **shared),
    "sieve": _shared_only(Sieve),
    "tbpoint": _shared_only(TBPoint),
    **{name: _photon_ablation(LEVEL_METHODS[name])
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
                    trace_cache: Optional[TraceCache] = None,
                    ) -> Union[KernelResult, AppResult]:
    """Simulate one kernel or application under one named method.

    The one place a method name becomes a simulator: everything it needs
    arrives as arguments, nothing is read from or written to shared
    state.  ``trace_cache`` serves every detailed engine the method
    starts (the caller flushes a store-backed one); a Photon-family
    method also keeps its online analyses in that cache's store.
    """
    check_methods([method], baseline=True)
    simulator = METHODS[method](
        gpu=gpu, shared=dict(watchdog=watchdog, trace_cache=trace_cache),
        photon_config=photon_config, pka_config=pka_config)
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
    trace_cache: Optional[TraceCache] = None,
) -> Evaluation:
    """Evaluate ``method`` on what ``factory`` builds — the one step.

    Runs once, from scratch: a freshly built target and a new
    simulator.  A :class:`ReproError` comes back as a
    failed :class:`Evaluation` tagged with the stage it struck in —
    ``build`` (inside ``factory``) or ``run``; an unknown method name
    always raises.
    """
    check_methods([method], baseline=True)
    gpu = gpu or EVAL_R9NANO
    photon_config = photon_config or EVAL_PHOTON
    stage = "build"
    try:
        target = factory()
        stage = "run"
        result = simulate_method(target, method, gpu, photon_config,
                                 pka_config, watchdog, trace_cache)
    except ReproError as exc:
        return Evaluation(method, error_class=type(exc).__name__,
                          error=str(exc), stage=stage)
    return Evaluation(method, result)


def _evaluate_cell(factory: Callable[[], Union[Kernel, Application]],
                   methods: Sequence[str],
                   **options) -> Tuple[Evaluation, List[Evaluation]]:
    """Full detail, then each of ``methods`` (not run when there is no
    baseline to compare them against).  ``options`` are
    :func:`evaluate`'s."""
    check_methods(methods)
    full = evaluate(factory, FULL_METHOD, **options)
    if not full.ok:
        return full, [Evaluation(method) for method in methods]
    return full, [evaluate(factory, method, **options)
                  for method in methods]


def run_methods_kernel(factory: KernelFactory, workload: str, size: int,
                       gpu: Optional[GpuConfig] = None,
                       methods: Sequence[str] = ("pka", "photon"),
                       **options) -> List[Comparison]:
    """Run one kernel fully detailed plus each sampled method.

    ``methods`` may contain any name of :func:`all_methods`; ``options``
    are :func:`evaluate`'s (``photon_config``, ``pka_config``,
    ``watchdog``, ``trace_cache``).  Unknown method names always raise
    :class:`WorkloadError` (a typo is a caller bug, not a sweep
    casualty); failures *inside* a known method become failed rows, and
    a kernel that cannot even be built becomes one failed ``build``
    row.
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
