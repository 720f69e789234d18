"""Photon: a fine-grained sampled simulation methodology for GPU
workloads (MICRO 2023) — full-stack Python reproduction.

Public API tour
---------------
- :mod:`repro.isa` — GCN-flavoured mini ISA and the kernel assembler.
- :mod:`repro.functional` — functional simulator (FULL / CONTROL modes).
- :mod:`repro.timing` — cycle-approximate detailed GPU timing model.
- :mod:`repro.core` — the Photon methodology (BB/warp/kernel sampling).
- :mod:`repro.baselines` — PKA, the comparison baseline.
- :mod:`repro.workloads` — Table 2 workloads incl. VGG and ResNet.
- :mod:`repro.harness` — evaluation runners and metrics.
- :mod:`repro.reliability` — watchdogs and disk-fault injection.

Quickstart
----------
>>> from repro import Photon, EVAL_PHOTON, EVAL_R9NANO
>>> from repro.workloads import build_relu
>>> result = Photon(EVAL_R9NANO, EVAL_PHOTON).simulate_kernel(build_relu(4096))
>>> result.mode in ("warp", "bb", "kernel", "full")
True
"""

from .baselines import PKA, PkaConfig
from .config import GpuConfig, MI100, R9_NANO
from .core import AnalysisStore, Photon, PhotonConfig
from .errors import (
    BudgetExceeded,
    ReproError,
    SimulationStalled,
)
from .functional import Application, GlobalMemory, Kernel
from .harness import EVAL_MI100, EVAL_PHOTON, EVAL_R9NANO
from .reliability import WatchdogConfig
from .timing import simulate_app_detailed, simulate_kernel_detailed

__version__ = "1.0.0"

__all__ = [
    "AnalysisStore",
    "Application",
    "BudgetExceeded",
    "EVAL_MI100",
    "EVAL_PHOTON",
    "EVAL_R9NANO",
    "GlobalMemory",
    "GpuConfig",
    "Kernel",
    "MI100",
    "PKA",
    "Photon",
    "PhotonConfig",
    "PkaConfig",
    "R9_NANO",
    "ReproError",
    "SimulationStalled",
    "WatchdogConfig",
    "simulate_app_detailed",
    "simulate_kernel_detailed",
    "__version__",
]
