"""Calibrated defaults for the evaluation harness.

The paper evaluates on a 64-CU R9 Nano with problem sizes of 2K–64K
warps.  A pure-Python cycle-level simulator cannot sweep those sizes, so
the harness runs a weak-scaled GPU (8 CUs, same per-CU cache geometry,
bandwidth floored — see ``GpuConfig.scaled``) with problem sizes of
2K–16K warps, and Photon windows calibrated to the same *ratios* the
paper uses (window ≪ total observations; see DESIGN.md).

``EVAL_PHOTON`` was validated against full-detailed simulation across
the six single-kernel workloads: average error ≈ 6%, matching the
paper's reported 6.83% average.
"""

from __future__ import annotations

from ..config.gpu_configs import GpuConfig, MI100, R9_NANO
from ..errors import ConfigError
from ..core.config import PhotonConfig

# scaled evaluation GPUs (Table 1 microarchitectures, 8 / 15 CUs)
EVAL_R9NANO: GpuConfig = R9_NANO.scaled(8)
EVAL_MI100: GpuConfig = MI100.scaled(16)

#: the GPU presets a configuration can be named by (CLI flags, serve
#: requests, serialized sweep tasks): ``r9nano`` / ``mi100`` are the
#: scaled evaluation GPUs, the ``full-`` prefix selects the unscaled
#: Table 1 presets
GPU_PRESETS = {"r9nano": EVAL_R9NANO, "mi100": EVAL_MI100,
               "full-r9nano": R9_NANO, "full-mi100": MI100}
GPU_PRESET_NAMES = tuple(GPU_PRESETS)


def resolve_gpu(name: str) -> GpuConfig:
    """Resolve a preset name to a configuration.

    Sweep tasks carry the *name* across process boundaries and resolve
    it in the worker, so configurations never need to be pickled.
    """
    try:
        return GPU_PRESETS[name]
    except KeyError:
        raise ConfigError(f"unknown GPU preset {name!r}; choose from "
                          f"{', '.join(GPU_PRESETS)}") from None


# Photon configuration used throughout the evaluation
EVAL_PHOTON = PhotonConfig(
    bb_window=2048,  # paper default
    warp_window=512,  # paper: 1024; halved with the ~8x smaller grids
    min_sample_warps=8,
    mean_delta=0.2,  # substrate calibration (see PhotonConfig docs)
)

# problem sizes (warps) per single-kernel workload: a sweep's default and
# the sizes tests/test_paper_claims.py checks the paper's claims at
QUICK_SIZES = {
    "relu": (2048,),
    "fir": (2048,),
    "sc": (2048,),
    "aes": (2048,),
    "spmv": (2048,),
    "mm": (576,),
}
