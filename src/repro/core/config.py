"""Photon methodology configuration.

Defaults are the paper's published parameters (Section 4); the windows
are configurable because our scaled-down problem sizes would otherwise
never accumulate enough observations to trigger sampling — the *ratios*
between parameters are what matter for reproducing behaviour.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from ..errors import ConfigError


@dataclass(frozen=True)
class PhotonConfig:
    """All knobs of the Photon methodology (paper Section 4)."""

    # online analysis: fraction of warps functionally simulated up front
    sample_fraction: float = 0.01
    min_sample_warps: int = 4

    # basic-block-sampling (Section 4.1)
    bb_window: int = 2048  # rolling least-squares window n per BB type
    stable_bb_rate: float = 0.95  # switch threshold on stable-BB share
    # substrate-motivated guard (see DESIGN.md): do not switch to
    # BB-sampling before one occupancy generation of warps has retired —
    # the pre-churn full-occupancy steady state is not representative of
    # the rest of the kernel.  The effective gate per kernel is
    # ``min(GPU warp capacity, n_warps * bb_retire_gate_fraction)``.
    bb_retire_gate_fraction: float = 0.25

    # warp-sampling (Section 4.2)
    warp_window: int = 1024  # rolling window n over retired warps
    dominant_warp_rate: float = 0.95  # most-frequent warp-type share

    # shared stability criterion: |slope - 1| < delta, plus relative
    # difference of mean execution time between the last n and previous n
    # observations < delta (the local-optimum guard)
    delta: float = 0.03
    mean_check: bool = True
    # separate threshold for the window-mean drift guard; None = use delta
    # (the paper's choice).  Substrates with noisier steady-state BB times
    # may calibrate this independently of the slope criterion.
    mean_delta: float = None  # type: ignore[assignment]

    # kernel-sampling (Section 4.3)
    bbv_dim: int = 16  # fixed-size BBV projection (Figure 5)
    gpu_bbv_clusters: int = 8  # weighted BBVs kept in the GPU BBV
    kernel_distance: float = 0.10  # max GPU-BBV relative distance
    # kernels with fewer warps than GPU compute units must match exactly
    # in warp count (paper: less resource competition and parallelism)

    # rare basic blocks: below this many observations a block's time is
    # predicted by the interval model instead of the measured mean
    rare_bb_min_samples: int = 8

    # level enables (for the Figure 15 / 17 ablations)
    enable_kernel_sampling: bool = True
    enable_warp_sampling: bool = True
    enable_bb_sampling: bool = True

    def __post_init__(self) -> None:
        # a NaN passes every one-sided comparison below
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if not 0 < self.sample_fraction <= 1:
            raise ConfigError(
                f"sample_fraction must be in (0, 1], "
                f"got {self.sample_fraction}")
        if self.min_sample_warps < 1:
            raise ConfigError(
                f"min_sample_warps must be >= 1, "
                f"got {self.min_sample_warps}")
        if self.bb_window < 2:
            raise ConfigError(
                f"bb_window must be >= 2, got {self.bb_window}")
        if self.warp_window < 2:
            raise ConfigError(
                f"warp_window must be >= 2, got {self.warp_window}")
        if not 0 <= self.bb_retire_gate_fraction <= 1:
            raise ConfigError(
                f"bb_retire_gate_fraction must be in [0, 1], "
                f"got {self.bb_retire_gate_fraction}")
        if not 0 < self.delta < 1:
            raise ConfigError(f"delta must be in (0, 1), got {self.delta}")
        if self.mean_delta is not None and not 0 < self.mean_delta < 1:
            raise ConfigError(
                f"mean_delta must be None or in (0, 1), "
                f"got {self.mean_delta}")
        if not 0 < self.stable_bb_rate <= 1:
            raise ConfigError(
                f"stable_bb_rate must be in (0, 1], "
                f"got {self.stable_bb_rate}")
        if not 0 < self.dominant_warp_rate <= 1:
            raise ConfigError(
                f"dominant_warp_rate must be in (0, 1], "
                f"got {self.dominant_warp_rate}")
        if self.bbv_dim < 1:
            raise ConfigError(f"bbv_dim must be >= 1, got {self.bbv_dim}")
        if self.gpu_bbv_clusters < 1:
            raise ConfigError(
                f"gpu_bbv_clusters must be >= 1, "
                f"got {self.gpu_bbv_clusters}")
        if self.kernel_distance < 0:
            raise ConfigError(
                f"kernel_distance must be >= 0, "
                f"got {self.kernel_distance}")
        if self.rare_bb_min_samples < 1:
            raise ConfigError(
                f"rare_bb_min_samples must be >= 1, "
                f"got {self.rare_bb_min_samples}")

    def with_levels(self, kernel: bool = True, warp: bool = True,
                    bb: bool = True) -> "PhotonConfig":
        """Copy with a subset of sampling levels enabled (ablations)."""
        return dataclasses.replace(
            self,
            enable_kernel_sampling=kernel,
            enable_warp_sampling=warp,
            enable_bb_sampling=bb,
        )
