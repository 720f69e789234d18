"""GPU configuration presets (paper Table 1)."""

from .gpu_configs import MI100, R9_NANO, CacheGeometry, GpuConfig

__all__ = ["CacheGeometry", "GpuConfig", "MI100", "R9_NANO"]
