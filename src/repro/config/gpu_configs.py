"""GPU hardware configurations (paper Table 1).

Two presets mirror the paper's evaluation targets — the AMD R9 Nano and
the AMD Instinct MI100 — with the Table 1 parameters (CU count, cache
geometry).  Latency/bandwidth parameters are our timing model's knobs;
they are chosen to give GCN-plausible relative costs (vector ALU ≪ LDS ≪
L1 ≪ L2 ≪ DRAM) rather than to match MGPUSim cycle-for-cycle.

``scaled()`` produces a smaller GPU (fewer CUs) so that full-detailed
Python simulation of a sweep finishes in seconds; the cache *per-CU*
geometry is preserved.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from ..errors import ConfigError


@dataclass(frozen=True)
class CacheGeometry:
    """Size/associativity of one cache level."""

    size_bytes: int
    assoc: int
    line_bytes: int = 64

    @property
    def n_sets(self) -> int:
        sets = self.size_bytes // (self.assoc * self.line_bytes)
        if sets <= 0:
            raise ConfigError(f"cache too small: {self}")
        return sets


@dataclass(frozen=True)
class GpuConfig:
    """Full GPU configuration consumed by the timing model."""

    name: str
    n_cu: int
    clock_ghz: float = 1.0
    simd_per_cu: int = 4
    max_warps_per_cu: int = 40
    warp_size: int = 64

    # cache hierarchy (Table 1); L1V is per-CU, L1I/L1K are shared by a
    # group of CUs, L2 is banked and shared by the whole GPU
    l1v: CacheGeometry = CacheGeometry(16 * 1024, 4)
    l1i: CacheGeometry = CacheGeometry(32 * 1024, 4)  # held for completeness;
    # instruction fetch is not timing-modelled (see DESIGN.md)
    l1k: CacheGeometry = CacheGeometry(16 * 1024, 4)
    cus_per_l1_group: int = 4
    l2: CacheGeometry = CacheGeometry(256 * 1024, 16)
    l2_banks: int = 8
    dram_channels: int = 8
    dram_gb: int = 4

    # latencies (cycles)
    scalar_alu_lat: int = 1
    vector_alu_lat: int = 4
    branch_lat: int = 1
    lds_lat: int = 8
    l1_lat: int = 24
    l2_lat: int = 90
    dram_lat: int = 250

    # port service intervals (cycles per transaction) — bandwidth model
    l1_service: int = 1
    l2_service: int = 1
    dram_service: int = 2
    issue_interval: int = 1
    # command-processor dispatch rate: cycles between successive workgroup
    # dispatches at kernel start (real CPs dispatch sequentially; this
    # avoids an artificial all-warps-at-cycle-0 contention burst)
    cp_dispatch_interval: int = 8

    def __post_init__(self) -> None:
        if self.n_cu <= 0:
            raise ConfigError("n_cu must be positive")
        if self.max_warps_per_cu <= 0:
            raise ConfigError("max_warps_per_cu must be positive")
        if self.simd_per_cu <= 0:
            raise ConfigError("simd_per_cu must be positive")
        # divisors of the timing model: zero would divide by zero in it
        for name in ("cus_per_l1_group", "l2_banks", "dram_channels"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got "
                                  f"{getattr(self, name)!r}")
        for name in ("l1v", "l1i", "l1k", "l2"):
            geometry = getattr(self, name)
            if geometry.assoc <= 0 or geometry.line_bytes <= 0:
                raise ConfigError(
                    f"{name} assoc and line_bytes must be positive, got "
                    f"{geometry}")
        if self.n_cu % self.cus_per_l1_group:
            raise ConfigError(
                f"n_cu={self.n_cu} not divisible by "
                f"cus_per_l1_group={self.cus_per_l1_group}"
            )
        # the engine reads a negative per-class latency as "send to the
        # stateful handlers", and a NaN or infinite one as no class at
        # all; fractional values are legal
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not f.name.endswith(("_lat", "_service", "_interval")):
                continue
            if not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
            if value < 0:
                raise ConfigError(f"{f.name} must be >= 0, got {value!r}")

    def scaled(self, n_cu: int) -> "GpuConfig":
        """Same microarchitecture with ``n_cu`` compute units.

        L2 banks and DRAM channels scale with the CU count but are
        floored at 4 so that a small scaled GPU keeps a sane
        bandwidth-to-compute ratio (a one-bank L2 would make every
        latency queueing-dominated and unrepresentative).
        """
        group = min(self.cus_per_l1_group, n_cu)
        while n_cu % group:
            group -= 1
        banks = max(4, self.l2_banks * n_cu // self.n_cu)
        channels = max(4, self.dram_channels * n_cu // self.n_cu)
        return dataclasses.replace(
            self,
            name=f"{self.name}-{n_cu}cu",
            n_cu=n_cu,
            cus_per_l1_group=group,
            l2_banks=banks,
            dram_channels=channels,
        )


R9_NANO = GpuConfig(
    name="r9nano",
    n_cu=64,
    l1v=CacheGeometry(16 * 1024, 4),
    l1i=CacheGeometry(32 * 1024, 4),
    l1k=CacheGeometry(16 * 1024, 4),
    l2=CacheGeometry(256 * 1024, 16),
    l2_banks=8,
    dram_channels=8,
    dram_gb=4,
)

MI100 = GpuConfig(
    name="mi100",
    n_cu=120,
    l1v=CacheGeometry(16 * 1024, 4),
    l1i=CacheGeometry(32 * 1024, 4),
    l1k=CacheGeometry(16 * 1024, 4),
    l2=CacheGeometry(8 * 1024 * 1024 // 32, 16),  # 8MB total across 32 banks
    l2_banks=32,
    dram_channels=16,
    dram_gb=32,
)

