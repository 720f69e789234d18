"""Inter-kernel-only baselines: GT-Pin and Sieve.

The paper's related-work section positions two earlier GPU sampling
methods that operate *only* at kernel granularity:

* **GT-Pin** [Kambadur et al., IISWC 2015] selects representative
  kernels using "the kernel name, arguments, and basic block
  statistics".  We key on (kernel name, static basic-block count
  vector): launches that repeat an already-simulated combination are
  predicted by scaling the representative's time with the instruction
  ratio.
* **Sieve** [Naderan-Tahan et al., ISPASS 2023] shows that "using both
  the kernel name and instruction count allows for both sampling
  speedups and low errors": launches are stratified by (kernel name,
  dynamic instruction-count bucket) and one representative per stratum
  is simulated.

Both require profiling to know instruction counts up front (obtained
here, as for PKA, by fast-forwarding every warp functionally — charged
to their wall time), and neither can accelerate a *single* kernel — the
gap Photon's intra-kernel levels fill ("speeding-up intra-kernel
simulation is also very important ... as simulating one GPU kernel
takes hours to days if the problem size is large").
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass
from typing import Dict, Tuple

from ..config.gpu_configs import GpuConfig
from ..errors import ConfigError
from ..functional.kernel import Kernel
from ..timing.simulator import KernelResult, Methodology


@dataclass
class _Stratum:
    """One simulated representative of a kernel class."""

    sim_time: float
    total_insts: int


class _InterKernelSampler(Methodology):
    """Shared machinery: profile, classify, simulate-or-project."""

    #: subclass-provided mode labels
    mode_detail = "baseline-full"
    mode_skip = "baseline-kernel"

    def __init__(self, gpu_config: GpuConfig, **shared):
        super().__init__(gpu_config, **shared)
        self._strata: Dict[Tuple, _Stratum] = {}

    def _profile_insts(self, kernel: Kernel) -> int:
        return sum(trace.n_insts for _, trace in
                   self.control_traces(kernel, range(kernel.n_warps)))

    def _key(self, kernel: Kernel, total_insts: int) -> Tuple:
        raise NotImplementedError

    def simulate_kernel(self, kernel: Kernel) -> KernelResult:
        """Simulate one launch, skipping it if its stratum is known."""
        t0 = _time.perf_counter()
        total_insts = self._profile_insts(kernel)
        key = self._key(kernel, total_insts)
        stratum = self._strata.get(key)
        if stratum is not None:
            scale = (total_insts / stratum.total_insts
                     if stratum.total_insts else 1.0)
            return KernelResult(
                kernel_name=kernel.name,
                sim_time=stratum.sim_time * scale,
                wall_seconds=_time.perf_counter() - t0,
                n_insts=total_insts,
                mode=self.mode_skip,
                detail_insts=0,
            )
        detailed = self.engine(kernel).run()
        self._strata[key] = _Stratum(sim_time=detailed.end_time,
                                     total_insts=total_insts)
        return KernelResult(
            kernel_name=kernel.name,
            sim_time=detailed.end_time,
            wall_seconds=_time.perf_counter() - t0,
            n_insts=total_insts,
            mode=self.mode_detail,
            detail_insts=detailed.n_insts,
        )


class GTPin(_InterKernelSampler):
    """GT-Pin-style selection: kernel name + basic-block statistics."""

    name = "gtpin"
    mode_detail = "gtpin-full"
    mode_skip = "gtpin-kernel"

    def _key(self, kernel: Kernel, total_insts: int) -> Tuple:
        program = kernel.program
        block_lengths = tuple(sorted(b.length for b in program.blocks))
        return (kernel.program.name, program.num_blocks, block_lengths,
                kernel.n_warps)


class Sieve(_InterKernelSampler):
    """Sieve-style stratification: kernel name + instruction count.

    Instruction counts are bucketed geometrically (``bucket_ratio``
    per stratum) as Sieve's count-based strata do; launches falling in
    an existing stratum are projected from its representative.
    """

    name = "sieve"
    mode_detail = "sieve-full"
    mode_skip = "sieve-kernel"

    def __init__(self, gpu_config: GpuConfig, bucket_ratio: float = 1.3,
                 **shared):
        super().__init__(gpu_config, **shared)
        if bucket_ratio <= 1.0:
            raise ConfigError("bucket_ratio must exceed 1.0")
        self._log_ratio = math.log(bucket_ratio)

    def _key(self, kernel: Kernel, total_insts: int) -> Tuple:
        bucket = int(math.log(max(total_insts, 1)) / self._log_ratio)
        return (kernel.program.name, bucket)
