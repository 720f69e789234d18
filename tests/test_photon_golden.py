"""Golden replay of Photon's simulated results, cell by cell.

``tests/golden/photon_cells.json`` pins what a Photon run *returns* —
sampling level, simulated time (``repr``, so the last bit counts),
instruction counts and the blocks the interval model predicted — for

* the nine PhotonBench kernel cells on the evaluation GPU with the
  evaluation Photon configuration at seed 11 (``slow`` lane), and
* a fast-lane set of small kernels under ``fast_photon_config`` that
  ends in every outcome the controller has: bb sampling, warp
  sampling, full detail with the detectors listening, and full detail
  with the detectors elided.

Recorded at commit b395508, before the detector and the latency table
were touched: a change to the apparatus Photon adds to a detailed run
(what listens, how a verdict is computed, what the engine accounts)
must replay all of it bit for bit.  Each record also pins what the
basic-block detector decided — its ``stable_rate`` (``repr``) and
``switch_time`` once the run is over — recorded at commit 0f60bac,
before its pre-gate observations were judged in one batch.

``PYTHONPATH=src:tests python tests/test_photon_golden.py`` rewrites the
file from the current code (only after an intended model change).
"""

import json
import random
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.config import R9_NANO
from repro.core import Photon, PhotonConfig
from repro.core import photon as photon_module
from repro.core.detectors import BBSamplingDetector
from repro.functional import GlobalMemory, Kernel
from repro.harness.defaults import EVAL_PHOTON, EVAL_R9NANO
from repro.harness.runner import workload_factory
from repro.isa import KernelBuilder, MemAddr, s, v

from conftest import (
    RandomSource,
    make_barrier_kernel,
    make_loop_kernel,
    make_split_kernel,
    make_vecadd,
    timing_kernel_factory,
    write_golden,
)

GOLDEN = Path(__file__).parent / "golden" / "photon_cells.json"

SEED = 11
CELLS = (("mm", 1024), ("spmv", 2048), ("aes", 1024), ("sc", 2048),
         ("fir", 2048), ("relu", 4096), ("nbody", 1024), ("kmeans", 4096),
         ("blackscholes", 2048))

# the ``fast_photon_config`` / ``tiny_gpu`` fixtures, as values: the
# re-record entry point runs outside pytest
FAST_GPU = R9_NANO.scaled(4)
FAST_PHOTON = PhotonConfig(bb_window=32, warp_window=16, min_sample_warps=4,
                           mean_delta=0.3, bb_retire_gate_fraction=0.1)


def _make_late_block_kernel(n_warps: int = 500, late: int = 450) -> Kernel:
    """An irregular loop (bb sampling switches), then a load / ALU /
    store block only warps >= ``late`` run: it is never observed in
    detail, so the interval model predicts it from the latency table."""
    mem = GlobalMemory(capacity_words=65 * n_warps + 128)
    trips = mem.alloc("trips", np.array([1 + w % 7 for w in range(n_warps)],
                                        dtype=np.float64))
    out = mem.alloc("out", np.ones(n_warps * 64))
    b = KernelBuilder("late_block")
    b.s_add(s(3), s(4), s(0))
    b.s_load(s(5), MemAddr(base=s(3)))
    b.v_lane(v(0))
    b.s_mul(s(7), s(0), 64)
    b.v_add(v(0), v(0), s(7))
    b.v_mov(v(1), 0.0)
    b.s_mov(s(6), 0)
    b.label("loop")
    b.v_add(v(1), v(1), 1.0)
    b.s_add(s(6), s(6), 1)
    b.s_cmp_lt(s(6), s(5))
    b.s_cbranch_scc1("loop")
    b.s_cmp_lt(s(0), late)
    b.s_cbranch_scc1("done")
    b.v_load(v(2), MemAddr(base=s(8), index=v(0)))
    b.s_waitcnt()
    b.v_mul(v(2), v(2), 3.0)
    b.v_add(v(1), v(1), v(2))
    b.ds_write(v(0), v(1))
    b.s_waitcnt()
    b.ds_read(v(1), v(0))
    b.label("done")
    b.v_store(v(1), MemAddr(base=s(8), index=v(0)))
    b.s_endpgm()
    return Kernel(program=b.build(), n_warps=n_warps, wg_size=2, memory=mem,
                  args=lambda w: {4: trips, 8: out}, name="late_block")


def _seeded(seed: int):
    return timing_kernel_factory(RandomSource(random.Random(seed)))()


#: name -> (kernel factory, the mode the golden must hold for it)
SMALL = {
    "loop-uniform-700": (
        lambda: make_loop_kernel(700, trips_of=lambda w: 6), "warp"),
    "loop-irregular-500": (
        lambda: make_loop_kernel(500, trips_of=lambda w: 1 + w % 7), "bb"),
    "late-block-500": (_make_late_block_kernel, "bb"),
    # loop blocks repeat per warp, so the bb detector listens; too few
    # warps for either detector to fire
    "loop-irregular-64": (
        lambda: make_loop_kernel(64, trips_of=lambda w: 1 + w % 5), "full"),
    "barrier-256": (lambda: make_barrier_kernel(256, wg_size=4), None),
    "split-300": (lambda: make_split_kernel(300, threshold=150), None),
    # every block runs once per warp and the grid is smaller than either
    # detector's need: nothing can fire
    "vecadd-16": (lambda: make_vecadd(16), "full"),
    "vecadd-4": (lambda: make_vecadd(4), "full"),
    **{f"seeded-{seed:02d}": (lambda seed=seed: _seeded(seed), "full")
       for seed in range(6)},
}


def _record(gpu, config, kernel) -> dict:
    """Simulate ``kernel`` with Photon; what it returned and what its
    basic-block detector decided."""
    made = []

    class Recorded(BBSamplingDetector):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    with mock.patch.object(photon_module, "BBSamplingDetector", Recorded):
        result = Photon(gpu, config).simulate_kernel(kernel)
    (detector,) = made
    return {
        "mode": result.mode,
        "sim_time": repr(result.sim_time),
        "n_insts": result.n_insts,
        "detail_insts": result.detail_insts,
        "rare_bbs": sorted(result.meta.get("rare_bbs", ())),
        "stable_bb_rate": repr(detector.stable_rate),
        "bb_switch_time": repr(detector.switch_time),
    }


def run_cell(workload: str, size: int) -> dict:
    kernel = workload_factory(workload, size, seed=SEED)()
    return _record(EVAL_R9NANO, EVAL_PHOTON, kernel)


def run_small(name: str) -> dict:
    factory, _ = SMALL[name]
    return _record(FAST_GPU, FAST_PHOTON, factory())


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.slow
@pytest.mark.parametrize("workload,size", CELLS)
def test_photon_cell_replays(workload, size, golden):
    assert run_cell(workload, size) == golden[f"{workload}@{size}"]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_kernel_replays(name, golden):
    assert run_small(name) == golden[f"small/{name}"]


def test_small_set_covers_every_outcome(golden):
    """The fast lane is only a guard while it reaches each outcome."""
    for name, (_, mode) in SMALL.items():
        if mode is not None:
            assert golden[f"small/{name}"]["mode"] == mode, name
    modes = {golden[f"small/{name}"]["mode"] for name in SMALL}
    assert modes == {"bb", "warp", "full"}
    assert any(golden[f"small/{name}"]["rare_bbs"] for name in SMALL)


def test_fast_values_match_the_fixtures(tiny_gpu, fast_photon_config):
    assert FAST_GPU == tiny_gpu
    assert FAST_PHOTON == fast_photon_config


if __name__ == "__main__":
    fresh = {f"{w}@{n}": run_cell(w, n) for w, n in CELLS}
    fresh.update({f"small/{name}": run_small(name) for name in sorted(SMALL)})
    write_golden(GOLDEN, fresh)
