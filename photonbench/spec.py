"""What the benchmark runs and reports.

``BENCHMARK.json`` at the repo root is the single source for metric
and workload *names*, units, directions and bounds; this module adds
what that file's schema has no room for: the cells of each workload,
which layer metrics repeat exactly, and which workloads report which
layer metric.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = Path(__file__).resolve().parent
OUT_DIR = PACKAGE_DIR / "out"
GOLDEN_PATH = PACKAGE_DIR / "golden.json"

Cell = Tuple[str, int]  # (workload name, size in warps); apps use size 0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a fixed set of cells and how to run them."""

    name: str
    kind: str                  # "kernels" | "apps" | "orchestrated"
    cells: Tuple[Cell, ...]
    smoke_cells: Tuple[Cell, ...]

    def cells_for(self, smoke: bool) -> Tuple[Cell, ...]:
        return self.smoke_cells if smoke else self.cells


# Sizes are part of the workload definition (ISSUE 11): a run that must
# be shorter lowers the repeat count, never the sizes.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("compute_wide", "kernels",
             (("nbody", 1024), ("kmeans", 4096), ("blackscholes", 2048)),
             (("nbody", 64), ("kmeans", 128), ("blackscholes", 64))),
    Workload("fig13_narrow", "kernels",
             (("mm", 1024), ("spmv", 2048), ("aes", 1024), ("sc", 2048),
              ("fir", 2048), ("relu", 4096)),
             (("mm", 64), ("spmv", 128), ("aes", 64), ("sc", 128),
              ("fir", 128), ("relu", 256))),
    Workload("dnn_apps", "apps",
             (("vgg16", 0), ("vgg19", 0), ("resnet18", 0),
              ("resnet50", 0), ("pr-1024", 0)),
             (("resnet18", 0), ("pr-128", 0))),
    Workload("orchestrated", "orchestrated",
             (("relu", 2048), ("fir", 1024), ("sc", 1024),
              ("spmv", 1024), ("blackscholes", 1024)),
             (("relu", 128), ("fir", 64), ("sc", 64))),
)}

#: PageRank apps are the only app builders that take a data seed; the
#: VGG / ResNet builders fix their address streams by layer shape alone
PAGERANK_APPS = {"pr-1024": (1024, 8), "pr-128": (128, 2)}

#: phase D of ``orchestrated``: request counts (full, smoke) and the
#: fresh cell two clients request concurrently for the dedup check
SERVE_HITS = (4000, 400)
SERVE_PINGS = (200, 40)
DEDUP_CELL = (("relu", 1024), ("relu", 96))

#: pool width and closed-loop client count, sized for nproc = 2
JOBS = 2
SERVE_CLIENTS = 2

#: ``repro run relu --size N`` timed as ``cli.run_s`` (full, smoke)
CLI_RUN_SIZE = (4096, 256)
#: cell whose full run is repeated under sinks for ``obs.*`` (full, smoke)
OBS_CELL = (("kmeans", 4096), ("kmeans", 128))
LSQ_OBSERVATIONS = (200_000, 20_000)
PERWARP_SAMPLE = 32


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def cell_key(cell: Cell) -> str:
    name, size = cell
    return f"{name}@{size}" if size else name


# -- which layer metrics repeat exactly, and where each is reported --------

#: counts and simulated statistics: identical run to run at one seed,
#: so ``compare`` requires equality instead of applying a bound
EXACT_LAYER = frozenset((
    "workloads.kernels",
    "functional.insts", "functional.path_groups",
    "timing.scalar_inst_frac", "timing.rounds", "timing.scalar_rounds",
    "timing.sim_cycles", "timing.ipc", "timing.golden_mismatches",
    "timing.caches.accesses", "timing.caches.l1v_hit_rate",
    "timing.caches.l2_hit_rate", "timing.caches.dram_accesses",
    "core.detail_frac", "core.mode_bb", "core.mode_warp",
    "core.mode_kernel", "core.mode_full", "core.fallbacks",
    "baselines.pka_err_pct",
    "tracestore.bytes", "tracestore.store_hits", "tracestore.misses",
    "serve.dedup_executions",
))

#: simulated end-to-end metrics: equal between two runs of one commit
EXACT_END_TO_END = frozenset(("photon_err_pct", "photon_err_max_pct"))


def applies_to(metric: str) -> Tuple[str, ...]:
    """Workloads that measure ``metric``; the others report it as 0."""
    if metric.startswith("obs."):
        return ("compute_wide",)
    return tuple(WORKLOADS)


def pick(pair, smoke: bool):
    """Select the (full, smoke) member of a spec pair."""
    return pair[1] if smoke else pair[0]


def seed_kwargs(seed: Optional[int]) -> dict:
    """Builder kwargs for ``--seed``; absent = each builder's default."""
    return {} if seed is None else {"seed": seed}
