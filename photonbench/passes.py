"""The end-to-end pass: entry-point calls per cell, and the metrics
computed from them.  Imported only inside a workload child (it pulls
in ``repro``); the same functions serve the untraced pass (no tracer)
and the traced one (each call becomes an ``e2e.call`` span).
"""

from __future__ import annotations

import resource
from typing import Dict, List, Optional

from repro.cli import APP_BUILDERS
from repro.functional import control_traces
from repro.harness.runner import (run_methods_app, run_methods_kernel,
                                  workload_factory)
from repro.workloads import build_pagerank

from .spans import Tracer, median, timed
from .spec import PAGERANK_APPS, Cell, cell_key, seed_kwargs


class Ops:
    """Attempted / failed operation accounting for one child."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def attempt(self, what: str, fn):
        """Run ``fn`` as one operation; an exception is a failure, not a
        crash — the remaining cells still run and report."""
        try:
            out = fn()
        except Exception as exc:  # noqa: BLE001 - boundary: record and go on
            self.check(False, f"{what}: {type(exc).__name__}: {exc}")
            return None
        self.attempted += 1
        return out


def kernel_factory(name: str, size: int, seed: Optional[int]):
    return workload_factory(name, size, **seed_kwargs(seed))


def app_factory(name: str, seed: Optional[int]):
    if name in PAGERANK_APPS:
        nodes, iterations = PAGERANK_APPS[name]
        return lambda: build_pagerank(nodes, iterations=iterations,
                                      **seed_kwargs(seed))
    return APP_BUILDERS[name]


def builder_for(cell: Cell, is_app: bool, seed: Optional[int]):
    name, size = cell
    return app_factory(name, seed) if is_app \
        else kernel_factory(name, size, seed)


def run_cell(tracer: Optional[Tracer], ops: Ops, cell: Cell, is_app: bool,
             seed: Optional[int]) -> Optional[dict]:
    """One entry-point call (full + photon) for ``cell``; ``None`` when
    either method failed (both operations are then counted failed)."""
    key = cell_key(cell)
    name, size = cell
    factory = builder_for(cell, is_app, seed)
    if is_app:
        call = lambda: run_methods_app(factory, name, methods=("photon",))
    else:
        call = lambda: run_methods_kernel(factory, name, size,
                                          methods=("photon",))
    try:
        out, call_wall = timed(tracer, "e2e.call", call, cell=key)
    except Exception as exc:  # noqa: BLE001 - boundary: record and go on
        for method in ("full", "photon"):
            ops.check(False, f"{key}/{method}: {type(exc).__name__}: {exc}")
        return None
    if is_app:
        return _app_record(ops, key, out, call_wall)
    return _kernel_record(ops, key, out, call_wall)


def _kernel_record(ops: Ops, key: str, rows, call_wall) -> Optional[dict]:
    ok = True
    for row in rows:
        ok &= ops.check(row.ok, f"{key}/{row.method}: {row.error_class}: "
                                f"{row.error}")
    if not ok:
        return None
    photon = rows[1]
    stays_full = photon.mode == "full"
    return {
        "call_wall": call_wall,
        "full_wall": photon.full_wall, "photon_wall": photon.sampled_wall,
        "full_time": photon.full_time, "photon_time": photon.sampled_time,
        "err_pct": photon.error_pct,
        "modes": {photon.mode: 1},
        "detail_fraction": photon.detail_fraction,
        "fallbacks": photon.fallbacks,
        # launches Photon ran entirely in detail: what its analysis and
        # detectors cost when they buy nothing
        "nosample_photon_wall": photon.sampled_wall if stays_full else 0.0,
        "nosample_full_wall": photon.full_wall if stays_full else 0.0,
    }


def _app_record(ops: Ops, key: str, out, call_wall) -> Optional[dict]:
    rows = {row.method: row for row in out["rows"]}
    ok = ops.check("full" in out, f"{key}/full: baseline failed: "
                   + "; ".join(r.error for r in out["rows"]))
    row = rows.get("photon")
    ok &= ops.check(row is not None and row.ok and "photon" in out,
                    f"{key}/photon: {row.error_class if row else 'no row'}")
    if not ok:
        return None
    full, photon = out["full"], out["photon"]
    stays = [(fk.wall_seconds, pk.wall_seconds)
             for fk, pk in zip(full.kernels, photon.kernels)
             if pk.mode == "full"]
    return {
        "call_wall": call_wall,
        "full_wall": row.full_wall, "photon_wall": row.sampled_wall,
        "full_time": row.full_time, "photon_time": row.sampled_time,
        "err_pct": row.error_pct,
        "modes": photon.mode_counts(),
        "detail_fraction": row.detail_fraction,
        "fallbacks": row.fallbacks,
        "n_insts": full.n_insts,
        "nosample_photon_wall": sum(p for _f, p in stays),
        "nosample_full_wall": sum(f for f, _p in stays),
    }


#: what must not change between two repeats of one cell
_SIGNATURE = ("full_time", "photon_time", "modes", "n_insts")


def check_repeat(ops: Ops, key: str, first: dict, again: dict) -> None:
    """Flag a repeat whose simulated results differ from the first."""
    differs = [f for f in _SIGNATURE if first.get(f) != again.get(f)]
    ops.check(not differs, f"{key}: repeat differs from the first in "
                           f"{', '.join(differs)}")


def count_insts(cell: Cell, seed: Optional[int]) -> int:
    """Dynamic instructions of a kernel cell (CONTROL pass; outside any
    timed region — ``Comparison`` rows do not carry the count)."""
    kernel = kernel_factory(cell[0], cell[1], seed)()
    traces = control_traces(kernel, range(kernel.n_warps))
    return sum(t.n_insts for t in traces.values())


def end_to_end(repeats: List[Dict[str, dict]],
               phase_walls: Optional[List[Dict[str, float]]] = None) -> dict:
    """The end-to-end metrics of one workload from its per-repeat cell
    records: median per (cell, method) over repeats, summed over cells.

    Host times are expressed at reference box speed: each measured wall
    is divided by the ``slowdown`` calibrated around its call.
    ``orchestrated`` passes its phase walls (already at reference
    speed), which replace the per-call wall in ``wall_s``.
    """
    keys = [k for k in repeats[0] if all(k in r for r in repeats)]
    if not keys:
        raise RuntimeError("no cell completed in every repeat")

    def total(field: str) -> float:
        return sum(median([r[k][field] / r[k]["slowdown"] for r in repeats])
                   for k in keys)

    first = repeats[0]
    full, photon = total("full_wall"), total("photon_wall")
    insts = sum(first[k]["n_insts"] for k in keys)
    errs = [first[k]["err_pct"] for k in keys]
    if phase_walls is not None:
        wall = sum(median([p[name] for p in phase_walls])
                   for name in phase_walls[0])
    else:
        wall = total("call_wall")
    return {
        "wall_s": wall,
        "full_kinst_per_s": insts / 1e3 / full,
        "photon_kinst_per_s": insts / 1e3 / photon,
        "photon_speedup": full / photon,
        "photon_err_pct": sum(errs) / len(errs),
        "photon_err_max_pct": max(errs),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process and of its waited-for children
    (pool workers, the serve subprocess), in MB (Linux reports KB)."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0
