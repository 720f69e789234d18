"""Accuracy and performance metrics (paper Section 5).

The paper validates *kernel execution time* (not IPC) because it is
"the most important feature that GPU users care about", with::

    error   = |T_full - T_sampled| / T_full * 100%
    speedup = WallTime_full / WallTime_sampled
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..errors import SamplingError
from ..timing.simulator import AppResult, KernelResult


def _json_num(value: float) -> "float | None":
    """NaN → None so rows serialise as *valid* JSON (NaN is not JSON)."""
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def _from_json_num(value: "float | None") -> float:
    return float("nan") if value is None else float(value)


def sim_time_error(full_time: float, sampled_time: float) -> float:
    """Absolute relative error of predicted execution time, in percent."""
    if full_time <= 0:
        raise SamplingError(f"full-detailed time must be positive: {full_time}")
    return abs(full_time - sampled_time) / full_time * 100.0


def wall_speedup(full_wall: float, sampled_wall: float) -> float:
    """Host wall-time speedup of the sampled methodology."""
    if sampled_wall <= 0:
        raise SamplingError(f"sampled wall time must be positive: {sampled_wall}")
    return full_wall / sampled_wall


@dataclass
class Comparison:
    """One (workload, size, method) evaluation row.

    A row may represent a *failed* method run: ``error_class`` then names
    the exception class, ``error`` carries its one-line message, and the
    metric properties return NaN instead of raising — so a sweep with one
    bad method still renders a complete table.
    """

    workload: str
    size: int
    method: str
    full_time: float
    sampled_time: float
    full_wall: float
    sampled_wall: float
    mode: str = ""
    detail_fraction: float = 1.0
    error: str = ""        # message of the failure that produced this row
    error_class: str = ""  # exception class name; "" means success
    # always 0 (no result degrades); PhotonBench reads it and recorded
    # rows carry it, so only a ``benchmark`` change may retire it
    fallbacks: int = 0

    @property
    def ok(self) -> bool:
        return not self.error_class

    @property
    def error_pct(self) -> float:
        if self.error_class:
            return float("nan")
        return sim_time_error(self.full_time, self.sampled_time)

    @property
    def speedup(self) -> float:
        if self.error_class:
            return float("nan")
        if self.sampled_wall <= 0:
            # no host timing recorded — e.g. a row rebuilt from a cached
            # deterministic result, where wall clocks are stripped
            return float("nan")
        return wall_speedup(self.full_wall, self.sampled_wall)

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict (NaN encoded as ``null``); inverse of
        :meth:`from_dict`.  Includes the derived ``error_pct`` and
        ``speedup`` for consumers that only read the JSON."""
        return {
            "workload": self.workload,
            "size": self.size,
            "method": self.method,
            "full_time": _json_num(self.full_time),
            "sampled_time": _json_num(self.sampled_time),
            "full_wall": _json_num(self.full_wall),
            "sampled_wall": _json_num(self.sampled_wall),
            "mode": self.mode,
            "detail_fraction": self.detail_fraction,
            "error": self.error,
            "error_class": self.error_class,
            "fallbacks": self.fallbacks,
            # derived, for JSON consumers; ignored by from_dict
            "error_pct": _json_num(self.error_pct),
            "speedup": _json_num(self.speedup),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Comparison":
        """Rebuild a row from :meth:`to_dict` output (``null`` → NaN)."""
        return cls(
            workload=str(data["workload"]),
            size=int(data["size"]),
            method=str(data["method"]),
            full_time=_from_json_num(data["full_time"]),
            sampled_time=_from_json_num(data["sampled_time"]),
            full_wall=_from_json_num(data["full_wall"]),
            sampled_wall=_from_json_num(data["sampled_wall"]),
            mode=str(data.get("mode", "")),
            detail_fraction=float(data.get("detail_fraction", 1.0)),
            error=str(data.get("error", "")),
            error_class=str(data.get("error_class", "")),
            fallbacks=int(data.get("fallbacks", 0)),
        )


@dataclass
class Evaluation:
    """What evaluating one method on one cell produced: a result, or the
    failure that prevented one (class name and one-line message — all
    that survives a process boundary) and the stage it struck in."""

    method: str
    result: "KernelResult | AppResult | None" = None
    error_class: str = ""  # "" means success
    error: str = ""
    stage: str = "run"     # "build" (workload construction) | "run"
                           # | "pool" (synthesized: worker pool crashed)

    @property
    def ok(self) -> bool:
        return not self.error_class


def failed_row(workload: str, size: int, method: str,
               error_class: str, message: str,
               full: "KernelResult | AppResult | None" = None,
               ) -> Comparison:
    """A failed row built from an error's (class name, message) pair."""
    return Comparison(
        workload=workload,
        size=size,
        method=method,
        full_time=full.sim_time if full is not None else float("nan"),
        sampled_time=float("nan"),
        full_wall=full.wall_seconds if full is not None else float("nan"),
        sampled_wall=float("nan"),
        mode="error",
        detail_fraction=0.0,
        error=message,
        error_class=error_class,
    )


def cell_rows(workload: str, size: Optional[int], full: Evaluation,
              sampled: Sequence[Evaluation]) -> List[Comparison]:
    """The rows of one evaluation cell — the only row builder.

    ``full`` is the baseline's evaluation, ``sampled`` one per method in
    order (ignored, beyond their names, once the baseline failed — a
    harness never runs them then, a sweep's tasks ran regardless):

    * baseline build failure → a single ``build`` row for the cell;
    * baseline run failure → failed rows for ``full`` and every method;
    * method failure → a failed row carrying the baseline's times;
    * otherwise → :func:`compare_kernels` / :func:`compare_apps`.

    ``size=None`` marks an application cell: its size column is the
    baseline's instruction count (0 when there is no baseline) and the
    table has no ``full`` row of its own.
    """
    if not full.ok:
        size = size or 0
        if full.stage == "build":
            return [failed_row(workload, size, "build",
                               full.error_class, full.error)]
        return [failed_row(workload, size, method,
                           full.error_class, full.error)
                for method in (full.method, *(e.method for e in sampled))]
    base, app = full.result, size is None
    if app:
        size, rows = base.n_insts, []
    else:
        rows = [compare_kernels(workload, size, full.method, base, base)]
    for ev in sampled:
        if not ev.ok:
            rows.append(failed_row(workload, size, ev.method,
                                   ev.error_class, ev.error, full=base))
        elif app:
            rows.append(compare_apps(workload, ev.method, base, ev.result))
        else:
            rows.append(compare_kernels(workload, size, ev.method, base,
                                        ev.result))
    return rows


def compare_kernels(workload: str, size: int, method: str,
                    full: KernelResult,
                    sampled: KernelResult) -> Comparison:
    """Build a comparison row from two kernel results."""
    return Comparison(
        workload=workload,
        size=size,
        method=method,
        full_time=full.sim_time,
        sampled_time=sampled.sim_time,
        full_wall=full.wall_seconds,
        sampled_wall=sampled.wall_seconds,
        mode=sampled.mode,
        detail_fraction=sampled.detail_fraction,
    )


def compare_apps(workload: str, method: str, full: AppResult,
                 sampled: AppResult,
                 size: Optional[int] = None) -> Comparison:
    """Build a comparison row from two application results."""
    modes = sampled.mode_counts()
    dominant = max(modes, key=lambda m: modes[m]) if modes else ""
    total = sampled.n_insts
    detail = sum(k.detail_insts for k in sampled.kernels)
    return Comparison(
        workload=workload,
        size=size if size is not None else full.n_insts,
        method=method,
        full_time=full.sim_time,
        sampled_time=sampled.sim_time,
        full_wall=full.wall_seconds,
        sampled_wall=sampled.wall_seconds,
        mode=dominant,
        detail_fraction=detail / total if total else 1.0,
    )
