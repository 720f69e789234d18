"""What runs inside a fresh child interpreter, one per workload and pass.

    python -m photonbench.child setup    --workload W ...
    python -m photonbench.child untraced --workload W --result F ...
    python -m photonbench.child traced   --workload W --result F ...

``setup`` imports the CLI, builds every kernel of the workload once
(and, on ``orchestrated``, brings a server up to its first health
reply), prints ``ready`` and tears down; the driver times spawn ->
``ready``.  The other two write one JSON result file.  ``repro`` is
imported lazily so that ``--help`` and argument errors cost nothing.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import List, Optional

from .spec import OUT_DIR, WORKLOADS, Workload, applies_to, cell_key


def _setup(spec: Workload, seed: Optional[int], smoke: bool) -> None:
    import repro.cli  # noqa: F401 - the import is what is being timed
    from .passes import builder_for

    for cell in spec.cells_for(smoke):
        builder_for(cell, spec.kind == "apps", seed)()
    if spec.kind != "orchestrated":
        print("ready", flush=True)
        return
    from .orchestrated import start_server, stop_server

    proc, client = start_server(None)
    try:
        client.health()
        print("ready", flush=True)
    finally:
        stop_server(proc)


def _end_to_end_pass(spec: Workload, seed, smoke: bool, tracer, ops,
                     workdir: Path, repeat: int) -> dict:
    """One pass over the workload's cells; ``{"cells": [records, ...],
    "phase_walls"?, "layer"?}`` with one records dict per sample of the
    cells (``orchestrated`` takes several per pass).  Every call is
    bracketed by a box-speed calibration whose mean becomes the cell's
    ``slowdown``."""
    from .spans import box_slowdown

    cells = spec.cells_for(smoke)
    if spec.kind == "orchestrated":
        from .orchestrated import run_phases

        phase_dir = workdir / f"phases-{repeat}"
        phase_dir.mkdir()
        return run_phases(tracer, ops, cells, seed, smoke, phase_dir,
                          box_slowdown)
    from .passes import run_cell

    records = {}
    before = box_slowdown()
    for cell in cells:
        record = run_cell(tracer, ops, cell, spec.kind == "apps", seed)
        after = box_slowdown()
        if record is not None:
            record["slowdown"] = (before + after) / 2
            records[cell_key(cell)] = record
        before = after
    return {"cells": [records]}


def _untraced(spec: Workload, args, workdir: Path) -> dict:
    from .passes import (Ops, check_repeat, count_insts, end_to_end,
                         peak_rss_mb)

    ops = Ops()
    passes: List[dict] = []
    samples: List[dict] = []   # per-cell records, one dict per sample
    started = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        passes.append(_end_to_end_pass(spec, args.seed, args.smoke, None,
                                       ops, workdir, len(passes)))
        for records in passes[-1]["cells"]:
            if samples:   # every sample after the first repeats it
                for key, record in records.items():
                    if key in samples[0]:
                        check_repeat(ops, key, samples[0][key], record)
            samples.append(records)
        now = time.perf_counter()
        if args.repeats is not None:
            if len(passes) >= args.repeats:
                break
        # a time budget buys whole passes: stop when the next would not fit
        elif now - started + (now - pass_start) > args.seconds:
            break
    if spec.kind == "kernels":
        for cell in spec.cells_for(args.smoke):
            record = samples[0].get(cell_key(cell))
            if record is not None:
                record["n_insts"] = count_insts(cell, args.seed)
    phase_walls = ([p["phase_walls"] for p in passes]
                   if spec.kind == "orchestrated" else None)
    metrics = end_to_end(samples, phase_walls)
    metrics["peak_rss_mb"] = peak_rss_mb()
    return {"metrics": metrics, "repeats": len(passes),
            "attempted": ops.attempted, "failures": ops.failures,
            "cells": samples[0]}


def _traced(spec: Workload, args, workdir: Path) -> dict:
    from . import layers
    from .passes import Ops, builder_for
    from .spans import Tracer

    ops = Ops()
    acc: Counter = Counter()
    golden = {}
    tracer = Tracer(f"{spec.name}-seed{args.seed}")
    is_app = spec.kind == "apps"
    with tracer.span("workload", workload=spec.name):
        done = _end_to_end_pass(spec, args.seed, args.smoke, tracer, ops,
                                workdir, 0)
        records = done["cells"][0]
        for cell in spec.cells_for(args.smoke):
            key = cell_key(cell)
            if key not in records:
                continue
            with tracer.span("cell", cell=key):
                golden[key] = layers.probe_cell(
                    tracer, ops, acc, builder_for(cell, is_app, args.seed),
                    is_app, key, records[key], workdir / f"store-{key}")
            records[key]["n_insts"] = golden[key]["n_insts"]
        if spec.name in applies_to("obs.core_sink_overhead_frac"):
            layers.probe_obs(tracer, ops, args.seed, args.smoke, workdir)
        layers.probe_cli(tracer, ops, args.smoke)
        acc["lsq_observations"] = layers.probe_lsq(tracer, args.seed,
                                                   args.smoke)
        if spec.kind != "orchestrated":
            # the orchestration layers' fixed costs on a miniature plan,
            # so that ``parallel.*`` / ``serve.*`` are measurements on
            # every workload and not constants
            from .orchestrated import run_phases

            (workdir / "miniature").mkdir()
            done["layer"] = run_phases(
                tracer, ops, WORKLOADS["orchestrated"].smoke_cells,
                args.seed, True, workdir / "miniature",
                lambda: 1.0)["layer"]
    metrics = layers.layer_metrics(tracer, acc, records)
    metrics.update(done["layer"])
    trace_path = OUT_DIR / f"trace-{spec.name}.json"
    tracer.write_chrome(trace_path)
    return {"metrics": metrics, "golden": golden,
            "attempted": ops.attempted, "failures": ops.failures,
            "spans": len(tracer.spans), "trace": str(trace_path)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="photonbench.child")
    parser.add_argument("mode", choices=("setup", "untraced", "traced"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--result", type=Path, default=None)
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]
    if args.mode == "setup":
        _setup(spec, args.seed, args.smoke)
        return 0
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{spec.name}-",
                                    dir=OUT_DIR))
    try:
        run = _untraced if args.mode == "untraced" else _traced
        result = run(spec, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    args.result.write_text(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
