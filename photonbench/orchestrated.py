"""The ``orchestrated`` workload: one plan through four phases.

A  ``run_sweep(P, jobs=1)`` inline, no store — the reference every
   other phase's results must equal;
B  ``run_sweep(P + trace store, jobs=2, run_dir)`` on an empty store
   (trace writes, journal appends);
C  the same plan against the now warm store (trace reads);
D  a live ``python -m repro serve`` subprocess driven by two
   closed-loop clients: first-sight requests (miss), repeats (hit),
   pings, one concurrent identical fresh request (dedup), SIGTERM drain.

Imported only inside a workload child.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.parallel import plan_sweep, run_sweep
from repro.serve import ServeClient
from repro.serve.client import ServeHTTPError
from repro.serve.protocol import deterministic_result

from .passes import Ops
from .spans import Tracer, median, percentile, timed
from .spec import (DEDUP_CELL, JOBS, SERVE_CLIENTS, SERVE_HITS, SERVE_PINGS,
                   Cell, cell_key, pick, seed_kwargs)

METHODS = ("pka", "photon")
INLINE_SWEEPS = 3
_CLIENT_ERRORS = (ServeHTTPError, OSError, http.client.HTTPException)


def start_server(store: Optional[str]) -> Tuple[subprocess.Popen, ServeClient]:
    """Spawn ``repro serve`` on an ephemeral port; the caller owns the
    process and must terminate and wait for it."""
    command = [sys.executable, "-m", "repro", "serve", "--port", "0",
               "--jobs", str(JOBS)]
    if store is not None:
        command += ["--trace-store", store]
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, env={**os.environ, "PYTHONUNBUFFERED": "1"})
    line = proc.stdout.readline()
    match = re.search(r"http://([\d.]+):(\d+)", line)
    if not match:
        stop_server(proc)
        raise RuntimeError(f"serve did not announce a port: {line!r}")
    return proc, ServeClient(match.group(1), int(match.group(2)),
                             timeout=120)


def stop_server(proc: subprocess.Popen) -> float:
    """SIGTERM, wait for the drain, return its seconds; kill on timeout."""
    start = time.perf_counter()
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    finally:
        proc.stdout.close()
    return time.perf_counter() - start


def run_phases(tracer: Optional[Tracer], ops: Ops, cells: Tuple[Cell, ...],
               seed: Optional[int], smoke: bool, workdir: Path,
               calibrate) -> dict:
    """One repeat of phases A-D in ``workdir`` (must be empty).

    Phase A runs ``INLINE_SWEEPS`` times: its sub-second tasks are the
    shortest samples in the benchmark, and one sample of each would let
    a single burst of host noise move ``*_kinst_per_s`` by 20%.
    ``calibrate()`` is called before the first sweep and after every
    sweep and phase (the box slowdown, or a constant 1 in a traced
    pass).  Returns ``{"cells": one dict of per-cell records per inline
    sweep, "phase_walls": {phase: wall at reference speed}, "layer":
    raw per-layer numbers}``.
    """
    names = [name for name, _ in cells]
    sizes = {name: [size] for name, size in cells}
    store = str(workdir / "store")

    def plan(trace_store):
        return plan_sweep(names, sizes=sizes, methods=METHODS, seed=seed,
                          trace_store=trace_store)

    def bracketed(name, sweep):
        """``(result, raw wall, mean slowdown around the call)``."""
        before = marks[-1]
        result, wall = timed(tracer, name, sweep)
        marks.append(calibrate())
        return result, wall, (before + marks[-1]) / 2

    marks = [calibrate()]
    inline = [bracketed("parallel.inline",
                        lambda: run_sweep(plan(None), jobs=1))
              for _ in range(INLINE_SWEEPS)]
    b, wall_b, slow_b = bracketed(
        "parallel.pool_cold",
        lambda: run_sweep(plan(store), jobs=JOBS,
                          run_dir=str(workdir / "run-b")))
    c, wall_c, slow_c = bracketed(
        "parallel.pool_warm",
        lambda: run_sweep(plan(store), jobs=JOBS,
                          run_dir=str(workdir / "run-c")))

    a = inline[0][0]
    reference: Dict[Tuple[str, int, str], dict] = {}
    for outcome in a.outcomes:
        ident = (outcome.workload, outcome.size, outcome.method)
        reference[ident] = deterministic_result(outcome)
        ops.check(outcome.ok, f"phase A {ident}: {outcome.error_class}: "
                              f"{outcome.error}")
    others = [(f"A{i + 1}", r) for i, (r, _w, _s) in enumerate(inline[1:], 1)]
    for label, result in (*others, ("B", b), ("C", c)):
        for outcome in result.outcomes:
            ident = (outcome.workload, outcome.size, outcome.method)
            ops.check(deterministic_result(outcome) == reference[ident],
                      f"phase {label} {ident}: differs from inline")

    serve, _, slow_d = bracketed(
        "serve.phase",
        lambda: serve_phase(ops, cells, seed, smoke, store, reference))

    walls_a = [wall for _r, wall, _s in inline]
    busy_a = median([r.report.busy_seconds for r, _w, _s in inline])
    totals = [r.tracestore_totals() for r in (b, c)]
    journal = workdir / "run-b" / "journal.jsonl"
    layer = {
        "parallel.inline_s": median(walls_a),
        "parallel.pool_cold_s": wall_b,
        "parallel.pool_warm_s": wall_c,
        "parallel.sched_overhead_s": median(
            [r.report.total_wall - r.report.busy_seconds
             for r, _w, _s in inline]),
        "parallel.task_inflation": b.report.busy_seconds / busy_a,
        "parallel.pool_idle_frac":
            1.0 - b.report.busy_seconds / (JOBS * b.report.total_wall),
        "parallel.warm_speedup": wall_b / wall_c,
        "parallel.journal_bytes": journal.stat().st_size,
        "tracestore.store_hits": sum(t["store_hits"] for t in totals),
        "tracestore.misses": sum(t["misses"] for t in totals),
        **serve,
    }
    return {
        "cells": [_cell_records(result, cells, slow)
                  for result, _w, slow in inline],
        "phase_walls": {
            "A": median([w / s for _r, w, s in inline]),
            "B": wall_b / slow_b,
            "C": wall_c / slow_c,
            "D": serve["serve.phase_s"] / slow_d},
        "layer": layer,
    }


def _cell_records(result, cells: Tuple[Cell, ...], slowdown: float) -> dict:
    """Per-cell end-to-end records from one inline sweep's outcomes."""
    by = {(o.workload, o.size, o.method): o for o in result.outcomes}
    records = {}
    for name, size in cells:
        full, pka, photon = (by[(name, size, m)]
                             for m in ("full", *METHODS))
        if not (full.ok and pka.ok and photon.ok):
            continue
        stays_full = photon.mode == "full"
        records[cell_key((name, size))] = {
            "slowdown": slowdown,
            "full_wall": full.wall_seconds,
            "photon_wall": photon.wall_seconds,
            "full_time": full.sim_time, "photon_time": photon.sim_time,
            "err_pct": abs(full.sim_time - photon.sim_time)
            / full.sim_time * 100.0,
            "modes": {photon.mode: 1},
            "n_insts": full.n_insts,
            "detail_fraction": photon.detail_insts / photon.n_insts,
            "fallbacks": len(photon.fallbacks),
            "nosample_photon_wall":
                photon.wall_seconds if stays_full else 0.0,
            "nosample_full_wall": full.wall_seconds if stays_full else 0.0,
        }
    return records


def _closed_loops(pool: ThreadPoolExecutor, batches: List[list], call):
    """One closed loop per batch, concurrently: a client sends its next
    request only after the previous reply.  Returns the
    ``(item, seconds, reply-or-exception)`` triples and the wall."""

    def loop(batch):
        out = []
        for item in batch:
            start = time.perf_counter()
            try:
                reply = call(item)
            except _CLIENT_ERRORS as exc:
                reply = exc
            out.append((item, time.perf_counter() - start, reply))
        return out

    start = time.perf_counter()
    futures = [pool.submit(loop, batch) for batch in batches]
    triples = [t for future in futures for t in future.result()]
    return triples, time.perf_counter() - start


def serve_phase(ops: Ops, cells: Tuple[Cell, ...], seed: Optional[int],
                smoke: bool, store: str,
                reference: Dict[Tuple[str, int, str], dict]) -> dict:
    """Phase D; returns the ``serve.*`` layer numbers."""
    phase_start = time.perf_counter()
    extra = seed_kwargs(seed)
    keys = [(name, size, method) for name, size in cells
            for method in METHODS]
    n_hits, n_pings = pick(SERVE_HITS, smoke), pick(SERVE_PINGS, smoke)
    dedup_key = (*pick(DEDUP_CELL, smoke), "photon")

    def run(key):
        return client.run(key[0], key[1], key[2], **extra)

    def verify(what, item, reply, accept) -> bool:
        """One request, one operation: it fails when the call raised
        (non-200 included) or the reply is not the one expected."""
        if isinstance(reply, Exception):
            return ops.check(False, f"serve {what} {item}: {reply}")
        return ops.check(accept(reply), f"serve {what} {item}: cache="
                         f"{reply.get('cache')} or unexpected result")

    spawned = time.perf_counter()
    proc, client = start_server(store)
    try:
        client.health()
        start_s = time.perf_counter() - spawned
        with ThreadPoolExecutor(max_workers=SERVE_CLIENTS) as pool:
            lanes = range(SERVE_CLIENTS)
            # first sight of every key: the tier executes, and the
            # result must equal phase A's
            misses, _ = _closed_loops(
                pool, [keys[i::SERVE_CLIENTS] for i in lanes], run)
            canonical = {}
            for key, _s, reply in misses:
                if verify("miss", key, reply,
                          lambda r: r["cache"] == "miss"
                          and r["result"] == reference[key]):
                    canonical[key] = json.dumps(reply["result"],
                                                sort_keys=True)
            # repeats: served from the result cache, byte-identical
            per_client = n_hits // SERVE_CLIENTS
            hits, hit_wall = _closed_loops(
                pool, [[keys[(i + j) % len(keys)]
                        for j in range(per_client)] for i in lanes], run)
            for key, _s, reply in hits:
                verify("hit", key, reply,
                       lambda r: r["cache"] == "hit"
                       and json.dumps(r["result"], sort_keys=True)
                       == canonical.get(key))
            pings, _ = _closed_loops(
                pool, [[None] * (n_pings // SERVE_CLIENTS) for _ in lanes],
                lambda _item: client.ping())
            for _item, _s, reply in pings:
                verify("ping", "", reply, lambda r: True)
            # two clients, one fresh key, at once: exactly one execution
            before = client.stats()["counts"]["executions"]
            twins, _ = _closed_loops(
                pool, [[dedup_key] for _ in lanes], run)
            executions = client.stats()["counts"]["executions"] - before
            first = twins[0][2]
            for key, _s, reply in twins:
                verify("dedup", key, reply,
                       lambda r: executions == 1
                       and not isinstance(first, Exception)
                       and r["result"] == first["result"])
    finally:
        drain_s = stop_server(proc)
    ops.check(proc.returncode == 0,
              f"serve drain: exit code {proc.returncode}")

    hit_ms = [s * 1e3 for _k, s, _r in hits]
    return {
        "serve.start_s": start_s,
        "serve.ping_ms_p50": median([s * 1e3 for _k, s, _r in pings]),
        "serve.miss_ms_p50": median([s * 1e3 for _k, s, _r in misses]),
        "serve.hit_ms_p50": median(hit_ms),
        "serve.hit_ms_p95": percentile(hit_ms, 95),
        "serve.hit_req_per_s": len(hits) / hit_wall,
        "serve.dedup_executions": executions,
        "serve.drain_s": drain_s,
        "serve.phase_s": time.perf_counter() - phase_start,
    }
