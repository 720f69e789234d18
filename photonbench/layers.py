"""Per-layer probes of the traced pass.

Each probe times calls into one layer's public functions under a span
named after the metric it feeds; ``layer_metrics`` then turns span
totals and the counts gathered beside them into the per-layer metrics
of ``BENCHMARK.json``.  Imported only inside a workload child.
"""

from __future__ import annotations

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.core.bbv import BBVProjector
from repro.core.lsq import StabilityDetector
from repro.core.online import analyze_kernel
from repro.functional import (FunctionalExecutor, WarpPackExecutor,
                              control_traces)
from repro.harness.defaults import EVAL_PHOTON, EVAL_R9NANO
from repro.harness.runner import simulate_app_method, simulate_method
from repro.obs import (CORE_KINDS, CountingSink, EventBus, JsonlSink,
                       scoped_bus)
from repro.timing import (DetailedEngine, MemoryHierarchy,
                          simulate_kernel_detailed)
from repro.tracestore import TraceStore

from .passes import Ops, kernel_factory
from .spans import Tracer, timed
from .spec import (CLI_RUN_SIZE, LSQ_OBSERVATIONS, OBS_CELL, PERWARP_SAMPLE,
                   pick)

GPU = EVAL_R9NANO


def probe_cell(tracer: Tracer, ops: Ops, acc: Counter, build, is_app: bool,
               key: str, record: dict, store_dir: Path) -> dict:
    """Run every kernel-level probe on one cell.

    ``record`` is the cell's end-to-end record (the simulated results
    the probes are cross-checked against); raw sums accumulate in
    ``acc``.  Returns the cell's golden entry.
    """
    def fresh():
        target, _ = timed(tracer, "bench.rebuild", build, cell=key)
        return list(target.kernels) if is_app else [target]

    target, _ = timed(tracer, "workloads.build", build, cell=key)
    kernels = list(target.kernels) if is_app else [target]
    acc["kernels"] += len(kernels)

    # functional FULL: the whole grid in one fill, on fresh kernels
    fbus = EventBus()
    traces = [
        timed(tracer, "functional.full",
              lambda k=k: WarpPackExecutor(k, bus=fbus).run_warps_full(
                  range(k.n_warps)), cell=key)[0]
        for k in kernels]
    insts = sum(t.n_insts for per in traces for t in per.values())
    acc["insts"] += insts
    acc["path_groups"] += fbus.metrics.snapshot()["counters"].get(
        "exec.batch.groups", 0)

    # detailed timing over the pre-resolved traces; an application
    # shares one hierarchy, reset per launch, as simulate_app_detailed does
    ebus = EventBus()
    hierarchy = MemoryHierarchy(GPU) if is_app else None
    end_time, engine_insts, mem = 0.0, 0, Counter()
    for k, per in zip(kernels, traces):
        if hierarchy is not None:
            hierarchy.reset_timing()
        res, _ = timed(
            tracer, "timing.engine",
            lambda k=k, per=per: DetailedEngine(
                k, GPU, hierarchy=hierarchy, trace_provider=per.__getitem__,
                bus=ebus).run(), cell=key)
        end_time += res.end_time
        engine_insts += res.n_insts
        mem.update(res.mem_stats)
    counters = ebus.metrics.snapshot()["counters"]
    for name in ("rounds", "scalar_rounds", "batched_insts", "scalar_insts"):
        acc[name] += counters.get("engine.batch." + name, 0)
    acc["sim_cycles"] += end_time
    for name, value in mem.items():
        acc["mem." + name] += value
    ops.check(end_time == record["full_time"] and engine_insts == insts,
              f"{key}: engine over pre-resolved traces gives "
              f"({end_time}, {engine_insts}), entry point "
              f"({record['full_time']}, {insts})")

    # cache/DRAM model alone: every trace's lines, in warp order
    groups = [((w // k.wg_size) % GPU.n_cu, lines)
              for k, per in zip(kernels, traces)
              for w in range(k.n_warps)
              for lines in per[w].mem_lines if lines]
    replay = MemoryHierarchy(GPU)

    def replay_all():
        now = 0.0
        for cu, lines in groups:
            now = replay.vector_access_many(cu, lines, now)

    timed(tracer, "timing.caches.replay", replay_all, cell=key)
    acc["cache_accesses"] += sum(len(lines) for _cu, lines in groups)

    _probe_tracestore(tracer, ops, acc, kernels, traces, store_dir, key)
    del traces, groups

    # CONTROL fast-forward and the per-warp interpreter, fresh kernels
    again = fresh()
    control = [timed(tracer, "functional.control",
                     lambda k=k: control_traces(k, range(k.n_warps)),
                     cell=key)[0] for k in again]
    control_insts = sum(t.n_insts for per in control for t in per.values())
    ops.check(control_insts == insts,
              f"{key}: CONTROL counts {control_insts} insts, FULL {insts}")
    acc["perwarp_insts"] += _probe_perwarp(tracer, again, key)

    projector = BBVProjector(EVAL_PHOTON.bbv_dim)
    for k in fresh():
        timed(tracer, "core.analysis",
              lambda k=k: analyze_kernel(k, EVAL_PHOTON, projector),
              cell=key)

    simulate = simulate_app_method if is_app else simulate_method
    pka = ops.attempt(f"{key}/pka", lambda: timed(
        tracer, "baselines.pka",
        lambda: simulate(build(), "pka", GPU, EVAL_PHOTON), cell=key)[0])
    if pka is not None:
        record["pka_time"] = pka.sim_time

    return {"end_time": end_time, "n_insts": insts, "mem_stats": dict(mem),
            "photon_modes": record["modes"],
            "photon_sim_time": record["photon_time"]}


def _probe_perwarp(tracer: Tracer, kernels: List, key: str) -> int:
    """The batch-of-one rung: the per-warp interpreter over a fixed
    stride sample of the cell's warps.  Returns instructions executed."""
    total = sum(k.n_warps for k in kernels)
    step = max(1, total // PERWARP_SAMPLE)
    picks = list(range(0, total, step))[:PERWARP_SAMPLE]
    insts, offset = 0, 0
    for k in kernels:
        mine = [p - offset for p in picks
                if offset <= p < offset + k.n_warps]
        offset += k.n_warps
        if not mine:
            continue
        executor = FunctionalExecutor(k)

        def run_sample():
            return sum(executor.run_warp_full(w).n_insts for w in mine)

        insts += timed(tracer, "functional.perwarp", run_sample, cell=key)[0]
    return insts


def _probe_tracestore(tracer, ops, acc, kernels, traces, store_dir, key):
    """Write the cell's traces to an empty store, read every warp back
    through a fresh store object, and check what came back."""
    for k, per in zip(kernels, traces):
        timed(tracer, "tracestore.write",
              lambda k=k, per=per: TraceStore(store_dir).put_kernel(k, per),
              cell=key)
    acc["store_bytes"] += sum(p.stat().st_size
                              for p in store_dir.glob("*.trc"))

    def read_all(k):
        view = TraceStore(store_dir).open_kernel(k)
        return [view.get(w) for w in range(k.n_warps)]

    intact = True
    for k, per in zip(kernels, traces):
        back, _ = timed(tracer, "tracestore.read", lambda k=k: read_all(k),
                        cell=key)
        last = k.n_warps - 1
        intact &= (all(t is not None and t.n_insts == per[w].n_insts
                       for w, t in enumerate(back))
                   and back[0] == per[0] and back[last] == per[last])
    ops.check(intact, f"{key}: traces read back from the store differ")


def probe_obs(tracer: Tracer, ops: Ops, seed, smoke: bool,
              workdir: Path) -> None:
    """Full run of one kernel with no sink, a core-kinds counting sink,
    and a JSONL sink on every kind."""
    name, size = pick(OBS_CELL, smoke)
    build = kernel_factory(name, size, seed)

    def full_run():
        return simulate_kernel_detailed(build(), GPU)

    base, _ = timed(tracer, "obs.no_sink", full_run)
    with scoped_bus() as bus:
        bus.add_sink(CountingSink(), kinds=CORE_KINDS)
        counted, _ = timed(tracer, "obs.core_sink", full_run)
    with scoped_bus() as bus:
        sink = bus.add_sink(JsonlSink(str(workdir / "obs-trace.jsonl")))
        try:
            traced, _ = timed(tracer, "obs.full_sink", full_run)
        finally:
            sink.close()
    ops.check(base.sim_time == counted.sim_time == traced.sim_time,
              f"obs: sinks changed simulated time of {name}@{size}")


def probe_cli(tracer: Tracer, ops: Ops, smoke: bool) -> None:
    """Cold costs a ``repro run`` user pays: the import, and one run."""
    for name, command in (
            ("cli.import", ["-c", "import repro.cli"]),
            ("cli.run", ["-m", "repro", "run", "relu", "--size",
                         str(pick(CLI_RUN_SIZE, smoke))])):
        done, _ = timed(tracer, name, lambda: subprocess.run(
            [sys.executable, *command], stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, env=dict(os.environ), timeout=120))
        ops.check(done.returncode == 0,
                  f"{name}: exit code {done.returncode}")


def probe_lsq(tracer: Tracer, seed, smoke: bool) -> int:
    """The detectors' inner loop on a seeded observation stream."""
    n = pick(LSQ_OBSERVATIONS, smoke)
    rng = np.random.default_rng(0 if seed is None else seed)
    issue = np.cumsum(rng.uniform(0.5, 1.5, n)).tolist()
    retired = (np.asarray(issue) + rng.uniform(90.0, 110.0, n)).tolist()
    detector = StabilityDetector(
        EVAL_PHOTON.bb_window, EVAL_PHOTON.delta, EVAL_PHOTON.mean_check,
        EVAL_PHOTON.mean_delta)

    def feed():
        add = detector.add
        for pair in zip(issue, retired):
            add(*pair)

    timed(tracer, "core.lsq", feed)
    return n


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, acc: Counter,
                  records: Dict[str, dict]) -> Dict[str, float]:
    """Per-layer metrics every workload reports, from span totals, the
    probe counts in ``acc`` and the traced end-to-end ``records``."""
    total = tracer.total
    insts = acc["insts"]
    full_wall = sum(r["full_wall"] for r in records.values())
    photon_wall = sum(r["photon_wall"] for r in records.values())
    build_s = total("workloads.build")
    func_s, engine_s = total("functional.full"), total("timing.engine")
    control_s, replay_s = total("functional.control"), \
        total("timing.caches.replay")
    write_s, read_s = total("tracestore.write"), total("tracestore.read")
    issued = acc["batched_insts"] + acc["scalar_insts"]
    modes = Counter()
    for r in records.values():
        modes.update(r["modes"])
    pka_cells = [r for r in records.values() if "pka_time" in r]
    pka_s = total("baselines.pka")
    out = {
        "workloads.build_s": build_s,
        "workloads.kernels": acc["kernels"],
        "functional.full_s": func_s,
        "functional.full_kinst_per_s": _ratio(insts / 1e3, func_s),
        "functional.insts": insts,
        "functional.path_groups": acc["path_groups"],
        "functional.share_of_full": _ratio(func_s, full_wall),
        "functional.control_s": control_s,
        "functional.control_kinst_per_s": _ratio(insts / 1e3, control_s),
        "functional.perwarp_kinst_per_s": _ratio(
            acc["perwarp_insts"] / 1e3, total("functional.perwarp")),
        "timing.engine_s": engine_s,
        "timing.engine_kinst_per_s": _ratio(insts / 1e3, engine_s),
        "timing.us_per_inst": _ratio(engine_s * 1e6, insts),
        "timing.share_of_full": _ratio(engine_s, full_wall),
        "timing.scalar_inst_frac": _ratio(acc["scalar_insts"], issued),
        "timing.rounds": acc["rounds"],
        "timing.scalar_rounds": acc["scalar_rounds"],
        "timing.sim_cycles": acc["sim_cycles"],
        "timing.ipc": _ratio(insts, acc["sim_cycles"]),
        "timing.caches.replay_s": replay_s,
        "timing.caches.accesses": acc["cache_accesses"],
        "timing.caches.us_per_access": _ratio(replay_s * 1e6,
                                              acc["cache_accesses"]),
        "timing.caches.l1v_hit_rate": _ratio(
            acc["mem.l1v_hits"], acc["mem.l1v_hits"] + acc["mem.l1v_misses"]),
        "timing.caches.l2_hit_rate": _ratio(
            acc["mem.l2_hits"], acc["mem.l2_hits"] + acc["mem.l2_misses"]),
        "timing.caches.dram_accesses": acc["mem.dram_accesses"],
        "core.analysis_s": total("core.analysis"),
        "core.photon_s": photon_wall,
        "core.detail_frac": _ratio(
            sum(r["detail_fraction"] * r["n_insts"]
                for r in records.values()),
            sum(r["n_insts"] for r in records.values())),
        "core.mode_bb": modes["bb"],
        "core.mode_warp": modes["warp"],
        "core.mode_kernel": modes["kernel"],
        "core.mode_full": modes["full"],
        "core.fallbacks": sum(r["fallbacks"] for r in records.values()),
        "core.nosample_overhead_frac": _ratio(
            sum(r["nosample_photon_wall"] for r in records.values()),
            sum(r["nosample_full_wall"] for r in records.values())) - 1.0
        if any(r["nosample_full_wall"] for r in records.values()) else 0.0,
        "core.lsq_obs_per_s": _ratio(acc["lsq_observations"],
                                     total("core.lsq")),
        "baselines.pka_s": pka_s,
        "baselines.pka_err_pct": _ratio(
            sum(abs(r["full_time"] - r["pka_time"]) / r["full_time"] * 100.0
                for r in pka_cells), len(pka_cells)),
        "baselines.pka_speedup": _ratio(
            sum(r["full_wall"] for r in pka_cells), pka_s),
        "tracestore.write_s": write_s,
        "tracestore.read_s": read_s,
        "tracestore.write_mb_per_s": _ratio(acc["store_bytes"] / 1e6, write_s),
        "tracestore.read_mb_per_s": _ratio(acc["store_bytes"] / 1e6, read_s),
        "tracestore.bytes": acc["store_bytes"],
        # > 1: a warm start loses to re-emulating the same kernels
        "tracestore.read_vs_emulate": _ratio(read_s, func_s),
        "cli.import_s": total("cli.import"),
        "cli.run_s": total("cli.run"),
        # what timing from outside cannot explain; negative where the
        # entry point's chunked fills beat the probe's whole-grid fill
        "harness.unattributed_frac": _ratio(
            full_wall - build_s - func_s - engine_s, full_wall),
        # the spans sit outside the program, so recording them is all
        # that tracing costs: seconds in the tracer / traced wall
        "bench.trace_overhead_frac": _ratio(
            tracer.overhead, tracer.spans[0].duration),
        "bench.box_slowdown": _ratio(
            sum(r["slowdown"] for r in records.values()), len(records)),
    }
    base = total("obs.no_sink")
    if base:
        out["obs.core_sink_overhead_frac"] = total("obs.core_sink") / base - 1
        out["obs.full_sink_overhead_frac"] = total("obs.full_sink") / base - 1
    return out
