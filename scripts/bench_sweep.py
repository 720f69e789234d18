#!/usr/bin/env python
"""Benchmark the ParSweep engine: serial vs parallel wall time.

Runs the demo sweep (relu/fir/sc/spmv at the quick sizes, methods
pka + photon) once inline and once with ``--jobs N`` workers, checks
the determinism contract (both runs must render byte-identical
deterministic comparison tables), and writes ``BENCH_sweep.json`` with
the speedup and per-task telemetry.

It also measures the observability layer's instrumentation overhead
(see ``docs/observability.md``): one detailed kernel run is timed with
no sinks attached (the production default — the bus's zero-allocation
path), with the CLI's summary accounting (a ``CountingSink`` on the
cheap ``CORE_KINDS``), and with a full-fidelity ``MemorySink`` on
every kind.  The ``obs_overhead`` record lands in the JSON;
``--max-obs-overhead R`` turns the core-accounting ratio into a CI
gate.

    PYTHONPATH=src python scripts/bench_sweep.py --jobs 4
    PYTHONPATH=src python scripts/bench_sweep.py --smoke   # tiny, for CI
    PYTHONPATH=src python scripts/bench_sweep.py --smoke \
        --max-obs-overhead 0.10                            # overhead gate

It finally measures TraceForge warm-start effectiveness: a sweep over
an emulation-bound workload runs cold (empty trace store — every method
task pays functional emulation, then persists its traces) and then warm
(same store — every task replays from disk).  The warm sweep must
render a byte-identical deterministic comparison table, and
``--min-warm-speedup X`` gates the cold/warm wall-time ratio.  Unlike
the parallel speedup, this gate is valid on any core count: replay
saves CPU work instead of spreading it.

Wall-clock *parallel* speedup, by contrast, requires actual hardware
concurrency: on a single-core machine the parallel run cannot beat the
serial one (the same CPU work is just interleaved), so the record
carries ``cpu_count`` and a ``cores_limited`` flag, and the
``--min-speedup`` gate is skipped (with an explicit note in the record)
whenever ``cores_limited`` is true.

The ``--fleet-sim K`` lane closes the loophole that skip used to leave
(no parallel-efficiency number was ever gated on limited CI machines):
it initializes a multi-host fleet directory, launches K real
``repro sweep --worker`` subprocesses against it, coordinates, and
records *two* efficiencies — ``efficiency`` (speedup / K, the honest
multi-host projection) and ``efficiency_effective``
(speedup / min(K, cores), what this machine can physically show).
``--min-fleet-efficiency E`` gates on ``efficiency_effective`` and is
**never skipped**: on a core-starved box the gate degrades to "the
fleet machinery may not cost more than (1/E)x serial", which still
catches coordination regressions, and on a real multi-core runner it
is the true parallel-efficiency bar.  The merged fleet table must also
be byte-identical to the serial one.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

from repro import obs
from repro.harness.defaults import resolve_gpu
from repro.harness.runner import workload_factory
from repro.harness.tables import comparison_table
from repro.parallel import (
    fleet_coordinate,
    fleet_init,
    plan_sweep,
    run_sweep,
)
from repro.timing.simulator import simulate_kernel_detailed

DEMO_WORKLOADS = ("relu", "fir", "sc", "spmv")

# The warm-start gate runs a sweep over an emulation-bound workload —
# one whose cold wall time is dominated by functional emulation, which
# is exactly the work trace replay removes.  A cold sweep emulates the
# kernel once per method task (full baseline + each sampling method);
# the warm sweep replays every one of them from the shared store.
WARM_SIZES = (512, 1024)
WARM_SIZES_SMOKE = (512,)
WARM_WORKLOAD = "aes"


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def measure_obs_overhead(size: int = 1024, repeats: int = 3) -> dict:
    """Time one detailed kernel run under three instrumentation levels.

    ``detached`` is the production default (no sinks anywhere — each
    potential event costs one empty-list truth test); ``core`` adds the
    CLI's always-on summary accounting; ``full`` subscribes a
    ``MemorySink`` to every kind, including the per-instruction ones.
    The minimum of ``repeats`` runs is reported for each level to
    damp scheduler noise.
    """
    factory = workload_factory("relu", size)
    kernel = factory()
    gpu = resolve_gpu("r9nano")
    bus = obs.current_bus()

    def run_once() -> float:
        t0 = time.perf_counter()
        simulate_kernel_detailed(kernel, gpu, bus=bus)
        return time.perf_counter() - t0

    run_once()  # warm caches, import costs, branch predictors
    detached = min(run_once() for _ in range(repeats))

    counting = obs.CountingSink()
    bus.add_sink(counting, kinds=list(obs.CORE_KINDS))
    try:
        core = min(run_once() for _ in range(repeats))
    finally:
        bus.remove_sink(counting)

    memory = obs.MemorySink()
    bus.add_sink(memory)
    try:
        full = min(run_once() for _ in range(repeats))
    finally:
        bus.remove_sink(memory)

    return {
        "workload": "relu",
        "size": size,
        "repeats": repeats,
        "detached_wall": detached,
        "core_sink_wall": core,
        "full_sink_wall": full,
        "core_overhead": core / detached - 1.0,
        "full_overhead": full / detached - 1.0,
        "full_events": len(memory.events) // max(1, repeats),
    }


def measure_warm_start(sizes, workload: str = WARM_WORKLOAD,
                       methods=("pka", "photon"),
                       repeats: int = 2) -> dict:
    """Sweep-level cold-vs-warm wall time against one shared trace store.

    The cold sweep starts from an empty store: every method task
    re-emulates the kernel, and the staged traces are merged into the
    canonical store afterwards.  The warm sweeps replay those traces.
    Both must render byte-identical deterministic comparison tables —
    a warm run that drifts is a bug, and the record flags it
    (``identical`` false fails the CI gate).  The warm side is measured
    ``repeats`` times and the minimum kept (same noise damping as
    :func:`measure_obs_overhead`).
    """
    with tempfile.TemporaryDirectory() as tmp:
        root = os.path.join(tmp, "traces")

        def plan():
            return plan_sweep([workload], sizes=tuple(sizes),
                              methods=tuple(methods), trace_store=root)

        t0 = time.perf_counter()
        cold_run = run_sweep(plan(), jobs=1)
        cold_wall = time.perf_counter() - t0
        cold_table = comparison_table(cold_run.rows, deterministic=True)

        warm_wall = float("inf")
        identical = True
        warm_persisted = 0
        for _ in range(repeats):
            t0 = time.perf_counter()
            warm_run = run_sweep(plan(), jobs=1)
            warm_wall = min(warm_wall, time.perf_counter() - t0)
            warm_table = comparison_table(warm_run.rows,
                                          deterministic=True)
            identical = identical and warm_table == cold_table
            warm_persisted += warm_run.trace_merge["warps_added"]

    return {
        "workload": workload,
        "sizes": list(sizes),
        "methods": list(methods),
        "repeats": repeats,
        "cold_wall": cold_wall,
        "warm_wall": warm_wall,
        "speedup": cold_wall / warm_wall if warm_wall > 0 else 0.0,
        "identical": identical,
        # cold persists every warp once; a fully warm replay adds none
        "cold_warps_persisted": cold_run.trace_merge["warps_added"],
        "warm_warps_persisted": warm_persisted,
    }


def measure_fleet_sim(tasks, serial_wall: float, serial_table: str,
                      hosts: int, timeout: float = 600.0) -> dict:
    """Run the demo sweep through a real multi-host fleet on this box.

    Initializes a fleet directory for the same task plan, launches
    ``hosts`` genuine ``repro sweep --worker`` subprocesses against it,
    and coordinates in-process.  The measured wall time spans worker
    spawn through merge completion, so interpreter startup and the
    lease/merge protocol are all on the clock — this is the fleet a
    user would actually get, not a best case.

    ``efficiency`` is speedup / hosts (what K separate machines would
    see); ``efficiency_effective`` is speedup / min(hosts, cores) (what
    this machine can physically deliver).  CI gates on the effective
    number so the gate is meaningful — and therefore never skipped —
    on any core count.
    """
    cores = _available_cores()
    with tempfile.TemporaryDirectory() as tmp:
        fleet_dir = os.path.join(tmp, "fleet")
        fleet_init(fleet_dir, tasks)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH")
            else "")
        t0 = time.perf_counter()
        workers = [
            subprocess.Popen(
                [sys.executable, "-m", "repro", "sweep",
                 "--fleet-dir", fleet_dir, "--worker",
                 "--host-id", f"bench-w{i}", "--lease-seconds", "15"],
                env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL)
            for i in range(1, hosts + 1)
        ]
        try:
            # grace=30 keeps the coordinator from "rescuing" tasks while
            # the workers are still importing; it only self-runs leftovers
            # if every worker goes quiet for that long.
            result = fleet_coordinate(fleet_dir, grace=30.0,
                                      timeout=timeout)
            fleet_wall = time.perf_counter() - t0
            for proc in workers:
                proc.wait(timeout=timeout)
        finally:
            for proc in workers:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()

    table = comparison_table(result.rows, deterministic=True)
    speedup = serial_wall / fleet_wall if fleet_wall > 0 else 0.0
    return {
        "hosts": hosts,
        "cpu_count": cores,
        "serial_wall": serial_wall,
        "fleet_wall": fleet_wall,
        "speedup": speedup,
        "efficiency": speedup / hosts if hosts else 0.0,
        "efficiency_effective": speedup / min(hosts, cores)
        if hosts else 0.0,
        "steals": result.report.steals,
        "host_rows": result.report.host_rows(),
        "identical": table == serial_table,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=4,
                        help="parallel worker count (default 4)")
    parser.add_argument("--out", default="BENCH_sweep.json",
                        help="output JSON path")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and 2 jobs (CI smoke run)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="exit non-zero if the parallel speedup falls "
                             "below this (skipped when cores_limited)")
    parser.add_argument("--min-warm-speedup", type=float, default=None,
                        metavar="X",
                        help="exit non-zero if the TraceForge cold/warm "
                             "wall ratio falls below X (valid on any "
                             "core count)")
    parser.add_argument("--max-obs-overhead", type=float, default=None,
                        metavar="R",
                        help="exit non-zero if the core-accounting "
                             "instrumentation overhead ratio exceeds R "
                             "(e.g. 0.10 for 10%%)")
    parser.add_argument("--fleet-sim", type=int, default=0, metavar="K",
                        help="also run the demo sweep through a fleet of "
                             "K worker subprocesses and record parallel "
                             "efficiency (0 = off)")
    parser.add_argument("--min-fleet-efficiency", type=float,
                        default=None, metavar="E",
                        help="exit non-zero if the fleet-sim "
                             "efficiency_effective (speedup / "
                             "min(K, cores)) falls below E — enforced "
                             "on every core count, never skipped")
    args = parser.parse_args(argv)

    jobs = 2 if args.smoke else args.jobs
    sizes = (256,) if args.smoke else None  # None = quick sizes
    cores = _available_cores()
    cores_limited = cores < jobs
    tasks = plan_sweep(DEMO_WORKLOADS, sizes=sizes,
                       methods=("pka", "photon"))
    print(f"demo sweep: {len(tasks)} tasks "
          f"({len(tasks) // 3} cells x [full, pka, photon])")
    if cores_limited:
        print(f"note: {cores} CPU core(s) < {jobs} jobs — wall-clock "
              f"parallel speedup is not meaningful on this machine; the "
              f"recorded number measures scheduling overhead, not the "
              f"engine, and the --min-speedup gate will be skipped")

    t0 = time.perf_counter()
    serial = run_sweep(tasks, jobs=1)
    serial_wall = time.perf_counter() - t0
    print(f"serial:   {serial_wall:.2f}s")

    t0 = time.perf_counter()
    parallel = run_sweep(tasks, jobs=jobs)
    parallel_wall = time.perf_counter() - t0
    speedup = serial_wall / parallel_wall if parallel_wall > 0 else 0.0
    print(f"parallel: {parallel_wall:.2f}s with --jobs {jobs} "
          f"-> {speedup:.2f}x speedup, "
          f"utilization {parallel.report.utilization() * 100.0:.0f}%")

    serial_table = comparison_table(serial.rows, deterministic=True)
    parallel_table = comparison_table(parallel.rows, deterministic=True)
    deterministic = serial_table == parallel_table
    print(f"determinism: serial and parallel tables "
          f"{'MATCH' if deterministic else 'DIFFER'}")

    overhead = measure_obs_overhead(size=256 if args.smoke else 1024)
    print(f"obs overhead: detached {overhead['detached_wall']:.3f}s, "
          f"core accounting {overhead['core_overhead'] * 100.0:+.1f}%, "
          f"full trace {overhead['full_overhead'] * 100.0:+.1f}% "
          f"({overhead['full_events']} events)")

    warm = measure_warm_start(WARM_SIZES_SMOKE if args.smoke
                              else WARM_SIZES)
    print(f"warm start ({warm['workload']} sweep, sizes "
          f"{tuple(warm['sizes'])}): cold {warm['cold_wall']:.2f}s, "
          f"warm {warm['warm_wall']:.2f}s -> {warm['speedup']:.2f}x, "
          f"tables {'identical' if warm['identical'] else 'DIFFER'}, "
          f"{warm['cold_warps_persisted']} warps persisted cold / "
          f"{warm['warm_warps_persisted']} re-persisted warm")

    fleet = None
    if args.fleet_sim > 0:
        fleet = measure_fleet_sim(tasks, serial_wall, serial_table,
                                  hosts=args.fleet_sim)
        print(f"fleet sim: {fleet['hosts']} worker hosts, "
              f"{fleet['fleet_wall']:.2f}s -> {fleet['speedup']:.2f}x, "
              f"efficiency {fleet['efficiency']:.2f} "
              f"(effective {fleet['efficiency_effective']:.2f} on "
              f"{fleet['cpu_count']} core(s)), "
              f"steals {fleet['steals']}, tables "
              f"{'identical' if fleet['identical'] else 'DIFFER'}")

    record = {
        "jobs": jobs,
        "n_tasks": len(tasks),
        "cpu_count": cores,
        "cores_limited": cores_limited,
        "speedup_gate": ("skipped: cores_limited" if cores_limited
                         else "enforced"),
        "serial_wall": serial_wall,
        "parallel_wall": parallel_wall,
        "speedup": speedup,
        "deterministic": deterministic,
        "serial_telemetry": serial.report.to_dict(),
        "parallel_telemetry": parallel.report.to_dict(),
        "obs_overhead": overhead,
        "warm_start": warm,
        "fleet_sim": fleet,
        "table": parallel_table,
    }
    with open(args.out, "w") as handle:
        json.dump(record, handle, indent=2, allow_nan=False)
        handle.write("\n")
    print(f"wrote {args.out}")

    if not deterministic:
        print("FAIL: determinism contract violated", file=sys.stderr)
        return 1
    if (args.max_obs_overhead is not None
            and overhead["core_overhead"] > args.max_obs_overhead):
        print(f"FAIL: instrumentation overhead "
              f"{overhead['core_overhead'] * 100.0:.1f}% > allowed "
              f"{args.max_obs_overhead * 100.0:.1f}%", file=sys.stderr)
        return 1
    if not warm["identical"]:
        print("FAIL: warm trace replay drifted from cold simulated "
              "cycles", file=sys.stderr)
        return 1
    if warm["warm_warps_persisted"] != 0:
        print(f"FAIL: warm sweep re-persisted "
              f"{warm['warm_warps_persisted']} warps — the store "
              f"missed", file=sys.stderr)
        return 1
    if (args.min_warm_speedup is not None
            and warm["speedup"] < args.min_warm_speedup):
        print(f"FAIL: warm-start speedup {warm['speedup']:.2f}x < "
              f"required {args.min_warm_speedup:.2f}x", file=sys.stderr)
        return 1
    if fleet is not None and not fleet["identical"]:
        print("FAIL: fleet-merged table diverged from the serial one",
              file=sys.stderr)
        return 1
    # Unlike --min-speedup there is deliberately no cores_limited
    # escape hatch here: efficiency_effective already normalizes by
    # min(K, cores), so the bar is fair — and enforced — everywhere.
    if (args.min_fleet_efficiency is not None and fleet is not None
            and fleet["efficiency_effective"]
            < args.min_fleet_efficiency):
        print(f"FAIL: fleet efficiency_effective "
              f"{fleet['efficiency_effective']:.2f} < required "
              f"{args.min_fleet_efficiency:.2f}", file=sys.stderr)
        return 1
    if args.min_speedup is not None and speedup < args.min_speedup:
        if cores_limited:
            print(f"skip speedup gate: {cores} core(s) < {jobs} jobs, "
                  f"target {args.min_speedup:.2f}x not reachable here",
                  file=sys.stderr)
        else:
            print(f"FAIL: speedup {speedup:.2f}x < required "
                  f"{args.min_speedup:.2f}x", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
