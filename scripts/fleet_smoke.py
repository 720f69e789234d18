#!/usr/bin/env python
"""FleetSweep smoke: real workers, 1 stolen task, golden equality.

Exercises the whole multi-host path on every PR in a few seconds:

1. run the reference sweep inline and record its deterministic
   comparison table and trace-store content digest;
2. initialize a fleet directory for the same plan and plant an
   already-expired "ghost" lease on task 0 — some dead host claimed it
   and never came back, so a real steal *must* happen;
3. launch ``repro sweep --fleet-dir D --worker`` subprocesses (two by
   default);
4. coordinate in-process and demand the merged table, the merged
   trace-store digest, and at least one recorded steal.

    PYTHONPATH=src python scripts/fleet_smoke.py            # ~5 s
    PYTHONPATH=src python scripts/fleet_smoke.py --hosts 4  # efficiency

``--hosts K`` runs the quick-size demo plan (relu/fir/sc/spmv, pka +
photon) on K workers instead and also fails when
``efficiency_effective`` — the inline wall over the fleet wall (worker
spawn through merge), divided by min(K, cores) — falls below
``MIN_EFFICIENCY``.  Normalising by the cores this machine has makes the
bar fair on any runner, so it is never skipped: on a core-starved box it
says the fleet machinery may cost at most 1/0.6x serial, on a K-core
runner it is the parallel-efficiency bar.

Exits non-zero on any divergence.  See ``docs/parallel.md``
("Multi-host fleets") for the protocol this proves.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.harness.tables import comparison_table  # noqa: E402
from repro.parallel import (  # noqa: E402
    fleet_coordinate,
    fleet_init,
    plan_sweep,
    run_sweep,
)
from repro.parallel.fleet import write_lease  # noqa: E402

DEMO_WORKLOADS = ["relu", "fir", "sc", "spmv"]
#: the ``efficiency_effective`` a ``--hosts`` run must reach
MIN_EFFICIENCY = 0.6
SUBPROCESS_TIMEOUT_S = 240


def _plan(hosts: int, trace_store: str):
    if hosts:
        return plan_sweep(DEMO_WORKLOADS, methods=("pka", "photon"),
                          trace_store=trace_store)
    return plan_sweep(["fir", "relu"], sizes=[64], methods=("photon",),
                      seed=7, trace_store=trace_store)


def available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def store_digest(root: Path) -> Dict[str, str]:
    if not root.is_dir():
        return {}
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.glob("*.trc"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--hosts", type=int, default=0, metavar="K",
                        help="run the quick-size demo plan on K workers "
                             "and gate its efficiency_effective")
    hosts = parser.parse_args(argv).hosts
    tmp = Path(tempfile.mkdtemp(prefix="fleet-smoke-"))
    try:
        golden_store = tmp / "golden-store"
        start = time.perf_counter()
        golden = run_sweep(_plan(hosts, str(golden_store)))
        serial_wall = time.perf_counter() - start
        golden_table = comparison_table(golden.rows, deterministic=True)
        print(f"golden: {len(golden.outcomes)} tasks, "
              f"{len(store_digest(golden_store))} store bundles")

        fleet_dir = tmp / "fleet"
        fleet_store = tmp / "fleet-store"
        fleet_init(fleet_dir, _plan(hosts, str(fleet_store)))
        # a dead host claimed task 0 long ago and never heartbeat again:
        # whichever worker reaches it first must steal (generation 1)
        write_lease(fleet_dir, 0, "ghost-host", deadline=1.0)

        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parent.parent / "src")
        start = time.perf_counter()
        workers = [
            subprocess.Popen(
                [sys.executable, "-m", "repro", "sweep",
                 "--fleet-dir", str(fleet_dir), "--worker",
                 "--host-id", f"smoke-w{i}", "--lease-seconds", "10"],
                env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL)
            for i in range(1, (hosts or 2) + 1)
        ]
        try:
            result = fleet_coordinate(fleet_dir, grace=30.0,
                                      timeout=SUBPROCESS_TIMEOUT_S)
            fleet_wall = time.perf_counter() - start
            for proc in workers:
                proc.wait(timeout=SUBPROCESS_TIMEOUT_S)
        finally:
            for proc in workers:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()

        table = comparison_table(result.rows, deterministic=True)
        if table != golden_table:
            print("fleet_smoke FAIL: merged table diverged from inline"
                  f"\n--- golden ---\n{golden_table}"
                  f"\n--- fleet ---\n{table}")
            return 1
        if store_digest(fleet_store) != store_digest(golden_store):
            print("fleet_smoke FAIL: merged trace-store digest diverged"
                  f"\n  golden: {sorted(store_digest(golden_store))}"
                  f"\n  fleet:  {sorted(store_digest(fleet_store))}")
            return 1
        if result.report.steals < 1:
            print("fleet_smoke FAIL: the ghost lease on task 0 was "
                  "never stolen (steals=0) — the work-stealing path "
                  "did not run")
            return 1
        if hosts:
            cores = available_cores()
            speedup = serial_wall / fleet_wall
            efficiency = speedup / min(hosts, cores)
            print(f"fleet: {hosts} workers {fleet_wall:.2f}s vs inline "
                  f"{serial_wall:.2f}s -> {speedup:.2f}x, "
                  f"efficiency_effective {efficiency:.2f} on {cores} "
                  f"core(s)")
            if efficiency < MIN_EFFICIENCY:
                print(f"fleet_smoke FAIL: efficiency_effective "
                      f"{efficiency:.2f} < {MIN_EFFICIENCY}")
                return 1
        names = [row["host"] for row in result.report.host_rows()]
        print(f"fleet_smoke OK: hosts={names}, "
              f"steals={result.report.steals}, table and store digest "
              f"identical to inline")
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
