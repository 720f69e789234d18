#!/usr/bin/env python
"""FleetSweep fast-lane smoke: 2 real workers, 1 stolen task, golden equality.

Exercises the whole multi-host path on every PR in a few seconds:

1. run the reference sweep inline and record its deterministic
   comparison table and trace-store content digest;
2. initialize a fleet directory for the same plan and plant an
   already-expired "ghost" lease on task 0 — some dead host claimed it
   and never came back, so a real steal *must* happen;
3. launch two ``repro sweep --fleet-dir D --worker`` subprocesses;
4. coordinate in-process and demand the merged table, the merged
   trace-store digest, and at least one recorded steal.

Exits non-zero on any divergence.  See ``docs/parallel.md``
("Multi-host fleets") for the protocol this proves.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
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

WORKLOADS = ["fir", "relu"]
SIZES = ["64"]
METHODS = ["photon"]
SUBPROCESS_TIMEOUT_S = 240


def _plan(trace_store: str):
    return plan_sweep(WORKLOADS, sizes=[int(s) for s in SIZES],
                      methods=tuple(METHODS), seed=7,
                      trace_store=trace_store)


def store_digest(root: Path) -> Dict[str, str]:
    if not root.is_dir():
        return {}
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.glob("*.trc"))}


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="fleet-smoke-"))
    try:
        golden_store = tmp / "golden-store"
        golden = run_sweep(_plan(str(golden_store)))
        golden_table = comparison_table(golden.rows, deterministic=True)
        print(f"golden: {len(golden.outcomes)} tasks, "
              f"{len(store_digest(golden_store))} store bundles")

        fleet_dir = tmp / "fleet"
        fleet_store = tmp / "fleet-store"
        fleet_init(fleet_dir, _plan(str(fleet_store)))
        # a dead host claimed task 0 long ago and never heartbeat again:
        # whichever worker reaches it first must steal (generation 1)
        write_lease(fleet_dir, 0, "ghost-host", deadline=1.0)

        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            Path(__file__).resolve().parent.parent / "src")
        workers = [
            subprocess.Popen(
                [sys.executable, "-m", "repro", "sweep",
                 "--fleet-dir", str(fleet_dir), "--worker",
                 "--host-id", f"smoke-w{i}", "--lease-seconds", "10"],
                env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL)
            for i in (1, 2)
        ]
        try:
            result = fleet_coordinate(fleet_dir, grace=30.0,
                                      timeout=SUBPROCESS_TIMEOUT_S)
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
        hosts = [row["host"] for row in result.report.host_rows()]
        print(f"fleet_smoke OK: hosts={hosts}, "
              f"steals={result.report.steals}, table and store digest "
              f"identical to inline")
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
