#!/usr/bin/env python
"""DuraSweep chaos-recovery harness: kill sweeps, resume, demand equality.

The crash-safety invariant (``docs/durability.md``): a journaled sweep
interrupted at *any* point — coordinator SIGKILL, worker SIGKILL, torn
journal append, ENOSPC mid-bundle-write — must, after
``repro sweep --resume``, produce a deterministic comparison table and
a trace-store content digest bitwise-identical to an uninterrupted run.

Four trial families, all seeded and reproducible:

* **process-kill trials** — launch ``python -m repro sweep ... --run-dir
  --jobs 2`` as a real subprocess (own session), wait until the journal
  shows a fault-plan-chosen number of completed tasks, then SIGKILL
  either the whole process group (coordinator death) or one pool worker
  (the scheduler must survive that via pool rebuild).  Odd-seeded
  trials additionally bite a few bytes off the journal tail before
  resuming, modelling a torn final append.
* **filesystem-fault trials** — run the sweep in-process under
  :func:`repro.reliability.scoped_fs_faults` so a chosen
  ``sweep.journal`` append or ``tracestore.bundle`` write tears,
  shorts, or hits ENOSPC; treat the raised error as the crash and
  resume.
* **fleet trials** — initialize a multi-host fleet
  (``repro.parallel.fleet``), launch two real worker subprocesses with
  short leases, SIGKILL one of them mid-lease (the survivor must steal
  its task), and optionally crash the coordinator mid-merge with an
  injected ``tracestore.bundle`` fault before re-coordinating — the
  merged result must still equal golden.
* **golden** — the uninterrupted reference run every family is
  compared against, bit for bit.

    PYTHONPATH=src python scripts/chaos_sweep.py --smoke        # CI fast lane
    PYTHONPATH=src python scripts/chaos_sweep.py --kill-points 20  # nightly

Exits non-zero on the first divergence.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.durable import RecordLog  # noqa: E402
from repro.harness.tables import comparison_table  # noqa: E402
from repro.parallel import (  # noqa: E402
    JOURNAL_NAME,
    fleet_coordinate,
    fleet_init,
    plan_sweep,
    resume_sweep,
    run_sweep,
)
from repro.parallel.fleet import HOSTS_DIR  # noqa: E402
from repro.parallel.journal import REC_DONE, REC_FAILED  # noqa: E402
from repro.errors import SamplingError  # noqa: E402
from repro.reliability import (  # noqa: E402
    FsFaultPlan,
    FsFaultSpec,
    scoped_fs_faults,
)

WORKLOADS = ["fir", "relu"]
SIZES = ["64"]
METHODS = ["photon"]
POLL_S = 0.02
SUBPROCESS_TIMEOUT_S = 240


def _plan(trace_store: Optional[str]):
    return plan_sweep(WORKLOADS, sizes=[int(s) for s in SIZES],
                      methods=tuple(METHODS), seed=7,
                      trace_store=trace_store)


def store_digest(root: Path) -> Dict[str, str]:
    """Content digest of a trace store's canonical bundles."""
    digest: Dict[str, str] = {}
    if not root.is_dir():
        return digest
    for path in sorted(root.glob("*.trc")):
        digest[path.name] = hashlib.sha256(
            path.read_bytes()).hexdigest()
    return digest


def golden(tmp: Path) -> Tuple[str, Dict[str, str], int]:
    """Uninterrupted reference run: table, store digest, task count."""
    store = tmp / "golden-store"
    result = run_sweep(_plan(str(store)))
    table = comparison_table(result.rows, deterministic=True)
    return table, store_digest(store), len(result.outcomes)


def _resume_or_restart(run_dir: Path, trace_store: Path):
    """Resume a journaled run; restart fresh if it died pre-plan.

    A crash before the plan record lands (or a truncation that eats
    it) leaves nothing to resume — the documented recovery is a fresh
    run in a clean directory, which must still match golden.
    """
    try:
        return resume_sweep(str(run_dir))
    except SamplingError:
        shutil.rmtree(run_dir, ignore_errors=True)
        return run_sweep(_plan(str(trace_store)), run_dir=str(run_dir))


def _count_outcomes(journal: Path) -> int:
    scan = RecordLog(journal, "sweep.journal").scan()
    return sum(1 for r in scan.records
               if r.get("rec") in (REC_DONE, REC_FAILED))


def _worker_pids(coordinator: int) -> List[int]:
    """Child pids of the coordinator (pool workers, trackers)."""
    try:
        children = Path(
            f"/proc/{coordinator}/task/{coordinator}/children"
        ).read_text().split()
        return [int(pid) for pid in children]
    except (OSError, ValueError):
        return []


def kill_trial(tmp: Path, seed: int, n_tasks: int,
               golden_table: str, golden_store: Dict[str, str]) -> str:
    """One seeded process-kill trial; returns "" or a failure message."""
    rng = random.Random(seed)
    run_dir = tmp / f"kill-{seed}"
    store = tmp / f"kill-{seed}-store"
    kill_after = rng.randrange(0, n_tasks)       # journaled outcomes
    target = rng.choice(["coordinator", "worker"])
    bite = rng.randrange(1, 40) if seed % 2 else 0
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent
                            / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "sweep", *WORKLOADS,
         "--sizes", *SIZES, "--methods", *METHODS, "--seed", "7",
         "--jobs", "2", "--run-dir", str(run_dir),
         "--trace-store", str(store)],
        env=env, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    journal = run_dir / JOURNAL_NAME
    killed = "exited first"
    deadline = time.monotonic() + SUBPROCESS_TIMEOUT_S
    try:
        while proc.poll() is None and time.monotonic() < deadline:
            if _count_outcomes(journal) >= kill_after:
                if target == "coordinator":
                    os.killpg(proc.pid, signal.SIGKILL)
                    killed = f"coordinator@{kill_after}"
                else:
                    workers = _worker_pids(proc.pid)
                    if workers:
                        os.kill(max(workers), signal.SIGKILL)
                        killed = f"worker@{kill_after}"
                break
            time.sleep(POLL_S)
        proc.wait(timeout=SUBPROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return f"seed {seed}: sweep subprocess hung"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
    if bite and journal.exists():
        raw = journal.read_bytes()
        journal.write_bytes(raw[:max(1, len(raw) - bite)])
    resumed = _resume_or_restart(run_dir, store)
    table = comparison_table(resumed.rows, deterministic=True)
    if table != golden_table:
        return (f"seed {seed} ({killed}, bite={bite}): resumed table "
                f"diverged\n--- golden ---\n{golden_table}\n"
                f"--- resumed ---\n{table}")
    digest = store_digest(store)
    if digest != golden_store:
        return (f"seed {seed} ({killed}, bite={bite}): trace-store "
                f"digest diverged: {sorted(digest)} vs "
                f"{sorted(golden_store)}")
    print(f"  kill seed {seed}: {killed}, bite={bite}, "
          f"replayed={resumed.replayed} -> identical")
    return ""


def fs_fault_trial(tmp: Path, seed: int, golden_table: str,
                   golden_store: Dict[str, str]) -> str:
    """One seeded filesystem-fault trial (in-process crash model)."""
    rng = random.Random(1000 + seed)
    run_dir = tmp / f"fs-{seed}"
    store = tmp / f"fs-{seed}-store"
    site = rng.choice(["sweep.journal", "tracestore.bundle"])
    mode = rng.choice(["torn", "short", "enospc"])
    at = rng.randrange(1, 6)
    plan = FsFaultPlan(FsFaultSpec(site=site, mode=mode, at=at,
                                   fraction=rng.random()))
    crashed = None
    try:
        with scoped_fs_faults(plan):
            run_sweep(_plan(str(store)), run_dir=str(run_dir))
    except BaseException as exc:  # the injected crash, whatever it is
        crashed = f"{type(exc).__name__}"
    if not plan.fired:
        # the chosen site was visited fewer than `at` times; the run
        # completed untouched — still assert equality, then move on
        crashed = "no-fire"
    resumed = _resume_or_restart(run_dir, store)
    table = comparison_table(resumed.rows, deterministic=True)
    if table != golden_table:
        return (f"fs seed {seed} ({site}/{mode}@{at}, {crashed}): "
                f"resumed table diverged")
    digest = store_digest(store)
    if digest != golden_store:
        return (f"fs seed {seed} ({site}/{mode}@{at}, {crashed}): "
                f"trace-store digest diverged")
    print(f"  fs seed {seed}: {site}/{mode}@{at} ({crashed}), "
          f"replayed={resumed.replayed} -> identical")
    return ""


def _spawn_fleet_worker(fleet_dir: Path, host: str,
                        lease_seconds: float) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent
                            / "src")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "sweep",
         "--fleet-dir", str(fleet_dir), "--worker",
         "--host-id", host, "--lease-seconds", str(lease_seconds)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def fleet_trial(tmp: Path, seed: int, golden_table: str,
                golden_store: Dict[str, str]) -> str:
    """One seeded fleet-chaos trial; returns "" or a failure message.

    Launches two real worker subprocesses over a shared fleet
    directory, SIGKILLs one after it has journaled a seeded number of
    outcomes (its expired lease hands the in-flight task to the
    survivor), then coordinates — on odd treatments, first under an
    injected ``tracestore.bundle`` fault so the merge itself crashes
    and has to be re-run.  The final merged table and store digest
    must equal golden regardless.
    """
    rng = random.Random(2000 + seed)
    fleet_dir = tmp / f"fleet-{seed}"
    store = tmp / f"fleet-{seed}-store"
    fleet_init(fleet_dir, _plan(str(store)))
    hosts = [f"chaos-w{i}" for i in (1, 2)]
    kill_after = rng.randrange(1, 3)   # journaled outcomes on victim
    victim = rng.choice(hosts)
    crash_merge = bool(rng.randrange(2))
    workers = {host: _spawn_fleet_worker(fleet_dir, host,
                                         lease_seconds=1.0)
               for host in hosts}
    victim_journal = fleet_dir / HOSTS_DIR / victim / JOURNAL_NAME
    killed = "exited first"
    deadline = time.monotonic() + SUBPROCESS_TIMEOUT_S
    try:
        while (workers[victim].poll() is None
                and time.monotonic() < deadline):
            if _count_outcomes(victim_journal) >= kill_after:
                workers[victim].send_signal(signal.SIGKILL)
                killed = f"{victim}@{kill_after}"
                break
            time.sleep(POLL_S)

        merge_crash = None
        if crash_merge:
            plan = FsFaultPlan(FsFaultSpec(
                site="tracestore.bundle", mode=rng.choice(
                    ["torn", "short", "enospc"]),
                at=rng.randrange(1, 3), fraction=rng.random()))
            try:
                with scoped_fs_faults(plan):
                    fleet_coordinate(fleet_dir, grace=30.0,
                                     timeout=SUBPROCESS_TIMEOUT_S)
            except BaseException as exc:
                merge_crash = type(exc).__name__
            if not plan.fired:
                merge_crash = "no-fire"
        result = fleet_coordinate(fleet_dir, grace=30.0,
                                  timeout=SUBPROCESS_TIMEOUT_S)
        for proc in workers.values():
            proc.wait(timeout=SUBPROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"fleet seed {seed}: worker subprocess hung"
    finally:
        for proc in workers.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    table = comparison_table(result.rows, deterministic=True)
    if table != golden_table:
        return (f"fleet seed {seed} (kill {killed}, "
                f"merge_crash={merge_crash}): merged table diverged"
                f"\n--- golden ---\n{golden_table}"
                f"\n--- fleet ---\n{table}")
    digest = store_digest(store)
    if digest != golden_store:
        return (f"fleet seed {seed} (kill {killed}, "
                f"merge_crash={merge_crash}): trace-store digest "
                f"diverged: {sorted(digest)} vs {sorted(golden_store)}")
    print(f"  fleet seed {seed}: kill {killed}, "
          f"merge_crash={merge_crash}, steals={result.report.steals} "
          f"-> identical")
    return ""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kill-points", type=int, default=20,
                        metavar="N",
                        help="seeded process-kill trials (default 20)")
    parser.add_argument("--fs-faults", type=int, default=6, metavar="N",
                        help="seeded filesystem-fault trials (default 6)")
    parser.add_argument("--fleet-trials", type=int, default=6,
                        metavar="N",
                        help="seeded multi-host fleet trials "
                             "(default 6)")
    parser.add_argument("--smoke", action="store_true",
                        help="fast-lane subset: 2 kill + 2 fs + 1 "
                             "fleet trial")
    args = parser.parse_args()
    n_kill = 2 if args.smoke else args.kill_points
    n_fs = 2 if args.smoke else args.fs_faults
    n_fleet = 1 if args.smoke else args.fleet_trials

    failures: List[str] = []
    tmp = Path(tempfile.mkdtemp(prefix="chaos-sweep-"))
    try:
        golden_table, golden_store, n_tasks = golden(tmp)
        print(f"golden: {n_tasks} tasks, "
              f"{len(golden_store)} store bundles")
        print(f"process-kill trials: {n_kill}")
        for seed in range(n_kill):
            message = kill_trial(tmp, seed, n_tasks, golden_table,
                                 golden_store)
            if message:
                failures.append(message)
        print(f"filesystem-fault trials: {n_fs}")
        for seed in range(n_fs):
            message = fs_fault_trial(tmp, seed, golden_table,
                                     golden_store)
            if message:
                failures.append(message)
        print(f"fleet trials: {n_fleet}")
        for seed in range(n_fleet):
            message = fleet_trial(tmp, seed, golden_table,
                                  golden_store)
            if message:
                failures.append(message)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if failures:
        print("\nchaos_sweep FAILURES:")
        for message in failures:
            print(f"  {message}")
        return 1
    print(f"\nchaos_sweep OK: {n_kill} kill + {n_fs} fs-fault + "
          f"{n_fleet} fleet trials, zero divergence")
    return 0


if __name__ == "__main__":
    sys.exit(main())
