"""FleetSweep: filesystem-coordinated multi-host work-stealing sweeps.

ParSweep scales to one host's cores; ``--shard I/N`` defines clean
machine boundaries but nothing coordinates the machines.  This module
adds that coordination with **no network dependency**: a fleet is a
shared directory (NFS, a bind mount, one box in the simulated-fleet
bench) that holds the plan, a lease per task, one write-ahead journal
per host, and per-host trace staging:

```
fleet-dir/
  fleet.json                      manifest: the plan (durable)
  leases/task-<idx>/lease.json    current claim (owner, nonce, deadline)
  leases/task-<idx>/done.json     completion marker (any outcome)
  hosts/<host>/journal.jsonl      per-host DuraSweep WAL (+ quarantine)
  staging/<host>/task-<idx>/      staged trace-store bundles
```

**Lease protocol.**  A claim is a :func:`repro.durable.write_sealed`
of the task's lease record — owner id, a random nonce, a generation
counter, and a heartbeat deadline — followed by a read-back: because
``os.replace`` is atomic, the lease file always holds exactly one
complete claim, and whoever the read-back names is the owner (a lease
that fails its checksum reads back as no lease at all).  A
claimant that reads back someone else's nonce lost the race and
re-queues.  Expired leases (heartbeat deadline in the past) are
claimed at ``generation + 1`` — a **steal**: stragglers and dead hosts
lose their tasks to whoever is still making progress.  Two hosts that
race past each other's read-backs may both execute a task; that is
safe by construction — tasks are deterministic, outcomes land in
per-host journals, and every merge is order-independent — the lease
only bounds *wasted* work, it is not required for correctness.

**Crash isolation.**  Each host journals ``scheduled``/``done``/
``failed`` records to its own :class:`~repro.parallel.journal.SweepJournal`
(fsync'd, checksummed, valid-prefix recovery), so a SIGKILLed host
loses at most its in-flight task — which its expired lease hands to a
survivor.  The journaled step itself (``scheduled`` record → run →
outcome record) is the scheduler's ``run_journaled``, shared with
single-host sweeps.  A restarted host resumes its own journal
(quarantining any torn tail) and continues claiming.  In-task transient
failures retry through the task's own
:class:`~repro.reliability.retry.RetryPolicy`, exactly as in
single-host sweeps.

**Coordinator.**  :func:`fleet_coordinate` waits until every task is
covered (a done marker or a journaled outcome on some host), re-runs
any task that no surviving journal covers, then hands everything to
the scheduler's :func:`~repro.parallel.scheduler.assemble_result` — the
same function a single-host sweep ends in — which merges *in task-index
order*: rows, analysis-store / kernel-db payloads, and staged trace
bundles via the multi-root ``TraceStore.merge_staged`` (hosts visited
in sorted order; first-written blob wins and duplicates are
content-equal by construction).  The merged result is **bitwise
identical** to ``run_sweep(tasks, jobs=1)`` on one host — the same
contract every prior layer earned, now surviving arbitrary host
interleavings, steals, duplicate executions and crashes.  The
coordinator itself is idempotent: kill it mid-merge and re-running
``--coordinate`` replays every host's completed journal prefix and
folds whatever staging is left.

See ``docs/parallel.md`` ("Multi-host fleets") for the operational
guide and ``scripts/fleet_smoke.py --hosts K`` for the K-worker
efficiency gate.
"""

from __future__ import annotations

import os
import secrets
import socket
import threading
import time as _time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..durable import read_sealed, write_sealed
from ..errors import ConfigError, SamplingError
from ..obs import SWEEP_FLEET, current_bus
from .journal import JOURNAL_NAME, SweepJournal, scan_journal
from .scheduler import (
    SweepResult,
    assemble_result,
    in_caller,
    run_journaled,
)
from .tasks import SweepTask, TaskOutcome, run_task
from .telemetry import RunReport

PathLike = Union[str, Path]

MANIFEST_NAME = "fleet.json"
LEASES_DIR = "leases"
HOSTS_DIR = "hosts"
STAGING_DIR = "staging"
LEASE_NAME = "lease.json"
DONE_NAME = "done.json"

_MANIFEST_FORMAT = "repro-fleet"
_MANIFEST_VERSION = 1
_SUPPORTED_VERSIONS = (1,)

#: default seconds before an unrefreshed lease is stealable
DEFAULT_LEASE_SECONDS = 30.0


def _sanitize_host(host: str) -> str:
    safe = "".join(c if (c.isalnum() or c in "-_.") else "-"
                   for c in host)
    if not safe or safe in (".", ".."):
        raise ConfigError(f"unusable fleet host id {host!r}")
    return safe


def default_host_id() -> str:
    """``<hostname>-<pid>``: unique per worker process on a shared FS."""
    return _sanitize_host(f"{socket.gethostname()}-{os.getpid()}")


# ---------------------------------------------------------------- manifest


def fleet_init(fleet_dir: PathLike, tasks: Sequence[SweepTask]) -> Path:
    """Create a fleet directory: manifest, lease and staging roots.

    Refuses to overwrite an existing manifest — a fleet directory holds
    exactly one sweep's plan; finish (or discard) it before reusing the
    path, mirroring ``--run-dir``'s refuse-reuse contract.
    """
    fleet_dir = Path(fleet_dir)
    manifest = fleet_dir / MANIFEST_NAME
    if manifest.exists():
        raise ConfigError(
            f"{manifest} already exists; coordinate/resume that fleet "
            f"or choose a fresh --fleet-dir")
    if not tasks:
        raise ConfigError("fleet plan is empty; nothing to distribute")
    fleet_dir.mkdir(parents=True, exist_ok=True)
    (fleet_dir / LEASES_DIR).mkdir(exist_ok=True)
    (fleet_dir / HOSTS_DIR).mkdir(exist_ok=True)
    (fleet_dir / STAGING_DIR).mkdir(exist_ok=True)
    write_sealed(manifest, {
        "format": _MANIFEST_FORMAT,
        "version": _MANIFEST_VERSION,
        "tasks": [task.to_dict() for task in tasks],
    }, site="fleet.manifest")
    return fleet_dir


def load_manifest(fleet_dir: PathLike) -> List[SweepTask]:
    """Read and verify a fleet manifest; raises on absence/corruption."""
    manifest = Path(fleet_dir) / MANIFEST_NAME
    if not manifest.exists():
        raise SamplingError(
            f"{manifest}: no fleet manifest; initialize the fleet "
            f"first (repro sweep ... --fleet-dir D --fleet-init)")
    body = read_sealed(manifest)
    if body is None:
        raise SamplingError(
            f"{manifest}: unreadable manifest or checksum mismatch")
    if (body.get("format") != _MANIFEST_FORMAT
            or body.get("version") not in _SUPPORTED_VERSIONS):
        raise SamplingError(
            f"{manifest}: unsupported fleet manifest "
            f"{body.get('format')!r} v{body.get('version')!r}")
    try:
        tasks = [SweepTask.from_dict(d) for d in body["tasks"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise SamplingError(
            f"{manifest}: malformed task list: {exc}") from exc
    return tasks


# ---------------------------------------------------------------- leases


def _task_dir(fleet_dir: Path, index: int) -> Path:
    return fleet_dir / LEASES_DIR / f"task-{index:08d}"


def read_lease(fleet_dir: PathLike, index: int) -> Optional[Dict[str, object]]:
    """The current (complete, verified) lease record for a task, or None."""
    return read_sealed(_task_dir(Path(fleet_dir), index) / LEASE_NAME)


def write_lease(fleet_dir: PathLike, index: int, owner: str,
                deadline: float, generation: int = 0,
                nonce: Optional[str] = None) -> str:
    """Atomically (re)place a task's lease record; returns the nonce.

    The nonce makes each claim distinguishable: after the atomic
    replace, exactly one claim's bytes survive, and a read-back
    comparing nonces tells every claimant whether it won.
    """
    nonce = nonce or secrets.token_hex(8)
    record = {
        "index": index,
        "owner": owner,
        "nonce": nonce,
        "generation": generation,
        "deadline": deadline,
    }
    path = _task_dir(Path(fleet_dir), index)
    path.mkdir(parents=True, exist_ok=True)
    write_sealed(path / LEASE_NAME, record, site="fleet.lease")
    return nonce


def read_done(fleet_dir: PathLike, index: int) -> Optional[Dict[str, object]]:
    """The (verified) completion marker for a task, or None."""
    return read_sealed(_task_dir(Path(fleet_dir), index) / DONE_NAME)


def write_done(fleet_dir: PathLike, index: int, host: str,
               status: str, stolen: bool) -> None:
    record = {"index": index, "host": host, "status": status,
              "stolen": stolen}
    path = _task_dir(Path(fleet_dir), index)
    path.mkdir(parents=True, exist_ok=True)
    write_sealed(path / DONE_NAME, record, site="fleet.done")


@dataclass
class _Claim:
    """A verified, won lease on one task."""

    index: int
    nonce: str
    generation: int
    stolen: bool


# ---------------------------------------------------------------- worker


@dataclass
class FleetWorkerReport:
    """What one worker process contributed to a fleet run."""

    host: str
    ran: int = 0          # tasks executed on this host
    stolen: int = 0       # of which were steals of expired leases
    lost_races: int = 0   # claims written but lost at read-back
    failed: int = 0       # executed tasks whose outcome was an error

    def to_dict(self) -> Dict[str, object]:
        return {"host": self.host, "ran": self.ran,
                "stolen": self.stolen, "lost_races": self.lost_races,
                "failed": self.failed}


class FleetWorker:
    """One host's claim-execute-journal loop over a shared fleet dir.

    ``clock`` is injectable so lease-expiry edge cases (double claims,
    clock skew) are testable without sleeping; ``heartbeat=False``
    disables the background lease-refresh thread for deterministic
    single-threaded tests.
    """

    def __init__(self, fleet_dir: PathLike, host: Optional[str] = None,
                 lease_seconds: float = DEFAULT_LEASE_SECONDS,
                 poll_interval: float = 0.05,
                 clock: Callable[[], float] = _time.time,
                 heartbeat: bool = True,
                 max_wait: Optional[float] = None):
        if lease_seconds < 0:
            raise ConfigError(
                f"lease_seconds must be >= 0, got {lease_seconds!r}")
        self.fleet_dir = Path(fleet_dir)
        self.host = _sanitize_host(host or default_host_id())
        self.lease_seconds = lease_seconds
        self.poll_interval = poll_interval
        self.clock = clock
        self.heartbeat = heartbeat
        self.max_wait = max_wait
        self.tasks = load_manifest(self.fleet_dir)
        self.report = FleetWorkerReport(host=self.host)
        self._completed: set = set()
        self._journal = self._open_journal()

    # -- host WAL ----------------------------------------------------------

    def _open_journal(self) -> SweepJournal:
        """Create this host's WAL, or resume it after a restart.

        Resuming quarantines any torn tail (the host died mid-append)
        and replays the valid prefix — tasks this host already
        completed are not re-claimed.
        """
        host_dir = self.fleet_dir / HOSTS_DIR / self.host
        if (host_dir / JOURNAL_NAME).exists():
            journal, scan = SweepJournal.resume(host_dir)
            self._completed.update(scan.outcomes())
            return journal
        return SweepJournal.create(host_dir, self.tasks)

    # -- claim protocol ----------------------------------------------------

    def _claimable(self, index: int) -> Optional[Tuple[int, bool]]:
        """(next generation, is-steal) if the task can be claimed now."""
        if read_done(self.fleet_dir, index) is not None:
            return None
        lease = read_lease(self.fleet_dir, index)
        if lease is None:
            return 0, False
        try:
            deadline = float(lease["deadline"])
            generation = int(lease["generation"])
        except (KeyError, TypeError, ValueError):
            # an unreadable lease never blocks the fleet: steal it
            return 1, True
        if lease.get("owner") == self.host:
            # our own stale lease (host restarted mid-task): reclaim
            return generation + 1, False
        if deadline > self.clock():
            return None                     # held and alive
        return generation + 1, True         # expired: steal

    def _write_claim(self, index: int, generation: int) -> str:
        return write_lease(self.fleet_dir, index, self.host,
                           self.clock() + self.lease_seconds,
                           generation=generation)

    def _verify_claim(self, index: int, nonce: str) -> bool:
        lease = read_lease(self.fleet_dir, index)
        return lease is not None and lease.get("nonce") == nonce

    def try_claim(self, index: int) -> Optional[_Claim]:
        """Claim one task: write the lease, read it back, believe it.

        Returns the claim when this host's nonce survived the atomic
        replace; None when the task is done, validly held by a live
        host, or another claimant's replace won the race (the loser
        simply re-queues — ``lost_races`` counts these).
        """
        plan = self._claimable(index)
        if plan is None:
            return None
        generation, stolen = plan
        nonce = self._write_claim(index, generation)
        if not self._verify_claim(index, nonce):
            self.report.lost_races += 1
            return None
        bus = current_bus()
        bus.emit(SWEEP_FLEET, self.host, "steal" if stolen else "claim",
                 index, generation)
        bus.metrics.counter("fleet.claims").inc()
        if stolen:
            bus.metrics.counter("fleet.steals").inc()
        return _Claim(index=index, nonce=nonce, generation=generation,
                      stolen=stolen)

    # -- execution ---------------------------------------------------------

    def _stage_dir(self, task: SweepTask) -> Optional[str]:
        if task.trace_store is None:
            return None
        staged = (self.fleet_dir / STAGING_DIR / self.host
                  / f"task-{task.index:08d}")
        return str(staged)

    def _heartbeat_loop(self, claim: _Claim, stop: threading.Event,
                        interval: float) -> None:
        while not stop.wait(interval):
            lease = read_lease(self.fleet_dir, claim.index)
            if lease is None or lease.get("nonce") != claim.nonce:
                return  # lost the lease; stop advertising liveness
            write_lease(self.fleet_dir, claim.index, self.host,
                        self.clock() + self.lease_seconds,
                        generation=claim.generation, nonce=claim.nonce)

    def _run_leased(self, claim: _Claim, task: SweepTask) -> TaskOutcome:
        """Run one claimed task under a heartbeat; stamp its provenance."""
        stop = threading.Event()
        beat = None
        if self.heartbeat and self.lease_seconds > 0:
            beat = threading.Thread(
                target=self._heartbeat_loop,
                args=(claim, stop, max(0.01, self.lease_seconds / 3.0)),
                daemon=True)
            beat.start()
        try:
            outcome = run_task(task, stage_dir=self._stage_dir(task))
        finally:
            stop.set()
            if beat is not None:
                beat.join()
        outcome.host = self.host
        outcome.stolen = claim.stolen
        return outcome

    def run_claimed(self, claim: _Claim) -> TaskOutcome:
        """Execute a claimed task: journal, run, mark done."""
        task = self.tasks[claim.index]
        if task.index != claim.index:  # pragma: no cover - plan invariant
            task = next(t for t in self.tasks if t.index == claim.index)
        [(outcome, _wait)] = run_journaled(
            [task], in_caller(partial(self._run_leased, claim)),
            self._journal)
        write_done(self.fleet_dir, claim.index, self.host,
                   outcome.status, claim.stolen)
        self._completed.add(claim.index)
        self.report.ran += 1
        if claim.stolen:
            self.report.stolen += 1
        if not outcome.ok:
            self.report.failed += 1
        current_bus().emit(SWEEP_FLEET, self.host,
                           "done" if outcome.ok else "failed",
                           claim.index, claim.generation)
        return outcome

    def step(self) -> str:
        """Claim and run at most one task.

        Returns ``"ran"`` (made progress), ``"idle"`` (everything is
        done or validly leased elsewhere — poll again), or ``"done"``
        (every task in the plan has a completion marker).
        """
        all_done = True
        for task in self.tasks:
            if task.index in self._completed:
                continue
            if read_done(self.fleet_dir, task.index) is not None:
                self._completed.add(task.index)
                continue
            all_done = False
            claim = self.try_claim(task.index)
            if claim is not None:
                self.run_claimed(claim)
                return "ran"
        return "done" if all_done else "idle"

    def run(self) -> FleetWorkerReport:
        """Claim-execute loop until the whole fleet plan is covered."""
        idle_since: Optional[float] = None
        try:
            while True:
                status = self.step()
                if status == "done":
                    return self.report
                if status == "ran":
                    idle_since = None
                    continue
                now = _time.monotonic()
                if idle_since is None:
                    idle_since = now
                elif (self.max_wait is not None
                        and now - idle_since > self.max_wait):
                    raise SamplingError(
                        f"fleet worker {self.host} idle for more than "
                        f"{self.max_wait}s with tasks still leased "
                        f"elsewhere")
                _time.sleep(self.poll_interval)
        finally:
            self._journal.close()

    def close(self) -> None:
        self._journal.close()


def fleet_worker(fleet_dir: PathLike, host: Optional[str] = None,
                 lease_seconds: float = DEFAULT_LEASE_SECONDS,
                 max_wait: Optional[float] = None) -> FleetWorkerReport:
    """Convenience wrapper: run one worker until the fleet completes."""
    return FleetWorker(fleet_dir, host=host, lease_seconds=lease_seconds,
                       max_wait=max_wait).run()


# ------------------------------------------------------------- coordinator


def _host_names(fleet_dir: Path) -> List[str]:
    hosts_dir = fleet_dir / HOSTS_DIR
    if not hosts_dir.is_dir():
        return []
    return sorted(entry.name for entry in hosts_dir.iterdir()
                  if (entry / JOURNAL_NAME).exists())


def _scan_hosts(fleet_dir: Path
                ) -> Tuple[Dict[int, TaskOutcome], Dict[int, str], int]:
    """Latest journaled outcome per task, host-deterministically.

    Hosts are visited in sorted order and the first host holding an
    outcome for an index wins the tie (duplicate executions are
    deterministic in every merged field, so the tie-break only pins
    *telemetry* attribution, not results).  Torn host-journal tails are
    skipped by the valid-prefix scan; the quarantined line count is
    summed for observability.
    """
    outcomes: Dict[int, TaskOutcome] = {}
    owners: Dict[int, str] = {}
    quarantined = 0
    for host in _host_names(fleet_dir):
        scan = scan_journal(fleet_dir / HOSTS_DIR / host / JOURNAL_NAME)
        quarantined += scan.quarantined_lines
        for index, outcome in scan.outcomes().items():
            if index not in outcomes:
                outcomes[index] = outcome
                owners[index] = host
    return outcomes, owners, quarantined


def _coordinator_rerun(fleet_dir: Path, missing: List[SweepTask],
                       host: str) -> Dict[int, TaskOutcome]:
    """Run uncovered tasks inline on the coordinator, journaled.

    The coordinator is just another (privileged) host: it claims each
    missing task through the same lease protocol — stealing whatever
    expired lease a dead worker left — so its work is visible to any
    stragglers and survives its own crash in its host WAL.
    """
    worker = FleetWorker(fleet_dir, host=host, heartbeat=False)
    fresh: Dict[int, TaskOutcome] = {}
    try:
        for task in missing:
            claim = worker.try_claim(task.index)
            if claim is None:
                # raced a surviving worker; its journal will cover it
                continue
            fresh[task.index] = worker.run_claimed(claim)
    finally:
        worker.close()
    return fresh


def fleet_coordinate(
    fleet_dir: PathLike,
    wait: bool = True,
    timeout: Optional[float] = None,
    poll_interval: float = 0.05,
    grace: float = 2.0,
    coordinator_host: str = "coordinator",
    clock: Callable[[], float] = _time.time,
) -> SweepResult:
    """Merge a fleet's per-host results into one :class:`SweepResult`.

    Waits (bounded by ``timeout`` seconds) until every task is covered
    by a completion marker or a journaled outcome, then performs the
    deterministic task-index-order merges.  The wait is *liveness
    aware*: as long as some uncovered task holds an unexpired lease, or
    coverage grew within the last ``grace`` seconds, workers are
    assumed alive and the coordinator just polls.  Once the fleet goes
    quiet — no live leases, no progress — the coordinator claims the
    remaining tasks through the same lease protocol (stealing whatever
    expired leases dead hosts left) and runs them inline, journaled
    into its own host WAL.  A fleet with zero workers therefore still
    completes; it just runs serially on the coordinator.

    ``wait=False`` skips the polling phase entirely: the coordinator
    immediately self-runs whatever is uncovered and unleased.

    Idempotent: coordinate, crash, coordinate again — replayed journal
    prefixes and first-write-wins staging folds give the identical
    result, bitwise-equal to a single-host inline run of the plan.
    """
    fleet_dir = Path(fleet_dir)
    tasks = load_manifest(fleet_dir)
    t0 = _time.perf_counter()
    deadline = (None if timeout is None
                else _time.monotonic() + timeout)

    def covered_indices() -> set:
        covered = set(_scan_hosts(fleet_dir)[0])
        for task in tasks:
            if task.index not in covered \
                    and read_done(fleet_dir, task.index) is not None:
                covered.add(task.index)
        return covered

    def lease_live(index: int) -> bool:
        lease = read_lease(fleet_dir, index)
        if lease is None:
            return False
        try:
            return float(lease["deadline"]) > clock()
        except (KeyError, TypeError, ValueError):
            return False

    progressed_at = _time.monotonic()
    seen_covered = -1
    while wait:
        covered = covered_indices()
        missing_now = [t for t in tasks if t.index not in covered]
        if not missing_now:
            break
        now = _time.monotonic()
        if len(covered) > seen_covered:
            seen_covered = len(covered)
            progressed_at = now
        if deadline is not None and now > deadline:
            break
        alive = any(lease_live(t.index) for t in missing_now)
        if not alive and now - progressed_at >= grace:
            break  # fleet is quiet: take over the remainder
        current_bus().emit(SWEEP_FLEET,
                           _sanitize_host(coordinator_host), "wait",
                           -1, len(missing_now))
        _time.sleep(poll_interval)

    fresh: Dict[int, TaskOutcome] = {}
    while True:
        outcomes_by_index, owners, quarantined = _scan_hosts(fleet_dir)
        missing = [task for task in tasks
                   if task.index not in outcomes_by_index]
        if not missing:
            break
        newly = _coordinator_rerun(fleet_dir, missing,
                                   _sanitize_host(coordinator_host))
        fresh.update(newly)
        if len(newly) == len(missing):
            continue  # rescan picks the fresh outcomes up and exits
        # some claims were refused: a surviving worker holds a live
        # lease.  Either it journals an outcome (next rescan sees it)
        # or its lease expires (next rerun steals it) — so poll,
        # bounded by the caller's timeout.
        still = [t.index for t in missing if t.index not in newly]
        if not wait or (deadline is not None
                        and _time.monotonic() > deadline):
            raise SamplingError(
                f"fleet incomplete: tasks {still} are leased by live "
                f"workers that have not journaled an outcome; re-run "
                f"--coordinate (or raise the timeout)")
        _time.sleep(poll_interval)

    staging_root = fleet_dir / STAGING_DIR
    host_stages = (sorted(p for p in staging_root.iterdir() if p.is_dir())
                   if staging_root.is_dir() else [])
    hosts = {outcome.host for outcome in outcomes_by_index.values()
             if outcome.host}
    report = RunReport(jobs=max(1, len(hosts)), mp_context="fleet")
    result = assemble_result(tasks, outcomes_by_index, fresh, report,
                             staging_roots=host_stages)
    report.total_wall = _time.perf_counter() - t0   # the merge included
    bus = current_bus()
    bus.emit(SWEEP_FLEET, _sanitize_host(coordinator_host), "merge",
             -1, len(hosts))
    bus.metrics.counter("fleet.merges").inc()
    if quarantined:
        bus.metrics.counter("fleet.journal.quarantined").inc(quarantined)
    return result
