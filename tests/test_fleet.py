"""FleetSweep: multi-host work-stealing sweeps, determinism-first.

The invariant (``docs/parallel.md``, "Multi-host fleets"): a fleet of
N workers pulling leased tasks from a shared directory, merged by the
coordinator in task-index order, produces a deterministic comparison
table — and merged trace-store bundles — bitwise-identical to
``run_sweep(tasks, jobs=1)`` on one host.  Tested here at three
granularities:

* lease-protocol units: fresh claims, held-lease refusal, the
  expired-lease double-claim race (exactly one winner, the loser
  re-queues), clock-skewed heartbeats with benign duplicate execution,
  quarantined host-WAL tails;
* coordinator behaviour: zero-worker completion, idempotent re-merge,
  crash-mid-merge recovery against injected fs faults;
* the seeded schedule property: 50 random (worker-count, ghost-lease,
  interleaving, crash-point) schedules, each bitwise-equal to the
  inline run — a fast subset on every PR, the full sweep nightly
  (``-m slow``); the subprocess version lives in
  ``scripts/fleet_smoke.py`` and ``scripts/chaos_sweep.py``.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.cli import main
from repro.durable import write_sealed
from repro.errors import ConfigError, SamplingError
from repro.harness.tables import comparison_table
from repro.parallel import (
    FleetWorker,
    fleet_coordinate,
    fleet_init,
    fleet_worker,
    load_manifest,
    plan_sweep,
    run_sweep,
)
from repro.parallel.fleet import (
    MANIFEST_NAME,
    read_done,
    read_lease,
    write_lease,
)
from repro.parallel.journal import JOURNAL_NAME
from repro.parallel.tasks import run_task
from repro.reliability import FsFaultPlan, FsFaultSpec, scoped_fs_faults
from repro.tracestore import TraceStore

from conftest import old_records

SIZES = (64,)


def _flip(path, old, new):
    """Rewrite one value in a sealed file in place: still JSON, but its
    checksum no longer verifies (bit rot)."""
    raw = path.read_bytes()
    assert old in raw
    path.write_bytes(raw.replace(old, new, 1))


def _plan(workloads=("fir",), **kwargs):
    return plan_sweep(list(workloads), sizes=SIZES, methods=("photon",),
                      seed=7, **kwargs)


def _det(result):
    return comparison_table(result.rows, deterministic=True)


def _store_digest(root):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(root).glob("*.trc"))}


# ------------------------------------------------------------- manifest


def test_fleet_init_writes_loadable_manifest(tmp_path):
    tasks = _plan(("fir", "relu"))
    fleet_init(tmp_path / "fleet", tasks)
    loaded = load_manifest(tmp_path / "fleet")
    assert [t.to_dict() for t in loaded] == [t.to_dict() for t in tasks]


def test_manifest_with_retired_functional_key_loads(tmp_path):
    """A manifest written while tasks still serialized the
    functional-batching switch, and the manifest a merge-conflict
    option, loads as the same plan."""
    import json

    from repro.durable import payload_checksum

    tasks = _plan()
    fleet_init(tmp_path / "fleet", tasks)
    manifest = tmp_path / "fleet" / MANIFEST_NAME
    body = json.loads(manifest.read_bytes())
    del body["checksum"]
    for task in body["tasks"]:
        task["photon"]["batched" + "_functional"] = False
    body["options"] = {"on_" + "conflict": "keep"}
    body["checksum"] = payload_checksum(body)
    manifest.write_text(json.dumps(body, sort_keys=True))
    loaded = load_manifest(tmp_path / "fleet")
    assert [t.to_dict() for t in loaded] == [t.to_dict() for t in tasks]


def _coordinates_to_its_table(tmp_path, name):
    """A fleet whose manifest and host WAL are those of
    ``tests/golden/<name>.json`` coordinates to the table recorded with
    them, byte for byte: task 0 replays from host w1's old outcome, the
    rest run from the old task records."""
    era, plan = old_records(name)
    fleet = tmp_path / "fleet"
    (fleet / "hosts" / "w1").mkdir(parents=True)
    (fleet / MANIFEST_NAME).write_text(era["fleet_manifest"])
    (fleet / "hosts" / "w1" / JOURNAL_NAME).write_text(
        "".join(line + "\n" for line in era["host_journal"]))
    assert load_manifest(fleet) == plan
    result = fleet_coordinate(fleet, grace=0.05)
    assert _det(result) == era["table"]
    assert result.replayed == 1


def test_retry_era_fleet_coordinates_to_its_table(tmp_path):
    """Written while tasks carried an in-task retry block and outcomes
    ``attempts`` / ``backoff_total``."""
    _coordinates_to_its_table(tmp_path, "retry_era_records")


def test_six_knob_watchdog_fleet_coordinates_to_its_table(tmp_path):
    """Written while every task's watchdog block carried the four knobs
    ``WatchdogConfig`` has since lost."""
    _coordinates_to_its_table(tmp_path, "six_knob_watchdog_records")


def test_fleet_init_refuses_reuse(tmp_path):
    fleet_init(tmp_path / "fleet", _plan())
    with pytest.raises(ConfigError, match="already exists"):
        fleet_init(tmp_path / "fleet", _plan())


def test_fleet_init_refuses_empty_plan(tmp_path):
    with pytest.raises(ConfigError, match="empty"):
        fleet_init(tmp_path / "fleet", [])


def test_load_manifest_missing_and_corrupt(tmp_path):
    with pytest.raises(SamplingError, match="no fleet manifest"):
        load_manifest(tmp_path / "nowhere")
    fleet_init(tmp_path / "fleet", _plan())
    manifest = tmp_path / "fleet" / MANIFEST_NAME
    manifest.write_bytes(manifest.read_bytes()[:-20] + b"xxxxx")
    with pytest.raises(SamplingError):
        load_manifest(tmp_path / "fleet")
    fleet_init(tmp_path / "flipped", _plan())
    _flip(tmp_path / "flipped" / MANIFEST_NAME, b'"seed":7', b'"seed":8')
    with pytest.raises(SamplingError, match="checksum"):
        load_manifest(tmp_path / "flipped")


# ------------------------------------------------------- lease protocol


def _worker(fleet, host, **kwargs):
    kwargs.setdefault("heartbeat", False)
    return FleetWorker(fleet, host=host, **kwargs)


def test_fresh_claim_runs_and_marks_done(tmp_path):
    fleet = fleet_init(tmp_path / "fleet", _plan())
    w = _worker(fleet, "alpha")
    claim = w.try_claim(0)
    assert claim is not None and not claim.stolen
    assert claim.generation == 0
    outcome = w.run_claimed(claim)
    assert outcome.ok and outcome.host == "alpha"
    assert read_done(fleet, 0)["host"] == "alpha"
    # a completed task is never claimable again, by anyone
    assert _worker(fleet, "beta")._claimable(0) is None
    w.close()
    # a done marker that fails its checksum is no marker
    _flip(fleet / "leases" / "task-00000000" / "done.json",
          b'"alpha"', b'"alphb"')
    assert read_done(fleet, 0) is None


def test_live_foreign_lease_is_refused(tmp_path):
    fleet = fleet_init(tmp_path / "fleet", _plan())
    w = _worker(fleet, "alpha", clock=lambda: 100.0)
    write_lease(fleet, 0, "other", deadline=1000.0)
    assert w.try_claim(0) is None
    assert w.report.lost_races == 0  # refusal, not a lost race
    assert w.step() == "ran"  # skips task 0, runs the next free task
    assert 0 not in w._completed
    assert w.step() == "idle"  # only the held task remains
    w.close()


def test_expired_lease_is_stolen_at_next_generation(tmp_path):
    fleet = fleet_init(tmp_path / "fleet", _plan())
    write_lease(fleet, 0, "ghost", deadline=50.0, generation=3)
    w = _worker(fleet, "alpha", clock=lambda: 100.0)
    claim = w.try_claim(0)
    assert claim is not None and claim.stolen
    assert claim.generation == 4
    w.run_claimed(claim)
    assert w.report.stolen == 1
    assert read_done(fleet, 0)["stolen"] is True
    w.close()


def test_expired_double_claim_race_has_exactly_one_winner(tmp_path):
    """Two hosts race for the same expired lease; os.replace decides."""
    fleet = fleet_init(tmp_path / "fleet", _plan())
    write_lease(fleet, 0, "ghost", deadline=1.0)
    a = _worker(fleet, "alpha", clock=lambda: 100.0)
    b = _worker(fleet, "beta", clock=lambda: 100.0)
    # interleave the claim protocol by hand: both see the expired
    # lease, both write a claim, b's atomic replace lands last
    assert a._claimable(0) == (1, True)
    assert b._claimable(0) == (1, True)
    nonce_a = a._write_claim(0, 1)
    nonce_b = b._write_claim(0, 1)
    wins = [a._verify_claim(0, nonce_a), b._verify_claim(0, nonce_b)]
    assert wins == [False, True]  # exactly one complete claim survives
    assert read_lease(fleet, 0)["owner"] == "beta"
    a.close(), b.close()


def test_lost_race_requeues_and_is_counted(tmp_path):
    fleet = fleet_init(tmp_path / "fleet", _plan(("fir", "relu")))
    a = _worker(fleet, "alpha", clock=lambda: 100.0)
    b = _worker(fleet, "beta", clock=lambda: 100.0)
    original = a._write_claim

    def raced(index, generation):
        nonce = original(index, generation)
        b._write_claim(index, generation)  # beta lands after alpha
        return nonce

    a._write_claim = raced
    assert a.try_claim(0) is None
    assert a.report.lost_races == 1
    a._write_claim = original
    # the loser re-queues: task 0 is now validly leased by beta, so
    # alpha's next step skips it and claims the next free task instead
    assert a.step() == "ran"
    assert 0 not in a._completed and a.report.ran == 1
    a.close(), b.close()


def test_clock_skew_duplicate_execution_is_golden(tmp_path):
    """A fast-clocked host steals a live task; both run it; still golden.

    Host ``beta``'s clock is hours ahead, so alpha's perfectly healthy
    lease looks expired and beta steals it.  Alpha, unaware, finishes
    its run too.  Duplicate execution is benign by construction:
    deterministic tasks, per-host journals, order-independent
    first-write-wins merges.
    """
    golden_store = tmp_path / "golden-store"
    golden = run_sweep(_plan(("fir", "relu"),
                             trace_store=str(golden_store)))
    store = tmp_path / "store"
    fleet = fleet_init(tmp_path / "fleet",
                       _plan(("fir", "relu"), trace_store=str(store)))
    a = _worker(fleet, "alpha", clock=lambda: 100.0, lease_seconds=60.0)
    b = _worker(fleet, "beta", clock=lambda: 90000.0)
    claim_a = a.try_claim(0)
    assert claim_a is not None and not claim_a.stolen
    claim_b = b.try_claim(0)  # alpha's deadline=160 < beta's clock
    assert claim_b is not None and claim_b.stolen
    a.run_claimed(claim_a)  # alpha doesn't know it was robbed
    b.run_claimed(claim_b)
    while b.step() == "ran":  # beta mops up the rest of the plan
        pass
    assert b.report.stolen == 1
    a.close(), b.close()
    result = fleet_coordinate(fleet, grace=0.05)
    assert _det(result) == _det(golden)
    assert _store_digest(store) == _store_digest(golden_store)
    # both hosts executed task 0; the merge keeps exactly one outcome
    # per task (sorted-host tie-break) and one staged copy per bundle
    assert len(result.outcomes) == len(golden.outcomes)
    assert result.report.hosts == 2


def test_heartbeat_extends_deadline_and_keeps_nonce(tmp_path):
    import threading
    import time

    fleet = fleet_init(tmp_path / "fleet", _plan())
    w = FleetWorker(fleet, host="alpha", lease_seconds=0.2,
                    heartbeat=True)
    claim = w.try_claim(0)
    first = read_lease(fleet, 0)
    stop = threading.Event()
    beat = threading.Thread(target=w._heartbeat_loop,
                            args=(claim, stop, 0.01), daemon=True)
    beat.start()
    deadline = time.monotonic() + 5.0
    try:
        while time.monotonic() < deadline:
            lease = read_lease(fleet, 0)
            if lease["deadline"] > first["deadline"]:
                break
            time.sleep(0.01)
    finally:
        stop.set()
        beat.join()
    lease = read_lease(fleet, 0)
    assert lease["deadline"] > first["deadline"]  # refreshed
    assert lease["nonce"] == first["nonce"]       # same claim
    assert lease["generation"] == first["generation"]
    w.close()


def test_heartbeat_abandons_a_stolen_lease(tmp_path):
    fleet = fleet_init(tmp_path / "fleet", _plan())
    w = FleetWorker(fleet, host="alpha", lease_seconds=0.2,
                    heartbeat=True)
    claim = w.try_claim(0)
    stolen_nonce = write_lease(fleet, 0, "thief", deadline=1e12,
                               generation=claim.generation + 1)
    import threading
    stop = threading.Event()
    beat = threading.Thread(target=w._heartbeat_loop,
                            args=(claim, stop, 0.01), daemon=True)
    beat.start()
    beat.join(timeout=5.0)  # exits on its own: the nonce changed
    assert not beat.is_alive()
    assert read_lease(fleet, 0)["nonce"] == stolen_nonce
    w.close()


def test_own_stale_lease_reclaimed_not_stolen(tmp_path):
    """A restarted host takes its own expired lease back as a reclaim."""
    fleet = fleet_init(tmp_path / "fleet", _plan())
    write_lease(fleet, 0, "alpha", deadline=50.0, generation=2)
    w = _worker(fleet, "alpha", clock=lambda: 100.0)
    assert w._claimable(0) == (3, False)
    # even while the lease is nominally alive: it is *ours*
    write_lease(fleet, 0, "alpha", deadline=1000.0, generation=2)
    assert w._claimable(0) == (3, False)
    w.close()


def test_unreadable_lease_never_blocks_the_fleet(tmp_path):
    fleet = fleet_init(tmp_path / "fleet", _plan())
    lease_path = fleet / "leases" / "task-00000000" / "lease.json"
    w = _worker(fleet, "alpha")
    # garbage bytes read back as "no lease": a fresh gen-0 claim
    write_lease(fleet, 0, "ghost", deadline=1e12)
    lease_path.write_bytes(b"\x00 not json \xff")
    assert w._claimable(0) == (0, False)
    # ...and so does a flipped value byte: the checksum fails
    write_lease(fleet, 0, "ghost", deadline=1e12)
    _flip(lease_path, b'"ghost"', b'"ghosu"')
    assert read_lease(fleet, 0) is None
    assert w._claimable(0) == (0, False)
    # a well-formed record with mangled fields is stolen outright
    write_sealed(lease_path, {"owner": "ghost", "deadline": "whenever"},
                 site="fleet.lease")
    assert w._claimable(0) == (1, True)
    w.close()


def test_worker_validates_lease_seconds_and_host(tmp_path):
    fleet = fleet_init(tmp_path / "fleet", _plan())
    with pytest.raises(ConfigError, match="lease_seconds"):
        FleetWorker(fleet, host="alpha", lease_seconds=-1.0)
    with pytest.raises(ConfigError, match="host"):
        FleetWorker(fleet, host="..")


def test_idle_worker_times_out_with_max_wait(tmp_path):
    fleet = fleet_init(tmp_path / "fleet", _plan())
    write_lease(fleet, 0, "other", deadline=1e12)  # held forever
    w = FleetWorker(fleet, host="alpha", heartbeat=False,
                    poll_interval=0.01, max_wait=0.05)
    with pytest.raises(SamplingError, match="idle"):
        w.run()


# ------------------------------------------------------ host WAL resume


def test_quarantined_host_journal_tail_recovers(tmp_path):
    """Torn WAL tail: the restarted host quarantines it and continues."""
    golden = run_sweep(_plan(("fir", "relu")))
    fleet = fleet_init(tmp_path / "fleet", _plan(("fir", "relu")))
    w = _worker(fleet, "alpha")
    assert w.step() == "ran"
    w.close()
    journal = fleet / "hosts" / "alpha" / JOURNAL_NAME
    with journal.open("ab") as handle:
        handle.write(b'{"torn mid-append')  # host died writing this
    restarted = _worker(fleet, "alpha")
    assert 0 in restarted._completed  # valid prefix replayed
    restarted.run()
    result = fleet_coordinate(fleet, grace=0.05)
    assert _det(result) == _det(golden)
    # the quarantined line is skipped, not fatal, and the merge is
    # still complete: every task has exactly one outcome row
    assert len(result.outcomes) == len(golden.outcomes)


# --------------------------------------------------------- coordinator


def test_coordinator_only_fleet_completes(tmp_path):
    """Zero workers: the coordinator self-runs the whole plan."""
    golden = run_sweep(_plan(("fir", "relu")))
    fleet = fleet_init(tmp_path / "fleet", _plan(("fir", "relu")))
    result = fleet_coordinate(fleet, grace=0.05)
    assert _det(result) == _det(golden)
    assert result.report.mp_context == "fleet"
    assert result.report.hosts == 1  # the coordinator itself
    assert result.replayed == 0      # nothing pre-existed


def test_coordinate_is_idempotent(tmp_path):
    fleet = fleet_init(tmp_path / "fleet", _plan())
    first = fleet_coordinate(fleet, grace=0.05)
    again = fleet_coordinate(fleet, grace=0.05)
    assert _det(again) == _det(first)
    assert again.replayed == len(first.outcomes)  # pure journal replay


def test_coordinator_crash_mid_merge_then_recoordinate(tmp_path):
    """Kill the merge with an injected fs fault; re-coordinate; golden."""
    golden_store = tmp_path / "golden-store"
    golden = run_sweep(_plan(("fir", "relu"),
                             trace_store=str(golden_store)))
    store = tmp_path / "store"
    fleet = fleet_init(tmp_path / "fleet",
                       _plan(("fir", "relu"), trace_store=str(store)))
    fleet_worker(fleet, host="w0")  # a worker covers the whole plan
    plan = FsFaultPlan(FsFaultSpec(site="tracestore.bundle",
                                   mode="torn", at=1))
    with pytest.raises(Exception):
        with scoped_fs_faults(plan):
            fleet_coordinate(fleet, grace=0.05)
    result = fleet_coordinate(fleet, grace=0.05)
    assert _det(result) == _det(golden)
    assert _store_digest(store) == _store_digest(golden_store)


def test_fleet_report_telemetry_and_summary(tmp_path):
    fleet = fleet_init(tmp_path / "fleet", _plan(("fir", "relu")))
    write_lease(fleet, 0, "ghost", deadline=1.0)  # force one steal
    fleet_worker(fleet, host="w1")
    result = fleet_coordinate(fleet, grace=0.05)
    report = result.report
    assert report.steals == 1
    rows = report.host_rows()
    assert [r["host"] for r in rows] == sorted(r["host"] for r in rows)
    assert sum(r["tasks"] for r in rows) == len(result.outcomes)
    assert sum(r["stolen"] for r in rows) == 1
    assert "fleet:" in report.summary()
    payload = json.dumps(report.to_dict())  # JSON-safe end to end
    assert '"steals": 1' in payload


# ------------------------------------------- multi-root staging merges


def test_merge_staged_multi_root_first_write_wins(tmp_path):
    """Two hosts staged the same tasks; the merge folds one copy."""
    golden_store = tmp_path / "golden-store"
    run_sweep(_plan(trace_store=str(golden_store)))
    root = tmp_path / "store"
    tasks = _plan(trace_store=str(root))
    stage_a = tmp_path / "staging" / "host-a"
    stage_b = tmp_path / "staging" / "host-b"
    for task in tasks:
        run_task(task, stage_dir=str(stage_a / f"task-{task.index:08d}"))
        run_task(task, stage_dir=str(stage_b / f"task-{task.index:08d}"))
    stats = TraceStore(root).merge_staged(
        staging_roots=[stage_a, stage_b])
    assert stats["quarantined"] == 0
    assert _store_digest(root) == _store_digest(golden_store)


# ------------------------------------- seeded schedule property (50x)


def _seeded_fleet_schedule(tmp_path, seed):
    """One random (workers, ghosts, interleaving, crash-point) schedule.

    Everything is driven in-process with injected clocks and explicit
    ``step()`` calls, so a failing seed replays exactly.  A "crash" is
    a worker that claims a task and never runs it; advancing the
    simulated clock past its lease deadline hands the task to a
    survivor as a steal.
    """
    rng = random.Random(seed)
    golden_store = tmp_path / "golden-store"
    golden = run_sweep(_plan(("fir", "relu"),
                             trace_store=str(golden_store)))
    store = tmp_path / "store"
    fleet = fleet_init(tmp_path / "fleet",
                       _plan(("fir", "relu"), trace_store=str(store)))
    n_tasks = len(load_manifest(fleet))
    clock = [100.0]
    for index in range(n_tasks):  # dead hosts left expired leases
        if rng.random() < 0.3:
            write_lease(fleet, index, "ghost", deadline=clock[0] - 1.0)
    n_workers = rng.randint(2, 4)
    workers = [
        FleetWorker(fleet, host=f"w{i}", heartbeat=False,
                    lease_seconds=rng.uniform(5.0, 30.0),
                    clock=lambda: clock[0])
        for i in range(n_workers)
    ]
    crash_step = (rng.randrange(1, 2 * n_tasks)
                  if rng.random() < 0.6 else None)
    alive = list(workers)
    steps = 0
    while True:
        steps += 1
        clock[0] += rng.uniform(0.0, 2.0)
        if crash_step is not None and steps == crash_step \
                and len(alive) > 1:
            victim = alive.pop(rng.randrange(len(alive)))
            for task in victim.tasks:  # claim one task, never run it
                if read_done(fleet, task.index) is None \
                        and victim.try_claim(task.index) is not None:
                    break
            victim.close()
            clock[0] += victim.lease_seconds + 1.0  # lease expires
            continue
        status = rng.choice(alive).step()
        if status == "done":
            break
        if status == "idle":
            clock[0] += 5.0  # let held leases expire instead of spinning
        assert steps < 200, "schedule failed to converge"
    for worker in workers:
        worker.close()
    result = fleet_coordinate(fleet, grace=0.05,
                              clock=lambda: clock[0])
    assert _det(result) == _det(golden), f"seed {seed} diverged"
    assert _store_digest(store) == _store_digest(golden_store), \
        f"seed {seed}: trace store diverged"
    assert len(result.outcomes) == len(golden.outcomes)


@pytest.mark.parametrize("seed", range(6))
def test_seeded_schedules_fast(tmp_path, seed):
    _seeded_fleet_schedule(tmp_path, seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(6, 50))
def test_seeded_schedules_full(tmp_path, seed):
    _seeded_fleet_schedule(tmp_path, seed)


# ----------------------------------------------------------------- CLI


def test_cli_fleet_roles_validated(capsys, tmp_path):
    assert main(["sweep", "relu", "--worker"]) == 2
    assert "--fleet-dir" in capsys.readouterr().err
    assert main(["sweep", "relu",
                 "--fleet-dir", str(tmp_path / "f")]) == 2
    assert "role" in capsys.readouterr().err
    assert main(["sweep", "relu", "--fleet-dir", str(tmp_path / "f"),
                 "--worker", "--coordinate"]) == 2
    assert "one fleet role" in capsys.readouterr().err


def test_cli_fleet_init_worker_coordinate_round_trip(capsys, tmp_path):
    fleet = str(tmp_path / "fleet")
    assert main(["sweep", "fir", "--sizes", "64", "--methods",
                 "photon", "--seed", "7",
                 "--fleet-dir", fleet, "--fleet-init"]) == 0
    out = capsys.readouterr().out
    assert "fleet" in out
    assert main(["sweep", "--fleet-dir", fleet, "--worker",
                 "--host-id", "cli-w1"]) == 0
    assert "cli-w1" in capsys.readouterr().out
    assert main(["sweep", "--fleet-dir", fleet, "--coordinate"]) == 0
    out = capsys.readouterr().out
    assert "fir" in out and "photon" in out  # the merged table
    golden = run_sweep(_plan())
    # the CLI-run fleet renders the same deterministic table the
    # library produces inline
    assert comparison_table(golden.rows, deterministic=True)


def test_cli_worker_rejects_workloads(capsys, tmp_path):
    fleet = str(tmp_path / "fleet")
    assert main(["sweep", "fir", "--sizes", "64", "--methods",
                 "photon", "--fleet-dir", fleet, "--fleet-init"]) == 0
    capsys.readouterr()
    assert main(["sweep", "relu", "--fleet-dir", fleet,
                 "--worker"]) == 2
    assert "worker" in capsys.readouterr().err.lower()
