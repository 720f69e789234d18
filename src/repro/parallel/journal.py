"""DuraSweep: a write-ahead journal making sweeps crash-safe.

A killed sweep — worker crash, OOM-kill, host loss, ENOSPC — used to
lose every completed cell except staged trace bundles and restart from
zero.  The journal closes that gap: ``run_sweep(..., run_dir=D)``
appends one self-checksummed JSONL record per scheduling decision and
per completed task to ``D/journal.jsonl``, each fsync'd before the
sweep moves on (:func:`repro.durable.durable_append`), and
``resume_sweep(D)`` replays the completed tasks from the journal and
re-runs only the missing or failed ones.

Record taxonomy (field ``rec``):

``plan``
    First record of every journal: the serialized task list
    (:meth:`SweepTask.to_dict`).  Resume re-derives the exact plan
    from it — no CLI arguments needed.
``scheduled``
    A task was handed to a worker (or is about to run inline).  Purely
    forensic: a ``scheduled`` without a matching outcome marks the
    task that was in flight when the run died.
``done`` / ``failed``
    A task finished; the full :meth:`TaskOutcome.to_dict` payload rides
    along (simulated result, store/kernel-db payloads, telemetry), so
    replay needs no re-execution.  ``failed`` tasks are re-run on
    resume — a deterministic failure reproduces the same failed row,
    so the merged result stays bitwise-identical either way.
``merged``
    The sweep completed and staged trace bundles were folded into the
    canonical store.  Resuming a ``merged`` journal replays everything
    and re-runs nothing.

Integrity model: the journal is a :class:`repro.durable.RecordLog` —
sealed records, valid-prefix reads (:func:`scan_journal` stops at the
first torn or corrupt line; the rest is the *quarantined tail*), and
:meth:`SweepJournal.resume` moves that tail to ``journal.quarantined``
before appending.  Because the deterministic task-order merge is
order-independent, a resumed sweep's rows, merged stores and trace
bundles are bitwise-identical to an uninterrupted run — the invariant
the chaos harness (``scripts/chaos_sweep.py``) proves from arbitrary
kill points.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..durable import LogScan, RecordLog
from ..errors import ConfigError, SamplingError
from ..obs import SWEEP_JOURNAL, current_bus
from .tasks import SweepTask, TaskOutcome

PathLike = Union[str, Path]

#: file names inside a run directory
JOURNAL_NAME = "journal.jsonl"
QUARANTINE_NAME = "journal.quarantined"

_FORMAT_VERSION = 1
_SUPPORTED_VERSIONS = (1,)

#: record kinds (the ``rec`` field)
REC_PLAN = "plan"
REC_SCHEDULED = "scheduled"
REC_DONE = "done"
REC_FAILED = "failed"
REC_MERGED = "merged"


class JournalScan(LogScan):
    """A journal's valid prefix, read as a sweep: plan, tasks, outcomes."""

    @property
    def complete(self) -> bool:
        """Whether the journaled sweep ran to its final merge."""
        return any(r.get("rec") == REC_MERGED for r in self.records)

    def plan_record(self) -> Optional[Dict[str, object]]:
        if self.records and self.records[0].get("rec") == REC_PLAN:
            return self.records[0]
        return None

    def tasks(self) -> List[SweepTask]:
        """Rebuild the journaled sweep plan."""
        plan = self.plan_record()
        if plan is None:
            raise SamplingError(
                "journal has no valid plan record; nothing to resume")
        try:
            return [SweepTask.from_dict(d) for d in plan["tasks"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise SamplingError(
                f"journal plan record is malformed: {exc}") from exc

    def outcomes(self) -> Dict[int, TaskOutcome]:
        """Latest journaled outcome per task index, replay order.

        A later record for the same index wins (a failed attempt that
        was re-journaled after a pool rebuild, say), matching what an
        uninterrupted run would have reported.
        """
        found: Dict[int, TaskOutcome] = {}
        for record in self.records:
            if record.get("rec") not in (REC_DONE, REC_FAILED):
                continue
            try:
                outcome = TaskOutcome.from_dict(record["outcome"])
            except (KeyError, TypeError, ValueError):
                continue
            found[outcome.index] = outcome
        return found


def scan_journal(path: PathLike) -> JournalScan:
    """Replay the longest valid prefix of a journal; never raises.
    A missing file scans as an empty journal."""
    return JournalScan(**vars(RecordLog(path, "sweep.journal").scan()))


class SweepJournal(RecordLog):
    """Single-writer append-only WAL for one sweep run directory."""

    def __init__(self, run_dir: PathLike):
        super().__init__(Path(run_dir) / JOURNAL_NAME, "sweep.journal")
        self.records_written = 0

    @classmethod
    def create(cls, run_dir: PathLike,
               tasks: List[SweepTask]) -> "SweepJournal":
        """Start a fresh journal: directory, file, fsync'd plan record.

        Refuses to overwrite an existing journal — a run directory
        holds exactly one sweep's history; resume it or pick a new one.
        """
        journal = cls(run_dir)
        if journal.path.exists():
            raise ConfigError(
                f"{journal.path} already exists; resume it with --resume "
                f"or choose a fresh --run-dir")
        journal.append({
            "rec": REC_PLAN,
            "version": _FORMAT_VERSION,
            "tasks": [task.to_dict() for task in tasks],
        })
        return journal

    @classmethod
    def resume(cls, run_dir: PathLike) -> Tuple["SweepJournal",
                                                JournalScan]:
        """Reopen a journal for appending after a crash.

        Checks the valid prefix holds a supported plan before touching
        the file, then recovers it (tail to ``journal.quarantined``,
        journal truncated to the prefix), so subsequent appends extend
        a consistent log.
        """
        journal = cls(run_dir)
        path = journal.path
        scan = scan_journal(path)
        plan = scan.plan_record()
        if plan is None:
            raise SamplingError(
                f"{path}: no valid plan record; not a resumable sweep "
                f"journal")
        if plan.get("version") not in _SUPPORTED_VERSIONS:
            raise SamplingError(
                f"{path}: unsupported journal version "
                f"{plan.get('version')!r} "
                f"(supported: {_SUPPORTED_VERSIONS})")
        journal.recover()
        return journal, scan

    # -- appends -----------------------------------------------------------

    def append(self, record: Dict[str, object]) -> int:
        """Durably append one record (sealed, fsync'd)."""
        written = super().append(record)
        self.records_written += 1
        bus = current_bus()
        bus.emit(SWEEP_JOURNAL, record.get("rec", "?"),
                 record.get("index", -1), written)
        bus.metrics.counter("sweep.journal.records").inc()
        return written

    def task_scheduled(self, task: SweepTask) -> None:
        self.append({"rec": REC_SCHEDULED, "index": task.index})

    def task_outcome(self, outcome: TaskOutcome) -> None:
        self.append({
            "rec": REC_DONE if outcome.ok else REC_FAILED,
            "index": outcome.index,
            "outcome": outcome.to_dict(),
        })

    def merged(self, trace_merge: Optional[Dict[str, int]]) -> None:
        self.append({"rec": REC_MERGED, "trace_merge": trace_merge})
