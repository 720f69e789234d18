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

Integrity model: every record carries a SHA-256 ``checksum`` over its
canonical JSON encoding.  :func:`scan_journal` replays the longest
valid prefix and stops at the first torn or corrupt line — everything
after it is the *quarantined tail* (a crash mid-append, a truncated
file, bit rot).  :meth:`SweepJournal.resume` moves the tail bytes to
``journal.quarantined`` and truncates the journal back to its valid
prefix before appending, so one interrupted append never poisons the
log.  Because the deterministic task-order merge is order-independent,
a resumed sweep's rows, merged stores and trace bundles are
bitwise-identical to an uninterrupted run — the invariant the chaos
harness (``scripts/chaos_sweep.py``) proves from arbitrary kill
points.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..durable import (
    canonical_json,
    durable_append,
    fsync_dir,
    parse_record,
    payload_checksum,
)
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


def encode_record(record: Dict[str, object]) -> bytes:
    """One checksummed JSONL line for ``record`` (excluding checksum)."""
    body = dict(record)
    body["checksum"] = payload_checksum(body)
    return canonical_json(body) + b"\n"


def decode_line(line: bytes) -> Optional[Dict[str, object]]:
    """Parse and verify one journal line; None if torn or corrupt."""
    record = parse_record(line)
    if record is None or record.get("checksum") != payload_checksum(record):
        return None
    return record


@dataclass
class JournalScan:
    """The valid prefix of a journal plus quarantined-tail accounting."""

    records: List[Dict[str, object]]
    valid_bytes: int        # offset just past the last valid line
    quarantined_bytes: int  # tail bytes after the valid prefix
    quarantined_lines: int  # (partial) lines inside the tail

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

    Scanning stops at the first line that is torn (no trailing
    newline), unparsable, or fails its checksum — valid-prefix
    semantics.  A missing file scans as an empty journal.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError:
        return JournalScan([], 0, 0, 0)
    records: List[Dict[str, object]] = []
    offset = 0
    while True:
        newline = raw.find(b"\n", offset)
        if newline < 0:
            break
        record = decode_line(raw[offset:newline])
        if record is None:
            break
        records.append(record)
        offset = newline + 1
    tail = raw[offset:]
    lines = tail.count(b"\n")
    if tail and not tail.endswith(b"\n"):
        lines += 1
    return JournalScan(records, offset, len(tail), lines)


class SweepJournal:
    """Single-writer append-only WAL for one sweep run directory."""

    def __init__(self, path: Path, handle):
        self.path = path
        self._handle = handle
        self.records_written = 0

    @classmethod
    def create(cls, run_dir: PathLike,
               tasks: List[SweepTask]) -> "SweepJournal":
        """Start a fresh journal: directory, file, fsync'd plan record.

        Refuses to overwrite an existing journal — a run directory
        holds exactly one sweep's history; resume it or pick a new one.
        """
        run_dir = Path(run_dir)
        run_dir.mkdir(parents=True, exist_ok=True)
        path = run_dir / JOURNAL_NAME
        if path.exists():
            raise ConfigError(
                f"{path} already exists; resume it with --resume or "
                f"choose a fresh --run-dir")
        handle = open(path, "ab")
        fsync_dir(run_dir)  # the journal's directory entry must survive
        journal = cls(path, handle)
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

        Scans the valid prefix, moves any quarantined tail bytes to
        ``journal.quarantined`` and truncates the journal back to the
        prefix, so subsequent appends extend a consistent log.
        """
        run_dir = Path(run_dir)
        path = run_dir / JOURNAL_NAME
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
        if scan.quarantined_bytes:
            raw = path.read_bytes()
            tail = raw[scan.valid_bytes:]
            quarantine = run_dir / QUARANTINE_NAME
            with open(quarantine, "ab") as qhandle:
                qhandle.write(tail)
                qhandle.flush()
                os.fsync(qhandle.fileno())
            with open(path, "r+b") as jhandle:
                jhandle.truncate(scan.valid_bytes)
                jhandle.flush()
                os.fsync(jhandle.fileno())
            fsync_dir(run_dir)
        handle = open(path, "ab")
        return cls(path, handle), scan

    # -- appends -----------------------------------------------------------

    def append(self, record: Dict[str, object]) -> None:
        """Durably append one record (checksummed, fsync'd)."""
        data = encode_record(record)
        written = durable_append(self._handle, data, self.path,
                                 site="sweep.journal")
        self.records_written += 1
        bus = current_bus()
        bus.emit(SWEEP_JOURNAL, record.get("rec", "?"),
                 record.get("index", -1), written)
        bus.metrics.counter("sweep.journal.records").inc()

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

    def close(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            finally:
                self._handle = None
