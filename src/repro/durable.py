"""Crash-durable files and the one record format every writer shares.

Store files once used the classic "temp file + ``os.replace``" idiom,
which protects readers from torn files but is **not** durable: neither the payload nor the directory
entry was ever fsync'd, so a power loss shortly after the replace could
silently lose or tear the "atomically written" file.  This module
closes that gap once, for every writer:

* :func:`durable_replace` — write-to-temp, ``fsync(fd)``,
  ``os.replace``, ``fsync(dir)``.  After it returns, the new content
  survives power loss; if it raises (or the process dies), the target
  still holds its previous complete content.
* :func:`durable_append` — append + flush + ``fsync(fd)``.  A crash
  mid-append leaves a torn *tail*, which :class:`RecordLog` quarantines.
* :func:`fsync_dir` — directory-entry durability for renames/creates.

It also defines the one record format every durable file uses
(trace-bundle headers, stored analyses, sweep journals, serve's
pending journal):

* :func:`seal` / :func:`unseal` — the :func:`canonical_json` of a
  record plus its SHA-256 ``checksum``; ``unseal`` never raises.
  :func:`read_sealed` reads a file that holds one sealed record.
* :class:`RecordLog` — an append-only log of sealed lines: valid-prefix
  :meth:`~RecordLog.scan`, and :meth:`~RecordLog.recover` (tail to
  ``<stem>.quarantined``) before the first append.

Every durable write passes through the filesystem fault layer
(:mod:`repro.reliability.fsfaults`), so tests can deterministically
inject ENOSPC, short writes and torn writes at any site.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Dict, Iterable, List, Optional, Union

from .reliability.fsfaults import arm_fs_write

PathLike = Union[str, Path]


def canonical_json(value: object, allow_nan: bool = True) -> bytes:
    """``value`` as canonical JSON — sorted keys, no whitespace, UTF-8 —
    so equal values give equal bytes and equal checksums.
    ``allow_nan=False`` raises ``ValueError`` on NaN / infinities, for
    records that must stay strict JSON."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      allow_nan=allow_nan).encode("utf-8")


def payload_checksum(payload: dict) -> str:
    """SHA-256 over the canonical JSON of ``payload`` minus ``checksum``."""
    body = {k: v for k, v in payload.items() if k != "checksum"}
    return hashlib.sha256(canonical_json(body)).hexdigest()


def parse_record(raw: bytes) -> Optional[dict]:
    """Decode one UTF-8 JSON object; None when torn, not JSON or not an
    object — a record reader never raises on what a crash left behind."""
    try:
        record = json.loads(raw.decode("utf-8"))
    except ValueError:   # UnicodeDecodeError included
        return None
    return record if isinstance(record, dict) else None


def fsync_dir(path: PathLike) -> None:
    """fsync a directory so renames/creates inside it survive power loss.

    Best effort: platforms without directory file descriptors (or a
    directory that vanished) degrade to a no-op rather than failing the
    write that already succeeded.
    """
    flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
    try:
        fd = os.open(str(path), flags)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def durable_replace(data: bytes, target: PathLike,
                    site: str = "fs.replace") -> None:
    """Atomically and durably replace ``target`` with ``data``.

    The payload goes to a temp file in the target's directory, is
    fsync'd, ``os.replace``-d over the target, and the directory entry
    is fsync'd.  On any failure the temp file is removed and the target
    keeps its previous complete content — readers never observe a torn
    or missing file, before or after a crash.

    ``site`` names the write for fault injection (see
    ``docs/durability.md`` for the site registry).
    """
    target = Path(target)
    data, failure = arm_fs_write(site, target, data)
    fd, tmp_name = tempfile.mkstemp(dir=str(target.parent),
                                    prefix=target.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            if failure is not None:
                raise failure
            os.fsync(handle.fileno())
        os.replace(tmp_name, str(target))
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    fsync_dir(target.parent)


def durable_append(handle: BinaryIO, data: bytes, path: PathLike,
                   site: str = "fs.append") -> int:
    """Durably append ``data`` to an open binary ``handle``.

    The bytes are written, flushed and fsync'd before returning, so a
    returned append survives power loss.  An injected torn/short write
    flushes its partial payload first and then raises — the on-disk
    tail models the crash exactly.  Returns the bytes appended.
    """
    data, failure = arm_fs_write(site, Path(path), data)
    handle.write(data)
    handle.flush()
    if failure is not None:
        raise failure
    os.fsync(handle.fileno())
    return len(data)


# ------------------------------------------------------------ sealed records


def seal(record: Dict[str, object]) -> bytes:
    """``record`` plus its ``checksum``, as canonical JSON."""
    body = {k: v for k, v in record.items() if k != "checksum"}
    body["checksum"] = payload_checksum(body)
    return canonical_json(body)


def unseal(raw: bytes) -> Optional[dict]:
    """The record :func:`seal` wrote, ``checksum`` included; None when
    ``raw`` is torn, not a JSON object or fails its checksum."""
    record = parse_record(raw)
    if record is None or record.get("checksum") != payload_checksum(record):
        return None
    return record


def read_sealed(path: PathLike) -> Optional[dict]:
    """:func:`unseal` of a whole file; None when it cannot be read."""
    try:
        return unseal(Path(path).read_bytes())
    except OSError:
        return None


# --------------------------------------------------------------- record log


@dataclass
class LogScan:
    """The valid prefix of a :class:`RecordLog` plus its tail."""

    records: List[Dict[str, object]]
    valid_bytes: int        # offset just past the last valid line
    quarantined_bytes: int  # tail bytes after the valid prefix
    quarantined_lines: int  # (partial) lines inside the tail


class RecordLog:
    """Single-writer append-only log of sealed JSONL records; every
    append is fsync'd (:func:`durable_append` at ``site``).  Reads stop
    at the first torn, unparsable or checksum-failing line."""

    def __init__(self, path: PathLike, site: str):
        self.path = Path(path)
        self.site = site
        self._handle: Optional[BinaryIO] = None

    def scan(self) -> LogScan:
        """The log's valid prefix; never raises (missing file: empty)."""
        try:
            raw = self.path.read_bytes()
        except OSError:
            return LogScan([], 0, 0, 0)
        records: List[Dict[str, object]] = []
        offset = 0
        while (newline := raw.find(b"\n", offset)) >= 0:
            record = unseal(raw[offset:newline])
            if record is None:
                break
            records.append(record)
            offset = newline + 1
        tail = raw[offset:]
        lines = tail.count(b"\n") + (bool(tail) and not tail.endswith(b"\n"))
        return LogScan(records, offset, len(tail), lines)

    def recover(self) -> LogScan:
        """Make the log appendable: move the tail to
        ``<stem>.quarantined``, truncate the log back to its valid
        prefix (both fsync'd) and open it for appends; returns the scan.
        """
        self.close()
        scan = self.scan()
        if scan.quarantined_bytes:
            tail = self.path.read_bytes()[scan.valid_bytes:]
            with open(self.path.with_suffix(".quarantined"),
                      "ab") as quarantine:
                quarantine.write(tail)
                quarantine.flush()
                os.fsync(quarantine.fileno())
            with open(self.path, "r+b") as log:
                log.truncate(scan.valid_bytes)
                log.flush()
                os.fsync(log.fileno())
            fsync_dir(self.path.parent)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        created = not self.path.exists()
        self._handle = open(self.path, "ab")
        if created:   # the log's directory entry must survive
            fsync_dir(self.path.parent)
        return scan

    def append(self, record: Dict[str, object]) -> int:
        """Durably append one sealed record; returns the bytes written.
        The first append recovers the log, so a record never lands
        behind a torn tail."""
        if self._handle is None:
            self.recover()
        return durable_append(self._handle, seal(record) + b"\n",
                              self.path, site=self.site)

    def rewrite(self, records: Iterable[Dict[str, object]]) -> None:
        """Durably replace the whole log with ``records``."""
        self.close()
        durable_replace(b"".join(seal(r) + b"\n" for r in records),
                        self.path, site=self.site)

    def close(self) -> None:
        handle, self._handle = self._handle, None
        if handle is not None:
            handle.close()
