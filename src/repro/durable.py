"""Crash-durable file primitives shared by every persistence layer.

``core.persist`` and ``tracestore.store`` both used the classic
"temp file + ``os.replace``" idiom, which protects readers from torn
files but is **not** durable: neither the payload nor the directory
entry was ever fsync'd, so a power loss shortly after the replace could
silently lose or tear the "atomically written" file.  This module
closes that gap once, for every writer:

* :func:`durable_replace` — write-to-temp, ``fsync(fd)``,
  ``os.replace``, ``fsync(dir)``.  After it returns, the new content
  survives power loss; if it raises (or the process dies), the target
  still holds its previous complete content.
* :func:`durable_append` — append + flush + ``fsync(fd)`` for
  write-ahead logs (the sweep journal).  A crash mid-append leaves a
  torn *tail*, which journal readers quarantine.
* :func:`fsync_dir` — directory-entry durability for renames/creates.

It also defines, once, the JSON those records are written in and read
back with (trace-bundle headers, the sweep journal, fleet manifests /
leases / markers, serve's pending journal): :func:`canonical_json`,
:func:`payload_checksum` over it, and the never-raising readers
:func:`parse_record` / :func:`read_record`.

Every durable write passes through the filesystem fault layer
(:mod:`repro.reliability.fsfaults`), so tests can deterministically
inject ENOSPC, short writes and torn writes at any site.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import BinaryIO, Optional, Union

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


def read_record(path: PathLike) -> Optional[dict]:
    """:func:`parse_record` of a whole file; None when it cannot be read."""
    try:
        raw = Path(path).read_bytes()
    except OSError:
        return None
    return parse_record(raw)


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
