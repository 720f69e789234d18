"""Disk-backed, content-addressed store for FULL-mode warp traces.

One *bundle* file holds every cached warp of one kernel launch, named
by the launch's :class:`~repro.tracestore.format.TraceKey`.  The layout
is a single JSON header line followed by the concatenated binary blobs
— one *path blob* per distinct path (the columns the interpreter shares
across a path group), then one *line blob* per warp (its cache lines)::

    {"format": ..., "version": 2, "key": {...},
     "paths": [{"offset": 0, "length": N, "sha256": ...}],
     "entries": [{"warp": 0, "path": 0, "offset": N, "length": M,
                  "sha256": ...}],
     "checksum": <sha256 over the canonical header>}\\n
    <path blob>...<line blob>...

Paths are ordered by sha256 and entries by warp, so a bundle's bytes are
a pure function of what it holds.

The hardening contract matches ``core.persist`` v2:

* **atomic, durable writes** — bundles go through
  :func:`repro.durable.durable_replace` (temp file + fsync +
  ``os.replace`` + directory fsync); readers never see a half-written
  bundle and a completed write survives power loss;
* **format version** — an unsupported ``version`` quarantines the whole
  bundle (every entry becomes a miss), it never raises;
* **sha256 checksums** — the header carries its own checksum and every
  path and every entry carries one over its blob slice;
* **per-entry quarantine** — a truncated file or a flipped byte loses
  exactly the affected warps (one warp for a line blob, the warps of
  one path for a path blob); intact entries still replay.

Corruption is *never* an error at this layer: a bad entry is counted in
``quarantined`` and treated as a cache miss (the warp is re-emulated
and the bundle healed on the next flush).

Reads go through a small process-wide decode cache keyed by the sha256
of the *file contents*: every open still reads and hashes the file (so
external modification is always detected — no mtime heuristics), but
entry verification and decoding happen once per bundle content per
process — a path once, however many warps follow it, and every warp of
a path is handed the same column lists, exactly as a fresh fill does.
A sweep whose tasks share one store decodes each bundle once, not once
per task.  Decoded traces are shared object graphs — callers must treat
them as immutable, which the engine already does.

Sweep workers write through :meth:`TraceStore.stage`, which lands
bundles in ``staging/task-<index>/``; the parent folds staged bundles
into the canonical root in task order (:meth:`TraceStore.merge_staged`),
keeping the first-written blob on conflict so merged stores are
deterministic regardless of worker scheduling.
"""

from __future__ import annotations

import hashlib
import shutil
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..durable import (
    canonical_json,
    durable_replace,
    parse_record,
    payload_checksum,
)
from ..functional.kernel import Kernel
from ..functional.trace import WarpTrace
from .format import (
    FORMAT_NAME,
    FORMAT_VERSION,
    TraceFormatError,
    DecodedPath,
    TraceKey,
    blob_checksum,
    decode_lines,
    decode_path,
    encode_lines,
    encode_path,
    mem_positions,
    trace_key,
)

_STAGING_DIR = "staging"


def _span(name: str):
    """Span timer on the current bus (trace I/O shows up in --metrics)."""
    from ..obs import current_bus

    return current_bus().metrics.span(name)


class _BundleData:
    """Parsed bundle: verified blobs plus quarantine accounting.

    ``paths`` maps a path blob's sha256 to its bytes; ``lines`` maps a
    warp id to ``(path sha256, line blob)``.  ``columns`` and
    ``decoded`` memoise :func:`decode_path` / :func:`decode_lines`
    results; they are shared by every view of the same parsed bundle
    (see ``_DECODE_CACHE``).
    """

    __slots__ = ("paths", "lines", "quarantined", "header_key", "columns",
                 "decoded")

    def __init__(self) -> None:
        self.paths: Dict[str, bytes] = {}
        self.lines: Dict[int, Tuple[str, bytes]] = {}
        self.quarantined = 0
        self.header_key: Optional[TraceKey] = None
        self.columns: Dict[str, DecodedPath] = {}
        self.decoded: Dict[int, WarpTrace] = {}


#: content hash of a bundle file -> parsed-and-verified _BundleData.
#: Keyed by sha256 of the raw bytes, so a stale entry can never be
#: served for changed content; bounded because decoded traces are big.
_DECODE_CACHE: Dict[str, _BundleData] = {}
_DECODE_CACHE_MAX = 2


def _read_bundle(path: Path, expect_key: Optional[TraceKey]) -> _BundleData:
    """Read a bundle, quarantining (never raising on) corruption."""
    try:
        raw = path.read_bytes()
    except OSError:
        return _BundleData()
    return _parse_bundle(raw, expect_key)


def _read_bundle_cached(path: Path,
                        expect_key: Optional[TraceKey]) -> _BundleData:
    """Like :func:`_read_bundle`, memoised on file *content*.

    The file is always re-read and re-hashed, so on-disk changes are
    always seen; only the per-entry verification and decode work is
    reused.  A key mismatch is checked against the cached header key so
    the wrong-bundle quarantine semantics survive caching.
    """
    try:
        raw = path.read_bytes()
    except OSError:
        return _BundleData()
    digest = hashlib.sha256(raw).hexdigest()
    data = _DECODE_CACHE.get(digest)
    if data is None:
        data = _parse_bundle(raw, None)
        while len(_DECODE_CACHE) >= _DECODE_CACHE_MAX:
            _DECODE_CACHE.pop(next(iter(_DECODE_CACHE)))
        _DECODE_CACHE[digest] = data
    if expect_key is not None and data.header_key != expect_key:
        wrong = _BundleData()
        wrong.quarantined = (len(data.lines) + data.quarantined) or 1
        return wrong
    return data


def _parse_bundle(raw: bytes, expect_key: Optional[TraceKey]) -> _BundleData:
    """Parse bundle bytes, quarantining (never raising on) corruption."""
    data = _BundleData()
    newline = raw.find(b"\n")
    if newline < 0:
        data.quarantined += 1
        return data
    header = parse_record(raw[:newline])
    if header is None:
        data.quarantined += 1
        return data
    entries, paths = header.get("entries"), header.get("paths")
    if not isinstance(entries, list) or not isinstance(paths, list):
        data.quarantined += 1
        return data
    if (header.get("format") != FORMAT_NAME
            or header.get("version") != FORMAT_VERSION
            or header.get("checksum") != payload_checksum(header)):
        # unreadable or future-format bundle: every entry is a miss
        data.quarantined += len(entries) or 1
        return data
    try:
        data.header_key = TraceKey.from_dict(header.get("key", {}))
    except (KeyError, TypeError, ValueError):
        data.header_key = None
    if expect_key is not None and data.header_key != expect_key:
        data.quarantined += len(entries) or 1
        return data
    body = memoryview(raw)[newline + 1:]

    def verified(record) -> Optional[Tuple[str, bytes]]:
        """``(sha256, blob)`` of one header record, None when bad."""
        try:
            offset, length = int(record["offset"]), int(record["length"])
            digest = str(record["sha256"])
        except (KeyError, TypeError, ValueError):
            return None
        blob = body[offset:offset + length]
        if len(blob) != length or blob_checksum(blob) != digest:
            return None
        return digest, blob

    # a bad path blob takes exactly the warps that follow it
    path_blobs = [verified(record) for record in paths]
    for entry in entries:
        try:
            line = verified(entry)
            path = path_blobs[int(entry["path"])]
            warp = int(entry["warp"])
        except (KeyError, TypeError, ValueError, IndexError):
            line = path = None
        if line is None or path is None:
            data.quarantined += 1
            continue
        data.paths[path[0]] = path[1]
        data.lines[warp] = (path[0], line[1])
    return data


def _write_bundle(path: Path, key: TraceKey, paths: Dict[str, bytes],
                  lines: Dict[int, Tuple[str, bytes]]) -> None:
    """Atomically and durably write a bundle (``durable_replace``).

    Only the paths some warp of ``lines`` follows are written.
    """
    parts: List[bytes] = []
    offset = 0

    def record(blob, digest: str, **fields) -> Dict[str, object]:
        """Header record of ``blob``, laid out in call order."""
        nonlocal offset
        parts.append(blob)
        offset += len(blob)
        return {**fields, "offset": offset - len(blob),
                "length": len(blob), "sha256": digest}

    index = {sha: i for i, sha in enumerate(
        sorted({sha for sha, _blob in lines.values()}))}
    header: Dict[str, object] = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "key": key.to_dict(),
        "paths": [record(paths[sha], sha) for sha in index],
        "entries": [record(blob, blob_checksum(blob), warp=warp,
                           path=index[sha])
                    for warp, (sha, blob) in sorted(lines.items())],
    }
    header["checksum"] = payload_checksum(header)
    payload = canonical_json(header) + b"\n" + b"".join(parts)
    path.parent.mkdir(parents=True, exist_ok=True)
    durable_replace(payload, path, site="tracestore.bundle")


def _path_of(trace: WarpTrace, shared: Dict[tuple, Tuple[str, List[int]]],
             paths: Dict[str, bytes]) -> Tuple[str, List[int]]:
    """``(path sha256, memory positions)`` of ``trace``; a new path's
    blob lands in ``paths``.

    The warps of one path group carry the *same* column list objects, so
    within one fill a path is found by identity (``shared``) and encoded
    once; across fills the sha256 finds it.
    """
    mem = trace.mem_lines
    ident = tuple(map(id, (trace.static_idx, trace.opclass, trace.opcode,
                           trace.dep, trace.is_store, trace.bb_seq)))
    found = shared.get(ident)
    # same columns must also mean same memory positions (C-speed check)
    if (found is None or len(mem) - mem.count(None) != len(found[1])
            or None in [mem[p] for p in found[1]]):
        mem_pos = mem_positions(mem)
        blob = encode_path(trace, mem_pos)
        found = shared[ident] = (blob_checksum(blob), mem_pos)
        paths.setdefault(found[0], blob)
    return found


class KernelTraces:
    """Read view of one kernel's bundle: decode-on-demand warp traces."""

    def __init__(self, key: TraceKey, data: _BundleData, store: "TraceStore"):
        self.key = key
        self._data = data  # shared with other views; immutable once decoded
        self._store = store
        self.quarantined = data.quarantined

    @property
    def n_available(self) -> int:
        return len(self._data.lines)

    def has(self, warp_id: int) -> bool:
        """Whether a trace for ``warp_id`` is present (without decoding)."""
        return warp_id in self._data.lines

    def get(self, warp_id: int) -> Optional[WarpTrace]:
        """Decode the stored trace for ``warp_id`` (None on miss)."""
        data = self._data
        trace = data.decoded.get(warp_id)
        if trace is not None:
            return trace
        entry = data.lines.get(warp_id)
        if entry is None:
            return None
        sha, blob = entry
        try:
            with _span("trace_io"):
                path = data.columns.get(sha)
                if path is None:
                    path = data.columns[sha] = decode_path(data.paths[sha])
                trace = decode_lines(warp_id, path, blob)
        except TraceFormatError:
            # checksums passed but a blob is structurally bad (format
            # drift): quarantine this entry, treat as a miss
            del data.lines[warp_id]
            self.quarantined += 1
            self._store.quarantined += 1
            return None
        data.decoded[warp_id] = trace
        return trace


class TraceStore:
    """Content-addressed persistent store for warp traces.

    ``root`` is the canonical store directory.  ``write_root`` (used by
    :meth:`stage`) redirects writes to a staging directory while reads
    keep hitting the canonical bundles — that is how parallel sweep
    workers share one store without write races.

    ``max_mb`` bounds the store's on-disk size: :meth:`evict` deletes
    whole least-recently-written bundles (oldest mtime first) until the
    store fits.  Eviction is an explicit call — runs invoke it after
    their flush/merge — so a bundle can never disappear under a live
    read view.
    """

    def __init__(self, root, write_root=None, max_mb=None):
        self.root = Path(root)
        self.write_root = Path(write_root) if write_root else self.root
        self.max_mb = max_mb
        self.reads = 0
        self.writes = 0
        self.quarantined = 0
        self.evicted = 0

    # -- keying ------------------------------------------------------------

    def key_for(self, kernel: Kernel) -> TraceKey:
        with _span("trace_io"):
            return trace_key(kernel)

    # -- read path ---------------------------------------------------------

    def open_kernel(self, kernel: Kernel,
                    key: Optional[TraceKey] = None) -> KernelTraces:
        """Load the bundle for ``kernel`` (empty view when absent)."""
        if key is None:
            key = self.key_for(kernel)
        path = self.root / key.bundle_name
        with _span("trace_io"):
            data = (_read_bundle_cached(path, key) if path.exists()
                    else _BundleData())
        if data.lines or data.quarantined:
            self.reads += 1
        self.quarantined += data.quarantined
        return KernelTraces(key, data, self)

    # -- write path --------------------------------------------------------

    def put_kernel(self, kernel: Kernel, traces: Dict[int, WarpTrace],
                   key: Optional[TraceKey] = None) -> int:
        """Merge ``traces`` into the bundle for ``kernel``.

        Existing intact entries win on conflict (traces are
        deterministic, so a conflict is always a byte-identical
        re-derivation).  Returns the number of newly written warps.
        """
        if not traces:
            return 0
        if key is None:
            key = self.key_for(kernel)
        path = self.write_root / key.bundle_name
        with _span("trace_io"):
            existing = (_read_bundle(path, key) if path.exists()
                        else _BundleData())
            paths, lines = dict(existing.paths), dict(existing.lines)
            shared: Dict[tuple, Tuple[str, List[int]]] = {}
            added = 0
            for warp_id, trace in traces.items():
                if warp_id in lines:
                    continue
                sha, mem_pos = _path_of(trace, shared, paths)
                lines[warp_id] = (sha, encode_lines(trace.mem_lines, mem_pos))
                added += 1
            if added or existing.quarantined:
                _write_bundle(path, key, paths, lines)
        if added or existing.quarantined:
            self.writes += 1
        return added

    # -- size bounding -------------------------------------------------------

    def evict(self, max_mb: Optional[float] = None) -> int:
        """Delete LRU bundles until the store fits; returns bundles removed.

        The budget is ``max_mb`` (falling back to the instance's
        ``max_mb``; no-op when both are None).  Bundles are removed
        oldest-mtime-first — a bundle's mtime is its last (re)write, so
        kernels still being warmed survive over ones last touched runs
        ago.  Equal-mtime bundles (coarse-mtime filesystems routinely
        stamp a whole run identically) tie-break on the bundle key, so
        eviction order is deterministic across platforms regardless of
        directory-listing order or bundle size.  Each removal emits a
        ``tracestore.evict`` event and bumps the
        ``tracestore.evictions`` counter.
        """
        limit = self.max_mb if max_mb is None else max_mb
        if limit is None:
            return 0
        budget = int(limit * (1 << 20))
        bundles: List[Tuple[float, str, int, Path]] = []
        for path in self.root.glob("*.trc"):
            try:
                stat = path.stat()
            except OSError:
                continue
            bundles.append((stat.st_mtime, path.name, stat.st_size, path))
        total = sum(size for _mtime, _name, size, _path in bundles)
        if total <= budget:
            return 0
        from ..obs import TRACESTORE_EVICT, current_bus

        bus = current_bus()
        channel = bus.channel(TRACESTORE_EVICT)
        evicted = 0
        for _mtime, _name, size, path in sorted(bundles):
            if total <= budget:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            evicted += 1
            if channel.subscribers:
                channel.publish(path.name, size)
        if evicted:
            self.evicted += evicted
            bus.metrics.counter("tracestore.evictions").inc(evicted)
        return evicted

    # -- sweep-worker staging ----------------------------------------------

    def stage(self, task_index: int) -> "TraceStore":
        """A store reading canonical bundles but writing to a staging dir."""
        staged = self.root / _STAGING_DIR / f"task-{task_index:08d}"
        return TraceStore(self.root, write_root=staged)

    @staticmethod
    def _staged_dirs_in(staging: Path) -> Iterator[Tuple[int, Path]]:
        if not staging.is_dir():
            return
        for entry in sorted(staging.iterdir()):
            if not entry.is_dir():
                continue
            try:
                index = int(entry.name.split("-", 1)[1])
            except (IndexError, ValueError):
                continue
            yield index, entry

    def merge_staged(self,
                     indices: Optional[Iterable[int]] = None,
                     staging_roots: Optional[Iterable[Path]] = None,
                     ) -> Dict[str, int]:
        """Fold staged worker bundles into the canonical root.

        Staging directories are visited in ascending task order and the
        first-written blob wins on conflict, so the merged store is
        byte-deterministic regardless of which worker produced which
        bundle first.  Staged directories are removed once folded.

        ``indices`` restricts the merge to those task indices (a live
        server folds each task's staging directory as it completes,
        without touching directories other tasks are still writing);
        ``None`` folds everything, the sweep-scheduler behaviour.

        ``staging_roots`` merges from external staging layouts instead
        of the store's own ``staging/`` — each root holds ``task-*``
        subdirectories (a fleet's per-host ``staging/<host>``).  Roots
        are folded in the given order per task index, so passing hosts
        in sorted order makes the multi-host merge deterministic; blobs
        are byte-identical across hosts anyway (traces are pure
        functions of the kernel), so ordering only pins *which* copy is
        kept, never what it contains.
        """
        stats = {"tasks": 0, "bundles": 0, "warps_added": 0,
                 "quarantined": 0}
        wanted = None if indices is None else set(indices)
        cleanup_roots = ([self.root / _STAGING_DIR] if staging_roots is None
                         else [Path(root) for root in staging_roots])
        entries = [
            (index, position, task_dir)
            for position, root in enumerate(cleanup_roots)
            for index, task_dir in self._staged_dirs_in(root)
        ]
        entries.sort(key=lambda item: (item[0], item[1]))
        for index, _position, task_dir in entries:
            if wanted is not None and index not in wanted:
                continue
            stats["tasks"] += 1
            for staged_path in sorted(task_dir.glob("*.trc")):
                with _span("trace_io"):
                    staged = _read_bundle(staged_path, None)
                stats["quarantined"] += staged.quarantined
                if not staged.lines:
                    continue
                canonical = self.root / staged_path.name
                with _span("trace_io"):
                    current = (_read_bundle(canonical, None)
                               if canonical.exists() else _BundleData())
                    merged = {**staged.lines, **current.lines}
                    added = len(merged) - len(current.lines)
                    key = staged.header_key
                    if (added or current.quarantined) and key is not None:
                        _write_bundle(canonical, key,
                                      {**staged.paths, **current.paths},
                                      merged)
                        stats["bundles"] += 1
                        stats["warps_added"] += added
                self.quarantined += staged.quarantined
            shutil.rmtree(task_dir, ignore_errors=True)
        for staging in cleanup_roots:
            if staging.is_dir() and not any(staging.iterdir()):
                shutil.rmtree(staging, ignore_errors=True)
        return stats

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"TraceStore({str(self.root)!r}, reads={self.reads}, "
                f"writes={self.writes}, quarantined={self.quarantined})")

