"""Persistence for offline Photon (paper Section 6.3).

"All data that is generated by the online analysis of kernel-,
basic-block- and warp-sampling, is micro-architecture agnostic.
Hardware researchers can reuse these data to enable sampled simulation
of GPU workloads."  This module serialises the two reusable stores to
JSON so a second *process* (e.g. the same workload on a different GPU
configuration) skips re-analysis:

* :class:`AnalysisStore` — per-kernel online-analysis results
  (microarchitecture agnostic: reusable across GPU configs);
* :class:`KernelDB` — kernel records including simulated time and IPC
  (microarchitecture *specific*: reuse only on the same GPU config).

Analysis stores are format 3, keyed by :func:`~.online.analysis_key`;
versions 1 and 2 (process-local keys) are refused.  Robustness (since
format version 2):

* the payload is one sealed record written with
  :func:`repro.durable.write_sealed` (temp file + fsync +
  ``os.replace`` + directory fsync), so a crash or power loss mid-write
  never leaves a truncated store behind *and* a completed save survives
  the platters losing their cache;
* the seal's SHA-256 ``checksum`` covers the payload's canonical JSON
  encoding; a mismatch (bit rot, concurrent writer) raises
  :class:`~repro.errors.SamplingError` instead of silently feeding bad
  analyses into a simulation;
* individually corrupt *entries* are quarantined: the loader skips them,
  counts them on ``store.quarantined`` / ``db.quarantined``, and keeps
  every healthy entry.  Version-1 kernel dbs (no checksum) still load.

The payload codecs (:func:`analysis_store_payload` /
:func:`analysis_store_from_payload` and the kernel-db pair) are exposed
separately from the file I/O: the parallel sweep engine uses them to
ship per-worker store state across process boundaries as plain dicts,
then merges the decoded stores deterministically
(:meth:`AnalysisStore.merge` / :meth:`~.kerneldb.KernelDB.merge`).
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

from ..durable import read_record, read_sealed, write_sealed
from ..errors import SamplingError
from .kerneldb import KernelDB, KernelRecord
from .online import OnlineAnalysis
from .photon import AnalysisStore

PathLike = Union[str, Path]
_STORE_VERSION = 3
_DB_VERSION = 2


def analysis_store_payload(store: AnalysisStore) -> dict:
    """Encode an analysis store as a JSON-safe payload dict."""
    entries = []
    for key, analysis in store.items():
        entries.append({
            "key": key,
            "kernel_name": analysis.kernel_name,
            "n_warps": analysis.n_warps,
            "sample_warp_ids": list(analysis.sample_warp_ids),
            "sample_insts": analysis.sample_insts,
            "mean_insts_per_warp": analysis.mean_insts_per_warp,
            "bb_share": {str(pc): share
                         for pc, share in analysis.bb_share.items()},
            "type_counts": {str(k): c
                            for k, c in analysis.type_counts.items()},
            "type_bb_seq": {str(k): list(seq)
                            for k, seq in analysis.type_bb_seq.items()},
            "type_insts": {str(k): n
                           for k, n in analysis.type_insts.items()},
            "dominant_type": analysis.dominant_type,
            "dominant_rate": analysis.dominant_rate,
            "gpu_bbv": analysis.gpu_bbv.tolist(),
        })
    return {"version": _STORE_VERSION, "entries": entries}


def analysis_store_from_payload(payload: dict) -> AnalysisStore:
    """Decode a payload produced by :func:`analysis_store_payload`.

    Corrupt individual entries are skipped and counted on the returned
    store's ``quarantined`` attribute; a structurally broken payload or
    one older than version 3 raises :class:`SamplingError`.
    """
    version = payload.get("version")
    if version in (1, 2):
        raise SamplingError(
            f"analysis store version {version} keys are process-local "
            f"hashes; discard it and re-analyse")
    entries = payload.get("entries")
    if not isinstance(entries, list):
        raise SamplingError("analysis-store payload has no entry list")
    store = AnalysisStore()
    for entry in entries:
        try:
            analysis = OnlineAnalysis(
                kernel_name=entry["kernel_name"],
                n_warps=int(entry["n_warps"]),
                sample_warp_ids=list(entry["sample_warp_ids"]),
                sample_insts=entry["sample_insts"],
                mean_insts_per_warp=entry["mean_insts_per_warp"],
                bb_share={int(pc): share
                          for pc, share in entry["bb_share"].items()},
                type_counts={int(k): c
                             for k, c in entry["type_counts"].items()},
                type_bb_seq={int(k): tuple(seq)
                             for k, seq in entry["type_bb_seq"].items()},
                type_insts={int(k): n
                            for k, n in entry["type_insts"].items()},
                dominant_type=entry["dominant_type"],
                dominant_rate=entry["dominant_rate"],
                gpu_bbv=np.asarray(entry["gpu_bbv"], dtype=float),
            )
            store.insert(entry["key"], analysis)  # a list key: TypeError
        except (KeyError, TypeError, ValueError, AttributeError):
            store.quarantined += 1
    return store


def save_analysis_store(store: AnalysisStore, path: PathLike) -> None:
    """Atomically write the analysis store to ``path`` as JSON."""
    write_sealed(path, analysis_store_payload(store), site="persist.store")


def load_analysis_store(path: PathLike) -> AnalysisStore:
    """Load an analysis store written by :func:`save_analysis_store`.

    Corrupt individual entries are skipped and counted on the returned
    store's ``quarantined`` attribute; a corrupt *file* (bad JSON, wrong
    or pre-3 version, checksum mismatch) raises :class:`SamplingError`.
    """
    return analysis_store_from_payload(_read(path, (1, 2, _STORE_VERSION)))


def kernel_db_payload(db: KernelDB) -> dict:
    """Encode a kernel database as a JSON-safe payload dict."""
    return {
        "version": _DB_VERSION,
        "distance_threshold": db.distance_threshold,
        "n_cu": db.n_cu,
        "records": [
            {
                "name": record.name,
                "gpu_bbv": record.gpu_bbv.tolist(),
                "n_warps": record.n_warps,
                "total_insts": record.total_insts,
                "sample_insts": record.sample_insts,
                "sim_time": record.sim_time,
            }
            for record in db.records()
        ],
    }


def kernel_db_from_payload(payload: dict) -> KernelDB:
    """Decode a payload produced by :func:`kernel_db_payload`.

    Corrupt individual records are skipped and counted on the returned
    db's ``quarantined`` attribute.
    """
    try:
        db = KernelDB(distance_threshold=payload["distance_threshold"],
                      n_cu=payload["n_cu"])
        records = payload["records"]
    except KeyError as exc:
        raise SamplingError(
            f"kernel-db payload: missing field {exc}") from exc
    for record in records:
        try:
            loaded = KernelRecord(
                name=record["name"],
                gpu_bbv=np.asarray(record["gpu_bbv"], dtype=float),
                n_warps=int(record["n_warps"]),
                total_insts=float(record["total_insts"]),
                sample_insts=record["sample_insts"],
                sim_time=float(record["sim_time"]),
            )
        except (KeyError, TypeError, ValueError, AttributeError):
            db.quarantined += 1
            continue
        db.add(loaded)
    return db


def save_kernel_db(db: KernelDB, path: PathLike) -> None:
    """Atomically write the kernel database to ``path`` as JSON."""
    write_sealed(path, kernel_db_payload(db), site="persist.store")


def load_kernel_db(path: PathLike) -> KernelDB:
    """Load a kernel database written by :func:`save_kernel_db`.

    Corrupt individual records are skipped and counted on the returned
    db's ``quarantined`` attribute; a corrupt *file* raises
    :class:`SamplingError`.
    """
    return kernel_db_from_payload(_read(path, (1, _DB_VERSION)))


def _read(path: PathLike, versions: tuple) -> dict:
    payload = read_sealed(path)
    if payload is None:
        # version 1 predates the seal; it is the one unsealed store read
        payload = read_record(path)
        if payload is None:
            raise SamplingError(
                f"cannot load {path}: missing, unreadable or not a JSON "
                f"object")
        if payload.get("version") != 1:
            raise SamplingError(
                f"{path}: checksum mismatch — store is corrupt")
    version = payload.get("version")
    if version not in versions:
        raise SamplingError(
            f"{path}: unsupported format version {version!r} "
            f"(supported: {versions})")
    return payload
