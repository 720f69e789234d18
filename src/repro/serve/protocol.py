"""PhotonServe wire protocol: request canonicalization and identity.

Three request operations exist:

``run``
    One (workload, size, method) simulation — the serving analogue of
    ``repro run`` / one :class:`~repro.parallel.SweepTask`.
``sweep``
    A workloads × sizes × methods evaluation, decomposed with
    :func:`~repro.parallel.plan_sweep` into per-task sub-requests that
    each hit the cache/dedup machinery individually.
``ping``
    A serving-layer no-op (optionally delayed) that exercises
    admission, quotas and dedup without simulating — used by health
    probes, backpressure tests and benchmarks.

**Request identity.**  A simulation request's key is derived from the
:class:`~repro.tracestore.TraceKey` of the kernel it names — the
sha256 program digest, input-data digest and grid shape — plus
everything else that shapes the simulated result: method, GPU preset,
and the Photon/PKA configuration.  Nothing *presentational* (tenant,
stream flag, request id) enters the key, so two users phrasing the
same simulation differently coalesce onto one execution and share one
cached result.  Keys are stable across processes and platforms (the
TraceKey contract), which is what lets a result cache or a shared
trace store outlive any one server.

TraceKey derivation builds the kernel (cheap relative to simulating
it) — the digest depends on the actual instruction stream and memory
image, not on the workload's *name*.  Keys are memoized per
(workload, size, seed) since workload construction is deterministic.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..core.config import PhotonConfig
from ..durable import canonical_json
from ..errors import ConfigError, WorkloadError
from ..harness.defaults import EVAL_PHOTON, GPU_PRESET_NAMES
from ..harness.runner import (
    check_methods,
    check_workloads,
    workload_factory,
)
from ..parallel.tasks import SweepTask, TaskOutcome
from ..tracestore.format import TraceKey, trace_key


class ProtocolError(ConfigError):
    """A malformed or unserveable request (HTTP 400)."""


#: outcome fields that vary run to run (host timing, pid, retries) —
#: everything else is a pure function of the request key
_NONDETERMINISTIC_FIELDS = frozenset((
    "index", "wall_seconds", "task_wall", "started", "worker",
    "attempts", "backoff_total", "store_payload", "kerneldb_payload",
    "trace_hits", "trace_store_hits", "trace_misses", "trace_writes",
    "host", "stolen",
))


@dataclass(frozen=True)
class ServeRequest:
    """One normalized request, ready for admission."""

    op: str                       # "run" | "sweep" | "ping"
    tenant: str = "default"
    stream: bool = False
    # run fields
    workload: str = ""
    size: int = 0
    method: str = "photon"
    gpu: str = "r9nano"
    seed: Optional[int] = None
    # sweep fields
    workloads: Tuple[str, ...] = ()
    sizes: Optional[Tuple[int, ...]] = None
    methods: Tuple[str, ...] = ("photon",)
    # ping fields
    delay_ms: int = 0
    key: str = ""                 # explicit ping identity (dedup tests)

    def task(self, index: int = 0,
             photon: Optional[PhotonConfig] = None,
             trace_store: Optional[str] = None) -> SweepTask:
        """The :class:`SweepTask` a ``run`` request executes."""
        return SweepTask(
            index=index, workload=self.workload, size=self.size,
            method=self.method, gpu=self.gpu, seed=self.seed,
            photon=photon or EVAL_PHOTON, trace_store=trace_store)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message)


def _int_field(data: Dict, name: str, default=None,
               minimum: Optional[int] = None):
    value = data.get(name, default)
    if value is default and default is None:
        return None
    try:
        value = int(value)
    except (TypeError, ValueError):
        raise ProtocolError(f"field {name!r} must be an integer, "
                            f"got {data.get(name)!r}") from None
    if minimum is not None and value < minimum:
        raise ProtocolError(f"field {name!r} must be >= {minimum}, "
                            f"got {value}")
    return value


def normalize_request(data: object, op: Optional[str] = None) -> ServeRequest:
    """Validate a decoded JSON body into a :class:`ServeRequest`.

    Fails fast with a one-line :class:`ProtocolError` naming the first
    bad field; nothing is simulated (or even built) for a request that
    cannot possibly be served.
    """
    _require(isinstance(data, dict), "request body must be a JSON object")
    assert isinstance(data, dict)
    op = str(data.get("op", op or "run"))
    tenant = str(data.get("tenant", "default")) or "default"
    stream = bool(data.get("stream", False))

    if op == "ping":
        delay = _int_field(data, "delay_ms", 0, minimum=0)
        return ServeRequest(op="ping", tenant=tenant, stream=stream,
                            delay_ms=delay, key=str(data.get("key", "")))

    _require(op in ("run", "sweep"),
             f"unknown op {op!r}; expected run, sweep or ping")
    if op == "run":
        workloads = (str(data.get("workload", "")),)
        size = _int_field(data, "size", 4096, minimum=1)
        methods = (str(data.get("method", "photon")),)
    else:
        workloads = data.get("workloads") or ()
        _require(isinstance(workloads, (list, tuple)) and workloads,
                 "sweep needs a non-empty 'workloads' list")
        workloads = tuple(str(w) for w in workloads)
        sizes = data.get("sizes")
        if sizes is not None:
            _require(isinstance(sizes, (list, tuple)) and sizes,
                     "'sizes' must be a non-empty list when given")
            sizes = tuple(_int_field({"s": s}, "s", minimum=1)
                          for s in sizes)
        methods = tuple(data.get("methods") or ("photon",))
    try:
        check_workloads(workloads)
        # a run request is one task, which may be the baseline itself
        check_methods(methods, baseline=op == "run")
    except WorkloadError as exc:
        raise ProtocolError(str(exc)) from None
    gpu = str(data.get("gpu", "r9nano"))
    _require(gpu in GPU_PRESET_NAMES,
             f"unknown gpu {data.get('gpu')!r}; "
             f"choose from {GPU_PRESET_NAMES}")
    seed = _int_field(data, "seed")
    if op == "run":
        return ServeRequest(op="run", tenant=tenant, stream=stream,
                            workload=workloads[0], size=size,
                            method=methods[0], gpu=gpu, seed=seed)
    return ServeRequest(op="sweep", tenant=tenant, stream=stream,
                        workloads=workloads, sizes=sizes, methods=methods,
                        gpu=gpu, seed=seed)


# -- request identity -------------------------------------------------------

#: memoized TraceKeys: workload construction is deterministic per
#: (workload, size, seed), so the kernel only needs building once
_TRACE_KEYS: Dict[Tuple[str, int, Optional[int]], TraceKey] = {}
_TRACE_KEYS_MAX = 256


def content_trace_key(workload: str, size: int,
                      seed: Optional[int]) -> TraceKey:
    """The (memoized) TraceKey of the kernel a request names."""
    memo = (workload, size, seed)
    key = _TRACE_KEYS.get(memo)
    if key is None:
        kwargs = {} if seed is None else {"seed": seed}
        kernel = workload_factory(workload, size, **kwargs)()
        key = trace_key(kernel)
        while len(_TRACE_KEYS) >= _TRACE_KEYS_MAX:
            _TRACE_KEYS.pop(next(iter(_TRACE_KEYS)))
        _TRACE_KEYS[memo] = key
    return key


#: memoized request keys by everything :func:`request_key` reads
_REQUEST_KEYS: Dict[tuple, str] = {}


def _key_memo(task: SweepTask) -> tuple:
    return (task.workload, task.size, task.seed, task.method, task.gpu,
            task.photon, task.pka, task.watchdog)


def memoized_request_key(task: SweepTask) -> Optional[str]:
    """``request_key(task)`` when already computed (a dict lookup — no
    kernel to build, nothing to hash), else None."""
    return _REQUEST_KEYS.get(_key_memo(task))


def request_key(task: SweepTask) -> str:
    """Canonical identity of one simulation task (sha256 hex).

    Derived from the task's TraceKey (program digest, data digest,
    grid) plus every simulation-shaping parameter: method, GPU preset,
    Photon and PKA configuration, and the watchdog budget (a budgeted
    and an unbudgeted run can legitimately differ — one may fail).
    """
    tk = content_trace_key(task.workload, task.size, task.seed)
    body = {
        "trace": tk.to_dict(),
        "method": task.method,
        "gpu": task.gpu,
        "photon": dataclasses.asdict(task.photon),
        "pka": (dataclasses.asdict(task.pka)
                if task.pka is not None else None),
        "watchdog": (dataclasses.asdict(task.watchdog)
                     if task.watchdog is not None else None),
    }
    key = hashlib.sha256(canonical_json(body)).hexdigest()
    while len(_REQUEST_KEYS) >= _TRACE_KEYS_MAX:
        _REQUEST_KEYS.pop(next(iter(_REQUEST_KEYS)))
    _REQUEST_KEYS[_key_memo(task)] = key
    return key


def deterministic_result(outcome: TaskOutcome) -> Dict[str, object]:
    """The bitwise-reproducible projection of a task outcome.

    Strips host timing, worker pids, retry counts and transported
    store payloads: what remains is a pure function of the request
    key, so every response for one key — cached, deduped, or freshly
    executed on any machine — is byte-identical JSON.
    """
    return {name: value for name, value in outcome.to_dict().items()
            if name not in _NONDETERMINISTIC_FIELDS}


def outcome_from_result(result: Dict[str, object],
                        index: int) -> TaskOutcome:
    """Rebuild a TaskOutcome from a cached deterministic result."""
    return TaskOutcome.from_dict({**result, "index": index})
