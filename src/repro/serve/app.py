"""The PhotonServe asyncio HTTP front end.

One :class:`PhotonServer` owns the whole serving pipeline::

    HTTP request
      → normalize (protocol.py)            400 on malformed input
      → drain gate (lifecycle.py)          503 + Retry-After while draining
      → tenant quota (quotas.py)           429 + Retry-After per tenant
      → request key (TraceKey-derived)
      → result cache                       pure hit: no execution at all
      → single-flight registry (dedup.py)  attach to identical in-flight work
      → admission queue (queue.py)         429 + Retry-After when full
      → execution tier (parallel/tier.py)  ParSweep workers run the task
      → absorb: result cache, trace-store staging fold (traces, analyses)

The server is a plain ``asyncio.start_server`` HTTP/1.1 implementation
(stdlib only — no framework dependency) with persistent connections:
requests on one connection are served in order until the request says
``Connection: close``, the reply is a stream, the request could not be
framed, the server drains, or the connection sits idle between requests
for ``_IDLE_SECONDS``.  JSON bodies both ways.  Streaming responses
(``"stream": true``) emit one JSON object per line, bridging the
SimScope bus's ``serve.*`` events for the request's key onto the wire
as they happen, terminated by a ``done`` line carrying the full
response and the end of the connection.

Endpoints::

    GET  /healthz      liveness + drain state
    GET  /v1/stats     counters, queue depth, cache and tenant state
    POST /v1/run       one simulation      {"workload": ..., "size": ...}
    POST /v1/sweep     an evaluation grid  {"workloads": [...], ...}
    POST /v1/ping      serving-layer no-op {"delay_ms": ..., "key": ...}
"""

from __future__ import annotations

import asyncio
import itertools
import json
import signal
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from ..harness.tables import comparison_table
from ..obs import SERVE_DEDUP, SERVE_QUEUE, SERVE_REQUEST, current_bus
from ..parallel import plan_sweep, rows_from_outcomes
from ..parallel.tier import ExecutionTier
from ..tracestore import TraceStore
from .dedup import SingleFlight
from .lifecycle import DrainController, Drained
from .protocol import (
    ProtocolError,
    ServeRequest,
    deterministic_result,
    memoized_request_key,
    normalize_request,
    outcome_from_result,
    request_key,
)
from .queue import AdmissionQueue
from .quotas import TenantQuotas

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}

_MAX_BODY = 1 << 20   # 1 MiB of JSON is far beyond any legal request

#: a connection idle this long between requests is closed by the server
_IDLE_SECONDS = 30.0

#: counter names mirrored onto the bus metrics as ``serve.<name>``
_COUNTERS = ("connections", "requests", "hits", "dedup", "executions",
             "rejected_queue", "rejected_quota", "rejected_draining",
             "drained", "replayed", "errors")


class _ErrorReply(Exception):
    """A complete non-200 answer, raised to whoever relays it verbatim:
    a sweep cell's (non-drain) failure to its sweep, an unusable
    request framing to the connection loop (which then closes — the
    body was not consumed)."""

    def __init__(self, code: int, extra, payload):
        super().__init__(f"request failed with {code}")
        self.code = code
        self.extra = extra
        self.payload = payload


def _infra_error_outcome(outcome) -> bool:
    """True for error outcomes the execution tier synthesized after
    repeated pool breakage (``stage == "pool"``) — transient host
    trouble, not a deterministic property of the request key.  The same
    rule holds for sweeps: ``--resume`` re-runs such an outcome."""
    return outcome.status == "error" and outcome.stage == "pool"


def _infra_error_result(result) -> bool:
    """The :func:`_infra_error_outcome` test on a serialized result."""
    return (isinstance(result, dict)
            and result.get("status") == "error"
            and result.get("stage") == "pool")


@dataclass
class ServeConfig:
    """Operational knobs for one PhotonServer (see ``docs/serve.md``)."""

    host: str = "127.0.0.1"
    port: int = 8630              # 0 = ephemeral (bound port is printed)
    jobs: int = 1                 # worker processes (0 = inline thread)
    queue_limit: int = 32         # queued executions before 429
    max_inflight: Optional[int] = None   # concurrent executions (None=jobs)
    tenant_rate: float = 0.0      # requests/second/tenant (0 = unlimited)
    tenant_burst: float = 8.0
    tenant_max_inflight: int = 0  # concurrent requests/tenant (0 = uncapped)
    result_cache: int = 1024      # cached deterministic results (LRU)
    trace_store: Optional[str] = None    # shared warp-trace store root
    state_dir: Optional[str] = None      # drain journal directory
    drain_grace: float = 30.0     # seconds to let in-flight work finish


class PhotonServer:
    """Simulation-as-a-service over the existing execution stack."""

    def __init__(self, config: Optional[ServeConfig] = None, bus=None):
        self.config = config or ServeConfig()
        self.bus = bus if bus is not None else current_bus()
        slots = self.config.max_inflight
        if slots is None or slots < 1:
            slots = max(1, self.config.jobs)
        self.queue = AdmissionQueue(self.config.queue_limit, slots)
        self.quotas = TenantQuotas(
            rate=self.config.tenant_rate,
            burst=self.config.tenant_burst,
            max_inflight=self.config.tenant_max_inflight)
        self.flights = SingleFlight()
        self.drain = DrainController(self.config.state_dir)
        self.tier = ExecutionTier(jobs=self.config.jobs)
        self.store = (TraceStore(self.config.trace_store)
                      if self.config.trace_store else None)
        self.results: "OrderedDict[str, Dict]" = OrderedDict()
        self.counts: Dict[str, int] = {name: 0 for name in _COUNTERS}
        # private pool for key hashing and store folds: the loop's
        # default executor may be tiny (cpu+4) and shared with client
        # code in embedded/test setups — borrowing it risks starvation
        self._offload = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="repro-serve-offload")
        self._task_seq = itertools.count()   # unique staging indices
        self._req_seq = itertools.count(1)
        self._server: Optional[asyncio.base_events.Server] = None
        # open connections -> their handler task; the idle ones are
        # parked between requests (closed at drain, nothing in flight)
        self._conns: Dict[asyncio.StreamWriter, asyncio.Task] = {}
        self._idle: Set[asyncio.StreamWriter] = set()
        self._started = time.monotonic()
        self.host = self.config.host
        self.port = self.config.port

    # -- accounting --------------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n
        self.bus.metrics.counter(f"serve.{name}").inc(n)

    def stats(self) -> Dict[str, object]:
        counts = dict(self.counts)
        counts["executions"] = self.tier.executed
        return {
            "counts": counts,
            "queue": {"waiting": self.queue.waiting,
                      "running": self.queue.running,
                      "depth": self.queue.depth,
                      "limit": self.queue.limit,
                      "slots": self.queue.slots,
                      "rejected": self.queue.rejected},
            "flights": len(self.flights),
            "coalesced": self.flights.coalesced,
            "results_cached": len(self.results),
            "tier": {"jobs": self.tier.jobs,
                     "rebuilds": self.tier.rebuilds},
            "draining": self.drain.is_draining(),
            "journaled": self.drain.journaled,
            "uptime_seconds": time.monotonic() - self._started,
        }

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind the listener; returns the (host, port) actually bound."""
        self._server = await asyncio.start_server(
            self._handle, host=self.config.host, port=self.config.port)
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    def begin_drain(self) -> None:
        """Flip into drain mode (SIGTERM handler; idempotent): idle
        connections close now, in-flight replies say ``Connection:
        close``."""
        self.drain.begin()
        for writer in self._idle:
            writer.close()

    async def _close_connections(self) -> None:
        """End every handler before the loop does: idle connections
        first, then — a second late — whatever is still mid-request."""
        for writers in (self._idle, self._conns):
            for writer in list(writers):
                writer.close()
            if self._conns:
                await asyncio.wait(list(self._conns.values()), timeout=1.0)

    async def replay_pending(self) -> int:
        """Replay a drained predecessor's ``pending.jsonl``; truncate it.

        Called before the listener binds (see :meth:`run`), so replayed
        requests compete only with each other.  Every journaled body is
        re-normalized and served exactly like a fresh request — through
        the quota gates, the result cache, single-flight and the
        admission queue — so the shed work lands back in the result
        cache and the analysis/kernel stores before traffic arrives.
        Only the journal's valid prefix is replayed; a torn tail moves
        to ``pending.quarantined`` (:meth:`RecordLog.recover`).
        Requests that fail to normalize are dropped (one must not wedge
        every restart); records the gates reject are re-journaled, and
        the journal is rewritten durably (:meth:`RecordLog.rewrite`), so
        a replayed request is never replayed again after a later crash.
        Returns the number of successfully replayed requests.
        """
        log = self.drain.log
        if log is None:
            return 0
        survivors = []
        replayed = 0
        for raw in log.recover().records:
            try:
                request = normalize_request(
                    raw, op=str(raw.get("op", "run")))
            except ProtocolError:
                self._count("errors")
                continue
            if request.op == "sweep":
                code, _extra, _payload = await self._serve_sweep(
                    request, raw)
            else:
                code, _extra, _payload = await self._serve_keyed(
                    request, raw, wait_when_full=True)
            if code == 200:
                replayed += 1
                self._count("replayed")
            else:
                survivors.append(raw)
        log.rewrite(survivors)
        return replayed

    async def run(self, announce=None) -> Dict[str, object]:
        """Serve until SIGTERM/SIGINT, then drain; returns final stats."""
        await self.replay_pending()
        await self.start()
        if announce is not None:
            announce(self.host, self.port)
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, self.begin_drain)
        await self.drain.draining.wait()
        return await self.drain_and_stop()

    async def drain_and_stop(self) -> Dict[str, object]:
        """Finish in-flight work, journal the queue, close the listener.

        The listener stays open during the grace period so late clients
        get an explicit 503 + Retry-After instead of a connection
        reset; queued-but-unstarted requests are journaled by their own
        waiters (see :meth:`_execute`).
        """
        self.begin_drain()
        grace = self.config.drain_grace
        await self.flights.wait_idle(timeout=grace)
        await self.queue.wait_idle(timeout=grace)
        if self._server is not None:
            self._server.close()
            await self._close_connections()
            try:
                await asyncio.wait_for(self._server.wait_closed(),
                                       timeout=1.0)
            except asyncio.TimeoutError:
                pass
            self._server = None
        self.tier.shutdown(wait=False)
        self._offload.shutdown(wait=False)
        self.drain.close()
        return self.stats()

    # -- HTTP plumbing -----------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        """Serve one connection's requests in order (keep-alive)."""
        self._count("connections")
        self._conns[writer] = asyncio.current_task()
        try:
            while await self._serve_one(reader, writer):
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            del self._conns[writer]
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, asyncio.IncompleteReadError):
                pass

    async def _serve_one(self, reader, writer) -> bool:
        """Read and answer one request; True when the connection may
        carry another."""
        close = True   # unless a request is framed, answered and agrees
        try:
            parsed = await self._read_http(reader, writer)
            if parsed is None:
                return False
            method, path, headers, body = parsed
            reply = await self._route(writer, method, path, headers, body)
            close = headers.get("connection", "").lower() == "close"
        except _ErrorReply as exc:
            self._count("errors")
            reply = exc.code, exc.extra, exc.payload
        except (ConnectionError, asyncio.IncompleteReadError):
            raise
        except Exception as exc:  # never kill the server on one request
            self._count("errors")
            reply = 500, None, {"error": f"{type(exc).__name__}: {exc}"}
        if reply is None:   # a stream: the end of the body is the close
            return False
        keep = not close and not self.drain.is_draining()
        status, extra, payload = reply
        body = (json.dumps(payload, allow_nan=False, sort_keys=True)
                + "\n").encode("utf-8")
        writer.write(self._head(
            status, {"Content-Type": "application/json",
                     "Content-Length": str(len(body)), **(extra or {})},
            close=not keep) + body)
        return keep

    async def _read_http(self, reader: asyncio.StreamReader, writer):
        # parked between requests: the idle timer or a drain closes the
        # connection, which ends the wait with an empty line
        self._idle.add(writer)
        timer = asyncio.get_running_loop().call_later(_IDLE_SECONDS,
                                                      writer.close)
        try:
            request_line = await reader.readline()
        finally:
            timer.cancel()
            self._idle.discard(writer)
        if not request_line.strip():
            return None
        try:
            method, path, _version = request_line.decode(
                "latin-1").split(None, 2)
        except ValueError:
            return None
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _sep, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        declared = headers.get("content-length", "0") or "0"
        if not declared.isdecimal():
            raise _ErrorReply(400, None, {
                "error": f"malformed Content-Length {declared!r}"})
        length = int(declared)
        if length > _MAX_BODY:
            raise _ErrorReply(413, None, {
                "error": f"request body too large ({length} bytes; the "
                         f"limit is {_MAX_BODY})"})
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, headers, body

    @staticmethod
    def _head(status: int, headers: Dict[str, str], close: bool) -> bytes:
        lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}"]
        lines += [f"{name}: {value}" for name, value in headers.items()]
        lines.append(f"Connection: {'close' if close else 'keep-alive'}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    # -- routing -----------------------------------------------------------

    async def _route(self, writer, method: str, path: str,
                     headers: Dict[str, str], body: bytes):
        """``(status, extra headers, payload)`` for one request; None
        when the reply was a stream already written to ``writer``."""
        path = path.split("?", 1)[0]
        if method == "GET" and path == "/healthz":
            draining = self.drain.is_draining()
            return 200, None, {"status": "draining" if draining else "ok"}
        if method == "GET" and path == "/v1/stats":
            return 200, None, self.stats()
        op = {"/v1/run": "run", "/v1/sweep": "sweep",
              "/v1/ping": "ping"}.get(path)
        if op is None:
            return 404, None, {"error": f"no route {path!r}"}
        if method != "POST":
            return 405, None, {"error": f"{method} not supported "
                                        f"on {path}"}
        try:
            data = json.loads(body.decode("utf-8")) if body else {}
            if (isinstance(data, dict) and "tenant" not in data
                    and "x-tenant" in headers):
                data["tenant"] = headers["x-tenant"]
            request = normalize_request(data, op=op)
        except ProtocolError as exc:
            self._count("errors")
            return 400, None, {"error": str(exc)}
        except (ValueError, UnicodeDecodeError) as exc:
            self._count("errors")
            return 400, None, {"error": f"body is not JSON: {exc}"}
        raw = data if isinstance(data, dict) else {}
        if request.stream and request.op != "sweep":
            await self._serve_streaming(writer, request, raw)
            return None
        serve = (self._serve_sweep if request.op == "sweep"
                 else self._serve_keyed)
        return await serve(request, raw)

    # -- the serving pipeline ----------------------------------------------

    def _gate(self, request: ServeRequest):
        """Drain + quota gates; returns a rejection triple or None.

        On None the tenant's inflight count is held and must be
        released by the caller.
        """
        if self.drain.is_draining():
            self._count("rejected_draining")
            return (503, {"Retry-After": "5"},
                    {"error": "server is draining", "retry_after": 5})
        admitted, retry_after, reason = self.quotas.admit(request.tenant)
        if not admitted:
            self._count("rejected_quota")
            seconds = max(1, int(retry_after + 0.999))
            self.bus.emit(SERVE_QUEUE, "", "reject", self.queue.depth)
            return (429, {"Retry-After": str(seconds)},
                    {"error": reason, "retry_after": seconds,
                     "tenant": request.tenant})
        return None

    async def _prepare(self, request: ServeRequest, req_id: int):
        """Key the request and build its execution thunk."""
        if request.op == "ping":
            key = request.key or f"ping:{req_id}"

            async def work():
                if request.delay_ms:
                    await asyncio.sleep(request.delay_ms / 1000.0)
                return {"op": "ping", "delay_ms": request.delay_ms,
                        "key": key}

            return key, work, False
        task = request.task(index=next(self._task_seq),
                            trace_store=self.config.trace_store)
        key = memoized_request_key(task)
        if key is None:   # builds the kernel: off the loop thread
            key = await asyncio.get_running_loop().run_in_executor(
                self._offload, request_key, task)

        async def work():
            outcome = await self.tier.run(task)
            # a pool-stage error is infrastructure noise (the tier kept
            # losing workers), not a property of this key — nothing
            # reusable to absorb
            if not _infra_error_outcome(outcome):
                await self._absorb(task)
            return deterministic_result(outcome)

        return key, work, True

    async def _serve_keyed(self, request: ServeRequest, raw: Dict,
                           wait_when_full: bool = False, on_key=None,
                           gated: bool = True):
        """The full pipeline for one run/ping request.

        ``on_key`` (streaming hook) is called with the request key as
        soon as it is computed, before any execution starts.
        ``gated=False`` skips the drain/quota gate — used for sweep
        cells, whose parent sweep was already admitted once and holds
        the tenant's inflight slot (re-entering the gate here would
        double-charge the tenant and deadlock ``tenant_max_inflight``).
        """
        t0 = time.perf_counter()
        self._count("requests")
        req_id = next(self._req_seq)
        if gated:
            rejection = self._gate(request)
            if rejection is not None:
                return rejection
        status, cache, key = 500, "", ""
        try:
            key, work, cacheable = await self._prepare(request, req_id)
            if on_key is not None:
                on_key(key)
            cached = self.results.get(key)
            if cached is not None:
                self.results.move_to_end(key)
                self._count("hits")
                status, cache = 200, "hit"
                return (200, None,
                        {"key": key, "cache": "hit", "result": cached})
            flight = self.flights.flight(key)
            if flight is None and self.queue.full() and not wait_when_full:
                self._count("rejected_queue")
                self.queue.rejected += 1
                seconds = self.queue.retry_after()
                self.bus.emit(SERVE_QUEUE, key, "reject",
                              self.queue.depth)
                status = 429
                return (429, {"Retry-After": str(seconds)},
                        {"error": "admission queue full",
                         "retry_after": seconds,
                         "queue_depth": self.queue.depth})
            if flight is not None:
                self.bus.emit(SERVE_DEDUP, key, flight.waiters + 1)
            if "op" not in raw:
                # the op normally lives in the URL path, not the body;
                # stamp it so a drain-journaled record replays as the
                # same operation after a restart (see replay_pending)
                raw = dict(raw, op=request.op)
            try:
                result, shared = await self.flights.run(
                    key, lambda: self._execute(key, work, raw, cacheable))
            except Drained as exc:
                self._count("rejected_draining")
                status = 503
                return (503, {"Retry-After": "5"},
                        {"error": "server is draining",
                         "journaled": exc.journaled, "key": key})
            cache = "dedup" if shared else "miss"
            if shared:
                self._count("dedup")
            status = 200
            return (200, None,
                    {"key": key, "cache": cache, "result": result})
        finally:
            if gated:
                self.quotas.release(request.tenant)
            self.bus.emit(SERVE_REQUEST, req_id,
                          request.tenant, request.op, key, status, cache,
                          time.perf_counter() - t0)

    async def _execute(self, key: str, work, raw: Dict,
                       cacheable: bool):
        """Queue admission + execution (runs inside the flight's task)."""
        self.bus.emit(SERVE_QUEUE, key, "enqueue", self.queue.depth)
        admitted = await self.queue.acquire(self.drain.draining)
        if not admitted:
            journaled = self.drain.journal(raw)
            self._count("drained")
            self.bus.emit(SERVE_QUEUE, key, "drain", self.queue.depth)
            raise Drained(journaled)
        try:
            self.bus.emit(SERVE_QUEUE, key, "start", self.queue.depth)
            t0 = time.perf_counter()
            result = await work()
            self.queue.observe(time.perf_counter() - t0)
            # never cache an infrastructure failure: the result LRU
            # promises byte-identity with a direct run, and a broken
            # worker pool is transient — the next identical request
            # must re-execute
            if cacheable and not _infra_error_result(result):
                self._cache_put(key, result)
            self.bus.emit(SERVE_QUEUE, key, "done", self.queue.depth)
            return result
        finally:
            self.queue.release()

    def _cache_put(self, key: str, result: Dict) -> None:
        self.results[key] = result
        self.results.move_to_end(key)
        while len(self.results) > max(0, self.config.result_cache):
            self.results.popitem(last=False)

    async def _absorb(self, task) -> None:
        """Fold one task's staged trace-store writes (traces, online
        analyses) into the server's store."""
        if self.store is not None:
            # fold only this task's staging directory — other tasks may
            # still be writing theirs (bundle writes are atomic, so
            # concurrent readers of the canonical root are safe)
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(
                self._offload,
                lambda: self.store.merge_staged([task.index]))

    # -- sweeps ------------------------------------------------------------

    async def _serve_sweep(self, request: ServeRequest, raw: Dict):
        """Decompose a sweep and route every cell through the cache.

        The sweep is admitted through the drain/quota gate exactly
        once, here; its cells run ungated (``gated=False``) under the
        parent's single tenant-inflight slot and rate token.
        """
        t0 = time.perf_counter()
        self._count("requests")
        req_id = next(self._req_seq)
        rejection = self._gate(request)
        if rejection is not None:
            return rejection
        status = 500
        try:
            try:
                plan = plan_sweep(
                    list(request.workloads), sizes=request.sizes,
                    methods=tuple(request.methods), gpu=request.gpu,
                    seed=request.seed,
                    trace_store=self.config.trace_store)
            except Exception as exc:
                self._count("errors")
                status = 400
                return 400, None, {"error": str(exc)}
            dispositions = {"hit": 0, "dedup": 0, "miss": 0}

            async def run_cell(plan_task):
                sub = ServeRequest(
                    op="run", tenant=request.tenant,
                    workload=plan_task.workload, size=plan_task.size,
                    method=plan_task.method, gpu=plan_task.gpu,
                    seed=plan_task.seed)
                # journal THIS cell if drain displaces it — replaying
                # pending.jsonl then re-runs one cell, not the whole
                # sweep once per shed cell
                cell_raw = {"op": "run", "tenant": request.tenant,
                            "workload": plan_task.workload,
                            "size": plan_task.size,
                            "method": plan_task.method,
                            "gpu": plan_task.gpu}
                if plan_task.seed is not None:
                    cell_raw["seed"] = plan_task.seed
                # sweep cells wait politely instead of bouncing off a
                # full queue: a sweep is batch work, not interactive
                code, extra, payload = await self._serve_keyed(
                    sub, cell_raw, wait_when_full=True, gated=False)
                if code == 503:
                    raise Drained(bool(payload.get("journaled")))
                if code != 200:   # anything else is a cell-level error
                    raise _ErrorReply(code, extra, payload)
                dispositions[payload["cache"]] += 1
                return outcome_from_result(payload["result"],
                                           plan_task.index)
            try:
                outcomes = await asyncio.gather(
                    *(run_cell(t) for t in plan))
            except Drained as exc:
                status = 503
                return (503, {"Retry-After": "5"},
                        {"error": "server is draining",
                         "journaled": exc.journaled})
            except _ErrorReply as exc:
                status = exc.code
                return exc.code, exc.extra, exc.payload
            rows = rows_from_outcomes(list(outcomes))
            status = 200
            return (200, None, {
                "rows": [row.to_dict() for row in rows],
                "table": comparison_table(rows, deterministic=True),
                "cache": dispositions,
                "tasks": len(plan),
            })
        finally:
            self.quotas.release(request.tenant)
            self.bus.emit(SERVE_REQUEST, req_id,
                          request.tenant, "sweep", "", status, "",
                          time.perf_counter() - t0)

    # -- streaming ---------------------------------------------------------

    async def _serve_streaming(self, writer, request: ServeRequest,
                               raw: Dict) -> None:
        """Serve one run/ping request as a server-sent JSONL stream.

        The response bridges the bus: every ``serve.queue`` /
        ``serve.dedup`` event for this request's key is forwarded to
        the client as it is published (including events produced by a
        *different* request's execution this one coalesced onto),
        terminated by a ``done`` line with the normal response payload.
        """
        events: "asyncio.Queue[Dict]" = asyncio.Queue()
        subscriptions = []
        sentinel = {"key": None}

        def bridge(etype):
            def forward(*args):
                fields = dict(zip(etype.fields, args))
                if (sentinel["key"] is not None
                        and fields.get("key") == sentinel["key"]):
                    events.put_nowait({"event": etype.name, **fields})
            self.bus.subscribe(etype, forward)
            subscriptions.append((etype, forward))

        for etype in (SERVE_QUEUE, SERVE_DEDUP):
            bridge(etype)
        writer.write(self._head(200, {
            "Content-Type": "application/x-ndjson"}, close=True))
        self._write_line(writer, {"event": "accepted",
                                  "op": request.op})
        await writer.drain()
        task = asyncio.ensure_future(self._serve_keyed(
            request, raw,
            on_key=lambda key: sentinel.__setitem__("key", key)))
        try:
            while True:
                getter = asyncio.ensure_future(events.get())
                done, _pending = await asyncio.wait(
                    {task, getter}, return_when=asyncio.FIRST_COMPLETED)
                if getter in done:
                    self._write_line(writer, getter.result())
                    await writer.drain()
                else:
                    getter.cancel()
                if task in done:
                    while not events.empty():
                        self._write_line(writer, events.get_nowait())
                    break
            # the response head is already on the wire — a failure must
            # become a final JSONL line, never a second HTTP status line
            # spliced into the ndjson body
            try:
                status, _extra, payload = task.result()
            except Exception as exc:
                self._count("errors")
                self._write_line(writer, {
                    "event": "error",
                    "error": f"{type(exc).__name__}: {exc}"})
            else:
                self._write_line(writer, {"event": "done",
                                          "status": status,
                                          "response": payload})
            await writer.drain()
        finally:
            for etype, forward in subscriptions:
                self.bus.unsubscribe(etype, forward)
            if not task.done():
                task.cancel()

    @staticmethod
    def _write_line(writer, record: Dict) -> None:
        writer.write((json.dumps(record, allow_nan=False,
                                 sort_keys=True) + "\n").encode("utf-8"))
