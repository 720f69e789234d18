"""PhotonServer over real sockets, in-process (``jobs=0``).

The server runs on the test's own event loop with the inline execution
tier, so every admission decision is observable and deterministic;
blocking ``ServeClient`` calls are pushed to executor threads.  The
subprocess / worker-pool behaviour (SIGTERM, process isolation) lives
in test_serve_e2e.py.
"""

import asyncio
import functools
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.durable import RecordLog
from repro.obs import SERVE_REQUEST
from repro.parallel.tasks import SweepTask, run_task
from repro.parallel.tier import _crash_outcome
from repro.serve import (
    PhotonServer,
    ServeClient,
    ServeConfig,
    ServeHTTPError,
    deterministic_result,
)
from repro.serve.lifecycle import PENDING_NAME, DrainController


def _pending_log(state_dir):
    return RecordLog(state_dir / PENDING_NAME, "serve.pending")


def read_pending(state_dir):
    """The drain journal's valid prefix."""
    return _pending_log(state_dir).scan().records


def serve_test(config=None):
    """Run an async test body against a started in-process server."""
    def decorate(fn):
        def wrapper():
            async def body():
                server = PhotonServer(config or ServeConfig(
                    port=0, jobs=0, queue_limit=8))
                host, port = await server.start()
                client = ServeClient(host, port, timeout=30)
                try:
                    await fn(server=server, client=client)
                finally:
                    await server.drain_and_stop()
                    client.close()
            asyncio.run(body())
        # keep the test's own name, but NOT its signature — pytest
        # would read the inner (server, client) params as fixtures
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper
    return decorate


# dedicated pool for blocking client calls: the loop's *default*
# executor is only cpu+4 threads (5 on a 1-core CI box), far too few
# for the concurrent-request tests below
_CALLS = ThreadPoolExecutor(max_workers=16,
                            thread_name_prefix="serve-test-client")


def call(fn, *args, **kwargs):
    """One blocking client call on an executor thread.

    Returns the *scheduled* future (not a coroutine): the request is
    already on the wire when this returns, so ``x = call(...)`` really
    does put a request in flight before the test's next await.
    """
    loop = asyncio.get_running_loop()
    return loop.run_in_executor(
        _CALLS, functools.partial(fn, *args, **kwargs))


# -- basics -----------------------------------------------------------------

@serve_test()
async def test_health_stats_and_routing(server, client):
    assert (await call(client.health)) == {"status": "ok"}
    stats = await call(client.stats)
    assert stats["counts"]["requests"] == 0
    assert stats["queue"]["slots"] == 1
    status, _headers, payload = await call(client.get, "/nope")
    assert status == 404 and "no route" in payload["error"]
    status, _headers, payload = await call(
        client.request, "DELETE", "/v1/run")
    assert status == 405


@serve_test()
async def test_malformed_requests_get_400(server, client):
    for path, body in [("/v1/run", {"workload": "nope"}),
                       ("/v1/run", {"workload": "relu", "size": -1}),
                       ("/v1/sweep", {}),
                       ("/v1/ping", {"delay_ms": -5})]:
        status, _headers, payload = await call(client.post, path, body)
        assert status == 400 and "error" in payload, (path, payload)
    assert (await call(client.stats))["counts"]["errors"] == 4


@serve_test()
async def test_oversized_ping_and_sweep_get_400(server, client):
    """A ping delayed past a minute and a sweep planning more than 4096
    tasks are refused before admission: no slot is taken."""
    big_sweep = {"workloads": ["relu"], "sizes": list(range(1, 2050))}
    for path, body in [("/v1/ping", {"delay_ms": 60_001}),
                       ("/v1/sweep", big_sweep)]:
        status, _headers, payload = await call(client.post, path, body)
        assert status == 400 and "error" in payload, (path, payload)
    stats = await call(client.stats)
    assert stats["queue"]["running"] == 0
    assert stats["counts"]["executions"] == 0


@serve_test()
async def test_run_roundtrip_matches_direct_execution(server, client):
    """A served result is bitwise the direct run_task result."""
    served = await call(client.run, "relu", 128, "photon")
    direct = deterministic_result(run_task(SweepTask(
        index=0, workload="relu", size=128, method="photon",
        gpu="r9nano")))
    assert served["cache"] == "miss"
    assert served["result"] == direct
    again = await call(client.run, "relu", 128, "photon")
    assert again["cache"] == "hit"
    assert again["result"] == direct
    assert again["key"] == served["key"]


@serve_test()
async def test_tenant_header_sets_tenant(server, client):
    status, _headers, payload = await call(
        client.post, "/v1/ping", {}, {"X-Tenant": "alice"})
    assert status == 200
    # the body wins over the header when both are present
    status, _headers, payload = await call(
        client.post, "/v1/ping", {"tenant": "bob"}, {"X-Tenant": "alice"})
    assert status == 200


# -- single-flight dedup over the wire (satellite: dedup coverage) ---------

@serve_test()
async def test_concurrent_identical_requests_coalesce(server, client):
    """N identical in-flight requests → one execution; every waiter
    gets an identical response body."""
    first = call(client.ping, delay_ms=600, key="shared")
    await asyncio.sleep(0.1)  # the flight is now definitely open
    rest = await asyncio.gather(
        *[call(client.ping, delay_ms=600, key="shared")
          for _ in range(5)])
    results = [await first] + list(rest)
    kinds = sorted(r["cache"] for r in results)
    assert kinds == ["dedup"] * 5 + ["miss"]
    bodies = [r["result"] for r in results]
    assert all(b == bodies[0] for b in bodies)
    stats = await call(client.stats)
    assert stats["coalesced"] == 5
    assert stats["counts"]["dedup"] == 5


@serve_test()
async def test_concurrent_identical_runs_execute_once(server, client):
    def run():
        return client.run("relu", 128, "photon")

    results = await asyncio.gather(*[call(run) for _ in range(4)])
    kinds = sorted(r["cache"] for r in results)
    # exactly one execution; the rest attached to it (dedup) or, if
    # they arrived after it finished, read its cached result (hit)
    assert kinds.count("miss") == 1
    assert all(kind in ("miss", "dedup", "hit") for kind in kinds)
    assert len({r["key"] for r in results}) == 1
    bodies = [r["result"] for r in results]
    assert all(b == bodies[0] for b in bodies)
    stats = await call(client.stats)
    assert stats["counts"]["executions"] == 1


# -- backpressure (satellite: backpressure coverage) ------------------------

@serve_test(ServeConfig(port=0, jobs=0, queue_limit=1, max_inflight=1))
async def test_queue_overflow_answers_429_with_retry_after(server, client):
    """One slot + one waiting spot: the third distinct in-flight
    request bounces with 429 and a whole-second Retry-After."""
    slow = [call(client.ping, delay_ms=400, key=f"k{i}")
            for i in range(2)]
    await asyncio.sleep(0.1)  # let both occupy slot + waiting room
    status, headers, payload = await call(
        client.post, "/v1/ping", {"delay_ms": 0, "key": "k2"})
    assert status == 429
    assert int(headers["retry-after"]) >= 1
    assert payload["error"] == "admission queue full"
    assert payload["retry_after"] == int(headers["retry-after"])
    results = await asyncio.gather(*slow)
    assert all(r["cache"] == "miss" for r in results)
    stats = await call(client.stats)
    assert stats["counts"]["rejected_queue"] == 1


@serve_test(ServeConfig(port=0, jobs=0, queue_limit=1, max_inflight=1))
async def test_dedup_waiters_bypass_queue_limit(server, client):
    """Attaching to an in-flight execution adds no work, so it is
    never bounced for queue fullness."""
    first = call(client.ping, delay_ms=300, key="shared")
    await asyncio.sleep(0.05)
    filler = call(client.ping, delay_ms=0, key="other")   # fills queue
    await asyncio.sleep(0.05)
    dup = await call(client.ping, delay_ms=300, key="shared")
    assert dup["cache"] in ("dedup", "hit")
    await asyncio.gather(first, filler)


@serve_test(ServeConfig(port=0, jobs=0, queue_limit=8,
                        tenant_rate=1.0, tenant_burst=2.0))
async def test_tenant_quota_throttles_only_the_greedy_tenant(server,
                                                             client):
    def ping(tenant, key):
        return client.post("/v1/ping",
                           {"tenant": tenant, "key": key})

    for i in range(2):  # burst allowance
        status, _h, _p = await call(ping, "greedy", f"g{i}")
        assert status == 200
    status, headers, payload = await call(ping, "greedy", "g2")
    assert status == 429
    assert payload["error"] == "tenant rate limit exceeded"
    assert int(headers["retry-after"]) >= 1
    # the other tenant is completely unaffected
    status, _h, _p = await call(ping, "polite", "p0")
    assert status == 200
    stats = await call(client.stats)
    assert stats["counts"]["rejected_quota"] == 1


@serve_test(ServeConfig(port=0, jobs=0, queue_limit=8,
                        tenant_max_inflight=1))
async def test_tenant_inflight_cap(server, client):
    slow = call(client.post, "/v1/ping",
                {"tenant": "t", "delay_ms": 300, "key": "a"})
    await asyncio.sleep(0.05)
    status, _h, payload = await call(
        client.post, "/v1/ping", {"tenant": "t", "key": "b"})
    assert status == 429
    assert payload["error"] == "tenant max-inflight exceeded"
    status, _h, _p = await call(
        client.post, "/v1/ping", {"tenant": "u", "key": "c"})
    assert status == 200
    await slow


# -- graceful drain (satellite: drain coverage) -----------------------------

def test_drain_finishes_inflight_journals_queued_rejects_new(tmp_path):
    async def body():
        server = PhotonServer(ServeConfig(
            port=0, jobs=0, queue_limit=4, max_inflight=1,
            state_dir=str(tmp_path), drain_grace=10.0))
        host, port = await server.start()
        client = ServeClient(host, port, timeout=30)
        # one request holding the slot, one queued behind it
        inflight = call(client.ping, delay_ms=400, key="inflight")
        await asyncio.sleep(0.1)
        queued = call(client.post, "/v1/ping",
                      {"delay_ms": 0, "key": "queued"})
        await asyncio.sleep(0.1)

        server.begin_drain()
        # new work is refused immediately with 503
        status, headers, payload = await call(
            client.post, "/v1/ping", {"key": "late"})
        assert status == 503 and "draining" in payload["error"]
        assert int(headers["retry-after"]) >= 1
        # the in-flight request completes normally
        result = await inflight
        assert result["cache"] == "miss"
        # the queued request was displaced and journaled
        status, _headers, payload = await queued
        assert status == 503
        assert payload["journaled"] is True
        stats = await server.drain_and_stop()
        assert stats["counts"]["drained"] == 1
        assert stats["counts"]["rejected_draining"] >= 1

    asyncio.run(body())
    pending = read_pending(tmp_path)
    assert len(pending) == 1
    assert pending[0]["key"] == "queued"


def test_drain_without_state_dir_still_answers_503():
    async def body():
        server = PhotonServer(ServeConfig(port=0, jobs=0, queue_limit=4,
                                          max_inflight=1))
        host, port = await server.start()
        client = ServeClient(host, port, timeout=30)
        inflight = call(client.ping, delay_ms=300, key="a")
        await asyncio.sleep(0.05)
        queued = call(client.post, "/v1/ping", {"key": "b"})
        await asyncio.sleep(0.05)
        server.begin_drain()
        assert (await inflight)["cache"] == "miss"
        status, _headers, payload = await queued
        assert status == 503 and payload["journaled"] is False
        await server.drain_and_stop()

    asyncio.run(body())


# -- result cache vs infrastructure failures --------------------------------

@serve_test()
async def test_infra_crash_outcome_is_not_cached(server, client):
    """A pool-crash error outcome must not poison the result LRU: the
    next identical request re-executes and its good result is cached."""
    real_run = server.tier.run
    calls = {"n": 0}

    async def flaky_run(task):
        calls["n"] += 1
        if calls["n"] == 1:
            return _crash_outcome(task, RuntimeError("worker pool broken"))
        return await real_run(task)

    server.tier.run = flaky_run
    first = await call(client.run, "relu", 128, "photon")
    assert first["cache"] == "miss"
    assert first["result"]["status"] == "error"
    assert first["result"]["stage"] == "pool"
    second = await call(client.run, "relu", 128, "photon")
    assert second["cache"] == "miss"          # error was NOT served warm
    assert second["result"]["status"] == "ok"
    third = await call(client.run, "relu", 128, "photon")
    assert third["cache"] == "hit"            # the good result IS cached
    assert third["result"] == second["result"]
    assert calls["n"] == 2


# -- sweeps and streaming ---------------------------------------------------

@serve_test(ServeConfig(port=0, jobs=0, queue_limit=8,
                        tenant_rate=1.0, tenant_burst=1.0,
                        tenant_max_inflight=1))
async def test_sweep_admits_once_under_tight_tenant_quotas(server, client):
    """Regression: sweep cells must not re-enter the tenant gate.  With
    max-inflight 1 and a single burst token the parent sweep consumes
    both; its cells run under that one admission and the sweep succeeds
    instead of answering a false 503."""
    result = await call(client.sweep, ["relu"], sizes=[128],
                        methods=["photon"])
    assert result["tasks"] == 2
    assert result["cache"] == {"hit": 0, "dedup": 0, "miss": 2}
    stats = await call(client.stats)
    assert stats["counts"]["rejected_quota"] == 0
    assert stats["counts"]["rejected_draining"] == 0


def test_sweep_drain_journals_per_cell_run_requests(tmp_path):
    """Cells displaced by drain journal themselves as single-run
    requests — replaying pending.jsonl re-runs each shed cell once,
    never the whole sweep per cell."""
    async def body():
        server = PhotonServer(ServeConfig(
            port=0, jobs=0, queue_limit=8, max_inflight=1,
            state_dir=str(tmp_path), drain_grace=10.0))
        host, port = await server.start()
        client = ServeClient(host, port, timeout=30)
        hold = call(client.ping, delay_ms=700, key="hold")
        await asyncio.sleep(0.1)
        sweep = call(client.post, "/v1/sweep",
                     {"workloads": ["relu"], "sizes": [128],
                      "methods": ["photon"]})
        await asyncio.sleep(0.2)   # cells keyed and queued behind hold
        server.begin_drain()
        assert (await hold)["cache"] == "miss"
        status, _headers, payload = await sweep
        assert status == 503
        assert payload["journaled"] is True
        await server.drain_and_stop()

    asyncio.run(body())
    pending = read_pending(tmp_path)
    assert len(pending) == 2   # full baseline + photon, one entry each
    for entry in pending:
        assert entry["op"] == "run"
        assert entry["workload"] == "relu"
        assert "workloads" not in entry
    assert {e["method"] for e in pending} == {"full", "photon"}


@serve_test()
async def test_serve_request_events_carry_stable_req_ids(server, client):
    """The serve.request req field is the id allocated for the request,
    not a fresh draw — ids are consecutive with no gaps."""
    seen = []
    forward = lambda *args: seen.append(args)
    server.bus.subscribe(SERVE_REQUEST, forward)
    try:
        await call(client.ping, key="a")
        await call(client.ping, key="b")
    finally:
        server.bus.unsubscribe(SERVE_REQUEST, forward)
    reqs = [fields[0] for fields in seen]
    assert reqs == [1, 2]
    ops = [fields[2] for fields in seen]
    assert ops == ["ping", "ping"]

@serve_test()
async def test_sweep_decomposes_through_the_cache(server, client):
    cold = await call(client.sweep, ["relu"], sizes=[128],
                      methods=["photon"])
    assert cold["tasks"] == 2  # full baseline + photon
    assert cold["cache"] == {"hit": 0, "dedup": 0, "miss": 2}
    assert {r["method"] for r in cold["rows"]} == {"full", "photon"}
    warm = await call(client.sweep, ["relu"], sizes=[128],
                      methods=["photon"])
    assert warm["cache"] == {"hit": 2, "dedup": 0, "miss": 0}
    assert warm["rows"] == cold["rows"]
    assert "relu" in warm["table"]
    # a single run of the same cell is also a pure hit now
    run = await call(client.run, "relu", 128, "photon")
    assert run["cache"] == "hit"


@serve_test()
async def test_streaming_response_carries_lifecycle_events(server,
                                                           client):
    def stream():
        return list(client.stream("/v1/ping",
                                  {"delay_ms": 50, "key": "sk"}))

    events = await call(stream)
    assert events[0]["event"] == "accepted"
    queue_actions = [e["action"] for e in events
                     if e["event"] == "serve.queue"]
    assert queue_actions == ["enqueue", "start", "done"]
    done = events[-1]
    assert done["event"] == "done" and done["status"] == 200
    assert done["response"]["cache"] == "miss"


@serve_test()
async def test_streaming_failure_emits_error_line_not_http_head(server,
                                                                client):
    """An exception mid-stream becomes a final JSONL error event; the
    server must never splice a second HTTP response head into the
    already-started ndjson body."""
    async def boom(key, work, raw, cacheable):
        raise RuntimeError("kaboom")

    server._execute = boom

    def stream():
        # the client json-decodes every line: a stray "HTTP/1.1 500 ..."
        # head in the body would raise here
        return list(client.stream("/v1/ping", {"delay_ms": 0,
                                               "key": "sx"}))

    events = await call(stream)
    assert events[0]["event"] == "accepted"
    assert events[-1]["event"] == "error"
    assert "kaboom" in events[-1]["error"]
    assert all(e["event"] != "done" for e in events)


# -- restart replay (pending.jsonl) ----------------------------------------

def _write_pending(tmp_path, records):
    log = _pending_log(tmp_path)
    for record in records:
        log.append(record)
    log.close()


def test_replay_pending_serves_journaled_work_and_truncates(tmp_path):
    """On startup the server replays drained pending.jsonl through the
    normal admission path — valid records execute and land in the
    result cache, malformed ones are dropped — then truncates the
    journal durably."""
    _write_pending(tmp_path, [
        {"op": "run", "workload": "relu", "size": 128, "method": "photon"},
        {"op": "ping", "delay_ms": 0, "key": "p1"},
        {"op": "run", "workload": "no_such_workload"},  # dropped
    ])

    async def body():
        server = PhotonServer(ServeConfig(
            port=0, jobs=0, queue_limit=8, state_dir=str(tmp_path)))
        replayed = await server.replay_pending()
        assert replayed == 2
        assert server.counts["replayed"] == 2
        assert server.counts["errors"] == 1
        # the run's result is warm: a fresh identical request is a hit
        host, port = await server.start()
        client = ServeClient(host, port, timeout=30)
        result = await call(client.run, "relu", 128, "photon")
        assert result["cache"] == "hit"
        # idempotent: the journal was truncated, nothing replays twice
        assert await server.replay_pending() == 0
        await server.drain_and_stop()

    asyncio.run(body())
    assert read_pending(tmp_path) == []
    assert (tmp_path / "pending.jsonl").read_bytes() == b""


def test_replay_pending_with_retired_functional_key(tmp_path):
    """A request journaled by a server whose clients still sent the
    functional-batching switch replays after the restart, and lands on
    the same cache entry as a request without it."""
    retired = "batched" + "_functional"
    _write_pending(tmp_path, [
        {"op": "run", "workload": "relu", "size": 128, "method": "photon",
         retired: False, "photon": {retired: True}},
    ])

    async def body():
        server = PhotonServer(ServeConfig(
            port=0, jobs=0, queue_limit=8, state_dir=str(tmp_path)))
        assert await server.replay_pending() == 1
        assert server.counts["errors"] == 0
        host, port = await server.start()
        client = ServeClient(host, port, timeout=30)
        result = await call(client.run, "relu", 128, "photon")
        assert result["cache"] == "hit"
        await server.drain_and_stop()

    asyncio.run(body())
    assert read_pending(tmp_path) == []


def test_torn_pending_tail_is_quarantined_before_the_next_drain(tmp_path):
    """A crash mid-append leaves a torn tail; replay moves it aside, so
    the next drain's request lands on a clean line and reads back."""
    torn = b'{"op":"ping","key":"to'
    (tmp_path / PENDING_NAME).write_bytes(torn)

    async def body():
        server = PhotonServer(ServeConfig(
            port=0, jobs=0, queue_limit=8, state_dir=str(tmp_path)))
        assert await server.replay_pending() == 0
        drain = DrainController(str(tmp_path))   # the next drain
        assert drain.journal({"op": "ping", "key": "after"})
        drain.close()

    asyncio.run(body())
    assert [r["key"] for r in read_pending(tmp_path)] == ["after"]
    assert (tmp_path / "pending.quarantined").read_bytes() == torn


def test_flipped_pending_record_is_not_replayed(tmp_path):
    """A value byte flipped on disk still parses as JSON, but fails its
    checksum: the record is quarantined, not served."""
    _write_pending(tmp_path, [{"op": "ping", "delay_ms": 0, "key": "p1"}])
    path = tmp_path / PENDING_NAME
    raw = path.read_bytes()
    path.write_bytes(raw.replace(b'"key":"p1"', b'"key":"p2"'))

    async def body():
        server = PhotonServer(ServeConfig(
            port=0, jobs=0, queue_limit=8, state_dir=str(tmp_path)))
        assert await server.replay_pending() == 0
        assert server.counts["replayed"] == 0

    asyncio.run(body())
    assert read_pending(tmp_path) == []
    assert b'"key":"p2"' in (tmp_path / "pending.quarantined").read_bytes()


def test_replay_pending_without_state_dir_is_a_noop():
    async def body():
        server = PhotonServer(ServeConfig(port=0, jobs=0))
        assert await server.replay_pending() == 0

    asyncio.run(body())


def test_drained_ping_replays_as_ping_after_restart(tmp_path):
    """End-to-end drain -> restart: the journaled body carries its op
    (stamped at journal time, since the op normally lives in the URL),
    so a shed /v1/ping replays as a ping, not a malformed run."""
    async def body():
        server = PhotonServer(ServeConfig(
            port=0, jobs=0, queue_limit=4, max_inflight=1,
            state_dir=str(tmp_path), drain_grace=10.0))
        host, port = await server.start()
        client = ServeClient(host, port, timeout=30)
        inflight = call(client.ping, delay_ms=400, key="inflight")
        await asyncio.sleep(0.1)
        queued = call(client.post, "/v1/ping",
                      {"delay_ms": 0, "key": "queued"})
        await asyncio.sleep(0.1)
        server.begin_drain()
        await inflight
        status, _headers, payload = await queued
        assert status == 503 and payload["journaled"] is True
        await server.drain_and_stop()

    asyncio.run(body())
    pending = read_pending(tmp_path)
    assert len(pending) == 1
    assert pending[0]["op"] == "ping"

    async def restart():
        server = PhotonServer(ServeConfig(
            port=0, jobs=0, queue_limit=4, state_dir=str(tmp_path)))
        assert await server.replay_pending() == 1
        assert server.counts["errors"] == 0

    asyncio.run(restart())
    assert read_pending(tmp_path) == []


# -- the wire: keep-alive, framing limits, reuse ----------------------------

class RawConn:
    """A bare socket speaking HTTP/1.1 by hand (no client library
    between the test and the server's framing)."""

    def __init__(self, client):
        import socket

        self.sock = socket.create_connection((client.host, client.port),
                                             timeout=10)
        self.buffer = b""

    def send(self, method, path, body=b"", headers=()):
        head = [f"{method} {path} HTTP/1.1", "Host: test", *headers]
        if body:
            head.append(f"Content-Length: {len(body)}")
        self.sock.sendall("\r\n".join(head).encode() + b"\r\n\r\n" + body)

    def _fill(self) -> bool:
        chunk = self.sock.recv(65536)
        self.buffer += chunk
        return bool(chunk)

    def response(self):
        """``(status, headers, body bytes)`` of the next framed reply."""
        while b"\r\n\r\n" not in self.buffer:
            assert self._fill(), "closed before a response head"
        head, self.buffer = self.buffer.split(b"\r\n\r\n", 1)
        lines = head.decode("latin-1").split("\r\n")
        headers = {k.lower(): v.strip() for k, v in
                   (line.split(":", 1) for line in lines[1:])}
        length = int(headers.get("content-length", 0))
        while len(self.buffer) < length:
            assert self._fill(), "closed inside a response body"
        body, self.buffer = self.buffer[:length], self.buffer[length:]
        return int(lines[0].split()[1]), headers, body

    def closed_by_server(self) -> bool:
        """True when the server ends the connection (EOF, no more bytes)."""
        import socket

        self.sock.settimeout(2)
        try:
            return not self._fill()
        except socket.timeout:
            return False
        except ConnectionError:
            return True

    def close(self):
        self.sock.close()


@pytest.mark.parametrize("declared, status", [
    ("abc", 400), ("-5", 400), ("99999999999", 413)])
def test_bad_content_length_is_4xx_json_and_closes(declared, status):
    import json

    @serve_test()
    async def body(server, client):
        def exchange():
            conn = RawConn(client)
            try:
                conn.send("POST", "/v1/ping",
                          headers=[f"Content-Length: {declared}"])
                code, headers, raw = conn.response()
                return code, headers, raw, conn.closed_by_server()
            finally:
                conn.close()

        code, headers, raw, closed = await call(exchange)
        assert code == status
        assert headers["connection"] == "close" and closed
        assert headers["content-type"] == "application/json"
        error = json.loads(raw)["error"]
        assert "Content-Length" in error or "too large" in error
        assert "Error" not in error and "Traceback" not in error
        counts = (await call(client.stats))["counts"]
        assert counts["errors"] == 1 and counts["requests"] == 0

    body()


@serve_test()
async def test_one_thread_reuses_one_connection(server, client):
    def pings():
        return [client.ping()["cache"] for _ in range(50)]

    assert await call(pings) == ["miss"] * 50
    assert server.counts["connections"] == 1
    assert server.counts["requests"] == 50


@serve_test()
async def test_one_client_two_threads_two_connections(server, client):
    import threading

    def from_two_threads():
        threads = [threading.Thread(
            target=lambda: [client.ping() for _ in range(5)])
            for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    await call(from_two_threads)
    assert server.counts["connections"] == 2
    assert server.counts["requests"] == 10
    # the counter is on the wire too (this call is a third thread's)
    assert (await call(client.stats))["counts"]["connections"] == 3


@serve_test()
async def test_connection_close_and_streams_end_the_connection(server,
                                                               client):
    import json

    def exchange():
        keep, close, stream = RawConn(client), RawConn(client), \
            RawConn(client)
        try:
            keep.send("POST", "/v1/ping", b'{"key": "k"}')
            first = keep.response()
            keep.send("GET", "/healthz")     # same socket, second request
            second = keep.response()
            close.send("POST", "/v1/ping", b'{"key": "k"}',
                       ["Connection: close"])
            closing = close.response()
            stream.send("POST", "/v1/ping", b'{"key": "s", "stream": true}')
            while stream._fill():
                pass                          # a stream ends by EOF
            return (first, second, closing, close.closed_by_server(),
                    stream.buffer)
        finally:
            for conn in (keep, close, stream):
                conn.close()

    first, second, closing, closed, streamed = await call(exchange)
    assert first[0] == second[0] == closing[0] == 200
    assert first[1]["connection"] == second[1]["connection"] == "keep-alive"
    assert closing[1]["connection"] == "close" and closed
    head, _sep, lines = streamed.partition(b"\r\n\r\n")
    assert b"Connection: close" in head and b"Content-Length" not in head
    assert json.loads(lines.splitlines()[-1])["event"] == "done"
    assert server.counts["connections"] == 3


@serve_test()
async def test_idle_connection_closed_by_server_reconnects_once(server,
                                                                client):
    from repro.serve import app

    previous, app._IDLE_SECONDS = app._IDLE_SECONDS, 0.05
    try:
        def two_pings_around_an_idle_gap():
            import time

            client.ping()
            time.sleep(0.3)            # the server closes the idle socket
            return client.ping()

        assert (await call(two_pings_around_an_idle_gap))["cache"] == "miss"
    finally:
        app._IDLE_SECONDS = previous
    # one resend on one fresh connection; each ping served exactly once
    assert server.counts["connections"] == 2
    assert server.counts["requests"] == 2


def test_client_never_sends_a_request_a_third_time():
    """A reused connection that died gets one resend on a fresh one; a
    fresh connection that dies is the caller's error."""
    import socket
    import threading

    listener = socket.create_server(("127.0.0.1", 0))
    accepted = []

    def serve():
        reply = (b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n"
                 b"Connection: keep-alive\r\n\r\n{}\n")
        while True:
            try:
                conn, _addr = listener.accept()
            except OSError:
                return
            accepted.append(conn)
            if len(accepted) == 1:       # answer once, then hang up
                conn.recv(65536)
                conn.sendall(reply)
            conn.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        client = ServeClient(*listener.getsockname(), timeout=5)
        assert client.request("GET", "/healthz")[0] == 200
        with pytest.raises(ConnectionError):
            client.request("GET", "/healthz")   # reused dies, fresh dies
        assert len(accepted) == 2
        with pytest.raises(ConnectionError):
            client.request("GET", "/healthz")   # fresh dies: no resend
        assert len(accepted) == 3
    finally:
        listener.close()
        thread.join(timeout=5)


@serve_test()
async def test_hit_bytes_identical_on_reused_and_fresh_connection(server,
                                                                  client):
    request = b'{"workload": "relu", "size": 128, "method": "photon"}'

    def exchange():
        reused, fresh = RawConn(client), RawConn(client)
        try:
            bodies = []
            for conn in (reused, reused, reused, fresh):
                conn.send("POST", "/v1/run", request)
                bodies.append(conn.response()[2])
            return bodies
        finally:
            reused.close()
            fresh.close()

    miss, hit_a, hit_b, hit_fresh = await call(exchange)
    assert b'"cache": "miss"' in miss and b'"cache": "hit"' in hit_a
    assert hit_a == hit_b == hit_fresh
    assert hit_a == miss.replace(b'"cache": "miss"', b'"cache": "hit"')


def test_drain_closes_idle_connections_and_marks_inflight_replies():
    async def body():
        server = PhotonServer(ServeConfig(port=0, jobs=0, queue_limit=4))
        host, port = await server.start()
        client = ServeClient(host, port, timeout=30)

        def idle_then_watch():
            conn = RawConn(client)
            try:
                conn.send("GET", "/healthz")
                assert conn.response()[1]["connection"] == "keep-alive"
                return conn.closed_by_server()   # parked idle until drain
            finally:
                conn.close()

        def inflight():
            conn = RawConn(client)
            try:
                conn.send("POST", "/v1/ping",
                          b'{"delay_ms": 300, "key": "slow"}')
                status, headers, _body = conn.response()
                return status, headers["connection"], \
                    conn.closed_by_server()
            finally:
                conn.close()

        idle, slow = call(idle_then_watch), call(inflight)
        await asyncio.sleep(0.15)
        assert len(server._idle) == 1 and len(server._conns) == 2
        server.begin_drain()
        assert await idle is True
        # paid-for work is delivered, on a connection that then ends
        assert await slow == (200, "close", True)
        await server.drain_and_stop()
        assert not server._conns and not server._idle

    asyncio.run(body())


@serve_test()
async def test_oversized_request_line_is_answered_not_dropped(server,
                                                              client):
    """A request line past the stream reader's limit is an error reply
    on a connection that then closes — never an unhandled exception in
    the connection handler."""
    def exchange():
        conn = RawConn(client)
        try:
            conn.send("GET", "/" + "x" * (1 << 17))
            status, headers, _body = conn.response()
            return status, headers["connection"], conn.closed_by_server()
        finally:
            conn.close()

    assert await call(exchange) == (500, "close", True)
    assert server.counts["errors"] == 1
    assert (await call(client.health)) == {"status": "ok"}
