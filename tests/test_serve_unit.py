"""PhotonServe building blocks: quotas, queue, dedup, protocol.

No sockets here — these are the pure units (token buckets with a fake
clock, the admission queue raced against drain, single-flight
coalescing with cancelled waiters) that the app-level and e2e suites
build on.  No pytest-asyncio dependency: each async test body runs
under its own ``asyncio.run``.
"""

import asyncio

import pytest

from repro.durable import RecordLog
from repro.errors import ConfigError
from repro.serve import (
    AdmissionQueue,
    ProtocolError,
    SingleFlight,
    TenantQuotas,
    TokenBucket,
    deterministic_result,
    normalize_request,
    request_key,
)
from repro.serve.lifecycle import PENDING_NAME, DrainController


def read_pending(state_dir):
    """The drain journal's valid prefix."""
    return RecordLog(state_dir / PENDING_NAME, "serve.pending").scan().records


# -- token buckets ----------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_token_bucket_burst_then_refill():
    clock = FakeClock()
    bucket = TokenBucket(rate=2.0, burst=3.0, clock=clock)
    assert [bucket.try_acquire() for _ in range(3)] == [0.0, 0.0, 0.0]
    retry = bucket.try_acquire()
    assert retry == pytest.approx(0.5)  # 1 token at 2/s
    clock.advance(0.5)
    assert bucket.try_acquire() == 0.0


def test_token_bucket_disabled_when_rate_zero():
    bucket = TokenBucket(rate=0.0, burst=1.0, clock=FakeClock())
    assert all(bucket.try_acquire() == 0.0 for _ in range(100))


def test_tenant_quotas_are_isolated():
    """One greedy tenant exhausts only its own bucket."""
    clock = FakeClock()
    quotas = TenantQuotas(rate=1.0, burst=2.0, clock=clock)
    assert quotas.admit("greedy")[0]
    assert quotas.admit("greedy")[0]
    admitted, retry_after, reason = quotas.admit("greedy")
    assert not admitted and retry_after > 0
    assert reason == "tenant rate limit exceeded"
    assert quotas.rejected_rate == 1
    # a different tenant is untouched
    assert quotas.admit("polite")[0]


def test_tenant_max_inflight_and_release():
    quotas = TenantQuotas(max_inflight=2, clock=FakeClock())
    assert quotas.admit("t")[0] and quotas.admit("t")[0]
    admitted, _retry, reason = quotas.admit("t")
    assert not admitted and reason == "tenant max-inflight exceeded"
    quotas.release("t")
    assert quotas.admit("t")[0]
    assert quotas.inflight("other") == 0


# -- admission queue --------------------------------------------------------

def test_queue_full_and_retry_after_floor():
    async def body():
        queue = AdmissionQueue(limit=2, slots=1)
        assert not queue.full()
        queue.waiting = 2
        assert not queue.full()      # a free slot always admits
        assert await queue.acquire()  # take the slot
        assert queue.full()
        assert queue.retry_after() >= 1  # whole seconds, never 0
        queue.waiting = 0
        assert not queue.full()      # waiting room has space again

    asyncio.run(body())


def test_queue_retry_after_tracks_observed_wall():
    queue = AdmissionQueue(limit=10, slots=1)
    for _ in range(50):
        queue.observe(10.0)  # EMA converges towards 10s tasks
    queue.waiting = 4
    assert queue.retry_after() >= 40


def test_queue_rejects_bad_config():
    with pytest.raises(ValueError):
        AdmissionQueue(limit=-1, slots=1)
    with pytest.raises(ValueError):
        AdmissionQueue(limit=1, slots=0)


def test_queue_acquire_release_counts():
    async def body():
        queue = AdmissionQueue(limit=4, slots=2)
        assert await queue.acquire()
        assert await queue.acquire()
        assert queue.running == 2 and queue.waiting == 0
        queue.release()
        queue.release()
        assert queue.running == 0

    asyncio.run(body())


def test_queue_drain_displaces_waiter():
    """A queued request loses its slot wait when drain begins; a
    request already holding a slot is unaffected."""
    async def body():
        queue = AdmissionQueue(limit=4, slots=1)
        draining = asyncio.Event()
        assert await queue.acquire(draining)  # takes the only slot
        waiter = asyncio.ensure_future(queue.acquire(draining))
        await asyncio.sleep(0.01)
        assert queue.waiting == 1
        draining.set()
        assert await waiter is False          # displaced, no slot held
        assert queue.waiting == 0 and queue.running == 1
        queue.release()
        # post-drain acquires refuse immediately
        assert await queue.acquire(draining) is False

    asyncio.run(body())


def test_queue_cancelled_waiter_leaks_no_slot():
    async def body():
        queue = AdmissionQueue(limit=4, slots=1)
        assert await queue.acquire()
        waiter = asyncio.ensure_future(queue.acquire())
        await asyncio.sleep(0.01)
        waiter.cancel()
        with pytest.raises(asyncio.CancelledError):
            await waiter
        queue.release()
        assert await queue.acquire()  # the slot is still grantable
        assert queue.waiting == 0

    asyncio.run(body())


# -- single-flight dedup ----------------------------------------------------

def test_single_flight_coalesces_identical_keys():
    """N concurrent same-key callers → exactly one execution, every
    caller handed the *same* result object."""
    async def body():
        flights = SingleFlight()
        executions = []

        async def thunk():
            executions.append(1)
            await asyncio.sleep(0.02)
            return {"value": 42}

        results = await asyncio.gather(
            *[flights.run("k", thunk) for _ in range(8)])
        assert len(executions) == 1
        values = [result for result, _shared in results]
        assert all(v is values[0] for v in values)
        assert sum(1 for _r, shared in results if shared) == 7
        assert flights.coalesced == 7
        assert len(flights) == 0  # registry cleaned up

    asyncio.run(body())


def test_single_flight_different_keys_run_independently():
    async def body():
        flights = SingleFlight()
        ran = []

        def make(key):
            async def thunk():
                ran.append(key)
                return key
            return thunk

        results = await asyncio.gather(
            flights.run("a", make("a")), flights.run("b", make("b")))
        assert sorted(ran) == ["a", "b"]
        assert [shared for _r, shared in results] == [False, False]

    asyncio.run(body())


def test_single_flight_cancelled_waiter_keeps_execution_alive():
    """A disconnecting client cancels only its own wait; the shared
    execution completes and serves the surviving waiters."""
    async def body():
        flights = SingleFlight()
        finished = asyncio.Event()

        async def thunk():
            await asyncio.sleep(0.05)
            finished.set()
            return "result"

        first = asyncio.ensure_future(flights.run("k", thunk))
        await asyncio.sleep(0.01)
        second = asyncio.ensure_future(flights.run("k", thunk))
        await asyncio.sleep(0.01)
        first.cancel()
        with pytest.raises(asyncio.CancelledError):
            await first
        result, shared = await second
        assert result == "result" and shared
        assert finished.is_set()  # the execution was never cancelled

    asyncio.run(body())


def test_single_flight_failure_fans_out_and_resets():
    async def body():
        flights = SingleFlight()
        calls = []

        async def failing():
            calls.append(1)
            await asyncio.sleep(0.01)
            raise RuntimeError("boom")

        waits = [asyncio.ensure_future(flights.run("k", failing))
                 for _ in range(3)]
        for wait in waits:
            with pytest.raises(RuntimeError, match="boom"):
                await wait
        assert len(calls) == 1      # one execution, shared failure
        # the flight was forgotten: the next request retries fresh
        async def ok():
            return "fine"
        result, shared = await flights.run("k", ok)
        assert result == "fine" and not shared

    asyncio.run(body())


# -- drain controller -------------------------------------------------------

def test_drain_journal_roundtrip(tmp_path):
    async def body():
        drain = DrainController(str(tmp_path))
        assert not drain.is_draining()
        drain.begin()
        drain.begin()  # idempotent
        assert drain.is_draining()
        assert drain.journal({"op": "ping", "key": "a"})
        assert drain.journal({"op": "run", "workload": "relu"})
        drain.close()
        assert drain.journaled == 2

    asyncio.run(body())
    pending = read_pending(tmp_path)
    assert [p["op"] for p in pending] == ["ping", "run"]


def test_drain_journal_without_state_dir_is_nonfatal(tmp_path):
    async def body():
        drain = DrainController(None)
        drain.begin()
        assert drain.journal({"op": "ping"}) is False

    asyncio.run(body())
    assert read_pending(tmp_path / "missing") == []


def test_read_pending_skips_torn_tail(tmp_path):
    log = RecordLog(tmp_path / PENDING_NAME, "serve.pending")
    log.append({"op": "ping"})
    log.close()
    with open(tmp_path / PENDING_NAME, "ab") as handle:
        handle.write(b'{"op": "run", "work')  # torn mid-append
    assert [p["op"] for p in read_pending(tmp_path)] == ["ping"]


# -- protocol ---------------------------------------------------------------

def test_normalize_rejects_bad_requests():
    for body, fragment in [
        ([1, 2], "JSON object"),
        ({"op": "teleport"}, "unknown op"),
        ({"op": "run", "workload": "nope"}, "unknown workload"),
        ({"op": "run", "workload": "relu", "method": "magic"},
         "unknown method"),
        ({"op": "run", "workload": "relu", "gpu": "tpu"}, "unknown gpu"),
        ({"op": "run", "workload": "relu", "size": "big"}, "integer"),
        ({"op": "run", "workload": "relu", "size": 0}, ">= 1"),
        ({"op": "sweep"}, "workloads"),
        ({"op": "sweep", "workloads": ["relu"], "sizes": []},
         "non-empty"),
    ]:
        with pytest.raises(ProtocolError, match=fragment):
            normalize_request(body)


def test_ping_delay_is_bounded():
    """A delayed ping sleeps holding an admission slot: a minute at
    most, or one request could pin a slot until drain."""
    assert normalize_request(
        {"op": "ping", "delay_ms": 60_000}).delay_ms == 60_000
    for delay in (60_001, 10**9):
        with pytest.raises(ProtocolError, match="<= 60000"):
            normalize_request({"op": "ping", "delay_ms": delay})


def test_sweep_plan_size_is_bounded():
    """A sweep may plan 4096 tasks (a baseline and each method per
    cell), counted before any size is parsed."""
    def sweep(n_sizes, methods=("photon",), workloads=("relu",)):
        return {"op": "sweep", "workloads": list(workloads),
                "sizes": list(range(1, n_sizes + 1)),
                "methods": list(methods)}

    assert len(normalize_request(sweep(2048)).sizes) == 2048
    for body in (sweep(2049), sweep(1366, methods=("photon", "pka")),
                 sweep(1025, workloads=("relu", "fir"))):
        with pytest.raises(ProtocolError, match="at most 4096"):
            normalize_request(body)
    # default sizes count too: relu plans one cell
    many = {"op": "sweep", "workloads": ["relu"] * 2049}
    with pytest.raises(ProtocolError, match="plans 4098 tasks"):
        normalize_request(many)


def test_normalize_defaults_and_tenant():
    request = normalize_request({"workload": "relu"}, op="run")
    assert request.op == "run"
    assert request.tenant == "default"
    assert request.size == 4096 and request.method == "photon"
    named = normalize_request({"op": "ping", "tenant": "alice"})
    assert named.tenant == "alice"


def test_protocol_error_is_config_error():
    assert issubclass(ProtocolError, ConfigError)


def test_request_key_is_stable_and_content_addressed():
    """Same (program, data, grid, config) → same key; any simulation-
    shaping change → different key; presentation fields never enter."""
    a = normalize_request({"workload": "relu", "size": 128}, op="run")
    b = normalize_request({"workload": "relu", "size": 128,
                           "tenant": "other", "stream": True}, op="run")
    key_a = request_key(a.task())
    assert key_a == request_key(b.task())      # presentation-free
    assert len(key_a) == 64 and int(key_a, 16) >= 0

    for variant in [{"size": 256}, {"method": "pka"}, {"gpu": "mi100"},
                    {"workload": "fir"}, {"seed": 7}]:
        other = normalize_request(
            {"workload": "relu", "size": 128, **variant}, op="run")
        assert request_key(other.task()) != key_a, variant


def test_request_key_ignores_performance_only_settings():
    """Settings that cannot change a result must not split the result
    cache: where traces are read from, the task's position in a plan —
    and the retired functional-batching switch, which ``request_key``
    used to hash although both of its values produced bitwise-identical
    results, and the retired in-task retry block."""
    import dataclasses

    from repro.parallel.tasks import SweepTask

    base = normalize_request({"workload": "relu", "size": 128},
                             op="run").task()
    key = request_key(base)
    assert request_key(dataclasses.replace(
        base, index=9, trace_store="/somewhere/else")) == key
    for value in (True, False):
        payload = base.to_dict()
        payload["photon"]["batched" + "_functional"] = value
        payload["retry"] = {"max_attempts": 3}
        assert request_key(SweepTask.from_dict(payload)) == key
    assert all("batch" not in f.name
               for f in dataclasses.fields(type(base.photon)))


def test_deterministic_result_strips_host_variance():
    from repro.parallel.tasks import SweepTask, run_task

    task = SweepTask(index=0, workload="relu", size=128,
                     method="photon", gpu="r9nano")
    outcome = run_task(task)
    result = deterministic_result(outcome)
    for name in ("wall_seconds", "worker", "started", "task_wall",
                 "index", "trace_misses", "trace_hits"):
        assert name not in result
    assert result["status"] == "ok"
    assert result["sim_time"] == outcome.sim_time
