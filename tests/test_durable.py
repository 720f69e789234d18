"""Durable-write primitives, filesystem fault injection, retry backoff.

``durable_replace`` must be all-or-nothing across every injected
failure mode — the target keeps its previous complete content and no
temp litter survives.  ``durable_append`` must model a crash as exactly
the flushed partial tail.  Retry backoff must be a pure function of
(policy, attempt) so sweeps stay reproducible down to their retry
schedule.
"""

import errno
import json

import pytest

from repro.durable import durable_append, durable_replace, fsync_dir
from repro.errors import ConfigError, DiskFault, InjectedFault
from repro.obs import RELIABILITY_RETRY, MemorySink, scoped_bus
from repro.reliability import (
    FS_FAULT_MODES,
    FsFaultPlan,
    FsFaultSpec,
    RetryPolicy,
    current_fs_faults,
    scoped_fs_faults,
)

# ------------------------------------------------------ durable_replace


def test_durable_replace_writes_and_replaces(tmp_path):
    target = tmp_path / "state.json"
    durable_replace(b"first", target)
    assert target.read_bytes() == b"first"
    durable_replace(b"second", target)
    assert target.read_bytes() == b"second"
    assert list(tmp_path.iterdir()) == [target]  # no temp litter


@pytest.mark.parametrize("mode", FS_FAULT_MODES)
def test_durable_replace_failures_keep_previous_content(tmp_path, mode):
    target = tmp_path / "state.json"
    durable_replace(b"previous complete content", target)
    plan = FsFaultPlan(FsFaultSpec(site="test.site", mode=mode))
    expected = DiskFault if mode == "torn" else OSError
    with scoped_fs_faults(plan):
        with pytest.raises(expected):
            durable_replace(b"new content that dies", target,
                            site="test.site")
    assert plan.fired == [("test.site", mode, "state.json")]
    # all-or-nothing: old content intact, temp file cleaned up
    assert target.read_bytes() == b"previous complete content"
    assert list(tmp_path.iterdir()) == [target]


def test_durable_replace_enospc_is_enospc(tmp_path):
    plan = FsFaultPlan(FsFaultSpec(site="*", mode="enospc"))
    with scoped_fs_faults(plan):
        with pytest.raises(OSError) as info:
            durable_replace(b"data", tmp_path / "f")
    assert info.value.errno == errno.ENOSPC


# ------------------------------------------------------- durable_append


def test_durable_append_returns_bytes_written(tmp_path):
    path = tmp_path / "log.jsonl"
    with open(path, "ab") as handle:
        assert durable_append(handle, b"one\n", path) == 4
        assert durable_append(handle, b"two\n", path) == 4
    assert path.read_bytes() == b"one\ntwo\n"


def test_durable_append_torn_leaves_partial_tail(tmp_path):
    path = tmp_path / "log.jsonl"
    plan = FsFaultPlan(FsFaultSpec(site="wal", mode="torn", at=2,
                                   fraction=0.5))
    with scoped_fs_faults(plan), open(path, "ab") as handle:
        durable_append(handle, b"complete-record\n", path, site="wal")
        with pytest.raises(DiskFault):
            durable_append(handle, b"doomed-record-xy\n", path,
                           site="wal")
    # the crash left exactly the flushed prefix on disk
    raw = path.read_bytes()
    assert raw.startswith(b"complete-record\n")
    tail = raw[len(b"complete-record\n"):]
    assert tail == b"doomed-r" and not tail.endswith(b"\n")


def test_fsync_dir_tolerates_missing_directory(tmp_path):
    fsync_dir(tmp_path / "does-not-exist")  # must not raise


# ------------------------------------------------------- fsfault plans


def test_fs_fault_spec_validation():
    with pytest.raises(ConfigError, match="unknown fs fault mode"):
        FsFaultSpec(site="x", mode="gamma-ray")
    with pytest.raises(ConfigError, match="fraction"):
        FsFaultSpec(site="x", fraction=1.5)


def test_fs_fault_at_count_semantics(tmp_path):
    plan = FsFaultPlan(FsFaultSpec(site="s", mode="enospc", at=2,
                                   count=2))
    with scoped_fs_faults(plan):
        target = tmp_path / "f"
        durable_replace(b"1", target, site="s")       # visit 1: ok
        for _ in range(2):                            # visits 2, 3: fire
            with pytest.raises(OSError):
                durable_replace(b"x", target, site="s")
        durable_replace(b"4", target, site="s")       # visit 4: ok again
    assert target.read_bytes() == b"4"
    assert len(plan.fired) == 2


def test_scoped_fs_faults_restores_previous_plan():
    assert current_fs_faults() is None
    outer = FsFaultPlan()
    inner = FsFaultPlan()
    with scoped_fs_faults(outer):
        assert current_fs_faults() is outer
        with scoped_fs_faults(inner):
            assert current_fs_faults() is inner
        assert current_fs_faults() is outer
    assert current_fs_faults() is None


def test_wildcard_site_matches_everything(tmp_path):
    plan = FsFaultPlan(FsFaultSpec(site="*", mode="enospc", at=1,
                                   count=99))
    with scoped_fs_faults(plan):
        with pytest.raises(OSError):
            durable_replace(b"a", tmp_path / "one", site="persist.store")
        with pytest.raises(OSError):
            durable_replace(b"b", tmp_path / "two",
                            site="tracestore.bundle")
    assert [site for site, _m, _p in plan.fired] == \
        ["persist.store", "tracestore.bundle"]


def test_persist_and_tracestore_write_through_fault_sites(tmp_path):
    """The real persistence layers are actually wired to the fault hook."""
    from repro.core.persist import save_analysis_store
    from repro.core.photon import AnalysisStore
    from repro.tracestore.store import TraceKey, _write_bundle

    plan = FsFaultPlan(
        FsFaultSpec(site="persist.store", mode="torn"),
        FsFaultSpec(site="tracestore.bundle", mode="torn"))
    with scoped_fs_faults(plan):
        with pytest.raises(DiskFault):
            save_analysis_store(AnalysisStore(), tmp_path / "store.json")
        key = TraceKey(program="p" * 20, data="d" * 20, n_warps=1,
                       wg_size=1, warp_size=4)
        with pytest.raises(DiskFault):
            _write_bundle(tmp_path / "traces" / key.bundle_name, key,
                          {"sha": b"\x00"}, {0: ("sha", b"\x00\x01")})
    assert {site for site, _m, _p in plan.fired} == \
        {"persist.store", "tracestore.bundle"}
    # neither layer left a torn target behind
    assert not (tmp_path / "store.json").exists()
    assert not list((tmp_path / "traces").glob("*.trc"))


# ----------------------------------------------------- retry backoff


def test_backoff_schedule_is_deterministic():
    policy = RetryPolicy(max_attempts=5, backoff_base=0.5, seed=42)
    schedule = [policy.backoff_for(k) for k in range(1, 5)]
    again = [RetryPolicy(max_attempts=5, backoff_base=0.5,
                         seed=42).backoff_for(k) for k in range(1, 5)]
    assert schedule == again
    # exponential growth shape within the jitter envelope
    for k, delay in enumerate(schedule, start=1):
        nominal = min(30.0, 0.5 * 2.0 ** (k - 1))
        assert nominal * 0.9 <= delay <= nominal * 1.1
    # a different seed gives a different (but still valid) schedule
    other = [RetryPolicy(max_attempts=5, backoff_base=0.5,
                         seed=7).backoff_for(k) for k in range(1, 5)]
    assert other != schedule


def test_backoff_respects_cap_and_zero_base():
    assert RetryPolicy(backoff_base=0.0).backoff_for(10) == 0.0
    capped = RetryPolicy(backoff_base=10.0, backoff_max=12.0,
                         jitter=0.0)
    assert capped.backoff_for(5) == 12.0


def test_retry_emits_reliability_retry_events():
    calls = []

    def flaky():
        calls.append(1)
        if len(calls) < 3:
            raise InjectedFault("transient blip")
        return "ok"

    policy = RetryPolicy(max_attempts=3, transient=(InjectedFault,),
                         backoff_base=0.0)
    with scoped_bus() as bus:
        sink = MemorySink()
        bus.add_sink(sink, kinds=[RELIABILITY_RETRY.name])
        result, attempts, backoff = policy.run_logged(flaky)
        events = sink.of_kind(RELIABILITY_RETRY.name)
        assert bus.metrics.counter("reliability.retries").value == 2
    assert (result, attempts, backoff) == ("ok", 3, 0.0)
    assert [e.fields["attempt"] for e in events] == [1, 2]
    assert all(e.fields["error"] == "InjectedFault" for e in events)
    assert all(e.fields["backoff"] == 0.0 for e in events)


def test_retry_backoff_total_reaches_sweep_outcome():
    """backoff_total flows task → outcome → telemetry → report JSON."""
    from repro.parallel import plan_sweep, run_sweep

    tasks = plan_sweep(["fir"], sizes=(64,), methods=("photon",),
                       seed=7,
                       retry=RetryPolicy(max_attempts=2,
                                         backoff_base=0.0))
    result = run_sweep(tasks)
    for telemetry in result.report.tasks:
        assert telemetry.backoff_total == 0.0
        assert telemetry.replayed is False
    payload = json.loads(json.dumps(result.to_dict()))
    assert payload["telemetry"]["backoff_seconds"] == 0.0
    assert payload["telemetry"]["replayed"] == 0


def test_retry_policy_serialization_round_trips_backoff():
    from repro.parallel import SweepTask, plan_sweep

    policy = RetryPolicy(max_attempts=3, backoff_base=0.25,
                         backoff_factor=3.0, backoff_max=9.0,
                         jitter=0.2, seed=11)
    task = plan_sweep(["fir"], sizes=(64,), methods=("photon",),
                      retry=policy)[0]
    restored = SweepTask.from_dict(task.to_dict()).retry
    assert restored == policy
    assert restored.backoff_for(2) == policy.backoff_for(2)
