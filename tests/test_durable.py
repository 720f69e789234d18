"""Durable-write primitives and filesystem fault injection.

``durable_replace`` must be all-or-nothing across every injected
failure mode — the target keeps its previous complete content and no
temp litter survives.  ``durable_append`` must model a crash as exactly
the flushed partial tail.
"""

import errno

import pytest

from repro.durable import (
    RecordLog,
    durable_append,
    durable_replace,
    fsync_dir,
    read_sealed,
    seal,
)
from repro.errors import ConfigError, DiskFault
from repro.reliability import (
    FS_FAULT_MODES,
    FsFaultPlan,
    FsFaultSpec,
    current_fs_faults,
    scoped_fs_faults,
)

from conftest import make_vecadd

# ------------------------------------------------------ durable_replace


def test_durable_replace_writes_and_replaces(tmp_path):
    target = tmp_path / "state.json"
    durable_replace(b"first", target)
    assert target.read_bytes() == b"first"
    durable_replace(b"second", target)
    assert target.read_bytes() == b"second"
    assert list(tmp_path.iterdir()) == [target]  # no temp litter
    # a sealed record round-trips through the same replace
    record = {"b": [1, 2.5], "a": "x"}
    durable_replace(seal(record), target, site="test.site")
    assert target.read_bytes() == seal(record)
    loaded = read_sealed(target)
    assert loaded.pop("checksum") and loaded == record
    assert list(tmp_path.iterdir()) == [target]


def _append_record(path, value, site):
    log = RecordLog(path, site)
    try:
        log.append({"value": value})
    finally:
        log.close()


#: writer -> (file name, fault site, write(path, value, site), read(path)):
#: what a reader sees is the last complete write, whatever the fault did
WRITERS = {
    "replace": ("state.json", "test.site",
                lambda path, value, site: durable_replace(
                    value.encode(), path, site=site),
                lambda path: path.read_bytes().decode()),
    "record_log": ("pending.jsonl", "serve.pending", _append_record,
                   lambda path: RecordLog(path, "serve.pending")
                   .scan().records[-1]["value"]),
}


@pytest.mark.parametrize("mode,writer", [
    pytest.param(mode, writer,
                 id=mode if writer == "replace" else f"{mode}-{writer}")
    for writer in WRITERS for mode in FS_FAULT_MODES])
def test_durable_replace_failures_keep_previous_content(tmp_path, mode,
                                                        writer):
    name, site, write, read = WRITERS[writer]
    target = tmp_path / name
    write(target, "previous complete content", "fs.setup")
    plan = FsFaultPlan(FsFaultSpec(site=site, mode=mode))
    expected = DiskFault if mode == "torn" else OSError
    with scoped_fs_faults(plan):
        with pytest.raises(expected):
            write(target, "new content that dies", site)
    assert plan.fired == [(site, mode, name)]
    # all-or-nothing: old content intact, temp file cleaned up
    assert read(target) == "previous complete content"
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
            durable_replace(b"a", tmp_path / "one",
                            site="tracestore.analysis")
        with pytest.raises(OSError):
            durable_replace(b"b", tmp_path / "two",
                            site="tracestore.bundle")
    assert [site for site, _m, _p in plan.fired] == \
        ["tracestore.analysis", "tracestore.bundle"]


def test_persist_and_tracestore_write_through_fault_sites(tmp_path):
    """The trace store's two writers are actually wired to the fault
    hook: bundles and the analyses stored beside them."""
    from repro.tracestore import TraceStore
    from repro.tracestore.store import TraceKey, _write_bundle

    plan = FsFaultPlan(
        FsFaultSpec(site="tracestore.analysis", mode="torn"),
        FsFaultSpec(site="tracestore.bundle", mode="torn"))
    key = TraceKey(program="p" * 20, data="d" * 20, n_warps=1,
                   wg_size=1, warp_size=4)
    with scoped_fs_faults(plan):
        with pytest.raises(DiskFault):
            TraceStore(tmp_path / "traces").put_analysis(
                make_vecadd(n_warps=4), "a" * 64, {})
        with pytest.raises(DiskFault):
            _write_bundle(tmp_path / "traces" / key.bundle_name, key,
                          {"sha": b"\x00"}, {0: ("sha", b"\x00\x01")})
    assert {site for site, _m, _p in plan.fired} == \
        {"tracestore.analysis", "tracestore.bundle"}
    # neither writer left a torn target behind
    assert not list((tmp_path / "traces").glob("*.ana"))
    assert not list((tmp_path / "traces").glob("*.trc"))

