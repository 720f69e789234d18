"""TraceForge: on-disk format, hardening contract, and golden fixture.

Mirrors the ``core.persist`` v2 hardening tests (test_core_persist.py)
for the warp-trace store: atomic bundles, format versioning, sha256
checksums, and — the load-bearing property — *per-entry quarantine*: a
version bump, a truncated file, or a flipped byte must lose exactly the
affected entries and never fail the run.

The golden fixture under ``tests/fixtures/tracestore`` is a checked-in
bundle for the shared ``make_vecadd(4, wg_size=2)`` kernel; it pins the
on-disk format across refactors (regenerate with
``scripts/gen_trace_fixture.py`` after an intentional format bump).
"""

import json
import pathlib
import shutil

import pytest

from conftest import make_loop_kernel, make_vecadd
from repro.config import R9_NANO
from repro.functional import FunctionalExecutor
from repro.timing import DetailedEngine, TraceCache
from repro.tracestore import (
    FORMAT_VERSION,
    TraceStore,
    kernel_data_digest,
    program_digest,
    trace_key,
)
from repro.tracestore.format import (
    TraceFormatError,
    decode_lines,
    decode_path,
    encode_lines,
    encode_path,
    mem_positions,
)
from repro.durable import payload_checksum

GPU = R9_NANO.scaled(4)

FIXTURE_DIR = pathlib.Path(__file__).parent / "fixtures" / "tracestore"


# -- binary codec: path blob + line blob ------------------------------------

def _roundtrip(trace, warp_id=None):
    """One trace through a path blob and a line blob and back."""
    mem_pos = mem_positions(trace.mem_lines)
    path = decode_path(encode_path(trace, mem_pos))
    return decode_lines(trace.warp_id if warp_id is None else warp_id,
                        path, encode_lines(trace.mem_lines, mem_pos))


def test_codec_roundtrip_real_traces():
    for kernel in (make_vecadd(n_warps=4), make_loop_kernel(n_warps=4)):
        executor = FunctionalExecutor(kernel)
        for warp in range(kernel.n_warps):
            trace = executor.run_warp_full(warp)
            assert _roundtrip(trace) == trace


def test_codec_one_path_blob_serves_every_warp_of_the_group():
    """Warps of one fill share a path blob; only the line blob differs."""
    from repro.functional.batch import WarpPackExecutor

    kernel = make_vecadd(n_warps=4)
    traces = WarpPackExecutor(kernel).run_warps_full(range(4))
    mem_pos = mem_positions(traces[0].mem_lines)
    path = decode_path(encode_path(traces[0], mem_pos))
    blobs = [encode_lines(traces[w].mem_lines, mem_pos) for w in range(4)]
    assert len(set(blobs)) == 4
    for warp in range(4):
        clone = decode_lines(warp, path, blobs[warp])
        assert clone == traces[warp]
        assert clone.opclass is path[0].opclass   # shared, not copied


def test_codec_distinguishes_none_from_empty_mem():
    """None (not a memory op) and () (no active lanes) must round-trip."""
    from repro.functional.trace import WarpTrace

    trace = WarpTrace(
        warp_id=3,
        static_idx=[0, 1, 2],
        opclass=[1, 2, 3],
        opcode=[10, 11, 12],
        dep=[-1, 0, 1],
        mem_lines=[None, (), (7, 8, 9)],
        is_store=[False, False, True],
        bb_seq=[(0, 0)],
    )
    clone = _roundtrip(trace)
    assert clone == trace
    assert clone.mem_lines[0] is None
    assert clone.mem_lines[1] == ()


def test_codec_rejects_truncated_blob():
    trace = FunctionalExecutor(make_vecadd(n_warps=1)).run_warp_full(0)
    mem_pos = mem_positions(trace.mem_lines)
    path_blob = encode_path(trace, mem_pos)
    line_blob = encode_lines(trace.mem_lines, mem_pos)
    for cut in (3, len(path_blob) - 2):
        with pytest.raises(TraceFormatError):
            decode_path(path_blob[:-cut])
    path = decode_path(path_blob)
    for cut in (3, len(line_blob) - 2):
        with pytest.raises(TraceFormatError):
            decode_lines(0, path, line_blob[:-cut])


def test_codec_rejects_line_blob_of_another_path():
    """A line blob only decodes against a path with as many memory
    positions — a mismatched pairing is a format error, not a trace."""
    trace = FunctionalExecutor(make_vecadd(n_warps=1)).run_warp_full(0)
    mem_pos = mem_positions(trace.mem_lines)
    path = decode_path(encode_path(trace, mem_pos[:-1]))
    with pytest.raises(TraceFormatError):
        decode_lines(0, path, encode_lines(trace.mem_lines, mem_pos))


# -- stable content keys ----------------------------------------------------

def test_program_digest_stable_across_rebuilds():
    a, b = make_vecadd(n_warps=4), make_vecadd(n_warps=4)
    assert program_digest(a.program) == program_digest(b.program)
    assert kernel_data_digest(a) == kernel_data_digest(b)
    assert trace_key(a) == trace_key(b)


def test_program_digest_sensitive_to_program_and_data():
    vecadd, loop = make_vecadd(n_warps=4), make_loop_kernel(n_warps=4)
    assert program_digest(vecadd.program) != program_digest(loop.program)
    small, big = make_vecadd(n_warps=4), make_vecadd(n_warps=8)
    # different grid → different key even for the same program
    assert trace_key(small) != trace_key(big)
    # mutated input data → different data digest (stale traces never hit)
    mutated = make_vecadd(n_warps=4)
    mutated.memory.view("x")[0] = 123.0
    assert kernel_data_digest(mutated) != kernel_data_digest(small)


# -- bundle round trip ------------------------------------------------------

def _populate(store, kernel):
    key = store.key_for(kernel)
    executor = FunctionalExecutor(kernel)
    traces = {w: executor.run_warp_full(w) for w in range(kernel.n_warps)}
    store.put_kernel(kernel, traces, key=key)
    return key, traces


def test_bundle_roundtrip(tmp_path):
    store = TraceStore(tmp_path)
    kernel = make_vecadd(n_warps=4)
    key, traces = _populate(store, kernel)

    view = TraceStore(tmp_path).open_kernel(make_vecadd(n_warps=4))
    assert view.key == key
    assert view.n_available == 4
    assert view.quarantined == 0
    for warp, trace in traces.items():
        assert view.get(warp) == trace
    assert view.get(99) is None


def test_put_merges_into_existing_bundle(tmp_path):
    store = TraceStore(tmp_path)
    kernel = make_vecadd(n_warps=4)
    key = store.key_for(kernel)
    executor = FunctionalExecutor(kernel)
    store.put_kernel(kernel, {0: executor.run_warp_full(0)}, key=key)
    store.put_kernel(kernel, {2: executor.run_warp_full(2)}, key=key)
    view = store.open_kernel(make_vecadd(n_warps=4))
    assert sorted(w for w in range(4) if view.get(w) is not None) == [0, 2]


# -- size-bounded eviction ---------------------------------------------------

def _make_two_bundles(tmp_path):
    """Two bundles with deterministic mtimes: the first written is older."""
    import os

    store = TraceStore(tmp_path)
    _populate(store, make_vecadd(n_warps=4))
    (old,) = pathlib.Path(tmp_path).glob("*.trc")
    _populate(store, make_loop_kernel(n_warps=4))
    (new,) = (p for p in pathlib.Path(tmp_path).glob("*.trc") if p != old)
    os.utime(old, (1_000, 1_000))
    os.utime(new, (2_000, 2_000))
    return store, old, new


def test_evict_noop_without_budget(tmp_path):
    store, old, new = _make_two_bundles(tmp_path)
    assert store.evict() == 0  # no max_mb configured
    assert old.exists() and new.exists()


def test_evict_noop_when_under_budget(tmp_path):
    store, old, new = _make_two_bundles(tmp_path)
    assert store.evict(max_mb=1.0) == 0
    assert old.exists() and new.exists()


def test_evict_removes_lru_bundle_first(tmp_path):
    store, old, new = _make_two_bundles(tmp_path)
    budget_mb = new.stat().st_size / (1 << 20)
    assert store.evict(max_mb=budget_mb) == 1
    assert not old.exists() and new.exists()
    assert store.evicted == 1


def test_evict_tie_break_is_deterministic(tmp_path):
    """Equal mtimes (coarse filesystem clocks, simultaneous workers)
    must not make eviction order depend on directory iteration order:
    ties break on the bundle key, so every platform evicts the same
    bundle."""
    import os

    store, old, new = _make_two_bundles(tmp_path)
    os.utime(old, (1_000, 1_000))
    os.utime(new, (1_000, 1_000))
    first, survivor = sorted((old, new), key=lambda p: p.name)
    store.max_mb = max(old.stat().st_size,
                       new.stat().st_size) / (1 << 20)
    assert store.evict() == 1
    assert not first.exists() and survivor.exists()


def test_evict_uses_instance_budget_and_emits_events(tmp_path):
    from repro.obs import TRACESTORE_EVICT, scoped_bus

    with scoped_bus() as bus:
        seen = []
        bus.subscribe(TRACESTORE_EVICT,
                      lambda bundle, size: seen.append((bundle, size)))
        store, old, new = _make_two_bundles(tmp_path)
        store.max_mb = 0.0  # evict everything
        assert store.evict() == 2
        assert not old.exists() and not new.exists()
        assert [name for name, _size in seen] == [old.name, new.name]
        counters = bus.metrics.snapshot()["counters"]
        assert counters["tracestore.evictions"] == 2


# -- hardening contract (mirrors test_core_persist.py) ----------------------

def _bundle_path(root) -> pathlib.Path:
    paths = list(pathlib.Path(root).glob("*.trc"))
    assert len(paths) == 1
    return paths[0]


def _split_bundle(path):
    raw = path.read_bytes()
    newline = raw.find(b"\n")
    return json.loads(raw[:newline].decode()), raw[newline + 1:]


def _write_header(path, header, body):
    header = dict(header)
    header["checksum"] = payload_checksum(header)
    path.write_bytes(json.dumps(header, sort_keys=True,
                                separators=(",", ":")).encode()
                     + b"\n" + body)


def test_version_bump_quarantines_whole_bundle(tmp_path):
    """A future format version is a miss, not an error."""
    store = TraceStore(tmp_path)
    _populate(store, make_vecadd(n_warps=4))
    path = _bundle_path(tmp_path)
    header, body = _split_bundle(path)
    header["version"] = FORMAT_VERSION + 1
    _write_header(path, header, body)  # checksum valid, version unsupported

    view = TraceStore(tmp_path).open_kernel(make_vecadd(n_warps=4))
    assert view.n_available == 0
    assert view.quarantined == 4


def test_truncated_bundle_quarantines_tail_entry(tmp_path):
    """Losing the file tail loses exactly the last warp's entry."""
    store = TraceStore(tmp_path)
    _populate(store, make_vecadd(n_warps=4))
    path = _bundle_path(tmp_path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-10])

    view = TraceStore(tmp_path).open_kernel(make_vecadd(n_warps=4))
    assert view.quarantined == 1
    assert view.n_available == 3
    for warp in range(3):
        assert view.get(warp) is not None
    assert view.get(3) is None


def test_flipped_checksum_byte_quarantines_one_entry(tmp_path):
    """A flipped byte in one blob loses that entry and nothing else."""
    store = TraceStore(tmp_path)
    kernel = make_vecadd(n_warps=4)
    key, traces = _populate(store, kernel)
    path = _bundle_path(tmp_path)
    header, body = _split_bundle(path)
    victim = header["entries"][1]
    raw = bytearray(path.read_bytes())
    newline = raw.find(b"\n")
    raw[newline + 1 + victim["offset"] + victim["length"] // 2] ^= 0xFF
    path.write_bytes(bytes(raw))

    view = TraceStore(tmp_path).open_kernel(make_vecadd(n_warps=4))
    assert view.quarantined == 1
    assert view.get(victim["warp"]) is None
    for warp in range(4):
        if warp != victim["warp"]:
            assert view.get(warp) == traces[warp]


def test_flipped_header_byte_quarantines_bundle(tmp_path):
    store = TraceStore(tmp_path)
    _populate(store, make_vecadd(n_warps=4))
    path = _bundle_path(tmp_path)
    raw = bytearray(path.read_bytes())
    raw[10] ^= 0xFF
    path.write_bytes(bytes(raw))
    view = TraceStore(tmp_path).open_kernel(make_vecadd(n_warps=4))
    assert view.n_available == 0
    assert view.quarantined >= 1


def test_corruption_never_fails_the_run(tmp_path):
    """A corrupt store degrades to re-emulation with identical timing."""
    reference = DetailedEngine(make_vecadd(n_warps=4), GPU).run()
    store = TraceStore(tmp_path)
    _populate(store, make_vecadd(n_warps=4))
    path = _bundle_path(tmp_path)
    path.write_bytes(b"not a bundle at all")

    cache = TraceCache(backing_store=TraceStore(tmp_path))
    kernel = make_vecadd(n_warps=4)
    result = DetailedEngine(kernel, GPU,
                            trace_provider=cache.provider(kernel)).run()
    assert cache.store_hits == 0
    assert cache.misses == 4
    assert result.end_time == reference.end_time
    assert result.warp_times == reference.warp_times


# -- staged merge (sweep-worker sharing) ------------------------------------

def test_merge_staged_is_first_writer_wins_in_task_order(tmp_path):
    store = TraceStore(tmp_path)
    kernel = make_vecadd(n_warps=4)
    key = store.key_for(kernel)
    executor = FunctionalExecutor(make_vecadd(n_warps=4))
    real = {w: executor.run_warp_full(w) for w in range(4)}
    # task 3 stages a forged trace for warp 0; task 1 stages the real set
    forged = _roundtrip(real[0])
    forged.opcode = list(forged.opcode)
    forged.opcode[0] += 1
    store.stage(3).put_kernel(kernel, {0: forged}, key=key)
    store.stage(1).put_kernel(kernel, real, key=key)

    stats = store.merge_staged()
    assert stats["tasks"] == 2
    assert stats["warps_added"] == 4
    assert not (tmp_path / "staging").exists()

    view = store.open_kernel(make_vecadd(n_warps=4))
    # lower task index folded first: the real warp-0 trace won
    assert view.get(0) == real[0]
    assert view.n_available == 4


def test_merge_staged_selected_indices_only(tmp_path):
    """A live server folds one finished task's staging directory while
    other tasks are still writing theirs — only the named indices are
    touched."""
    store = TraceStore(tmp_path)
    kernel = make_vecadd(n_warps=4)
    key = store.key_for(kernel)
    executor = FunctionalExecutor(make_vecadd(n_warps=4))
    real = {w: executor.run_warp_full(w) for w in range(4)}
    store.stage(1).put_kernel(kernel, real, key=key)
    store.stage(3).put_kernel(kernel, {0: real[0]}, key=key)

    stats = store.merge_staged([1])
    assert stats["tasks"] == 1
    assert stats["warps_added"] == 4
    # task 3's staging dir is untouched and still mergeable later
    assert (tmp_path / "staging" / "task-00000003").is_dir()
    assert store.merge_staged([3])["tasks"] == 1
    assert not (tmp_path / "staging").exists()
    assert store.open_kernel(make_vecadd(n_warps=4)).n_available == 4


def test_merge_staged_empty_store(tmp_path):
    stats = TraceStore(tmp_path).merge_staged()
    assert stats == {"tasks": 0, "bundles": 0, "warps_added": 0,
                     "quarantined": 0}


# -- path blobs: sharing, quarantine granularity, merges --------------------

_SHARED_COLUMNS = ("static_idx", "opclass", "opcode", "dep", "is_store",
                   "bb_seq")


def _two_path_kernel(n_warps=8):
    """Even warps loop twice, odd warps three times: two path groups."""
    return make_loop_kernel(n_warps=n_warps, trips_of=lambda w: 2 + w % 2)


def _fill(kernel, warps=None):
    """One batched fill (warps of a path group share column lists)."""
    from repro.functional.batch import WarpPackExecutor

    ids = list(range(kernel.n_warps) if warps is None else warps)
    return WarpPackExecutor(kernel).run_warps_full(ids)


def _put(store, kernel, warps=None):
    """Fill ``warps`` of a fresh ``kernel`` and persist them (the key is
    taken before emulation applies the kernel's stores)."""
    key = store.key_for(kernel)
    traces = _fill(kernel, warps)
    store.put_kernel(kernel, traces, key=key)
    return traces


def _digests(root):
    import hashlib

    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in pathlib.Path(root).glob("*.trc")}


def test_store_served_warps_of_one_path_share_column_lists(tmp_path):
    traces = _put(TraceStore(tmp_path), _two_path_kernel())
    assert traces[0].opclass is traces[2].opclass   # what a fill shares
    header, _body = _split_bundle(_bundle_path(tmp_path))
    assert len(header["paths"]) == 2 < len(header["entries"]) == 8

    view = TraceStore(tmp_path).open_kernel(_two_path_kernel())
    a, b, other = view.get(0), view.get(2), view.get(1)
    for column in _SHARED_COLUMNS:
        assert getattr(a, column) is getattr(b, column), column
        assert getattr(a, column) is not getattr(other, column), column
    assert a.mem_lines is not b.mem_lines
    for warp, trace in traces.items():
        assert view.get(warp) == trace


def test_chunked_puts_hold_one_path_blob_per_distinct_path(tmp_path):
    """Two fills of one bundle: identity finds a path within a fill,
    sha256 finds it across fills."""
    store = TraceStore(tmp_path)
    _put(store, _two_path_kernel(), range(0, 4))
    _put(store, _two_path_kernel(), range(4, 8))
    header, _body = _split_bundle(_bundle_path(tmp_path))
    assert len(header["paths"]) == 2
    assert [e["warp"] for e in header["entries"]] == list(range(8))
    # and the bytes equal a single-fill bundle's
    once = tmp_path / "once"
    _put(TraceStore(once), _two_path_kernel())
    assert _digests(once) == _digests(tmp_path)


def test_same_columns_different_memory_positions_get_own_paths(tmp_path):
    """Column identity alone never merges two warps whose memory
    positions differ (hand-built traces may alias lists)."""
    from repro.functional.trace import WarpTrace

    kernel = make_vecadd(n_warps=2)
    cols = dict(static_idx=[0, 1], opclass=[1, 2], opcode=[10, 11],
                dep=[-1, 0], is_store=[False, False], bb_seq=[(0, 0)])
    traces = {0: WarpTrace(warp_id=0, mem_lines=[(5,), None], **cols),
              1: WarpTrace(warp_id=1, mem_lines=[None, (6,)], **cols)}
    store = TraceStore(tmp_path)
    store.put_kernel(kernel, traces)
    view = TraceStore(tmp_path).open_kernel(make_vecadd(n_warps=2))
    assert view.quarantined == 0
    assert view.get(0) == traces[0] and view.get(1) == traces[1]


def test_flipped_path_blob_byte_quarantines_that_paths_warps(tmp_path):
    traces = _put(TraceStore(tmp_path), _two_path_kernel())
    path = _bundle_path(tmp_path)
    header, _body = _split_bundle(path)
    victim = header["paths"][1]
    lost = {e["warp"] for e in header["entries"] if e["path"] == 1}
    assert len(lost) == 4
    raw = bytearray(path.read_bytes())
    raw[raw.find(b"\n") + 1 + victim["offset"] + victim["length"] // 2] ^= 0xFF
    path.write_bytes(bytes(raw))

    store = TraceStore(tmp_path)
    view = store.open_kernel(_two_path_kernel())
    assert view.quarantined == store.quarantined == 4
    for warp, trace in traces.items():
        assert view.has(warp) == (warp not in lost)
        assert view.get(warp) == (None if warp in lost else trace)
    # the next flush heals the bundle
    assert store.put_kernel(_two_path_kernel(),
                            {w: traces[w] for w in lost}) == 4
    assert TraceStore(tmp_path).open_kernel(
        _two_path_kernel()).n_available == 8


def test_structurally_bad_path_blob_quarantines_on_get(tmp_path):
    """Checksums pass but the path blob does not parse (format drift):
    each warp of it is quarantined when asked for, the rest replay."""
    from repro.tracestore.store import _read_bundle, _write_bundle

    store = TraceStore(tmp_path)
    key = store.key_for(_two_path_kernel())
    traces = _put(store, _two_path_kernel())
    data = _read_bundle(_bundle_path(tmp_path), key)
    bad_sha = data.lines[1][0]
    _write_bundle(_bundle_path(tmp_path), key,
                  {**data.paths, bad_sha: bytes(data.paths[bad_sha])[:-4]},
                  data.lines)
    # _write_bundle trusts the sha it is given, so the header checksum
    # of the shortened blob is stale: re-stamp it the way a drifted
    # writer would have
    header, body = _split_bundle(_bundle_path(tmp_path))
    import hashlib
    rec = header["paths"][sorted(data.paths).index(bad_sha)]
    rec["sha256"] = hashlib.sha256(
        body[rec["offset"]:rec["offset"] + rec["length"]]).hexdigest()
    _write_header(_bundle_path(tmp_path), header, body)

    view = TraceStore(tmp_path).open_kernel(_two_path_kernel())
    assert view.quarantined == 0 and view.n_available == 8
    assert view.get(1) is None and view.get(3) is None
    assert view.quarantined == 2
    assert view.get(0) == traces[0]


@pytest.mark.parametrize("external", [False, True])
def test_merge_staged_carries_path_blobs_deterministically(tmp_path,
                                                           external):
    """Own staging and ``staging_roots``: whichever task ran first, the
    merged bundle holds each path once and the same bytes."""
    digests = []
    for order in ((1, 3), (3, 1)):
        root = tmp_path / f"store-{order[0]}"
        store = TraceStore(root)
        hosts = [tmp_path / f"ext-{order[0]}" / h for h in ("a", "b")]
        for n, index in enumerate(order):
            staged = (TraceStore(root, write_root=hosts[n] /
                                 f"task-{index:08d}")
                      if external else store.stage(index))
            _put(staged, _two_path_kernel(),
                 range(0, 6) if index == 1 else range(2, 8))
        stats = store.merge_staged(
            staging_roots=hosts if external else None)
        assert stats["tasks"] == 2 and stats["warps_added"] == 8
        assert stats["quarantined"] == 0
        header, _body = _split_bundle(_bundle_path(root))
        assert len(header["paths"]) == 2 and len(header["entries"]) == 8
        view = store.open_kernel(_two_path_kernel())
        assert view.get(0).dep is view.get(6).dep
        digests.append(_digests(root))
    assert digests[0] == digests[1]
    reference = tmp_path / "reference"
    _put(TraceStore(reference), _two_path_kernel())
    assert digests[0] == _digests(reference)


def test_stale_v1_bundle_is_never_opened(tmp_path):
    """The format version is part of the program digest, so a v1 file
    has a name no v2 lookup produces: inert until ``evict`` removes it."""
    kernel = make_vecadd(n_warps=4)
    stale = tmp_path / "0123456789abcdef0123-0123456789abcdef0123-g4x2w64.trc"
    stale.write_bytes(b'{"format":"repro-tracestore","version":1}\n')
    store = TraceStore(tmp_path)
    assert store.key_for(kernel).bundle_name != stale.name
    view = store.open_kernel(kernel)
    assert (view.n_available, view.quarantined, store.reads) == (0, 0, 0)
    assert store.evict(max_mb=0.0) == 1 and not stale.exists()


# -- golden fixture ---------------------------------------------------------

def test_golden_fixture_is_checked_in():
    assert list(FIXTURE_DIR.glob("*.trc")), (
        "golden fixture missing; run scripts/gen_trace_fixture.py")


def test_golden_fixture_matches_current_format():
    """The checked-in bundle decodes under today's digests and codec."""
    kernel = make_vecadd(n_warps=4, wg_size=2)
    view = TraceStore(FIXTURE_DIR).open_kernel(kernel)
    assert view.quarantined == 0, (
        "golden fixture no longer decodes — the on-disk format changed; "
        "bump FORMAT_VERSION and regenerate via "
        "scripts/gen_trace_fixture.py")
    assert view.n_available == 4
    executor = FunctionalExecutor(make_vecadd(n_warps=4, wg_size=2))
    for warp in range(4):
        assert view.get(warp) == executor.run_warp_full(warp)


def test_golden_fixture_replays_bit_identically():
    reference = DetailedEngine(make_vecadd(n_warps=4, wg_size=2),
                               GPU).run()
    cache = TraceCache(backing_store=TraceStore(FIXTURE_DIR))
    kernel = make_vecadd(n_warps=4, wg_size=2)
    result = DetailedEngine(kernel, GPU,
                            trace_provider=cache.provider(kernel)).run()
    assert cache.store_hits == 4
    assert cache.misses == 0
    assert result.end_time == reference.end_time
    assert result.warp_times == reference.warp_times
    assert result.mem_stats == reference.mem_stats


def test_golden_fixture_survives_corruption(tmp_path):
    """Corrupting a copy of the fixture quarantines only the bad parts."""
    work = tmp_path / "store"
    shutil.copytree(FIXTURE_DIR, work)
    path = _bundle_path(work)
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF  # clobber the last blob's tail
    path.write_bytes(bytes(raw))

    view = TraceStore(work).open_kernel(make_vecadd(n_warps=4, wg_size=2))
    assert view.quarantined == 1
    assert view.n_available == 3
