"""DuraSweep journal: record integrity, valid-prefix scan, quarantine.

Property under test: :func:`scan_journal` never raises and always
replays exactly the longest valid prefix — proven exhaustively by
truncating a real journal at *every* byte boundary.  The quarantine
path must preserve the torn tail (``journal.quarantined``) and truncate
the log back to its valid prefix before any new append.
"""

import json

import pytest

from repro.durable import seal, unseal
from repro.errors import ConfigError, SamplingError
from repro.parallel import (
    JOURNAL_NAME,
    SweepJournal,
    SweepTask,
    TaskOutcome,
    plan_sweep,
    scan_journal,
)
from repro.parallel.journal import (
    QUARANTINE_NAME,
    REC_DONE,
    REC_MERGED,
    REC_PLAN,
)


def encode_record(record):
    """One journal line: the sealed record plus its newline."""
    return seal(record) + b"\n"


decode_line = unseal


def _tiny_plan(**kwargs):
    return plan_sweep(["fir"], sizes=(64,), methods=("photon",),
                      seed=7, **kwargs)


def _outcome(index, ok=True):
    return TaskOutcome(index=index, workload="fir", size=64,
                       method="photon",
                       status="ok" if ok else "error",
                       error_class="" if ok else "InjectedFault",
                       sim_time=123.0, n_insts=10, mode="full")


def _journal_bytes(tmp_path, n_outcomes=2):
    """A real small journal's raw bytes (plan + scheduled/done pairs)."""
    run_dir = tmp_path / "run"
    journal = SweepJournal.create(run_dir, _tiny_plan())
    tasks = _tiny_plan()
    for task in tasks[:n_outcomes]:
        journal.task_scheduled(task)
        journal.task_outcome(_outcome(task.index))
    journal.merged({"tasks": 0, "bundles": 0, "warps_added": 0,
                    "quarantined": 0})
    journal.close()
    return run_dir, (run_dir / JOURNAL_NAME).read_bytes()


# ------------------------------------------------------------ records


def test_encode_decode_round_trip():
    record = {"rec": REC_DONE, "index": 3,
              "outcome": {"index": 3, "status": "ok"}}
    line = encode_record(record)
    assert line.endswith(b"\n")
    decoded = decode_line(line[:-1])
    assert decoded is not None
    assert decoded["rec"] == REC_DONE
    assert decoded["index"] == 3
    assert "checksum" in decoded


@pytest.mark.parametrize("mutation", [
    lambda line: line[:-5],                      # torn
    lambda line: line.replace(b'"index":3', b'"index":4'),  # bit rot
    lambda line: b"not json at all",
    lambda line: b'"just a string"',             # JSON, not an object
    lambda line: b"",
])
def test_decode_rejects_damage(mutation):
    line = encode_record({"rec": REC_DONE, "index": 3})[:-1]
    assert decode_line(line) is not None
    assert decode_line(mutation(line)) is None


# ----------------------------------------------- valid-prefix scanning


def test_scan_missing_file_is_empty(tmp_path):
    scan = scan_journal(tmp_path / "nope.jsonl")
    assert scan.records == [] and scan.valid_bytes == 0
    assert not scan.complete


def test_scan_truncated_at_every_byte_boundary(tmp_path):
    """Exhaustive torn-tail property: any prefix scans cleanly."""
    _run_dir, raw = _journal_bytes(tmp_path)
    # record boundaries = offsets just past each newline
    boundaries = [0]
    offset = 0
    while True:
        newline = raw.find(b"\n", offset)
        if newline < 0:
            break
        offset = newline + 1
        boundaries.append(offset)
    full = scan_journal(_run_dir / JOURNAL_NAME)
    assert full.valid_bytes == len(raw)
    assert full.complete and full.quarantined_bytes == 0

    for cut in range(len(raw) + 1):
        (tmp_path / "cut.jsonl").write_bytes(raw[:cut])
        scan = scan_journal(tmp_path / "cut.jsonl")
        # the scan recovers the longest whole-record prefix...
        expected_valid = max(b for b in boundaries if b <= cut)
        assert scan.valid_bytes == expected_valid, f"cut at {cut}"
        # ...quarantines exactly the rest...
        assert scan.quarantined_bytes == cut - expected_valid
        # ...and every surviving record still decodes
        assert len(scan.records) == boundaries.index(expected_valid)


def test_scan_corrupt_middle_line_stops_prefix(tmp_path):
    _run_dir, raw = _journal_bytes(tmp_path)
    lines = raw.splitlines(keepends=True)
    assert len(lines) >= 4
    corrupted = lines[1][:10] + b"X" + lines[1][11:]
    (tmp_path / "bad.jsonl").write_bytes(
        lines[0] + corrupted + b"".join(lines[2:]))
    scan = scan_journal(tmp_path / "bad.jsonl")
    # everything from the corrupt line on is quarantined, even the
    # structurally fine records behind it — prefix semantics
    assert len(scan.records) == 1
    assert scan.records[0]["rec"] == REC_PLAN
    assert scan.quarantined_lines == len(lines) - 1


def test_scan_outcomes_last_record_wins(tmp_path):
    run_dir = tmp_path / "run"
    journal = SweepJournal.create(run_dir, _tiny_plan())
    journal.task_outcome(_outcome(1, ok=False))
    journal.task_outcome(_outcome(1, ok=True))  # re-run after rebuild
    journal.close()
    scan = scan_journal(run_dir / JOURNAL_NAME)
    outcomes = scan.outcomes()
    assert set(outcomes) == {1}
    assert outcomes[1].ok


def test_scan_tasks_round_trip(tmp_path):
    run_dir, _raw = _journal_bytes(tmp_path)
    scan = scan_journal(run_dir / JOURNAL_NAME)
    tasks = scan.tasks()
    assert [t.to_dict() for t in tasks] == \
        [t.to_dict() for t in _tiny_plan()]
    assert all(isinstance(t, SweepTask) for t in tasks)


# ------------------------------------------------------ create/resume


def test_create_refuses_existing_journal(tmp_path):
    run_dir = tmp_path / "run"
    SweepJournal.create(run_dir, _tiny_plan()).close()
    with pytest.raises(ConfigError, match="resume it with --resume"):
        SweepJournal.create(run_dir, _tiny_plan())


def test_resume_quarantines_and_truncates_tail(tmp_path):
    run_dir, raw = _journal_bytes(tmp_path)
    journal_path = run_dir / JOURNAL_NAME
    torn = raw + b'{"rec":"done","ind'  # crash mid-append
    journal_path.write_bytes(torn)

    journal, scan = SweepJournal.resume(run_dir)
    journal.close()
    assert scan.quarantined_bytes == len(torn) - len(raw)
    assert scan.quarantined_lines == 1
    # the tail was preserved aside and the journal truncated back
    assert (run_dir / QUARANTINE_NAME).read_bytes() == \
        b'{"rec":"done","ind'
    assert journal_path.read_bytes() == raw


def test_resume_requires_a_plan_record(tmp_path):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / JOURNAL_NAME).write_bytes(b"garbage\n")
    with pytest.raises(SamplingError, match="no valid plan record"):
        SweepJournal.resume(run_dir)
    with pytest.raises(SamplingError, match="no valid plan record"):
        SweepJournal.resume(tmp_path / "missing")


def test_resume_rejects_unknown_version(tmp_path):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    record = {"rec": REC_PLAN, "version": 99, "tasks": [],
              "options": {}}
    (run_dir / JOURNAL_NAME).write_bytes(encode_record(record))
    with pytest.raises(SamplingError, match="unsupported journal"):
        SweepJournal.resume(run_dir)


def test_appends_after_resume_extend_the_valid_prefix(tmp_path):
    run_dir, raw = _journal_bytes(tmp_path)
    (run_dir / JOURNAL_NAME).write_bytes(raw + b"torn tail")
    journal, _scan = SweepJournal.resume(run_dir)
    journal.append({"rec": REC_MERGED, "trace_merge": None})
    journal.close()
    scan = scan_journal(run_dir / JOURNAL_NAME)
    assert scan.quarantined_bytes == 0
    assert scan.records[-1]["rec"] == REC_MERGED


def test_journal_records_are_canonical_json(tmp_path):
    _run_dir, raw = _journal_bytes(tmp_path)
    for line in raw.splitlines():
        record = json.loads(line)
        recoded = json.dumps(record, sort_keys=True,
                             separators=(",", ":")).encode("utf-8")
        assert recoded == line
