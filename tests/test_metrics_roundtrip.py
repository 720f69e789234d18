"""Serialization round-trips for rows (process-boundary transport and
CLI JSON output)."""

import json
import math

import pytest

from repro.harness.metrics import Comparison, failed_row
from repro.harness.tables import comparison_table


def _ok_row():
    return Comparison(workload="relu", size=2048, method="photon",
                      full_time=100.0, sampled_time=98.0,
                      full_wall=2.0, sampled_wall=0.5,
                      mode="warp", detail_fraction=0.25, fallbacks=1)


def test_comparison_roundtrip():
    row = _ok_row()
    clone = Comparison.from_dict(row.to_dict())
    assert clone == row
    assert clone.error_pct == pytest.approx(2.0)
    assert clone.speedup == pytest.approx(4.0)


def test_failed_row_roundtrip_preserves_nan_as_null():
    row = failed_row("relu", 2048, "photon", "BudgetExceeded", "boom")
    data = row.to_dict()
    assert data["sampled_time"] is None  # NaN encodes as JSON null
    assert data["error_pct"] is None
    clone = Comparison.from_dict(data)
    assert math.isnan(clone.sampled_time)
    assert math.isnan(clone.error_pct)
    assert clone.error_class == "BudgetExceeded"
    assert not clone.ok


def test_rows_serialize_as_strict_json():
    rows = [_ok_row(),
            failed_row("fir", 512, "pka", "SamplingError", "bad sample")]
    # allow_nan=False would raise on a bare NaN: the codec must avoid it
    payload = json.dumps([r.to_dict() for r in rows], allow_nan=False)
    restored = [Comparison.from_dict(d) for d in json.loads(payload)]
    assert restored[0] == rows[0]
    assert restored[1].error == "bad sample"


def test_to_dict_carries_derived_metrics_for_json_consumers():
    data = _ok_row().to_dict()
    assert data["error_pct"] == pytest.approx(2.0)
    assert data["speedup"] == pytest.approx(4.0)
    # derived keys must not confuse from_dict
    assert Comparison.from_dict(data) == _ok_row()


def test_deterministic_table_drops_host_wall_columns():
    rows = [_ok_row()]
    full = comparison_table(rows)
    det = comparison_table(rows, deterministic=True)
    assert "wall" in full and "speedup" in full
    assert "wall" not in det and "speedup" not in det
    # simulated quantities stay
    assert "photon" in det and "err_%" in det
