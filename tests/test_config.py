"""GPU configuration presets (Table 1) and Photon config validation."""

import pytest

from repro.config import CacheGeometry, GpuConfig, MI100, R9_NANO
from repro.harness.defaults import EVAL_R9NANO, resolve_gpu
from repro.core import PhotonConfig
from repro.errors import ConfigError


def test_table1_r9nano():
    assert R9_NANO.n_cu == 64
    assert R9_NANO.clock_ghz == 1.0
    assert R9_NANO.l1v.size_bytes == 16 * 1024 and R9_NANO.l1v.assoc == 4
    assert R9_NANO.l1i.size_bytes == 32 * 1024
    assert R9_NANO.l2.size_bytes == 256 * 1024 and R9_NANO.l2.assoc == 16
    assert R9_NANO.l2_banks == 8
    assert R9_NANO.dram_gb == 4


def test_table1_mi100():
    assert MI100.n_cu == 120
    assert MI100.l2_banks == 32
    # 8MB total L2 across 32 banks (Table 1)
    assert MI100.l2.size_bytes * MI100.l2_banks == 8 * 1024 * 1024
    assert MI100.dram_gb == 32


def test_preset_lookup():
    """One preset table: ``r9nano`` names the scaled evaluation GPU, the
    ``full-`` prefix the unscaled Table 1 machine."""
    assert resolve_gpu("r9nano") is EVAL_R9NANO
    assert resolve_gpu("full-r9nano") is R9_NANO
    assert resolve_gpu("full-mi100") is MI100
    with pytest.raises(ConfigError, match="unknown GPU preset 'h100'"):
        resolve_gpu("h100")


def test_cache_geometry_sets():
    assert R9_NANO.l1v.n_sets == 16 * 1024 // (4 * 64)


def test_scaled_preserves_per_cu_geometry():
    small = R9_NANO.scaled(8)
    assert small.n_cu == 8
    assert small.l1v == R9_NANO.l1v
    assert small.l2 == R9_NANO.l2
    assert small.l2_banks >= 4  # bandwidth floor
    assert small.dram_channels >= 4


def test_scaled_handles_awkward_cu_counts():
    cfg = MI100.scaled(15)
    assert cfg.n_cu == 15
    assert cfg.n_cu % cfg.cus_per_l1_group == 0


def test_invalid_configs_rejected():
    import dataclasses

    with pytest.raises(ConfigError):
        dataclasses.replace(R9_NANO, n_cu=0)
    with pytest.raises(ConfigError):
        dataclasses.replace(R9_NANO, n_cu=6)  # not divisible by group


@pytest.mark.parametrize("overrides", [
    {"cus_per_l1_group": 0}, {"l2_banks": 0}, {"dram_channels": 0},
    {"l2_banks": -2},
    {"l1v": CacheGeometry(16 * 1024, 0)},
    {"l1k": CacheGeometry(16 * 1024, 4, line_bytes=0)},
    {"l2": CacheGeometry(256 * 1024, 0)},
    {"l1i": CacheGeometry(32 * 1024, 4, line_bytes=0)}],
    ids=lambda overrides: next(iter(overrides)))
def test_zero_divisor_geometry_rejected(overrides):
    """Geometry the timing model divides by is a ConfigError at
    construction, not a ZeroDivisionError at the first access."""
    import dataclasses

    with pytest.raises(ConfigError, match=next(iter(overrides))):
        dataclasses.replace(R9_NANO, **overrides)


@pytest.mark.parametrize("field", [
    "scalar_alu_lat", "vector_alu_lat", "branch_lat", "lds_lat", "l1_lat",
    "l2_lat", "dram_lat", "l1_service", "l2_service", "dram_service",
    "issue_interval", "cp_dispatch_interval"])
def test_negative_latency_or_interval_rejected(field):
    """A negative per-class latency would read as "send to the stateful
    handlers" and fail mid-run; it is a ConfigError at construction.
    Zero and fractional values stay legal."""
    import dataclasses

    with pytest.raises(ConfigError, match=f"{field} must be >= 0, got -1"):
        dataclasses.replace(EVAL_R9NANO, **{field: -1})
    for value in (0, 1.3):
        assert getattr(dataclasses.replace(EVAL_R9NANO, **{field: value}),
                       field) == value


_LATENCY_FIELDS = [
    "scalar_alu_lat", "vector_alu_lat", "branch_lat", "lds_lat", "l1_lat",
    "l2_lat", "dram_lat", "l1_service", "l2_service", "dram_service",
    "issue_interval", "cp_dispatch_interval"]


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")])
@pytest.mark.parametrize("field", _LATENCY_FIELDS)
def test_non_finite_latency_or_interval_rejected(field, value):
    """A NaN passes ``< 0``, and a NaN or infinite latency matches no
    op class in the engine (a mid-run ``TimingError``); both are a
    ConfigError at construction."""
    import dataclasses

    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        dataclasses.replace(EVAL_R9NANO, **{field: value})


def test_photon_config_defaults_match_paper():
    cfg = PhotonConfig()
    assert cfg.sample_fraction == 0.01
    assert cfg.bb_window == 2048
    assert cfg.warp_window == 1024
    assert cfg.delta == 0.03
    assert cfg.stable_bb_rate == 0.95
    assert cfg.dominant_warp_rate == 0.95
    assert cfg.bbv_dim == 16


def test_photon_config_validation():
    with pytest.raises(ConfigError):
        PhotonConfig(sample_fraction=0.0)
    with pytest.raises(ConfigError):
        PhotonConfig(bb_window=1)
    with pytest.raises(ConfigError):
        PhotonConfig(delta=1.5)
    with pytest.raises(ConfigError):
        PhotonConfig(stable_bb_rate=0.0)
    with pytest.raises(ConfigError):
        PhotonConfig(bbv_dim=0)


@pytest.mark.parametrize("field,value", [
    ("min_sample_warps", 0),
    ("warp_window", 1),
    ("bb_retire_gate_fraction", 1.5),
    ("bb_retire_gate_fraction", -0.1),
    ("mean_delta", 0.0),
    ("mean_delta", 1.0),
    ("dominant_warp_rate", 1.5),
    ("gpu_bbv_clusters", 0),
    ("kernel_distance", -0.1),
    ("rare_bb_min_samples", 0),
])
def test_photon_config_errors_name_the_field(field, value):
    with pytest.raises(ConfigError, match=field):
        PhotonConfig(**{field: value})


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")])
@pytest.mark.parametrize("field", [
    "sample_fraction", "min_sample_warps", "bb_window", "stable_bb_rate",
    "bb_retire_gate_fraction", "warp_window", "dominant_warp_rate",
    "delta", "mean_delta", "bbv_dim", "gpu_bbv_clusters",
    "kernel_distance", "rare_bb_min_samples"])
def test_photon_config_rejects_non_finite_values(field, value):
    """``kernel_distance=nan`` used to pass (``nan < 0`` is False);
    every numeric knob now rejects NaN and both infinities by name."""
    with pytest.raises(ConfigError, match=f"{field} must be finite"):
        PhotonConfig(**{field: value})


def test_photon_config_boundary_values_accepted():
    PhotonConfig(sample_fraction=1.0, bb_retire_gate_fraction=0.0,
                 mean_delta=None, kernel_distance=0.0,
                 min_sample_warps=1, rare_bb_min_samples=1)


def test_with_levels():
    cfg = PhotonConfig().with_levels(kernel=True, warp=False, bb=False)
    assert cfg.enable_kernel_sampling
    assert not cfg.enable_warp_sampling
    assert not cfg.enable_bb_sampling
    # original untouched (frozen dataclass)
    assert PhotonConfig().enable_warp_sampling
