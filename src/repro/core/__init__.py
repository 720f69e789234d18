"""Photon: three-level sampled GPU simulation (the paper's contribution)."""

from .bbv import (
    BBVProjector,
    bbv_distance,
    cluster_by_distance,
    gpu_bbv,
    warp_type_key,
)
from .config import PhotonConfig
from .detectors import BBSamplingDetector, WarpSamplingDetector
from .interval import IntervalModel, default_latency
from .kerneldb import KernelDB, KernelPrediction, KernelRecord
from .lsq import StabilityDetector, least_squares_fit
from .online import OnlineAnalysis, analyze_kernel, select_sample
from .photon import AnalysisStore, Photon

__all__ = [
    "AnalysisStore",
    "BBSamplingDetector",
    "BBVProjector",
    "IntervalModel",
    "KernelDB",
    "KernelPrediction",
    "KernelRecord",
    "OnlineAnalysis",
    "Photon",
    "PhotonConfig",
    "StabilityDetector",
    "WarpSamplingDetector",
    "analyze_kernel",
    "bbv_distance",
    "cluster_by_distance",
    "default_latency",
    "gpu_bbv",
    "least_squares_fit",
    "select_sample",
    "warp_type_key",
]
