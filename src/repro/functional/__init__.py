"""Functional (architectural) GPU simulation: memory, kernels, interpreter."""

from .batch import PackProvider, WarpPackExecutor, control_traces
from .executor import FunctionalExecutor
from .kernel import Application, Kernel
from .memory import GlobalMemory, LINE_BYTES, WORDS_PER_LINE, lines_of
from .trace import ControlTrace, WarpTrace

__all__ = [
    "Application",
    "ControlTrace",
    "FunctionalExecutor",
    "GlobalMemory",
    "Kernel",
    "LINE_BYTES",
    "PackProvider",
    "WORDS_PER_LINE",
    "WarpPackExecutor",
    "WarpTrace",
    "control_traces",
    "lines_of",
]
